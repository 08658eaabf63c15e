"""IntegrationService behaviour: equivalence, deadlines, tracing, accounting.

No pytest-asyncio here on purpose: the tests that await the service drive it
with a fresh ``asyncio.run``, which doubles as a regression test that the
service holds no loop-bound state (a second event loop must work as well as
the first).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.embeddings import EmbedderUnavailable, MistralEmbedder
from repro.obs import TERMINAL_OUTCOMES
from repro.service import (
    DeadlineExceeded,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    IntegrationService,
    ServiceFailure,
)
from repro.service.http import table_to_json
from repro.table import Table


class CountingEmbedder(MistralEmbedder):
    """MistralEmbedder that counts raw (uncached, unstored) embed calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.raw_embeds = 0

    def _embed_texts(self, texts):
        self.raw_embeds += len(texts)
        return super()._embed_texts(texts)


class SlowEmbedder(MistralEmbedder):
    """Embedder that sleeps per raw-embedded text — makes the match stage overrun."""

    def __init__(self, delay_seconds: float, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay_seconds = delay_seconds

    def _embed_texts(self, texts):
        time.sleep(self.delay_seconds * len(texts))
        return super()._embed_texts(texts)


class GatedEmbedder(MistralEmbedder):
    """Embedder that blocks on an event — holds a request mid-flight on demand."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started = threading.Event()
        self.release = threading.Event()

    def _embed_texts(self, texts):
        self.started.set()
        self.release.wait(timeout=30)
        return super()._embed_texts(texts)


def _tables():
    t1 = Table("T1", ["City", "Country"], [("Berlinn", "Germany"), ("Toronto", "Canada")])
    t2 = Table("T2", ["City", "VaxRate"], [("Berlin", "63%"), ("Toronto", "83%")])
    return [t1, t2]


def _serialise(table: Table) -> bytes:
    return json.dumps(table_to_json(table), sort_keys=True, default=str).encode()


class TestServiceEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_response_is_byte_identical_to_direct_engine(
        self, tmp_path, backend, with_store
    ):
        """The serving layer adds admission/deadlines/tracing — never results."""

        def config(suffix):
            return FuzzyFDConfig(
                max_workers=2 if backend != "serial" else 1,
                parallel_backend=backend,
                store_dir=str(tmp_path / f"store_{suffix}") if with_store else None,
                store_mode="readwrite" if with_store else "off",
            )

        direct = IntegrationEngine(config("direct")).integrate(_tables())

        async def serve():
            async with IntegrationService(config("served")) as service:
                return await service.integrate(_tables())

        response = asyncio.run(serve())
        assert isinstance(response, IntegrationResponse)
        assert response.status == "ok"
        assert _serialise(response.result.table) == _serialise(direct.table)

    def test_async_entry_is_the_sync_path(self):
        """``integrate`` awaits nothing: the same table and counters as
        ``integrate_sync``, on the caller's thread, with no thread started."""
        served = IntegrationService(FuzzyFDConfig())
        awaited = IntegrationService(FuzzyFDConfig())
        threads = threading.active_count()
        for _ in range(3):
            direct = served.integrate_sync(_tables())
            response = asyncio.run(awaited.integrate(_tables()))
            assert threading.active_count() == threads
            assert isinstance(response, IntegrationResponse)
            assert _serialise(response.result.table) == _serialise(direct.result.table)
            assert response.trace.counters == direct.trace.counters
        assert awaited.stats().served == served.stats().served == 3

    def test_request_overrides_reach_the_engine(self, covid_tables):
        engine = IntegrationEngine()
        direct = engine.integrate(covid_tables, threshold=0.95)

        async def serve():
            async with IntegrationService() as service:
                return await service.integrate(covid_tables, threshold=0.95)

        response = asyncio.run(serve())
        assert _serialise(response.result.table) == _serialise(direct.table)


class TestTrace:
    def test_successful_response_carries_a_full_trace(self, covid_tables):
        async def serve():
            async with IntegrationService() as service:
                return await service.integrate(covid_tables)

        response = asyncio.run(serve())
        trace = response.trace
        assert trace is not None
        assert set(trace.stage_seconds) == {"align", "match", "integrate"}
        assert all(seconds >= 0.0 for seconds in trace.stage_seconds.values())
        assert trace.queue_wait_seconds >= 0.0
        assert trace.total_seconds > 0.0
        # Cache deltas and ANN counters are always present (0 when idle).
        payload = trace.to_dict()
        for key in (
            "ann_pairs_added",
            "ann_probe_candidates",
            "ann_skew_fallbacks",
            "cache_hits",
            "cache_misses",
            "raw_embed_calls",
        ):
            assert key in payload
        assert trace.cache_misses > 0  # cold cache: the values were embedded

    def test_second_request_hits_the_warm_in_memory_cache(self, covid_tables):
        async def serve():
            async with IntegrationService() as service:
                first = await service.integrate(covid_tables)
                second = await service.integrate(covid_tables)
                return first, second

        first, second = asyncio.run(serve())
        assert first.trace.cache_misses > 0
        assert second.trace.cache_misses == 0
        assert second.trace.raw_embed_calls == 0
        assert second.trace.cache_hits > 0

    def test_warm_store_restart_serves_with_zero_raw_embeds(self, tmp_path, covid_tables):
        """The acceptance criterion: warm restart -> raw_embed_calls == 0."""

        def config():
            return FuzzyFDConfig(
                embedder=CountingEmbedder(),
                store_dir=str(tmp_path / "store"),
                store_mode="readwrite",
            )

        async def serve_once(cfg):
            async with IntegrationService(cfg) as service:
                return await service.integrate(covid_tables)

        cold_config = config()
        cold = asyncio.run(serve_once(cold_config))
        # The cold side moves both counters by the number of distinct texts,
        # so the warm zeros below are not a counter that cannot move.
        assert cold.trace.raw_embed_calls == cold_config.embedder.raw_embeds > 0
        assert cold.trace.store_published_rows == cold_config.embedder.raw_embeds

        warm_config = config()
        warm = asyncio.run(serve_once(warm_config))
        assert warm.trace.raw_embed_calls == 0
        assert warm_config.embedder.raw_embeds == 0
        assert warm.trace.cache_store_hits > 0
        assert warm.result.table.rows == cold.result.table.rows

    def test_latency_quantiles_populate(self, covid_tables):
        async def serve():
            async with IntegrationService() as service:
                for _ in range(3):
                    await service.integrate(covid_tables)
                return service.stats()

        stats = asyncio.run(serve())
        assert stats.latency_p50_seconds > 0.0
        assert stats.latency_p99_seconds >= stats.latency_p50_seconds


class TestDeadline:
    def test_slow_match_stage_exceeds_the_budget_with_a_partial_trace(self):
        # Four raw embeds at 40 ms each put the match stage at >= 160 ms,
        # far past the 75 ms budget; align (name-based) stays well under it.
        config = FuzzyFDConfig(embedder=SlowEmbedder(delay_seconds=0.04))

        async def serve():
            async with IntegrationService(config) as service:
                response = await service.integrate(_tables(), deadline_ms=75.0)
                return response, service.stats()

        response, stats = asyncio.run(serve())
        assert isinstance(response, DeadlineExceeded)
        assert response.status == "deadline_exceeded"
        # The budget ran out while matching, so the overrun is detected at
        # the next boundary: the integrate stage never starts.
        assert response.stage == "integrate"
        trace = response.trace
        assert trace is not None and trace.status == "deadline_exceeded"
        assert "match" in trace.stage_seconds
        assert "integrate" not in trace.stage_seconds
        assert stats.deadline_exceeded == 1
        assert stats.served == 0

    def test_generous_budget_completes_normally(self, covid_tables):
        async def serve():
            async with IntegrationService(deadline_ms=60_000.0) as service:
                return await service.integrate(covid_tables)

        response = asyncio.run(serve())
        assert response.status == "ok"
        assert response.trace.deadline_ms == 60_000.0

    def test_default_deadline_comes_from_the_config(self):
        config = FuzzyFDConfig(
            embedder=SlowEmbedder(delay_seconds=0.04), service_deadline_ms=75.0
        )

        async def serve():
            async with IntegrationService(config) as service:
                return await service.integrate(_tables())

        assert asyncio.run(serve()).status == "deadline_exceeded"


class TestAdmission:
    def test_queue_wait_is_admission_only(self):
        """No request waits behind another: the wait ends before the first
        stage starts and is a small part of the request's own time."""
        service = IntegrationService(FuzzyFDConfig(embedder=SlowEmbedder(delay_seconds=0.01)))
        trace = service.integrate_sync(_tables()).trace
        assert 0.0 <= trace.queue_wait_seconds < trace.stage_seconds["match"]
        assert trace.queue_wait_seconds + sum(trace.stage_seconds.values()) <= trace.total_seconds
        assert trace.to_dict()["queue_wait_seconds"] == trace.queue_wait_seconds

    def test_request_ids_increase_over_admitted_and_refused_requests(self):
        service = IntegrationService()
        ids = [service.integrate_sync(_tables()).request_id for _ in range(2)]
        service.close()
        ids.append(service.integrate_sync(_tables()).request_id)
        assert ids == [1, 2, 3]

    def test_a_closed_service_refuses_before_any_work(self):
        embedder = CountingEmbedder()
        service = IntegrationService(FuzzyFDConfig(embedder=embedder))
        service.close()
        response = service.integrate_sync(_tables())
        assert isinstance(response, ServiceFailure) and response.trace is None
        assert embedder.raw_embeds == 0
        assert service.engine.requests_served == 0
        assert service.health()["requests_served"] == 0

    def test_a_running_request_finishes_after_close(self):
        embedder = GatedEmbedder()
        service = IntegrationService(FuzzyFDConfig(embedder=embedder))
        responses = []
        worker = threading.Thread(target=lambda: responses.append(service.integrate_sync(_tables())))
        worker.start()
        try:
            assert embedder.started.wait(timeout=30)
            running = service.stats()
            service.close()
        finally:
            embedder.release.set()
            worker.join(timeout=30)
        assert (running.submitted, running.in_flight) == (1, 1)
        assert [response.status for response in responses] == ["ok"]
        assert service.integrate_sync(_tables()).status == "error"
        stats = service.stats()
        assert (stats.served, stats.failed, stats.in_flight) == (1, 1, 0)

    def test_concurrent_callers_reconcile(self):
        """Callers on several threads each run their own request; every one
        is counted once."""
        service = IntegrationService()
        responses = []
        threads = [
            threading.Thread(target=lambda: responses.append(service.integrate_sync(_tables())))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert [response.status for response in responses] == ["ok"] * 4
        assert len({response.request_id for response in responses}) == 4
        stats = service.stats()
        outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
        assert outcomes + stats.in_flight == stats.submitted == 4
        assert stats.served == 4 and stats.in_flight == 0

    def test_the_context_manager_closes_the_service(self):
        async def serve():
            async with IntegrationService() as service:
                inside = await service.integrate(_tables())
            return service, inside

        service, inside = asyncio.run(serve())
        assert inside.status == "ok"
        assert service.integrate_sync(_tables()).status == "error"


class TestRequestDeadline:
    def test_a_request_deadline_replaces_the_service_default(self):
        config = FuzzyFDConfig(
            embedder=SlowEmbedder(delay_seconds=0.04), service_deadline_ms=75.0
        )
        service = IntegrationService(config)
        response = service.integrate_sync(_tables(), deadline_ms=60_000.0)
        assert response.status == "ok"
        assert response.trace.deadline_ms == 60_000.0

    def test_the_service_deadline_overrides_the_config(self):
        config = FuzzyFDConfig(service_deadline_ms=75.0)
        assert IntegrationService(config, deadline_ms=60_000.0).default_deadline_ms == 60_000.0
        assert IntegrationService(config).default_deadline_ms == 75.0

    def test_a_deadline_outcome_reconciles(self):
        service = IntegrationService(FuzzyFDConfig(embedder=SlowEmbedder(delay_seconds=0.04)))
        assert service.integrate_sync(_tables(), deadline_ms=75.0).status == "deadline_exceeded"
        assert service.integrate_sync(_tables()).status == "ok"
        stats = service.stats()
        outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
        assert outcomes + stats.in_flight == stats.submitted == 2
        assert (stats.deadline_exceeded, stats.served) == (1, 1)
        assert service.health()["requests_served"] == 1


class TestFailuresAndLifecycle:
    def test_pipeline_error_becomes_a_service_failure(self, covid_tables):
        async def serve():
            async with IntegrationService() as service:
                response = await service.integrate(covid_tables, not_a_knob=1)
                return response, service.stats()

        response, stats = asyncio.run(serve())
        assert isinstance(response, ServiceFailure)
        assert "not_a_knob" in response.error
        assert stats.failed == 1 and stats.served == 0

    def test_closed_service_fails_new_requests(self, covid_tables):
        async def serve():
            service = IntegrationService()
            await service.integrate(covid_tables)
            service.close()
            return service, await service.integrate(covid_tables)

        service, response = asyncio.run(serve())
        assert response.status == "error"
        assert "closed" in response.error
        stats = service.stats()
        outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
        assert outcomes + stats.in_flight == stats.submitted == 2
        assert (stats.served, stats.failed, stats.in_flight) == (1, 1, 0)

    def test_an_unavailable_embedder_is_a_response(self):
        class UnavailableEmbedder(MistralEmbedder):
            def _embed_texts(self, texts):
                raise EmbedderUnavailable("backend down")

        service = IntegrationService(FuzzyFDConfig(embedder=UnavailableEmbedder()))
        response = service.integrate_sync(_tables())
        assert isinstance(response, EmbedderUnavailableResponse)
        assert (response.status, response.error, response.trace) == ("unavailable", "backend down", None)
        stats = service.stats()
        outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
        assert outcomes + stats.in_flight == stats.submitted == 1
        assert stats.unavailable == 1

    def test_the_service_serves_the_engine_it_is_given(self):
        engine = IntegrationEngine()
        service = IntegrationService(engine)
        assert service.engine is engine
        service.integrate_sync(_tables())
        assert engine.requests_served == 1
        built = IntegrationService("scale").engine.config
        assert (built.fd_algorithm, built.degraded_mode) == ("alite", "surface")

    def test_invalid_knobs_fail_fast(self):
        with pytest.raises(TypeError, match="max_pending"):
            IntegrationService(IntegrationEngine(), max_pending=1)
        with pytest.raises(ValueError, match="deadline_ms"):
            IntegrationService(deadline_ms=0.0)
