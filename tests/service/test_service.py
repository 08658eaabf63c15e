"""IntegrationService behaviour: equivalence, admission, deadlines, tracing.

No pytest-asyncio here on purpose: every test drives the service with a
fresh ``asyncio.run``, which doubles as a regression test that the service
holds no loop-bound state (a second event loop must work as well as the
first).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.embeddings import MistralEmbedder
from repro.obs import TERMINAL_OUTCOMES
from repro.service import (
    DeadlineExceeded,
    IntegrationResponse,
    IntegrationService,
    ServiceFailure,
    ServiceOverloaded,
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


class TestAdmissionControl:
    def test_saturation_rejects_fast_and_counters_reconcile(self):
        embedder = GatedEmbedder()
        config = FuzzyFDConfig(embedder=embedder)

        async def scenario():
            service = IntegrationService(config, max_pending=1)
            in_flight = [
                asyncio.ensure_future(service.integrate(_tables())) for _ in range(2)
            ]
            # Let both coroutines through admission (their admission check is
            # synchronous, before their first await).
            await asyncio.sleep(0)
            saturated = service.stats()
            started = time.perf_counter()
            rejected = await service.integrate(_tables())
            rejection_seconds = time.perf_counter() - started
            embedder.release.set()
            served = await asyncio.gather(*in_flight)
            return service, saturated, rejected, rejection_seconds, served

        service, saturated, rejected, rejection_seconds, served = asyncio.run(scenario())
        assert saturated.in_flight == 2  # 1 executing + 1 pending == capacity
        assert isinstance(rejected, ServiceOverloaded)
        assert rejected.max_pending == 1
        assert rejection_seconds < 0.050  # the acceptance criterion
        assert all(response.status == "ok" for response in served)

        stats = service.stats()
        assert stats.submitted == 3
        outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
        assert outcomes + stats.in_flight == stats.submitted
        assert stats.served == 2 and stats.rejected == 1 and stats.in_flight == 0

    def test_zero_pending_rejects_whenever_the_slot_is_busy(self):
        embedder = GatedEmbedder()
        config = FuzzyFDConfig(embedder=embedder)

        async def scenario():
            service = IntegrationService(config, max_pending=0)
            first = asyncio.ensure_future(service.integrate(_tables()))
            await asyncio.sleep(0)
            rejected = await service.integrate(_tables())
            embedder.release.set()
            return rejected, await first

        rejected, served = asyncio.run(scenario())
        assert rejected.status == "overloaded"
        assert served.status == "ok"

    def test_queue_wait_lands_in_the_trace(self):
        embedder = GatedEmbedder()
        config = FuzzyFDConfig(embedder=embedder)

        async def scenario():
            service = IntegrationService(config, max_pending=4)
            first = asyncio.ensure_future(service.integrate(_tables()))
            await asyncio.sleep(0)

            def _release_when_started():
                embedder.started.wait(timeout=30)
                time.sleep(0.05)
                embedder.release.set()

            threading.Thread(target=_release_when_started, daemon=True).start()
            second = asyncio.ensure_future(service.integrate(_tables()))
            return await asyncio.gather(first, second)

        first, second = asyncio.run(scenario())
        assert first.status == "ok" and second.status == "ok"
        # The second request waited for the first's slot; the wait is charged
        # to its trace, not hidden.
        assert second.trace.queue_wait_seconds > 0.0


class ThreadRecordingEmbedder(MistralEmbedder):
    """Embedder that records the thread of every raw embed call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = []

    def _embed_texts(self, texts):
        self.threads.append(threading.current_thread())
        return super()._embed_texts(texts)


def _distinct_tables(index):
    return [
        Table(f"A{index}", ["City", "Rank"], [(f"town{index}a", "1"), (f"town{index}b", "2")]),
        Table(f"B{index}", ["City", "Size"], [(f"town{index}aa", "9"), (f"town{index}bb", "8")]),
    ]


class TestServiceThread:
    def test_async_requests_run_on_one_service_thread(self):
        embedder = ThreadRecordingEmbedder()

        async def serve():
            service = IntegrationService(FuzzyFDConfig(embedder=embedder), max_pending=8)
            responses = await asyncio.gather(*(service.integrate(_distinct_tables(index)) for index in range(4)))
            service.close()
            return responses

        responses = asyncio.run(serve())
        assert all(isinstance(response, IntegrationResponse) for response in responses)
        # Each request embedded its own values, all on the one thread.
        assert len(embedder.threads) >= 4
        assert len(set(embedder.threads)) == 1
        assert embedder.threads[0] is not threading.main_thread()
        assert not embedder.threads[0].is_alive()  # close() stopped it

    def test_sync_requests_never_start_the_service_thread(self):
        embedder = ThreadRecordingEmbedder()
        service = IntegrationService(FuzzyFDConfig(embedder=embedder))
        for index in range(2):
            assert isinstance(service.integrate_sync(_distinct_tables(index)), IntegrationResponse)
        assert set(embedder.threads) == {threading.current_thread()}
        assert service._executor is None
        service.close()

    def test_the_service_thread_outlives_each_event_loop(self):
        embedder = ThreadRecordingEmbedder()
        service = IntegrationService(FuzzyFDConfig(embedder=embedder))
        for index in range(3):
            response = asyncio.run(service.integrate(_distinct_tables(index)))
            assert isinstance(response, IntegrationResponse)
        assert len(set(embedder.threads)) == 1 and embedder.threads[0].is_alive()
        service.close()
        assert not embedder.threads[0].is_alive()
        assert service.stats().served == 3


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
            return await service.integrate(covid_tables)

        response = asyncio.run(serve())
        assert response.status == "error"
        assert "closed" in response.error

    def test_invalid_knobs_fail_fast(self):
        with pytest.raises(ValueError, match="max_pending"):
            IntegrationService(max_pending=-1)
        with pytest.raises(ValueError, match="deadline_ms"):
            IntegrationService(deadline_ms=0.0)
