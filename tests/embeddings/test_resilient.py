"""Unit tests for the retry/circuit-breaker embedder wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.core.engine import REQUEST_OVERRIDES
from repro.embeddings import MistralEmbedder
from repro.embeddings.registry import EMBEDDERS
from repro.embeddings.resilient import (
    DelegatingEmbedder,
    EmbedderUnavailable,
    ResilientEmbedder,
)
from repro.obs import BREAKER_COUNTERS
from repro.service import IntegrationService
from repro.table import Table
from repro.testing import FaultInjector, FaultyEmbedder, TransientFault

VALUES = ["Berlin", "Toronto", "Barcelona"]


class FakeClock:
    """Monotonic clock under test control (milliseconds advance explicitly)."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


def _resilient(injector=None, *, sleeps=None, clock=None, **knobs):
    """A ResilientEmbedder over a (possibly faulty) MistralEmbedder."""
    inner = MistralEmbedder()
    if injector is not None:
        inner = FaultyEmbedder(inner, injector)
    kwargs = dict(knobs)
    kwargs.setdefault("retry_backoff_ms", 0.01)
    if sleeps is not None:
        kwargs["sleep"] = sleeps.append
    else:
        kwargs["sleep"] = lambda seconds: None
    if clock is not None:
        kwargs["clock"] = clock
    return ResilientEmbedder(inner, **kwargs)


class TestDelegation:
    def test_mirrors_identity_and_cache(self):
        inner = MistralEmbedder()
        wrapped = ResilientEmbedder(inner)
        assert wrapped.name == inner.name
        assert wrapped.dimension == inner.dimension
        assert wrapped.cache is inner.cache

    def test_unknown_attributes_reach_the_inner_embedder(self):
        inner = MistralEmbedder()
        inner.custom_marker = 42
        wrapped = ResilientEmbedder(inner)
        assert wrapped.custom_marker == 42

    def test_delegating_embedder_is_transparent_for_embedding(self):
        inner = MistralEmbedder()
        wrapped = DelegatingEmbedder(inner)
        np.testing.assert_array_equal(
            wrapped.embed_many(VALUES), MistralEmbedder().embed_many(VALUES)
        )

    def test_double_wrap_rejected(self):
        wrapped = ResilientEmbedder(MistralEmbedder())
        with pytest.raises(ValueError, match="another"):
            ResilientEmbedder(wrapped)


class TestValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"retry_max_attempts": 0},
            {"retry_backoff_ms": -1.0},
            {"breaker_failure_threshold": 0},
            {"breaker_reset_ms": 0.0},
        ],
    )
    def test_bad_knobs_rejected_eagerly(self, knobs):
        with pytest.raises(ValueError, match=next(iter(knobs))):
            ResilientEmbedder(MistralEmbedder(), **knobs)


class TestRetries:
    def test_retries_mask_transient_failures_byte_identical(self):
        injector = FaultInjector().script("embed_many", fail_cycle=(2, 3))
        wrapped = _resilient(injector, retry_max_attempts=3)
        result = wrapped.embed_many(VALUES)
        np.testing.assert_array_equal(result, MistralEmbedder().embed_many(VALUES))
        stats = wrapped.resilience_stats()
        assert stats["retries"] == 2
        assert wrapped.state() == "closed"

    def test_exhausted_retries_reraise_the_original_error(self):
        injector = FaultInjector().script("embed_many", fail_all=True)
        wrapped = _resilient(injector, retry_max_attempts=2, breaker_failure_threshold=5)
        with pytest.raises(TransientFault):
            wrapped.embed_many(VALUES)
        # The breaker did not trip, so no EmbedderUnavailable — callers see
        # exactly what the backend raised.
        assert wrapped.state() == "closed"
        assert wrapped.resilience_stats()["failures"] == 1

    def test_backoff_sequence_is_deterministic_and_capped(self):
        runs = []
        for _ in range(2):
            sleeps: list = []
            injector = FaultInjector().script("embed_many", fail_all=True)
            wrapped = _resilient(
                injector,
                sleeps=sleeps,
                retry_max_attempts=6,
                retry_backoff_ms=100.0,
                breaker_failure_threshold=10,
            )
            with pytest.raises(TransientFault):
                wrapped.embed_many(VALUES)
            runs.append(sleeps)
        assert runs[0] == runs[1]
        assert len(runs[0]) == 5
        # Pre-jitter schedule is 100, 200, 400, 800, 800 ms (capped at 8x);
        # jitter scales each by [0.5, 1.0).
        for observed, base_ms in zip(runs[0], [100, 200, 400, 800, 800]):
            assert base_ms * 0.5 / 1000.0 <= observed < base_ms / 1000.0


class TestBreaker:
    def test_opens_after_threshold_and_short_circuits(self):
        injector = FaultInjector().script("embed_many", fail_all=True)
        clock = FakeClock()
        wrapped = _resilient(
            injector,
            clock=clock,
            retry_max_attempts=1,
            breaker_failure_threshold=2,
            breaker_reset_ms=1000.0,
        )
        with pytest.raises(TransientFault):
            wrapped.embed_many(VALUES)
        with pytest.raises(EmbedderUnavailable) as tripped:
            wrapped.embed_many(VALUES)
        assert tripped.value.retry_after_ms == pytest.approx(1000.0)
        assert isinstance(tripped.value.__cause__, TransientFault)
        assert wrapped.state() == "open"

        calls_before = injector.statistics()["embed_many"]["calls"]
        with pytest.raises(EmbedderUnavailable) as short:
            wrapped.embed_many(VALUES)
        # Short-circuited: the inner embedder was never touched.
        assert injector.statistics()["embed_many"]["calls"] == calls_before
        assert 0.0 < short.value.retry_after_ms <= 1000.0
        assert wrapped.resilience_stats()["breaker_short_circuits"] == 1

    def test_half_open_probe_success_closes(self):
        injector = FaultInjector().script("embed_many", fail_all=True)
        clock = FakeClock()
        wrapped = _resilient(
            injector,
            clock=clock,
            retry_max_attempts=1,
            breaker_failure_threshold=1,
            breaker_reset_ms=1000.0,
        )
        with pytest.raises(EmbedderUnavailable):
            wrapped.embed_many(VALUES)
        injector.heal()
        clock.advance_ms(1001.0)
        assert wrapped.state() == "half_open"
        result = wrapped.embed_many(VALUES)
        np.testing.assert_array_equal(result, MistralEmbedder().embed_many(VALUES))
        stats = wrapped.resilience_stats()
        assert wrapped.state() == "closed"
        assert stats["half_open_probes"] == 1
        assert stats["breaker_closes"] == 1

    def test_half_open_probe_failure_reopens_full_window(self):
        injector = FaultInjector().script("embed_many", fail_all=True)
        clock = FakeClock()
        wrapped = _resilient(
            injector,
            clock=clock,
            retry_max_attempts=1,
            breaker_failure_threshold=1,
            breaker_reset_ms=1000.0,
        )
        with pytest.raises(EmbedderUnavailable):
            wrapped.embed_many(VALUES)
        clock.advance_ms(1001.0)
        with pytest.raises(EmbedderUnavailable):
            wrapped.embed_many(VALUES)  # the probe fails
        assert wrapped.state() == "open"
        assert wrapped.retry_after_ms() == pytest.approx(1000.0)

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        wrapped = _resilient(
            None,
            clock=clock,
            retry_max_attempts=1,
            breaker_failure_threshold=1,
            breaker_reset_ms=1000.0,
        )
        injector = FaultInjector().script("embed_many", fail_all=True)
        wrapped.inner = FaultyEmbedder(wrapped.inner, injector)
        with pytest.raises(EmbedderUnavailable):
            wrapped.embed_many(VALUES)
        clock.advance_ms(1001.0)
        # First admission wins the probe slot; a concurrent second caller is
        # short-circuited until the probe resolves.
        assert wrapped._admit() is True
        with pytest.raises(EmbedderUnavailable):
            wrapped._admit()


#: The policy every engine wrapped its embedder in before engines stopped
#: wrapping: three attempts, 50 ms backoff, open after 5 failures for 30 s.
FORMER_DEFAULT_POLICY = dict(
    retry_max_attempts=3, retry_backoff_ms=50, breaker_failure_threshold=5, breaker_reset_ms=30000
)
#: The counters only a wrapped embedder reports.
RESILIENCE_COUNTERS = ("embedder_retries", "breaker_opens", "breaker_short_circuits")


class TestEngineIntegration:
    def test_the_engine_embeds_with_the_embedder_it_is_given(self):
        embedder = MistralEmbedder()
        assert IntegrationEngine(FuzzyFDConfig(embedder=embedder)).embedder is embedder
        bare = IntegrationEngine()
        assert not isinstance(bare.embedder, ResilientEmbedder)
        assert bare.resilience_state() == {"state": "closed"}

    def test_caller_supplied_wrapper_passes_through(self):
        wrapped = ResilientEmbedder(MistralEmbedder(), retry_max_attempts=9)
        engine = IntegrationEngine(FuzzyFDConfig(embedder=wrapped))
        assert engine.embedder is wrapped
        assert engine.embedder.retry_max_attempts == 9

    @pytest.mark.parametrize("store", ["off", "on"])
    @pytest.mark.parametrize("preset", ["paper", "scale"])
    def test_a_wrapper_around_a_healthy_embedder_changes_only_its_counters(
        self, tmp_path, covid_tables, small_autojoin_sets, ordered_digest, preset, store
    ):
        # The former default wrapper beside a bare engine: the same rows, order,
        # provenance, match sets and counters, request after request.  Under
        # "scale" a cutoff of 1 sends every column pair down the blocked route.
        knobs = {"blocking_cutoff": 1} if preset == "scale" else {}
        requests = [covid_tables, small_autojoin_sets[0].tables(), covid_tables]
        observed = {}
        for name, embedder in (
            ("wrapped", ResilientEmbedder(MistralEmbedder(), **FORMER_DEFAULT_POLICY)),
            ("bare", MistralEmbedder()),
        ):
            if store == "on":
                knobs.update(store_dir=str(tmp_path / name), store_mode="readwrite")
            engine = IntegrationEngine(FuzzyFDConfig.preset(preset).replace(embedder=embedder, **knobs))
            observed[name] = []
            for tables in requests:
                result = engine.integrate(tables)
                counters = {key: value for key, value in result.timings.items() if not key.endswith("_seconds")}
                if name == "wrapped":
                    assert [counters.pop(key) for key in RESILIENCE_COUNTERS] == [0.0, 0.0, 0.0]
                assert not set(RESILIENCE_COUNTERS) & set(counters)
                observed[name].append((
                    result.table.columns,
                    ordered_digest(result.table.rows, result.table.provenance),
                    {group: matched.sets for group, matched in result.value_matching.items()},
                    counters,
                ))
        assert observed["wrapped"] == observed["bare"]
        if store == "on":
            assert observed["bare"][0][3]["store_published_rows"] > 0

    def test_the_chaos_embedder_opens_its_breaker_on_its_first_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_EMBED_FAILURES", "all")
        chaos = EMBEDDERS.create("chaos")
        with pytest.raises(EmbedderUnavailable):
            chaos.embed_many(VALUES)
        assert chaos.state() == "open"
        assert chaos.injector.statistics()["embed_many"] == {"calls": 1, "injected": 1}
        stats = chaos.resilience_stats()
        assert (stats["retries"], stats["failures"], stats["breaker_opens"]) == (0, 1, 1)


    def test_the_chaos_embedder_without_a_schedule_embeds_like_its_inner(self, monkeypatch):
        for variable in ("REPRO_CHAOS_INNER", "REPRO_CHAOS_EMBED_FAILURES", "REPRO_CHAOS_EMBED_LATENCY_MS"):
            monkeypatch.delenv(variable, raising=False)
        chaos = EMBEDDERS.create("chaos")
        assert isinstance(chaos, ResilientEmbedder)
        assert (chaos.retry_max_attempts, chaos.retry_backoff_ms, chaos.breaker_failure_threshold) == (1, 0, 1)
        np.testing.assert_array_equal(chaos.embed_many(VALUES), MistralEmbedder().embed_many(VALUES))
        assert chaos.state() == "closed"
        assert chaos.injector.statistics()["embed_many"] == {"calls": 1, "injected": 0}

    def test_a_bare_engine_serves_with_zero_breaker_counters(self):
        # No wrapper, no breaker: the trace, /healthz and /stats read every
        # resilience counter as 0 and the state as closed, as they did when the
        # engine wrapped a healthy embedder.
        service = IntegrationService(IntegrationEngine())
        try:
            tables = [Table("a", ["City"], [("Berlin",)]), Table("b", ["City"], [("Berlinn",)])]
            response = service.integrate_sync(tables)
            assert response.status == "ok"
            assert {key: response.trace.counters[key] for key in RESILIENCE_COUNTERS} == dict.fromkeys(
                RESILIENCE_COUNTERS, 0.0
            )
            health = service.health()
            assert health["requests_served"] == 1
            assert health["breaker"] == {
                **dict.fromkeys(BREAKER_COUNTERS, 0), "state": "closed", "retry_after_ms": 0.0
            }
            stats = service.stats()
            assert (stats.breaker_state, stats.embedder_retries, stats.breaker_opens) == ("closed", 0, 0)
        finally:
            service.close()


class TestEnginePolicy:
    """Retry and breaker settings belong to the wrapper the engine is given,
    like its breaker state; no request overrides them."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("retry_max_attempts", 1),
            ("retry_backoff_ms", 1.0),
            ("breaker_failure_threshold", 2),
            ("breaker_reset_ms", 10.0),
        ],
    )
    def test_a_request_cannot_override_the_policy(self, knob, value):
        engine = IntegrationEngine()
        tables = [Table("a", ["City"], [("Berlin",)]), Table("b", ["City"], [("Berlinn",)])]
        with pytest.raises(TypeError, match=rf"unknown per-request override\(s\) \['{knob}'\]"):
            engine.integrate(tables, **{knob: value})
        assert knob not in REQUEST_OVERRIDES
        assert engine.requests_served == 0

    def test_the_engine_policy_serves_every_request(self):
        injector = FaultInjector().script("embed_many", fail_all=True)
        engine = IntegrationEngine(FuzzyFDConfig(embedder=ResilientEmbedder(
            FaultyEmbedder(MistralEmbedder(), injector),
            retry_max_attempts=2,
            retry_backoff_ms=0.01,
            breaker_failure_threshold=99,
        )))
        for values in (VALUES, ["Lisbon", "Porto"]):
            tables = [Table("a", ["City"], [(value,) for value in values]), Table("b", ["City"], [(values[0] + "n",)])]
            with pytest.raises(TransientFault):
                engine.integrate(tables)
        # Two attempts per request, one retry between them, in both requests.
        state = engine.resilience_state()
        assert (state["retries"], state["failures"], state["state"]) == (2, 2, "closed")
