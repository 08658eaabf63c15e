"""Chaos suite: fault-injected embedders through the full pipeline.

The scenarios the fault-tolerance layer must hold up under:

* transient embedding failures masked by retries — output byte-identical to
  a clean run;
* a hard-down embedder with ``degraded_mode="surface"`` — answers keep
  flowing from exact + surface-blocking matching, marked degraded;
* breaker recovery — once the backend heals and the reset window elapses,
  results are byte-identical to a never-failed run.

Every scenario is deterministic (scripted :class:`FaultInjector`, fake
clock, no wall-time dependence) and runs on the thread backend with two
workers.
"""

from __future__ import annotations

import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.embeddings import MistralEmbedder
from repro.embeddings.resilient import EmbedderUnavailable, ResilientEmbedder
from repro.table import Table
from repro.testing import FaultInjector, FaultyEmbedder

BACKEND = "thread"


def _tables():
    return [
        Table(
            "T1",
            ["City", "Country"],
            [
                ("Berlinn", "Germany"),
                ("Toronto", "Canada"),
                ("Barcelona", "Spain"),
                ("New Delhi", "India"),
            ],
        ),
        Table(
            "T2",
            ["Country", "City", "VaxRate"],
            [
                ("CA", "Toronto", "83%"),
                ("US", "Boston", "62%"),
                ("DE", "Berlin", "63%"),
                ("ES", "Barcelona", "82%"),
            ],
        ),
        Table(
            "T3",
            ["City", "TotalCases"],
            [("Berlin", "1.4M"), ("barcelona", "2.68M"), ("Boston", "263K")],
        ),
    ]


def _config(**kwargs):
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("parallel_backend", BACKEND)
    return FuzzyFDConfig(**kwargs)


def _wrapped(injector, *, clock=None, **knobs):
    """A resilient embedder over a fault-injected Mistral embedder."""
    knobs.setdefault("retry_backoff_ms", 0.01)
    kwargs = dict(knobs, sleep=lambda seconds: None)
    if clock is not None:
        kwargs["clock"] = clock
    return ResilientEmbedder(FaultyEmbedder(MistralEmbedder(), injector), **kwargs)


class FakeClock:
    def __init__(self) -> None:
        self.now = 500.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


@pytest.fixture()
def clean_result():
    return IntegrationEngine(_config()).integrate(_tables())


class TestRetriesMaskTransientFailures:
    def test_output_byte_identical_to_clean_run(self, clean_result):
        injector = FaultInjector()
        injector.script("embed_many", fail_cycle=(2, 3))
        injector.script("embed", fail_cycle=(2, 3))
        engine = IntegrationEngine(
            _config(embedder=_wrapped(injector, retry_max_attempts=3))
        )
        result = engine.integrate(_tables())
        assert result.table.columns == clean_result.table.columns
        assert result.table.rows == clean_result.table.rows
        # Faults genuinely fired and were masked by retries.
        stats = injector.statistics()
        assert any(op["injected"] > 0 for op in stats.values())
        assert engine.resilience_state()["state"] == "closed"
        assert engine.resilience_state()["retries"] > 0

    def test_retry_counters_surface_in_match_statistics(self):
        injector = FaultInjector().script("embed_many", fail_cycle=(1, 2))
        engine = IntegrationEngine(
            _config(embedder=_wrapped(injector, retry_max_attempts=2))
        )
        result = engine.integrate(_tables())
        total_retries = sum(
            vm.statistics.get("embedder_retries", 0.0)
            for vm in result.value_matching.values()
        )
        assert total_retries > 0


class TestOpenBreakerDegradedMode:
    def test_surface_mode_serves_degraded_results(self):
        injector = FaultInjector()
        injector.script("embed_many", fail_all=True)
        injector.script("embed", fail_all=True)
        engine = IntegrationEngine(
            _config(
                embedder=_wrapped(
                    injector, retry_max_attempts=1, breaker_failure_threshold=1
                ),
                degraded_mode="surface",
            )
        )
        result = engine.integrate(_tables())
        # Exact matches still merge: Toronto/Boston/Barcelona appear once.
        city_values = {row[result.table.columns.index("City")] for row in result.table.rows}
        assert "Toronto" in city_values
        assert any(
            vm.statistics.get("degraded", 0.0) > 0
            for vm in result.value_matching.values()
        )
        assert engine.resilience_state()["state"] == "open"

    def test_off_mode_propagates_unavailability(self):
        injector = FaultInjector()
        injector.script("embed_many", fail_all=True)
        injector.script("embed", fail_all=True)
        engine = IntegrationEngine(
            _config(
                embedder=_wrapped(
                    injector, retry_max_attempts=1, breaker_failure_threshold=1
                ),
                degraded_mode="off",
            )
        )
        with pytest.raises(EmbedderUnavailable):
            engine.integrate(_tables())

    def test_per_request_override_enables_surface_mode(self):
        injector = FaultInjector()
        injector.script("embed_many", fail_all=True)
        injector.script("embed", fail_all=True)
        engine = IntegrationEngine(
            _config(
                embedder=_wrapped(
                    injector, retry_max_attempts=1, breaker_failure_threshold=1
                ),
                degraded_mode="off",
            )
        )
        result = engine.integrate(_tables(), degraded_mode="surface")
        assert any(
            vm.statistics.get("degraded", 0.0) > 0
            for vm in result.value_matching.values()
        )


class TestBreakerRecovery:
    def test_recovery_restores_byte_identical_results(self, clean_result):
        clock = FakeClock()
        injector = FaultInjector()
        injector.script("embed_many", fail_all=True)
        injector.script("embed", fail_all=True)
        engine = IntegrationEngine(
            _config(
                embedder=_wrapped(
                    injector,
                    clock=clock,
                    retry_max_attempts=1,
                    breaker_failure_threshold=1,
                    breaker_reset_ms=1000.0,
                ),
                degraded_mode="surface",
            )
        )
        degraded = engine.integrate(_tables())
        assert any(
            vm.statistics.get("degraded", 0.0) > 0
            for vm in degraded.value_matching.values()
        )
        # The backend heals; once the reset window elapses the half-open
        # probe succeeds and full-fidelity matching resumes.
        injector.heal()
        clock.advance_ms(1001.0)
        recovered = engine.integrate(_tables())
        assert engine.resilience_state()["state"] == "closed"
        assert recovered.table.columns == clean_result.table.columns
        assert recovered.table.rows == clean_result.table.rows
        assert not any(
            vm.statistics.get("degraded", 0.0) > 0
            for vm in recovered.value_matching.values()
        )


class TestBackendDeterminism:
    def test_fault_scenario_identical_across_serial_and_parallel(self):
        results = []
        for backend in ("serial", BACKEND):
            injector = FaultInjector()
            injector.script("embed_many", fail_cycle=(2, 3))
            injector.script("embed", fail_cycle=(2, 3))
            engine = IntegrationEngine(
                _config(
                    embedder=_wrapped(injector, retry_max_attempts=3),
                    parallel_backend=backend,
                )
            )
            results.append(engine.integrate(_tables()))
        assert results[0].table.columns == results[1].table.columns
        assert results[0].table.rows == results[1].table.rows
