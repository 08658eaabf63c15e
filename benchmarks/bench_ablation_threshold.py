"""Ablation ``abl-threshold`` — sensitivity to the matching threshold θ.

The paper reports θ = 0.7 "gives the best results" (following the discovery
literature).  This ablation sweeps θ over the Auto-Join benchmark with the
Mistral embedder and reports value-matching P/R/F1 per threshold, which shows
the precision/recall trade-off around the chosen operating point.

``run_engine_theta_sweep`` additionally measures the end-to-end sweep the way
a service runs it: one warm :class:`~repro.core.engine.IntegrationEngine`
serving every θ as a per-request override (each value embedded once) versus a
cold operator instantiated per θ (every value re-embedded each time).

Run with ``pytest benchmarks/bench_ablation_threshold.py --benchmark-only -s``
or ``python benchmarks/bench_ablation_threshold.py``.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence, Tuple

from repro.core import FuzzyFDConfig, FuzzyFullDisjunction, IntegrationEngine
from repro.core.value_matching import ValueMatcher
from repro.datasets import AutoJoinBenchmark
from repro.embeddings import MistralEmbedder
from repro.evaluation import MatchingScores, format_markdown_table, macro_average, score_integration_set

DEFAULT_THRESHOLDS = (0.3, 0.5, 0.6, 0.7, 0.8, 0.9)


def run_threshold_ablation(
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    n_sets: int = 15,
    values_per_column: int = 60,
    seed: int = 42,
) -> Dict[float, MatchingScores]:
    """Macro-averaged value-matching scores of the Mistral matcher per θ."""
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    embedder = MistralEmbedder()
    results: Dict[float, MatchingScores] = {}
    for threshold in thresholds:
        matcher = ValueMatcher(embedder, threshold=threshold)
        per_set = [
            score_integration_set(matcher.match_columns(s.column_values()), s.gold_sets)
            for s in integration_sets
        ]
        results[threshold] = macro_average(per_set)
    return results


def run_engine_theta_sweep(
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    n_sets: int = 8,
    values_per_column: int = 60,
    seed: int = 42,
) -> Dict[str, float]:
    """End-to-end θ-sweep: one warm engine vs a cold operator per θ.

    Returns wall-clock seconds for both shapes plus the warm engine's
    embedding-cache miss count (which must not grow after the first θ).
    """
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    table_sets = [s.tables() for s in integration_sets]

    # Untimed warm-up: pay the process-wide one-time costs (default lexicon
    # construction, binding the solver's compiled routine) before either
    # timer starts, so the comparison measures embedding reuse rather than
    # interpreter warm-up.
    FuzzyFullDisjunction(FuzzyFDConfig()).integrate(table_sets[0])

    engine = IntegrationEngine(FuzzyFDConfig())
    start = time.perf_counter()
    for theta in thresholds:
        for tables in table_sets:
            engine.integrate(tables, threshold=theta)
    warm_seconds = time.perf_counter() - start
    misses_after_sweep = engine.embedding_cache.stats()["misses"]

    start = time.perf_counter()
    for theta in thresholds:
        operator = FuzzyFullDisjunction(FuzzyFDConfig(threshold=theta))
        for tables in table_sets:
            operator.integrate(tables)
    cold_seconds = time.perf_counter() - start

    return {
        "warm_seconds": warm_seconds,
        "cold_seconds": cold_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
        "warm_cache_misses": float(misses_after_sweep),
    }


def report(results: Dict[float, MatchingScores]) -> str:
    rows = [
        [f"{threshold:.1f}", f"{s.precision:.3f}", f"{s.recall:.3f}", f"{s.f1:.3f}"]
        for threshold, s in sorted(results.items())
    ]
    return "\n".join(
        [
            "",
            "Ablation — matching threshold θ (Mistral, Auto-Join benchmark)",
            "",
            format_markdown_table(["θ", "Precision", "Recall", "F1"], rows),
        ]
    )


def test_threshold_ablation(benchmark):
    results = benchmark.pedantic(run_threshold_ablation, rounds=1, iterations=1)
    print(report(results))
    best = max(results, key=lambda threshold: results[threshold].f1)
    # The paper's operating point should be competitive: within a small margin
    # of the best threshold in the sweep.
    assert results[0.7].f1 >= results[best].f1 - 0.05


def test_engine_sweep_reuses_embeddings(benchmark):
    results = benchmark.pedantic(
        run_engine_theta_sweep,
        kwargs=dict(thresholds=(0.5, 0.7, 0.9), n_sets=3, values_per_column=20),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nwarm engine: {results['warm_seconds']:.3f}s, "
        f"cold operators: {results['cold_seconds']:.3f}s "
        f"({results['speedup']:.1f}x), "
        f"warm cache misses: {results['warm_cache_misses']:.0f}"
    )
    # The warm engine must not be slower than the per-θ cold shape.
    assert results["warm_seconds"] <= results["cold_seconds"]


if __name__ == "__main__":
    print(report(run_threshold_ablation()))
    sweep = run_engine_theta_sweep()
    print(
        "\nEnd-to-end θ-sweep (warm IntegrationEngine vs cold per-θ operators)\n\n"
        f"warm engine : {sweep['warm_seconds']:.3f}s "
        f"({sweep['warm_cache_misses']:.0f} embeddings computed)\n"
        f"cold        : {sweep['cold_seconds']:.3f}s\n"
        f"speedup     : {sweep['speedup']:.2f}x"
    )
