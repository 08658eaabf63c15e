"""Ablation ``abl-assignment`` — choice of bipartite assignment solver.

The paper uses scipy's linear sum assignment.  This ablation compares it with
the greedy heuristic (cheaper, possibly less effective) on the Auto-Join
benchmark.  (The from-scratch Hungarian that must match scipy exactly is a
test oracle, ``repro.testing.hungarian``, checked in tier-1.)

Run with ``pytest benchmarks/bench_ablation_assignment.py --benchmark-only -s``
or ``python benchmarks/bench_ablation_assignment.py``.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from repro.core.value_matching import ValueMatcher
from repro.datasets import AutoJoinBenchmark
from repro.embeddings import MistralEmbedder
from repro.evaluation import format_markdown_table, macro_average, score_integration_set
from repro.matching.assignment import get_assignment_solver

DEFAULT_SOLVERS = ("scipy", "greedy")


def run_assignment_ablation(
    solvers: Sequence[str] = DEFAULT_SOLVERS,
    n_sets: int = 12,
    values_per_column: int = 60,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Effectiveness and matching runtime per assignment solver."""
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    embedder = MistralEmbedder()
    results: Dict[str, Dict[str, float]] = {}
    for solver_name in solvers:
        matcher = ValueMatcher(embedder, threshold=0.7, solver=get_assignment_solver(solver_name))
        start = time.perf_counter()
        per_set = [
            score_integration_set(matcher.match_columns(s.column_values()), s.gold_sets)
            for s in integration_sets
        ]
        elapsed = time.perf_counter() - start
        average = macro_average(per_set)
        results[solver_name] = {
            "precision": average.precision,
            "recall": average.recall,
            "f1": average.f1,
            "seconds": elapsed,
        }
    return results


def report(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        [name, f"{s['precision']:.3f}", f"{s['recall']:.3f}", f"{s['f1']:.3f}", f"{s['seconds']:.2f}"]
        for name, s in results.items()
    ]
    return "\n".join(
        [
            "",
            "Ablation — bipartite assignment solver (Mistral, Auto-Join benchmark)",
            "",
            format_markdown_table(["Solver", "Precision", "Recall", "F1", "Seconds"], rows),
        ]
    )


def test_assignment_ablation(benchmark):
    results = benchmark.pedantic(run_assignment_ablation, rounds=1, iterations=1)
    print(report(results))
    # Greedy minimises a different objective (cheapest-pair-first rather than
    # total cost), so its effectiveness can land slightly above or below
    # optimal assignment — it only needs to stay in the same band.
    assert abs(results["greedy"]["f1"] - results["scipy"]["f1"]) < 0.05


if __name__ == "__main__":
    print(report(run_assignment_ablation()))
