"""Ablation ``abl-representative`` — representative-value selection policy.

The paper replaces every matched value with the most frequent surface form
(ties broken toward the earlier table).  This ablation compares that rule with
the alternatives (first column, longest form, shortest form) by measuring the
downstream integration: how many tuples the Fuzzy FD produces over the
Auto-Join-style tables and how much value rewriting each policy performs.
Effectiveness of the value matching itself is identical across policies (the
match sets do not depend on the representative), so the interesting quantity
is the consolidation behaviour.

Run with ``pytest benchmarks/bench_ablation_representatives.py --benchmark-only -s``
or ``python benchmarks/bench_ablation_representatives.py``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.core.representatives import available_policies
from repro.datasets import AutoJoinBenchmark
from repro.evaluation import format_markdown_table


def run_representative_ablation(
    policies: Sequence[str] = tuple(available_policies()),
    n_sets: int = 6,
    values_per_column: int = 40,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Integration statistics of Fuzzy FD per representative policy."""
    integration_sets = AutoJoinBenchmark(
        n_sets=n_sets, values_per_column=values_per_column, seed=seed
    ).generate()
    results: Dict[str, Dict[str, float]] = {}
    for policy in policies:
        engine = IntegrationEngine(FuzzyFDConfig(representative_policy=policy))
        output_tuples = 0
        rewrites = 0
        input_tuples = 0
        for integration_set in integration_sets:
            tables = integration_set.tables()
            result = engine.integrate(tables)
            output_tuples += result.table.num_rows
            rewrites += result.rewrites_applied()
            input_tuples += sum(table.num_rows for table in tables)
        results[policy] = {
            "input_tuples": float(input_tuples),
            "output_tuples": float(output_tuples),
            "rewrites": float(rewrites),
        }
    return results


def report(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        [policy, int(s["input_tuples"]), int(s["output_tuples"]), int(s["rewrites"])]
        for policy, s in results.items()
    ]
    return "\n".join(
        [
            "",
            "Ablation — representative-value policy (Fuzzy FD over Auto-Join tables)",
            "",
            format_markdown_table(["Policy", "Input tuples", "Output tuples", "Rewrites"], rows),
        ]
    )


def test_representative_ablation(benchmark):
    results = benchmark.pedantic(run_representative_ablation, rounds=1, iterations=1)
    print(report(results))
    # Every policy consolidates the same match sets, so output sizes agree.
    sizes = {stats["output_tuples"] for stats in results.values()}
    assert len(sizes) == 1


if __name__ == "__main__":
    print(report(run_representative_ablation()))
