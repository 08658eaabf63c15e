"""Ablation ``abl-fd`` — choice of Full Disjunction substrate.

The paper builds on ALITE's FD implementation.  This ablation compares the
registered FD algorithms (ALITE-style indexed complementation, the
component-decomposed incremental variant, and the partition-parallel variant)
on the IMDB benchmark: all must produce the same result; the interest is in
runtime and in the complementation statistics.

Run with ``pytest benchmarks/bench_ablation_fd_algorithms.py --benchmark-only -s``
or ``python benchmarks/bench_ablation_fd_algorithms.py``.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from repro.datasets import ImdbBenchmark
from repro.evaluation.reporting import format_markdown_table
from repro.fd import get_algorithm

DEFAULT_ALGORITHMS = ("alite", "incremental", "partitioned")


def run_fd_ablation(
    total_tuples: int = 1_200,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    seed: int = 13,
) -> Dict[str, Dict[str, float]]:
    """Runtime and output statistics per FD algorithm on one IMDB sample."""
    tables = ImdbBenchmark(seed=seed).tables(total_tuples)
    results: Dict[str, Dict[str, float]] = {}
    for name in algorithms:
        algorithm = get_algorithm(name)
        start = time.perf_counter()
        result = algorithm.integrate(tables)
        elapsed = time.perf_counter() - start
        results[name] = {
            "seconds": elapsed,
            "output_tuples": float(result.table.num_rows),
            "components": result.statistics.get("components", float("nan")),
            "comparisons": result.statistics.get("complementation_comparisons", float("nan")),
        }
    return results


def report(results: Dict[str, Dict[str, float]]) -> str:
    rows = [
        [
            name,
            f"{stats['seconds']:.2f}",
            int(stats["output_tuples"]),
            "-" if stats["components"] != stats["components"] else int(stats["components"]),
            "-" if stats["comparisons"] != stats["comparisons"] else int(stats["comparisons"]),
        ]
        for name, stats in results.items()
    ]
    return "\n".join(
        [
            "",
            "Ablation — Full Disjunction algorithm substrate (IMDB benchmark)",
            "",
            format_markdown_table(
                ["Algorithm", "Seconds", "Output tuples", "Components", "Candidate rows examined"], rows
            ),
        ]
    )


def test_fd_algorithm_ablation(benchmark):
    results = benchmark.pedantic(run_fd_ablation, rounds=1, iterations=1)
    print(report(results))
    sizes = {stats["output_tuples"] for stats in results.values()}
    assert len(sizes) == 1  # every algorithm computes the same Full Disjunction


if __name__ == "__main__":
    print(report(run_fd_ablation()))
