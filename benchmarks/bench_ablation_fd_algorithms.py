"""Ablation ``abl-fd`` — choice of Full Disjunction substrate.

The paper builds on ALITE's FD implementation.  This ablation compares the
registered FD algorithms that share the complementation kernel (ALITE-style
closure order, and the component-ordered ``incremental`` with its alias
``partitioned``) on the IMDB benchmark: all must produce the same result —
checked: the same rows with the same provenance, in the same order among the
component-ordered algorithms and, on a one-component input such as the default
one, for ``alite`` too; the interest is in runtime and in the complementation
statistics.  A second input, :func:`multi_schema_lake`, is the opposite
shape: unrelated join groups over different schemas, thousands of two-tuple
components, every tuple null wherever another group holds a value — where the
whole-input closure (``alite``) examines quadratically many candidates and the
component algorithms do not.

Run with ``pytest benchmarks/bench_ablation_fd_algorithms.py --benchmark-only -s``
or ``python benchmarks/bench_ablation_fd_algorithms.py``.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Sequence

from repro.datasets import ImdbBenchmark
from repro.evaluation.reporting import format_markdown_table
from repro.fd import get_algorithm
from repro.table import Table

DEFAULT_ALGORITHMS = ("alite", "incremental", "partitioned")


def table_digest(table: Table, in_order: bool = True) -> str:
    """Digest of the rows with their provenance, as listed or sorted."""
    lines = [repr((row, sorted(sources))) for row, sources in zip(table.rows, table.provenance)]
    return hashlib.blake2b("\n".join(lines if in_order else sorted(lines)).encode(), digest_size=16).hexdigest()


def multi_schema_lake(groups: int = 4, entities: int = 1_000) -> List[Table]:
    """``groups`` unrelated pairs of tables, each pair joined on a key of its own."""
    return [
        Table(
            f"{side}{group}",
            [f"key{group}", f"{side}{group}"],
            [(f"entity {group}.{index}", f"{side} of {index}") for index in range(entities)],
        )
        for group in range(groups)
        for side in ("left", "right")
    ]


def run_fd_ablation(
    total_tuples: int = 1_200,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    seed: int = 13,
    tables: Sequence[Table] | None = None,
) -> Dict[str, Dict[str, float]]:
    """Runtime and output statistics per FD algorithm on one IMDB sample (or ``tables``)."""
    if tables is None:
        tables = ImdbBenchmark(seed=seed).tables(total_tuples)
    results: Dict[str, Dict[str, float]] = {}
    digests: Dict[str, Dict[bool, str]] = {}
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
        digests[name] = {in_order: table_digest(result.table, in_order) for in_order in (True, False)}

    def agree(names: Sequence[str], in_order: bool) -> bool:
        return len({digests[name][in_order] for name in names}) <= 1

    # ``alite`` lists the closure in id order, the others component by
    # component: the same list when the input is one component.
    by_component = [name for name in algorithms if name != "alite"]
    one_component = any(stats["components"] == 1.0 for stats in results.values())
    if not (
        agree(algorithms, in_order=False)
        and agree(by_component, in_order=True)
        and (agree(algorithms, in_order=True) or not one_component)
    ):
        raise AssertionError(f"the FD algorithms integrate to different tables: {digests}")
    return results


def report(results: Dict[str, Dict[str, float]], title: str = "IMDB benchmark") -> str:
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
            f"Ablation — Full Disjunction algorithm substrate ({title})",
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


def test_fd_algorithm_ablation_on_a_multi_schema_lake(benchmark):
    results = benchmark.pedantic(
        run_fd_ablation, kwargs={"tables": multi_schema_lake()}, rounds=1, iterations=1
    )
    print(report(results, "multi-schema lake"))
    # Closed apart, a tuple never meets the other schemas: linear, not quadratic.
    assert results["incremental"]["comparisons"] * 100 < results["alite"]["comparisons"]


if __name__ == "__main__":
    print(report(run_fd_ablation()))
    print(report(run_fd_ablation(tables=multi_schema_lake()), "multi-schema lake: 4 groups x 2 tables x 1 000 tuples"))
