"""Quickstart: integrate a handful of data-lake CSV tables with Fuzzy FD.

The script builds three small CSV files in a temporary directory (the way
tables live in a data lake), loads them back, and shows the two ways into the
library:

1. the one-call :func:`repro.integrate` convenience (regular vs fuzzy), and
2. the long-lived :class:`repro.IntegrationEngine` — the serve-many-requests
   API: the embedder and its cache stay warm across calls, so the θ-sweep at
   the end re-scores cached embeddings instead of re-embedding every value,
   and the pipeline stages (align → match → integrate) are inspectable.

Run with::

    python examples/quickstart.py

The CI workflow executes this script as an executable smoke test of the
public API surface.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import FuzzyFDConfig, IntegrationEngine, Table, integrate, read_csv, write_csv


def build_lake(directory: Path) -> list[Path]:
    """Write three inconsistent tables about cities to CSV files."""
    population = Table(
        "city_population",
        ["City", "Country", "Population"],
        [
            ("Berlin", "Germany", "3.7M"),
            ("Toronto", "Canada", "2.9M"),
            ("Barcelona", "Spain", "1.6M"),
            ("Lisbon", "Portugal", "0.5M"),
        ],
    )
    transit = Table(
        "transit_stats",
        ["City", "Country", "Metro Lines"],
        [
            ("berlin", "DE", "9"),
            ("Torontoo", "CA", "3"),
            ("Madrid", "ES", "12"),
        ],
    )
    climate = Table(
        "climate",
        ["City", "Avg Temp"],
        [
            ("Berlin", "10.5C"),
            ("Barcelona", "18.2C"),
            ("Toronto", "9.4C"),
        ],
    )
    paths = []
    for table in (population, transit, climate):
        paths.append(write_csv(table, directory / f"{table.name}.csv"))
    return paths


def one_call_api(tables: list[Table]) -> None:
    """The simplest entry point: one function, fuzzy or regular."""
    regular = integrate(tables, fuzzy=False)
    print("\n=== Regular Full Disjunction (equi-join, ALITE) ===")
    print(regular.table.to_pretty_string())
    print(f"{regular.table.num_rows} tuples")

    fuzzy = integrate(tables, fuzzy=True)
    print("\n=== Fuzzy Full Disjunction (this paper) ===")
    print(fuzzy.table.to_pretty_string())
    print(f"{fuzzy.table.num_rows} tuples")


def engine_api(tables: list[Table]) -> None:
    """The long-lived engine: staged pipeline + cheap repeated requests."""
    engine = IntegrationEngine(FuzzyFDConfig.preset("paper"))

    # -- inspectable stages ----------------------------------------------------
    aligned = engine.align(tables)
    print("\n=== Engine stage 1: column alignment ===")
    for name, members in sorted(aligned.alignment.as_dict().items()):
        print(f"  {name:12s} <- {', '.join(members)}")

    matched = engine.match(aligned)
    print("\n=== Engine stage 2: fuzzy value matching ===")
    print(f"{matched.rewrites_applied()} value rewrites:")
    for group_name, matching in matched.value_matching.items():
        for column_id in matching.column_order:
            for original, representative in matching.rewrite_map(column_id).items():
                print(f"  [{group_name}] {column_id}: {original!r} -> {representative!r}")

    result = engine.integrate(matched)
    print("\n=== Engine stage 3: full disjunction ===")
    print(result.table.to_pretty_string())

    print("\nTiming breakdown (seconds):")
    for phase, seconds in result.timings.items():
        print(f"  {phase:28s} {seconds:.3f}")

    # -- a θ-sweep over the warm engine ---------------------------------------
    # The embedder cache persists across requests: after the first request the
    # sweep performs zero new embeddings (watch the cache misses stay flat).
    print("\n=== θ-sweep on the warm engine (cached embeddings) ===")
    for theta in (0.3, 0.5, 0.7, 0.9):
        swept = engine.integrate(tables, threshold=theta)
        cache = engine.embedding_cache.stats()
        print(
            f"  θ={theta:.1f}: {swept.table.num_rows} tuples, "
            f"{swept.rewrites_applied()} rewrites "
            f"(cache: {cache['hits']} hits / {cache['misses']} misses)"
        )
    print(f"\n{engine!r}")


def concurrency_api(tables: list[Table]) -> None:
    """One engine, one request at a time; parallelism inside a request.

    An engine serves requests one at a time, so several requests are a loop
    over one warm engine (threads sharing it simply take turns).  To serve
    requests in parallel, run several engines: ``repro serve --processes N``
    forks one warm engine per server process.  ``max_workers`` /
    ``parallel_backend`` (or the ``scale`` preset, or the CLI's
    ``--workers``) parallelise component solving inside one request; the
    results below are asserted identical to the serial ones.
    """
    engine = IntegrationEngine(FuzzyFDConfig(blocking="auto"))
    parallel_engine = IntegrationEngine(
        FuzzyFDConfig(blocking="auto", max_workers=4, parallel_backend="thread")
    )

    print("\n=== Concurrency: a loop over one warm engine ===")
    requests = [tables, tables[:2], tables[1:]]
    results = [engine.integrate(request) for request in requests]
    for index, (request, result) in enumerate(zip(requests, results)):
        solved = parallel_engine.integrate(request)  # 4 workers solve its components
        assert result.table.same_rows(solved.table)  # deterministic by contract
        print(
            f"  request {index}: {result.table.num_rows} tuples "
            f"(identical with 4 component workers: True)"
        )
    print(f"  engine served {engine.requests_served} requests on a warm cache; "
          f"for parallel requests run `repro serve --processes N`")

    # The ``scale`` preset bundles the data-lake settings: blocking=auto,
    # semantic blocking=auto, 4 thread workers for matching; its FD is alite,
    # as in every preset.
    scaled = IntegrationEngine("scale").integrate(tables)
    print(f"  'scale' preset: {scaled.table.num_rows} tuples "
          f"(same rows: {scaled.table.same_rows(results[0].table)})")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        paths = build_lake(directory)
        tables = [read_csv(path) for path in paths]

        print("=== Input tables ===")
        for table in tables:
            print(f"\n{table.name}:")
            print(table.to_pretty_string())

        one_call_api(tables)
        engine_api(tables)
        concurrency_api(tables)


if __name__ == "__main__":
    main()
