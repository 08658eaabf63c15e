"""Benchmark ``bench-store`` — the persistent artifact store, measured.

The storage PR made engine warmth durable: embedding matrices live in
memmapped segments of an :class:`~repro.storage.store.ArtifactStore`, the
one artifact kind the store holds.  This benchmark records what that buys:

1. **Cold vs warm engine start**: a fresh engine integrates a workload and
   publishes its artifacts; a second fresh engine over the same directory
   serves the same request warm.  The cold run embeds every distinct value
   once and publishes it; the warm run must make *zero* raw embed calls,
   read every one of those rows from the store and produce identical output
   (:func:`warm_start_violations`).  Seconds are recorded, not asserted.
2. **Store-on vs store-off identity**: the store never changes results.

Results land in ``BENCH_store.json`` (committed to the repo and uploaded as
a CI artifact), so the cold→warm trajectory is recorded over time.  The
committed file's ``warm_start.floor_seconds`` is a perf floor:
``--check-floor PATH`` re-times the warm start at the committed scale and
exits 1 on a >2x regression (or any broken store guarantee) — the same CI
guard treatment ``BENCH_ann.json`` got.  The cold ÷ warm ratio measures how
slow the *embedder* is, not what the store guarantees: the simulated
embedders are cheap (and got ~5x cheaper with the batched kernel), so the
ratio here is small — real model-backed embedders make the cold side
arbitrarily slower while the warm side stays memmap-bound.

Run with ``python benchmarks/bench_store.py`` (``--smoke`` for a small CI
run, ``--output PATH`` to choose the JSON location) or via
``pytest benchmarks/bench_store.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import random
import string
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.embeddings import MistralEmbedder
from repro.table import Table

DEFAULT_OUTPUT = "BENCH_store.json"


class CountingEmbedder(MistralEmbedder):
    """MistralEmbedder that counts raw (uncached, unstored) embed calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.raw_embeds = 0

    def _embed_texts(self, texts):
        self.raw_embeds += len(texts)
        return super()._embed_texts(texts)


# ---------------------------------------------------------------------------------
# synthetic workload
# ---------------------------------------------------------------------------------


def request_tables(n_values: int, seed: int = 7) -> List[Table]:
    """A three-table integration request over ``n_values`` fuzzy city names."""
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase
    cities = []
    seen = set()
    while len(cities) < n_values:
        name = "".join(rng.choice(alphabet) for _ in range(10))
        if name not in seen:
            seen.add(name)
            cities.append(name)
    population = Table(
        "population",
        ["City", "Population"],
        [(city, str(1000 + row)) for row, city in enumerate(cities)],
    )
    transit = Table(
        "transit",
        ["City", "Lines"],
        # One substituted character per name keeps the matcher honest.
        [(city[:-1] + ("z" if city[-1] != "z" else "q"), str(row))
         for row, city in enumerate(cities)],
    )
    climate = Table(
        "climate",
        ["City", "Temp"],
        [(city, f"{row}.5C") for row, city in enumerate(cities[: n_values // 2])],
    )
    return [population, transit, climate]


# ---------------------------------------------------------------------------------
# section 1: cold vs warm engine start
# ---------------------------------------------------------------------------------


def run_warm_start_benchmark(n_values: int = 1500, seed: int = 7) -> Dict[str, float]:
    """A restarted engine over the published store vs the cold first run."""
    tables = request_tables(n_values, seed=seed)
    with tempfile.TemporaryDirectory() as store_dir:
        def engine() -> IntegrationEngine:
            return IntegrationEngine(
                FuzzyFDConfig(
                    embedder=CountingEmbedder(),
                    blocking="auto",
                    store_dir=store_dir,
                    store_mode="readwrite",
                )
            )

        cold_engine = engine()
        start = time.perf_counter()
        cold = cold_engine.integrate(tables)
        cold_seconds = time.perf_counter() - start

        warm_engine = engine()
        start = time.perf_counter()
        warm = warm_engine.integrate(tables)
        warm_seconds = time.perf_counter() - start

        return {
            "n_values": float(n_values),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
            "cold_raw_embeds": float(cold_engine.embedder.raw_embeds),
            "warm_raw_embeds": float(warm_engine.embedder.raw_embeds),
            "published_rows": cold.timings.get("store_published_rows", 0.0),
            "warm_store_hits": warm.timings.get("cache_store_hits", 0.0),
            "identical_output": float(warm.table.rows == cold.table.rows),
            # The committed perf floor --check-floor compares against,
            # clamped so sub-quarter-second runs don't produce a floor that
            # normal CI jitter would trip.
            "floor_seconds": max(warm_seconds, 0.25),
        }


def warm_start_violations(warm_start: Dict[str, float]) -> List[str]:
    """The store's guarantees a warm-start record breaks (empty when it holds).

    The cold side is checked too: a counter that never moves would make the
    warm zero vacuous.
    """
    rows = warm_start["published_rows"]
    checks = {
        "the cold run embedded nothing": rows > 0,
        "cold raw embeds != rows published": warm_start["cold_raw_embeds"] == rows,
        "the warm start made raw embed calls — the store went cold": (
            warm_start["warm_raw_embeds"] == 0.0
        ),
        "warm store hits != rows published": warm_start["warm_store_hits"] == rows,
        "warm output differs from cold output": warm_start["identical_output"] == 1.0,
    }
    return [problem for problem, holds in checks.items() if not holds]


def check_floor(path: str) -> int:
    """CI guard: 1 if the warm start regressed >2x vs the committed floor."""
    committed = json.loads(Path(path).read_text(encoding="utf-8"))
    warm_start = committed.get("warm_start")
    if not isinstance(warm_start, dict) or "floor_seconds" not in warm_start:
        print(f"{path} has no warm_start floor; nothing to check")
        return 0
    current = run_warm_start_benchmark(n_values=int(warm_start["n_values"]))
    floor = float(warm_start["floor_seconds"])
    limit = 2.0 * floor
    seconds = float(current["warm_seconds"])
    print(
        f"warm-start floor check at {warm_start['n_values']:,.0f} values: "
        f"{seconds:.3f}s current vs {floor:.3f}s committed floor (limit {limit:.3f}s)"
    )
    violations = warm_start_violations(current)
    for problem in violations:
        print(f"FAIL: {problem}")
    if violations:
        return 1
    if seconds > limit:
        print("FAIL: warm start regressed more than 2x vs the committed floor")
        return 1
    print("OK: within the floor")
    return 0


# ---------------------------------------------------------------------------------
# section 2: the store never changes results
# ---------------------------------------------------------------------------------


def run_identity_check(n_values: int = 400, seed: int = 13) -> Dict[str, float]:
    """Store-off vs cold store vs warm store: byte-identical output tables."""
    tables = request_tables(n_values, seed=seed)
    knobs = dict(blocking="auto", semantic_blocking="auto")
    baseline = IntegrationEngine(FuzzyFDConfig(**knobs)).integrate(tables)
    with tempfile.TemporaryDirectory() as store_dir:
        stored = dict(knobs, store_dir=store_dir, store_mode="readwrite")
        cold = IntegrationEngine(FuzzyFDConfig(**stored)).integrate(tables)
        warm = IntegrationEngine(FuzzyFDConfig(**stored)).integrate(tables)
    return {
        "n_values": float(n_values),
        "cold_identical": float(cold.table.rows == baseline.table.rows),
        "warm_identical": float(warm.table.rows == baseline.table.rows),
    }


# ---------------------------------------------------------------------------------
# reports + JSON
# ---------------------------------------------------------------------------------


def report(results: Dict[str, object]) -> str:
    warm_start = results["warm_start"]
    identity = results["identity"]
    lines = [
        "",
        "Benchmark — persistent artifact store",
        "",
        (
            f"Warm start ({warm_start['n_values']:,.0f} values/side): "
            f"{warm_start['cold_seconds']:.2f}s cold ({warm_start['cold_raw_embeds']:,.0f} "
            f"raw embeds, {warm_start['published_rows']:,.0f} rows published) -> "
            f"{warm_start['warm_seconds']:.2f}s warm "
            f"({warm_start['warm_raw_embeds']:,.0f} raw embeds, "
            f"{warm_start['warm_store_hits']:,.0f} store hits) — "
            f"{warm_start['speedup']:.1f}x, identical output: "
            f"{bool(warm_start['identical_output'])}"
        ),
        "",
        (
            f"Identity ({identity['n_values']:,.0f} values/side, semantic blocking on): "
            f"store-off == cold store: {bool(identity['cold_identical'])}, "
            f"store-off == warm store: {bool(identity['warm_identical'])}"
        ),
    ]
    return "\n".join(lines)


def run_all(n_values: int = 1500, identity_values: int = 400) -> Dict[str, object]:
    """Run every section at the given scale (the JSON payload)."""
    return {
        "benchmark": "bench-store",
        "warm_start": run_warm_start_benchmark(n_values=n_values),
        "identity": run_identity_check(n_values=identity_values),
    }


def write_json(results: Dict[str, object], path: str = DEFAULT_OUTPUT) -> Path:
    """Persist the benchmark payload (the CI artifact)."""
    output = Path(path)
    output.write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    return output


# ---------------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------------


def test_warm_start(benchmark):
    warm_start = benchmark.pedantic(
        run_warm_start_benchmark, kwargs={"n_values": 600}, rounds=1, iterations=1
    )
    assert warm_start_violations(warm_start) == []


def test_identity(benchmark):
    identity = benchmark.pedantic(
        run_identity_check, kwargs={"n_values": 200}, rounds=1, iterations=1
    )
    assert identity["cold_identical"] == 1.0
    assert identity["warm_identical"] == 1.0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small, CI-friendly run (hundreds of values)"
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON payload"
    )
    parser.add_argument(
        "--check-floor",
        metavar="PATH",
        help="re-time the warm start at the committed scale and exit 1 on a "
        ">2x regression vs floor_seconds in PATH (the CI guard)",
    )
    arguments = parser.parse_args()
    if arguments.check_floor:
        raise SystemExit(check_floor(arguments.check_floor))
    if arguments.smoke:
        payload = run_all(n_values=400, identity_values=150)
    else:
        payload = run_all()
    print(report(payload))
    destination = write_json(payload, arguments.output)
    print(f"\nwrote {destination}")
