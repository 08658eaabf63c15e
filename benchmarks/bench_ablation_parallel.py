"""Ablation ``abl-parallel`` — the parallel execution layer, measured.

PR 4 added a shared executor (:mod:`repro.utils.executor`) under the
blocked matcher, which solves connected components concurrently and batches
all 1×1 / 1×N / N×1 components into one vectorised argmin pass.  This
benchmark records what it buys:

1. **Singleton fast path** (single-threaded): per-component solver calls vs
   the vectorised batch on a workload of thousands of 1×1 components.
2. **Worker scaling**: serial vs the thread backend at 1/2/4 workers on a
   solver-bound workload of k×k components, matches asserted identical.

The per-call process backend, the process fan-out of surface-key generation
and the engine's request pool (``integrate_many`` on 4 threads) were measured
here (0.06–0.10×, 0.69× and 0.93× serial) and removed; an engine serves one
request at a time, and process-level parallelism is ``repro serve
--processes N``.

Results land in ``BENCH_parallel.json`` (CI uploads it as an artifact), so
the perf trajectory of the executor is recorded over time.  Worker *scaling*
numbers are hardware-honest: on a single-core runner the thread backend
cannot beat serial, which is why the end-to-end claim is measured against
the pre-PR baseline (no singleton batching, serial solving) — the algorithmic
win that holds on any machine — while the per-worker-count rows capture
whatever the hardware offers.

Run with ``python benchmarks/bench_ablation_parallel.py`` (``--smoke`` for a
small CI run, ``--output PATH`` to choose the JSON location) or via
``pytest benchmarks/bench_ablation_parallel.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import random
import string
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.embeddings import MistralEmbedder
from repro.evaluation import format_component_histogram, format_markdown_table
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker
from repro.utils.executor import ExecutorConfig

DEFAULT_OUTPUT = "BENCH_parallel.json"


# ---------------------------------------------------------------------------------
# synthetic workloads
# ---------------------------------------------------------------------------------


def singleton_workload(n_values: int, seed: int = 7) -> Tuple[List[str], List[str]]:
    """~``n_values`` 1×1 components: random strings paired with a typo copy.

    Each left value is a random 12-character string; its right counterpart
    carries one substituted character in the second half, so the pair shares
    its token prefix while unrelated values almost never collide — the
    singleton-dominated regime of data-lake columns.
    """
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase + string.digits
    left: List[str] = []
    right: List[str] = []
    seen = set()
    while len(left) < n_values:
        value = "".join(rng.choice(alphabet) for _ in range(12))
        if value in seen:
            continue
        seen.add(value)
        position = rng.randrange(6, 12)
        typo = alphabet[(alphabet.index(value[position]) + 1) % len(alphabet)]
        left.append(value)
        right.append(value[:position] + typo + value[position + 1 :])
    return left, right


def component_workload(
    n_values: int, group_size: int = 8, seed: int = 11
) -> Tuple[List[str], List[str]]:
    """~``n_values // group_size`` solver-bound components of ``k×k`` values.

    Values are ``"<group token> <member token>"``; members of one group share
    the group token (one connected component per group), and the right side
    perturbs each member token so the assignment solver has real work.
    """
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase
    left: List[str] = []
    right: List[str] = []
    seen_groups = set()
    while len(left) < n_values:
        group = "".join(rng.choice(alphabet) for _ in range(8))
        if group in seen_groups:
            continue
        seen_groups.add(group)
        members = set()
        while len(members) < group_size:
            members.add("".join(rng.choice(alphabet) for _ in range(6)))
        for member in sorted(members):
            typo = alphabet[(alphabet.index(member[3]) + 1) % len(alphabet)]
            left.append(f"{group} {member}")
            right.append(f"{group} {member[:3]}{typo}{member[4:]}")
    return left[:n_values], right[:n_values]


def mixed_workload(
    n_values: int, singleton_share: float = 0.8, group_size: int = 8, seed: int = 13
) -> Tuple[List[str], List[str]]:
    """The data-lake shape: mostly 1×1 components plus a tail of k×k groups."""
    n_singletons = int(n_values * singleton_share)
    single_left, single_right = singleton_workload(n_singletons, seed=seed)
    group_left, group_right = component_workload(
        n_values - n_singletons, group_size=group_size, seed=seed + 1
    )
    return single_left + group_left, single_right + group_right


def _warm_matcher(
    embedder: MistralEmbedder,
    left: Sequence[str],
    right: Sequence[str],
    **matcher_kwargs,
) -> BlockedValueMatcher:
    """A blocked matcher over a pre-warmed embedding cache (isolates matching)."""
    blocker = ValueBlocker(ngram_size=5, use_lexicon=False)
    embedder.embed_many(list(left))
    embedder.embed_many(list(right))
    return BlockedValueMatcher(embedder, threshold=0.7, blocker=blocker, **matcher_kwargs)


def _timed_match(matcher: BlockedValueMatcher, left, right) -> Tuple[float, list]:
    # Warm the lazy loads (the first solve binds scipy's compiled LSAP
    # routine, ~1 ms) so the first timed configuration isn't charged for them.
    import numpy as np

    matcher.solver.solve(np.zeros((2, 2)))
    matcher.match(list(left[:8]), list(right[:8]))
    start = time.perf_counter()
    matches = matcher.match(left, right)
    return time.perf_counter() - start, matches


# ---------------------------------------------------------------------------------
# section 1: vectorised singleton batching (single-threaded)
# ---------------------------------------------------------------------------------


def run_singleton_fastpath_benchmark(n_values: int = 5000, seed: int = 7) -> Dict[str, float]:
    """Per-component solver calls vs one vectorised batch over all singletons."""
    left, right = singleton_workload(n_values, seed=seed)
    embedder = MistralEmbedder()
    unbatched = _warm_matcher(embedder, left, right, singleton_batching=False)
    batched = _warm_matcher(embedder, left, right)

    unbatched_seconds, unbatched_matches = _timed_match(unbatched, left, right)
    batched_seconds, batched_matches = _timed_match(batched, left, right)
    statistics = batched.last_statistics
    return {
        "n_values": float(n_values),
        "components": float(statistics.components),
        "unbatched_seconds": unbatched_seconds,
        "batched_seconds": batched_seconds,
        "speedup": unbatched_seconds / batched_seconds if batched_seconds else float("inf"),
        "identical_matches": float(
            [match.as_tuple() for match in unbatched_matches]
            == [match.as_tuple() for match in batched_matches]
        ),
        "accepted_matches": float(len(batched_matches)),
    }


# ---------------------------------------------------------------------------------
# section 2: end to end — pre-PR sequential baseline vs the new path at 4 workers
# ---------------------------------------------------------------------------------


def run_end_to_end_benchmark(
    n_values: int = 5000, workers: int = 4, backend: str = "thread", seed: int = 13
) -> Dict[str, object]:
    """The PR's headline number, on the many-component mixed workload.

    Baseline is the pre-PR engine (per-component solver calls, serial); the
    measured path batches singletons and pools the general components at
    ``workers`` workers.  The singleton batching dominates on single-core
    hardware; worker scaling adds on top when cores exist.  Matches must be
    pairwise identical.
    """
    left, right = mixed_workload(n_values, seed=seed)
    embedder = MistralEmbedder()

    baseline = _warm_matcher(embedder, left, right, singleton_batching=False)
    baseline_seconds, baseline_matches = _timed_match(baseline, left, right)

    parallel = _warm_matcher(
        embedder, left, right, executor=ExecutorConfig(backend=backend, max_workers=workers)
    )
    parallel_seconds, parallel_matches = _timed_match(parallel, left, right)
    statistics = parallel.last_statistics
    return {
        "n_values": n_values,
        "workers": workers,
        "backend": backend,
        "components": statistics.components,
        "component_histogram": statistics.component_size_histogram(),
        "baseline_seconds": baseline_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": baseline_seconds / parallel_seconds if parallel_seconds else float("inf"),
        "identical_matches": [match.as_tuple() for match in baseline_matches]
        == [match.as_tuple() for match in parallel_matches],
        "accepted_matches": len(parallel_matches),
    }


# ---------------------------------------------------------------------------------
# section 3: worker scaling on solver-bound components
# ---------------------------------------------------------------------------------


def run_worker_scaling_benchmark(
    n_values: int = 5000,
    group_size: int = 8,
    workers: Sequence[int] = (1, 2, 4),
    backends: Sequence[str] = ("thread",),
    seed: int = 11,
) -> Dict[str, object]:
    """Serial vs pooled component solving; every configuration must agree.

    This section is deliberately solver-bound (k×k components, no
    singletons), so it isolates what the worker pool itself contributes on
    the current hardware — on a single core, nothing, and the table will
    honestly say so.
    """
    left, right = component_workload(n_values, group_size=group_size, seed=seed)
    embedder = MistralEmbedder()

    serial_matcher = _warm_matcher(embedder, left, right)
    serial_seconds, serial_matches = _timed_match(serial_matcher, left, right)
    serial_results = [
        (match.left, match.right, match.distance) for match in serial_matches
    ]
    statistics = serial_matcher.last_statistics

    runs: List[Dict[str, object]] = [
        {
            "backend": "serial",
            "workers": 1,
            "seconds": serial_seconds,
            "speedup_vs_serial": 1.0,
            "identical_matches": True,
        }
    ]
    for backend in backends:
        for worker_count in workers:
            if worker_count <= 1:
                continue
            executor = ExecutorConfig(backend=backend, max_workers=worker_count)
            matcher = _warm_matcher(embedder, left, right, executor=executor)
            seconds, matches = _timed_match(matcher, left, right)
            identical = (
                [(match.left, match.right, match.distance) for match in matches]
                == serial_results
            )
            runs.append(
                {
                    "backend": backend,
                    "workers": worker_count,
                    "seconds": seconds,
                    "speedup_vs_serial": serial_seconds / seconds if seconds else float("inf"),
                    "identical_matches": identical,
                }
            )

    return {
        "n_values": n_values,
        "group_size": group_size,
        "components": statistics.components,
        "runs": runs,
    }


# ---------------------------------------------------------------------------------
# reports + JSON
# ---------------------------------------------------------------------------------


def report(results: Dict[str, object]) -> str:
    fastpath = results["singleton_fastpath"]
    end_to_end = results["end_to_end"]
    scaling = results["worker_scaling"]

    lines = [
        "",
        "Ablation — parallel execution layer",
        "",
        (
            f"Singleton fast path ({fastpath['n_values']:,.0f} values, "
            f"{fastpath['components']:,.0f} components, single-threaded): "
            f"{fastpath['unbatched_seconds']:.2f}s per-component solver calls -> "
            f"{fastpath['batched_seconds']:.2f}s vectorised batch "
            f"({fastpath['speedup']:.1f}x, identical matches: "
            f"{bool(fastpath['identical_matches'])})"
        ),
        "",
        (
            f"End to end ({end_to_end['n_values']:,} values/side, "
            f"{end_to_end['components']:,} components, mixed workload): "
            f"{end_to_end['baseline_seconds']:.2f}s pre-PR sequential baseline -> "
            f"{end_to_end['parallel_seconds']:.2f}s at {end_to_end['workers']} "
            f"{end_to_end['backend']} workers ({end_to_end['speedup']:.1f}x, "
            f"identical matches: {bool(end_to_end['identical_matches'])})"
        ),
        "",
        "Component-size distribution of the end-to-end workload:",
        "",
        format_component_histogram(end_to_end["component_histogram"]),
        "",
        (
            f"Worker scaling, solver-bound ({scaling['n_values']:,} values in "
            f"{scaling['components']:,} components of ~{scaling['group_size']}x"
            f"{scaling['group_size']}; isolates what the pool adds on this hardware):"
        ),
        "",
        format_markdown_table(
            ["Backend", "Workers", "Seconds", "vs serial", "Identical"],
            [
                [
                    run["backend"],
                    run["workers"],
                    f"{run['seconds']:.2f}",
                    f"{run['speedup_vs_serial']:.2f}x",
                    str(bool(run["identical_matches"])),
                ]
                for run in scaling["runs"]
            ],
        ),
    ]
    return "\n".join(lines)


def run_all(
    n_values: int = 5000,
    group_size: int = 8,
) -> Dict[str, object]:
    """Run every section at the given scale (the JSON payload)."""
    return {
        "benchmark": "abl-parallel",
        "n_values": n_values,
        "singleton_fastpath": run_singleton_fastpath_benchmark(n_values=n_values),
        "end_to_end": run_end_to_end_benchmark(n_values=n_values),
        "worker_scaling": run_worker_scaling_benchmark(
            n_values=max(n_values // 2, 64), group_size=group_size
        ),
    }


def write_json(results: Dict[str, object], path: str = DEFAULT_OUTPUT) -> Path:
    """Persist the benchmark payload (the CI artifact)."""
    output = Path(path)
    output.write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    return output


# ---------------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------------


def test_singleton_fastpath(benchmark):
    fastpath = benchmark.pedantic(
        run_singleton_fastpath_benchmark, kwargs={"n_values": 5000}, rounds=1, iterations=1
    )
    assert fastpath["identical_matches"] == 1.0
    # The vectorised batch must beat per-component solver calls outright.
    assert fastpath["speedup"] >= 2.0


def test_end_to_end_speedup(benchmark):
    end_to_end = benchmark.pedantic(
        run_end_to_end_benchmark, kwargs={"n_values": 5000}, rounds=1, iterations=1
    )
    assert end_to_end["identical_matches"]
    # The PR's headline claim on the many-component workload.
    assert end_to_end["speedup"] >= 2.0


def test_worker_scaling_determinism(benchmark):
    scaling = benchmark.pedantic(
        run_worker_scaling_benchmark,
        kwargs={"n_values": 2000, "workers": (1, 2, 4)},
        rounds=1,
        iterations=1,
    )
    assert all(run["identical_matches"] for run in scaling["runs"])


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small, CI-friendly run (hundreds of values)"
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON payload"
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        payload = run_all(n_values=400, group_size=6)
    else:
        payload = run_all()
    print(report(payload))
    destination = write_json(payload, arguments.output)
    print(f"\nwrote {destination}")
