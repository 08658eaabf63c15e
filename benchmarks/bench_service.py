"""Benchmark ``bench-service`` — the serving layer under steady-state load.

The service PR put a request/response boundary over one warm engine
(:class:`~repro.service.IntegrationService`): admission control, per-request
deadlines, per-request traces.  This benchmark records what serving costs
and what engine warmth buys at the request level:

1. **Steady state**: ``n_requests`` integration requests pushed through the
   service at once, served one at a time — requests/sec, p50/p99 latency and
   the mean queue wait (from the per-request traces, so the benchmark exercises
   the same observability the service ships).
2. **Warm vs cold store**: the same request stream against a cold artifact
   store and then from a fresh service over the published store.  The warm
   side must report **zero raw embed calls across every trace** and serve
   more requests per second.
3. **Admission under burst**: a burst twice the admission capacity at
   ``max_pending=2`` — every rejection must be typed ``ServiceOverloaded``
   and the slowest rejection must come back in well under 50 ms.

Results land in ``BENCH_service.json`` (CI uploads it as an artifact).  Run
with ``python benchmarks/bench_service.py`` (``--smoke`` for a small CI
run, ``--output PATH`` to choose the JSON location).
"""

from __future__ import annotations

import asyncio
import json
import random
import string
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import FuzzyFDConfig
from repro.service import IntegrationService
from repro.table import Table

DEFAULT_OUTPUT = "BENCH_service.json"


# ---------------------------------------------------------------------------------
# synthetic request stream
# ---------------------------------------------------------------------------------


def request_workload(
    n_requests: int, n_values: int, distinct: int = 4, seed: int = 7
) -> List[List[Table]]:
    """``n_requests`` integration requests cycling over ``distinct`` table sets.

    Recurring tables are the serving-layer premise (data-lake users re-ask
    about the same tables), so the stream repeats a small pool of distinct
    requests — the warm embedding cache sees every set after one cycle.
    """
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase

    def one_request(request_seed: int) -> List[Table]:
        local = random.Random(request_seed)
        cities = []
        seen = set()
        while len(cities) < n_values:
            name = "".join(local.choice(alphabet) for _ in range(9))
            if name not in seen:
                seen.add(name)
                cities.append(name)
        left = Table(
            "population",
            ["City", "Population"],
            [(city, str(1000 + row)) for row, city in enumerate(cities)],
        )
        right = Table(
            "transit",
            ["City", "Lines"],
            [(city[:-1] + ("z" if city[-1] != "z" else "q"), str(row))
             for row, city in enumerate(cities)],
        )
        return [left, right]

    pool = [one_request(rng.randrange(1 << 30)) for _ in range(distinct)]
    return [pool[index % distinct] for index in range(n_requests)]


async def _drive(service: IntegrationService, workload: List[List[Table]]) -> Dict[str, float]:
    """Push the whole workload through the service; aggregate the traces."""
    start = time.perf_counter()
    responses = await asyncio.gather(
        *(service.integrate(tables) for tables in workload)
    )
    wall_seconds = time.perf_counter() - start
    traces = [r.trace for r in responses if r.status == "ok" and r.trace is not None]
    stats = service.stats()
    return {
        "requests": float(len(workload)),
        "served": float(stats.served),
        "wall_seconds": wall_seconds,
        "requests_per_second": len(workload) / wall_seconds if wall_seconds else 0.0,
        "latency_p50_seconds": stats.latency_p50_seconds,
        "latency_p99_seconds": stats.latency_p99_seconds,
        "mean_queue_wait_seconds": (
            sum(t.queue_wait_seconds for t in traces) / len(traces) if traces else 0.0
        ),
        "raw_embed_calls": sum(t.raw_embed_calls for t in traces),
    }


# ---------------------------------------------------------------------------------
# section 1: steady state
# ---------------------------------------------------------------------------------


def run_steady_state(
    n_requests: int = 64,
    n_values: int = 150,
    store_dir: Optional[str] = None,
) -> Dict[str, float]:
    """Requests/sec, latency quantiles and queue wait of a queued stream."""
    workload = request_workload(n_requests, n_values)
    config = FuzzyFDConfig(
        blocking="auto",
        store_dir=store_dir,
        store_mode="readwrite" if store_dir else "off",
        service_max_pending=n_requests,  # no rejections in steady state
    )

    async def main() -> Dict[str, float]:
        async with IntegrationService(config) as service:
            return await _drive(service, workload)

    return asyncio.run(main())


# ---------------------------------------------------------------------------------
# section 2: warm vs cold store
# ---------------------------------------------------------------------------------


def run_warm_vs_cold(n_requests: int = 32, n_values: int = 150) -> Dict[str, object]:
    """The same stream against a cold store, then a fresh warm-start service."""
    with tempfile.TemporaryDirectory() as store_dir:
        cold = run_steady_state(n_requests=n_requests, n_values=n_values, store_dir=store_dir)
        warm = run_steady_state(n_requests=n_requests, n_values=n_values, store_dir=store_dir)
    return {
        "cold": cold,
        "warm": warm,
        "speedup": (
            warm["requests_per_second"] / cold["requests_per_second"]
            if cold["requests_per_second"]
            else float("inf")
        ),
        "warm_raw_embeds": warm["raw_embed_calls"],
    }


# ---------------------------------------------------------------------------------
# section 3: admission under burst
# ---------------------------------------------------------------------------------


def run_admission_burst(n_values: int = 150, max_pending: int = 2) -> Dict[str, float]:
    """A burst at twice the admission capacity: typed rejections, fast."""
    capacity = 1 + max_pending  # the running request and the queue behind it
    workload = request_workload(2 * capacity, n_values, distinct=1)
    config = FuzzyFDConfig(blocking="auto", service_max_pending=max_pending)

    async def main() -> Dict[str, float]:
        async with IntegrationService(config) as service:
            rejection_seconds: List[float] = []

            async def one(tables: List[Table]):
                start = time.perf_counter()
                response = await service.integrate(tables)
                if response.status == "overloaded":
                    rejection_seconds.append(time.perf_counter() - start)
                return response

            responses = await asyncio.gather(*(one(t) for t in workload))
            stats = service.stats()
            statuses = {r.status for r in responses}
            return {
                "burst": float(len(workload)),
                "capacity": float(capacity),
                "served": float(stats.served),
                "rejected": float(stats.rejected),
                "max_rejection_seconds": max(rejection_seconds, default=0.0),
                "only_ok_or_overloaded": float(statuses <= {"ok", "overloaded"}),
                "accounted": float(
                    stats.served + stats.rejected + stats.deadline_exceeded
                    + stats.failed + stats.in_flight == stats.submitted
                ),
            }

    return asyncio.run(main())


# ---------------------------------------------------------------------------------
# reports + JSON
# ---------------------------------------------------------------------------------


def report(results: Dict[str, object]) -> str:
    steady = results["steady_state"]
    cycle = results["warm_vs_cold"]
    burst = results["admission_burst"]
    lines = [
        "",
        "Benchmark — integration service (steady-state serving)",
        "",
        (
            f"Steady state ({steady['requests']:,.0f} requests): "
            f"{steady['requests_per_second']:.1f} req/s, "
            f"p50 {steady['latency_p50_seconds'] * 1000:.0f} ms, "
            f"p99 {steady['latency_p99_seconds'] * 1000:.0f} ms, "
            f"mean queue wait {steady['mean_queue_wait_seconds'] * 1000:.0f} ms"
        ),
        "",
        (
            f"Warm vs cold store: {cycle['cold']['requests_per_second']:.1f} req/s cold "
            f"-> {cycle['warm']['requests_per_second']:.1f} req/s warm "
            f"({cycle['speedup']:.1f}x), warm raw embeds: "
            f"{cycle['warm_raw_embeds']:,.0f}"
        ),
        "",
        (
            f"Admission burst ({burst['burst']:.0f} requests into capacity "
            f"{burst['capacity']:.0f}): {burst['served']:.0f} served, "
            f"{burst['rejected']:.0f} rejected, slowest rejection "
            f"{burst['max_rejection_seconds'] * 1000:.1f} ms, all accounted: "
            f"{bool(burst['accounted'])}"
        ),
    ]
    return "\n".join(lines)


def run_all(n_requests: int = 64, n_values: int = 150) -> Dict[str, object]:
    """Run every section at the given scale (the JSON payload)."""
    return {
        "benchmark": "bench-service",
        "steady_state": run_steady_state(n_requests=n_requests, n_values=n_values),
        "warm_vs_cold": run_warm_vs_cold(n_requests=max(8, n_requests // 2), n_values=n_values),
        "admission_burst": run_admission_burst(n_values=n_values),
    }


def write_json(results: Dict[str, object], path: str = DEFAULT_OUTPUT) -> Path:
    """Persist the benchmark payload (the CI artifact)."""
    output = Path(path)
    output.write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    return output


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small, CI-friendly run"
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, help="where to write the JSON payload"
    )
    arguments = parser.parse_args()
    if arguments.smoke:
        payload = run_all(n_requests=16, n_values=60)
    else:
        payload = run_all()
    print(report(payload))
    destination = write_json(payload, arguments.output)
    print(f"\nwrote {destination}")
