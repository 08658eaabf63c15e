"""CI smoke test for ``repro serve``: boot, round-trip, well-formed trace.

Starts the real CLI entry point (``python -m repro.cli serve``) as a
subprocess against a temporary artifact store on an OS-assigned port, then
exercises the HTTP surface end to end:

1. ``GET /healthz`` answers healthy.
2. ``POST /integrate`` merges two small tables and the response carries a
   well-formed trace: every stage timing, the cache/ANN counters, and a
   positive total.
3. A second identical ``POST /integrate`` is served from the warm engine —
   its trace must report zero raw embed calls.
4. ``GET /stats`` accounts for both requests.

Then a second server boots with a hard-down chaos embedder
(``--embedder chaos`` + ``REPRO_CHAOS_EMBED_FAILURES=all``) in
``--degraded-mode surface``: ``POST /integrate`` must still answer 200 with
``degraded: true`` in its trace, and ``GET /healthz`` must report
``degraded`` — an open breaker never becomes an unhandled 500.

Both servers run with ``--processes N`` when the script is given it (CI runs
it with 1 and with 2): with two processes the second request may land on the
process that did not embed the values, and ``/healthz`` may be answered by
the process whose own breaker never opened — the checks above must hold
anyway.

Exits non-zero (with the server log on stderr) on any failure, so the CI
job fails loudly.  Run locally with ``python scripts/service_smoke.py
[--processes N]``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

INTEGRATE_BODY = {
    "tables": [
        {
            "name": "population",
            "columns": ["City", "Country"],
            "rows": [["Berlinn", "Germany"], ["Toronto", "Canada"]],
        },
        {
            "name": "vaccination",
            "columns": ["City", "VaxRate"],
            "rows": [["Berlin", "63%"], ["Toronto", "83%"]],
        },
    ]
}

TRACE_REQUIRED_KEYS = (
    "stage_seconds",
    "queue_wait_seconds",
    "total_seconds",
    "ann_pairs_added",
    "ann_probe_candidates",
    "ann_bucket_skew",
    "cache_hits",
    "cache_misses",
    "raw_embed_calls",
)


def wait_for_port(process: subprocess.Popen, timeout_seconds: float = 30.0) -> int:
    """Read the server's stdout until it prints the bound port."""
    deadline = time.time() + timeout_seconds
    pattern = re.compile(r"serving on http://[^:]+:(\d+)")
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before binding (code {process.poll()})"
            )
        sys.stderr.write(line)
        match = pattern.search(line)
        if match:
            return int(match.group(1))
    raise SystemExit("server did not bind within the timeout")


def request(port: int, method: str, path: str, body: dict | None = None) -> dict:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as response:
        return json.loads(response.read().decode())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def assert_well_formed_trace(trace: dict, label: str) -> None:
    expect(isinstance(trace, dict), f"{label}: trace missing from response")
    for key in TRACE_REQUIRED_KEYS:
        expect(key in trace, f"{label}: trace is missing {key!r}")
    expect(
        set(trace["stage_seconds"]) == {"align", "match", "integrate"},
        f"{label}: expected all three stage timings, got {trace['stage_seconds']}",
    )
    expect(trace["total_seconds"] > 0, f"{label}: non-positive total_seconds")


def serve(extra_args: list[str] | None = None, extra_env: dict | None = None, **popen_kwargs):
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *(extra_args or [])],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **popen_kwargs,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro serve smoke test")
    parser.add_argument("--processes", type=int, default=None, help="passed to repro serve")
    args = parser.parse_args(argv)
    extra_args = [] if args.processes is None else ["--processes", str(args.processes)]

    with tempfile.TemporaryDirectory() as store_dir:
        process = serve(["--store-dir", store_dir, *extra_args])
        try:
            port = wait_for_port(process)

            health = request(port, "GET", "/healthz")
            expect(health.get("status") == "healthy", f"healthz said {health}")

            first = request(port, "POST", "/integrate", INTEGRATE_BODY)
            expect(first.get("status") == "ok", f"integrate said {first.get('status')}")
            expect("table" in first, "integrate response has no table")
            columns = set(first["table"]["columns"])
            expect(
                columns == {"City", "Country", "VaxRate"},
                f"unexpected output schema {sorted(columns)}",
            )
            assert_well_formed_trace(first.get("trace"), "first request")

            second = request(port, "POST", "/integrate", INTEGRATE_BODY)
            expect(second.get("status") == "ok", "second integrate failed")
            assert_well_formed_trace(second.get("trace"), "second request")
            expect(
                second["trace"]["raw_embed_calls"] == 0,
                "warm engine still made raw embed calls on the second request",
            )

            stats = request(port, "GET", "/stats")
            expect(stats.get("served") == 2, f"stats said served={stats.get('served')}")
            expect(stats.get("submitted") == 2, "stats lost a submission")

            print("service smoke OK: healthz + 2x integrate + stats, traces well-formed")
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()

    # Degraded path: a hard-down embedder must surface as 200 + degraded,
    # never an unhandled 500.
    process = serve(
        [
            "--embedder",
            "chaos",
            "--degraded-mode",
            "surface",
            "--breaker-failure-threshold",
            "1",
            "--retry-max-attempts",
            "1",
            "--retry-backoff-ms",
            "1",
            *extra_args,
        ],
        extra_env={"REPRO_CHAOS_EMBED_FAILURES": "all"},
    )
    try:
        port = wait_for_port(process)

        degraded = request(port, "POST", "/integrate", INTEGRATE_BODY)
        expect(
            degraded.get("status") == "ok",
            f"degraded integrate said {degraded.get('status')}",
        )
        expect(
            degraded.get("trace", {}).get("degraded") is True,
            "open breaker did not mark the trace degraded",
        )

        health = request(port, "GET", "/healthz")
        expect(
            health.get("status") == "degraded",
            f"healthz under open breaker said {health}",
        )

        print("service smoke OK: chaos embedder served degraded, healthz degraded")
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
