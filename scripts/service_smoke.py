"""CI smoke test for ``repro serve``: boot, round-trip, well-formed trace.

Starts the real CLI entry point (``python -m repro.cli serve``) as a
subprocess against a temporary artifact store on an OS-assigned port, then
exercises the HTTP surface end to end:

1. ``GET /healthz`` answers healthy.
2. ``POST /integrate`` merges two small tables and the response carries a
   well-formed trace: every stage timing, every traced counter of
   ``repro.obs``, and a positive total — while a silent connection (connected,
   never sending) stays open beside it, which must not hold up the answer.
3. A second identical ``POST /integrate`` is served from the warm engine —
   its trace must report zero raw embed calls.
4. ``GET /stats`` accounts for both requests, and its counters satisfy the
   accounting identity over every terminal outcome.
5. A body with two tables of one name, one with a list as a cell, one with a
   cell that overflows to infinity (``1e400``) and one with a numeric column
   name each get 400 naming the offending field, and never reach the
   service.
6. ``GET /healthz`` still answers healthy, counting both served requests.

The server runs with ``--processes N`` when the script is given it (CI runs
it with 1 and with 2): with two processes the second request may land on the
process that did not embed the values, and ``/healthz`` and ``/stats`` may be
answered by either process — the checks above must hold anyway.

Exits non-zero (with the server log on stderr) on any failure, so the CI
job fails loudly.  Run locally with ``python scripts/service_smoke.py
[--processes N]``.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import TERMINAL_OUTCOMES, TRACED  # noqa: E402

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
    "raw_embed_calls",
    *(counter.trace for counter in TRACED),
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


def with_second_table(**fields) -> bytes:
    return json.dumps({"tables": [INTEGRATE_BODY["tables"][0], {**INTEGRATE_BODY["tables"][1], **fields}]}).encode()


#: Bodies the server must refuse, and the field its 400 must name.
BAD_BODIES = (
    (with_second_table(name="population"), "tables[1].name"),
    (with_second_table(rows=[["Berlin", ["63%"]]]), "tables[1].rows[0][1]"),
    # Valid JSON whose number overflows a float: Python would write it back as Infinity.
    (with_second_table(rows=[["Berlin", "OVERFLOW"]]).replace(b'"OVERFLOW"', b"1e400"), "tables[1].rows[0][1]"),
    (with_second_table(columns=["City", 7]), "tables[1].columns[1]"),
)


def refused(port: int, data: bytes) -> tuple:
    """``(status, error)`` of a ``POST /integrate`` the server answers with an error."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/integrate", data=data, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        urllib.request.urlopen(req, timeout=30).close()
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()).get("error", "")
    return 200, ""


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


def assert_accounting_identity(stats: dict) -> None:
    outcomes = sum(stats[outcome] for outcome in TERMINAL_OUTCOMES)
    expect(
        stats["submitted"] == outcomes + stats["in_flight"],
        f"/stats breaks submitted == {' + '.join(TERMINAL_OUTCOMES)} + in_flight: {stats}",
    )


def serve(extra_args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *extra_args],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
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

            silent = socket.create_connection(("127.0.0.1", port))  # never sends a byte
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

            for body, field in BAD_BODIES:
                status, error = refused(port, body)
                expect(status == 400 and field in error, f"expected 400 naming {field}, got {status}: {error}")

            stats = request(port, "GET", "/stats")
            expect(stats.get("served") == 2, f"stats said served={stats.get('served')}")
            expect(stats.get("submitted") == 2, "stats lost a submission")
            assert_accounting_identity(stats)
            silent.close()

            health = request(port, "GET", "/healthz")
            expect(health == {"status": "healthy", "requests_served": 2}, f"healthz after two requests said {health}")

            print(
                f"service smoke OK: healthz + 2x integrate beside a silent connection + {len(BAD_BODIES)}x refused body"
                " + stats + healthz, traces well-formed"
            )
            return 0
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
