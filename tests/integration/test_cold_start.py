"""Cold-start budget: what a one-shot request and a freshly booted server load.

A one-shot ``repro integrate`` is interpreter + numpy + ``import repro`` + the
request, so every module on that path is latency a user waits for.  Both tests
run in a fresh interpreter (``fresh_python``): in the pytest process everything
is long since imported.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: Modules a paper-preset request may load on top of interpreter + numpy:
#: 63 when recorded (numpy 2.4.6, Python 3.11.7) + 15 %.  Counted from after
#: ``import numpy`` so that a numpy or Python upgrade does not spend the budget.
#: The margin is 15 %, not 10 %, because the count was taken on Python 3.11
#: only, and other Python versions import a few standard-library modules more
#: or fewer.  Before the first budget a request loaded 704 (``scipy.optimize``
#: alone is 547, the serving layer 46).
MODULE_BUDGET = 72

#: Never needed by ``import repro`` + one paper-preset request.
NOT_ON_THE_ONE_SHOT_PATH = [
    "scipy.optimize",
    "asyncio",
    "http.server",
    "repro.service",
    "repro.testing",
    "repro.em",
    "repro.evaluation",
    # An engine serves one request at a time: no request-level pool to import.
    "concurrent.futures",
    # Loaded by the first np.unique call (numpy >= 2.3, ≈ 10 ms); the package
    # uses the sort-based helpers of repro.utils.sorting instead.
    "numpy.ma",
]

#: The request, as the JSON text both scripts parse.
TABLES = json.dumps(
    [
        {"name": "a", "columns": ["City", "Country"], "rows": [["Berlinn", "Germany"], ["Paris", None]]},
        {"name": "b", "columns": ["City", "Vax"], "rows": [["Berlin", "63%"], ["Pariss", "70%"]]},
    ]
)


def test_one_shot_request_stays_inside_the_module_budget(fresh_python):
    seen = fresh_python(
        f"""
        import json, sys
        import numpy
        baseline = len(sys.modules)
        import repro
        tables = [
            repro.Table(t["name"], t["columns"], [tuple(row) for row in t["rows"]])
            for t in json.loads({TABLES!r})
        ]
        result = repro.IntegrationEngine("paper").integrate(tables)
        print(json.dumps({{
            "rows": result.table.num_rows,
            "added": len(sys.modules) - baseline,
            "loaded": [name for name in {NOT_ON_THE_ONE_SHOT_PATH!r} if name in sys.modules],
        }}))
        """
    )
    assert seen["rows"] == 2
    assert seen["loaded"] == []
    assert seen["added"] <= MODULE_BUDGET, f"{seen['added']} modules on top of numpy"


def test_first_served_request_loads_no_module(tmp_path):
    # The served twin: boot (importing repro.service, building the service,
    # binding the socket) pre-imports and binds, so no request ever waits for
    # a module to load.  ``-X importtime`` logs each first import as it
    # happens, so what the log gains after "serving on" the request loaded.
    log_path = tmp_path / "serve.log"
    environment = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    with open(log_path, "w") as log:
        server = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro.cli", "serve", "--preset", "paper", "--processes", "1", "--port", "0"],
            env=environment, stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 60
        while "serving on http://" not in log_path.read_text():
            assert server.poll() is None and time.monotonic() < deadline, log_path.read_text()
            time.sleep(0.01)
        booted = log_path.read_text()
        port = int(booted.split("serving on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        connection.request("POST", "/integrate", body=json.dumps({"tables": json.loads(TABLES)}).encode())
        reply = json.loads(connection.getresponse().read())
        connection.close()
        served = log_path.read_text()[len(booted) :]
    finally:
        server.terminate()
        server.wait(timeout=10)
    assert reply["status"] == "ok" and len(reply["table"]["rows"]) == 2
    assert _imported(served) == []
    # Nothing on a server's path needs an event loop or TLS.
    assert [name for name in _imported(booted) if name.split(".")[0] in ("asyncio", "ssl")] == []


def _imported(importtime_log: str) -> list:
    """The modules an ``-X importtime`` log records, in import order."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    ]
