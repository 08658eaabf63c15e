"""Cold-start budget: what a one-shot request and a freshly booted server load.

A one-shot ``repro integrate`` is interpreter + numpy + ``import repro`` + the
request, so every module on that path is latency a user waits for.  Both tests
run in a fresh interpreter (``fresh_python``): in the pytest process everything
is long since imported.
"""

from __future__ import annotations

import json

#: Modules a paper-preset request may load on top of interpreter + numpy:
#: 115 when recorded (numpy 2.4, Python 3.11) + 10 %.  Counted from after
#: ``import numpy`` so that a numpy or Python upgrade does not spend the budget.
#: The parent of the commit that recorded it loaded 704 (``scipy.optimize``
#: alone is 547, the serving layer 46).
MODULE_BUDGET = 126

#: Never needed by ``import repro`` + one paper-preset request.
NOT_ON_THE_ONE_SHOT_PATH = [
    "scipy.optimize",
    "asyncio",
    "http.server",
    "repro.service",
    "repro.testing",
    "repro.em",
    "repro.evaluation",
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


def test_first_served_request_loads_no_module(fresh_python):
    # The served twin: boot (importing repro.service, building the service)
    # pre-imports and binds, so no request ever waits for a module to load.
    seen = fresh_python(
        f"""
        import asyncio, json, sys
        from repro.service import IntegrationService
        from repro.service.http import start_http_server

        async def post(port, body):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                f"POST /integrate HTTP/1.1\\r\\nHost: localhost\\r\\n"
                f"Content-Length: {{len(body)}}\\r\\nConnection: close\\r\\n\\r\\n".encode() + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return json.loads(raw.partition(b"\\r\\n\\r\\n")[2])

        async def main():
            async with IntegrationService("paper") as service:
                server = await start_http_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                body = json.dumps({{"tables": json.loads({TABLES!r})}}).encode()
                before = set(sys.modules)
                reply = await post(port, body)
                added = sorted(set(sys.modules) - before)
                server.close()
                await server.wait_closed()
                return {{"status": reply["status"], "rows": len(reply["table"]["rows"]), "added": added}}

        print(json.dumps(asyncio.run(main())))
        """
    )
    assert seen == {"status": "ok", "rows": 2, "added": []}
