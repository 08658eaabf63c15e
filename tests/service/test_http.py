"""HTTP adapter: routing, JSON table round-trips, status-code mapping."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import IntegrationService
from repro.service.http import (
    BadRequest,
    start_http_server,
    table_to_json,
    tables_from_json,
)
from repro.table import Table
from repro.table.nulls import NULL, LabeledNull


async def _request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange against localhost; returns (status, json body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    return status, json.loads(body_blob.decode())


def _run(scenario):
    """Run an async scenario against a fresh service + bound server."""

    async def main():
        async with IntegrationService("fast") as service:
            server = await start_http_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await scenario(port, service)
            finally:
                server.close()
                await server.wait_closed()

    return asyncio.run(main())


INTEGRATE_BODY = {
    "tables": [
        {"name": "a", "columns": ["name", "city"], "rows": [["alice", "nyc"], ["bob", None]]},
        {"name": "b", "columns": ["name", "country"], "rows": [["alice", "usa"]]},
    ]
}


class TestEndpoints:
    def test_healthz(self):
        async def scenario(port, service):
            return await _request(port, "GET", "/healthz")

        status, body = _run(scenario)
        assert status == 200
        assert body["status"] == "healthy"
        assert body["requests_served"] == 0
        assert body["breaker"]["state"] == "closed"

    def test_integrate_round_trip_with_trace(self):
        async def scenario(port, service):
            return await _request(port, "POST", "/integrate", INTEGRATE_BODY)

        status, body = _run(scenario)
        assert status == 200
        assert body["status"] == "ok"
        trace = body["trace"]
        assert set(trace["stage_seconds"]) == {"align", "match", "integrate"}
        assert trace["total_seconds"] > 0
        table = body["table"]
        assert set(table["columns"]) == {"name", "city", "country"}
        merged = [row for row in table["rows"] if row[table["columns"].index("name")] == "alice"]
        assert merged and "usa" in merged[0]
        # bob had a null city on the way in; nulls survive the round trip.
        bob = [row for row in table["rows"] if "bob" in row]
        assert bob and None in bob[0]

    def test_stats_reflects_served_requests(self):
        async def scenario(port, service):
            await _request(port, "POST", "/integrate", INTEGRATE_BODY)
            return await _request(port, "GET", "/stats")

        status, body = _run(scenario)
        assert status == 200
        assert body["served"] == 1
        assert body["submitted"] == 1

    def test_unknown_route_is_404(self):
        async def scenario(port, service):
            return await _request(port, "GET", "/nope")

        status, body = _run(scenario)
        assert status == 404
        assert body["status"] == "error"

    def test_malformed_json_is_400(self):
        async def scenario(port, service):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            blob = b"not json"
            writer.write(
                b"POST /integrate HTTP/1.1\r\nContent-Length: "
                + str(len(blob)).encode()
                + b"\r\n\r\n"
                + blob
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split(b" ", 2)[1])

        assert _run(scenario) == 400

    def test_missing_tables_is_400(self):
        async def scenario(port, service):
            return await _request(port, "POST", "/integrate", {"tables": []})

        status, body = _run(scenario)
        assert status == 400
        assert "tables" in body["error"]

    def test_bad_deadline_is_400(self):
        async def scenario(port, service):
            return await _request(
                port, "POST", "/integrate", {**INTEGRATE_BODY, "deadline_ms": -5}
            )

        status, body = _run(scenario)
        assert status == 400
        assert "deadline_ms" in body["error"]

    def test_overloaded_maps_to_503(self):
        async def scenario(port, service):
            # Shrink the admission window after construction: in_flight(0)
            # can never be < capacity... so force capacity to zero requests
            # by taking the gauge over the limit directly.
            service.max_pending = 0
            with service._lock:
                service._in_flight = service.max_concurrency
            try:
                return await _request(port, "POST", "/integrate", INTEGRATE_BODY)
            finally:
                with service._lock:
                    service._in_flight = 0

        status, body = _run(scenario)
        assert status == 503
        assert body["status"] == "overloaded"
        assert body["max_pending"] == 0


async def _raw_exchange(port: int, blob: bytes):
    """Send ``blob`` as is, keep the connection open, read the answer.

    Returns ``(status, json body)``, or ``(None, None)`` when the server
    closed without answering.  A server that never answers fails the test
    through the client-side timeout instead of hanging it.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(blob)
    await writer.drain()
    try:
        raw = await asyncio.wait_for(reader.read(), timeout=10.0)
    finally:
        writer.close()
    if not raw:
        return None, None
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    return int(header_blob.split(b" ", 2)[1]), json.loads(body_blob.decode())


def _post_raw(body: bytes, content_length: int | None = None) -> bytes:
    length = len(body) if content_length is None else content_length
    return b"POST /integrate HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length + body


class TestHostileInput:
    """Malformed or slow requests get a typed answer, never a dropped connection."""

    def test_negative_content_length_is_400(self):
        async def scenario(port, service):
            return await _raw_exchange(port, _post_raw(b"{}", content_length=-5))

        status, body = _run(scenario)
        assert status == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize("row", [5, "xy", {"a": 1}], ids=["number", "string", "object"])
    def test_row_that_is_not_a_list_is_400_naming_table_and_row(self, row):
        payload = {
            "tables": [
                {"name": "a", "columns": ["a"], "rows": [["ok"]]},
                {"name": "b", "columns": ["a"], "rows": [["ok"], row]},
            ]
        }

        async def scenario(port, service):
            return await _raw_exchange(port, _post_raw(json.dumps(payload).encode()))

        status, body = _run(scenario)
        assert status == 400
        assert "tables[1].rows[1]" in body["error"]

    def test_request_line_over_the_stream_limit_is_400(self):
        async def scenario(port, service):
            return await _raw_exchange(port, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")

        status, body = _run(scenario)
        assert status == 400
        assert body["status"] == "error"

    def test_truncated_body_is_408(self, monkeypatch):
        import repro.service.http as http_module

        monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT_S", 0.2)

        async def scenario(port, service):
            return await _raw_exchange(port, _post_raw(b'{"tables": [', content_length=100))

        status, body = _run(scenario)
        assert status == 408
        assert body["status"] == "error"

    def test_silent_client_is_408(self, monkeypatch):
        import repro.service.http as http_module

        monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT_S", 0.2)

        async def scenario(port, service):
            return await _raw_exchange(port, b"")

        status, _body = _run(scenario)
        assert status == 408


class TestJsonTables:
    def test_nulls_serialise_as_none(self):
        table = Table("t", ["a", "b"], [(NULL, 1), (LabeledNull(7), "x")])
        payload = table_to_json(table)
        assert payload["rows"] == [[None, 1], [None, "x"]]

    def test_none_cells_parse_to_null(self):
        [table] = tables_from_json(
            [{"name": "t", "columns": ["a"], "rows": [[None], ["x"]]}]
        )
        assert table.rows[0][0] is NULL
        assert table.rows[1][0] == "x"

    def test_non_list_row_names_its_table_and_position(self):
        with pytest.raises(BadRequest, match=r"tables\[0\]\.rows\[1\] must be a list of cells, got str"):
            tables_from_json([{"columns": ["a", "b"], "rows": [["x", "y"], "xy"]}])

    def test_default_table_names(self):
        [table] = tables_from_json([{"columns": ["a"], "rows": []}])
        assert table.name == "table_0"

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            ["not an object"],
            [{"rows": []}],
            [{"columns": []}],
            [{"columns": ["a"], "rows": "nope"}],
            [{"columns": ["a"], "rows": [["too", "wide"]]}],
        ],
    )
    def test_invalid_payloads_raise_bad_request(self, payload):
        with pytest.raises(BadRequest):
            tables_from_json(payload)
