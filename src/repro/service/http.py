"""Stdlib-only HTTP adapter over :class:`IntegrationService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no new dependencies — exposing the three endpoints a deployment
needs:

``POST /integrate``
    Body: ``{"tables": [{"name", "columns", "rows"}, ...],
    "deadline_ms": <optional>, "overrides": {<optional REQUEST_OVERRIDES>}}``.
    Replies with the integrated table, the request trace and a ``status``;
    the HTTP code mirrors the service outcome (200 ok, 503 overloaded,
    504 deadline exceeded, 503 + ``Retry-After`` when the embedder breaker
    is open under ``degraded_mode="fail"``, 400 bad request / pipeline
    error).
``GET /stats``
    The :meth:`IntegrationService.stats` snapshot as JSON (including the
    embedder breaker state), aggregated over every server process.
``GET /healthz``
    Three-state health driven by the embedder circuit breakers — the worst
    state of the live server processes: ``"healthy"`` (closed, 200),
    ``"degraded"`` (open but ``degraded_mode="surface"`` keeps answers
    flowing, 200), or ``"unhealthy"`` (open with no degraded path, 503).

The body's rows decode straight into code columns
(:class:`~repro.table.relation.Relation`), JSON ``null`` being a missing
value, and the response's rows decode straight from the survivors' codes,
every null as ``null`` — so a round-trip preserves the missing-value
semantics of Figure 1.

Each connection carries one request (``Connection: close``).  Under
``repro serve --processes N`` the connection is what the kernel hands to
whichever server process accepts first, so closing after every response lets
a client's next request go to an idle process instead of pinning it to the
one that served it last.  Malformed input is answered, never dropped: a bad
``Content-Length``, two tables of one name, a non-list row or a cell that is
not a JSON scalar gets 400 naming the offending part, and a request not
fully read within :data:`REQUEST_READ_TIMEOUT_S` gets 408 and the connection
closes, so a slow or silent client cannot hold a coroutine forever.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service.service import IntegrationService
from repro.service.types import (
    DeadlineExceeded,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    ServiceOverloaded,
    ServiceResponse,
)
from repro.table.relation import Relation
from repro.table.table import Table

#: Service outcome ``status`` -> HTTP status line.
STATUS_CODES = {
    "ok": (200, "OK"),
    "overloaded": (503, "Service Unavailable"),
    "deadline_exceeded": (504, "Gateway Timeout"),
    "unavailable": (503, "Service Unavailable"),
    "error": (400, "Bad Request"),
}

MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a client has to deliver one whole request (line, headers, body).
REQUEST_READ_TIMEOUT_S = 30.0


class BadRequest(ValueError):
    """The request body did not describe a valid integration request."""


def table_to_json(table: Union[Table, Relation]) -> Dict[str, Any]:
    """Serialise a table, its rows decoded from codes; every null becomes ``null``.
    (The pipeline benchmark and the service tests serialise request tables.)"""
    return {"name": table.name, "columns": list(table.columns), "rows": list(map(list, Relation.of(table).decode(null=None)))}


#: The JSON types a cell may have (``null`` is a missing value).
CELL_TYPES = frozenset({str, int, float, bool, type(None)})


def tables_from_json(payload: Any) -> List[Relation]:
    """Parse the ``tables`` field of an ``/integrate`` body straight into
    columns; a repeated name or a cell that is no JSON scalar is a
    :class:`BadRequest` naming the offending part."""
    if not isinstance(payload, list) or not payload:
        raise BadRequest("'tables' must be a non-empty list of table objects")
    relations: List[Relation] = []
    names: Dict[str, int] = {}
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict) or "columns" not in entry:
            raise BadRequest(f"tables[{index}] must be an object with 'columns'")
        columns = entry["columns"]
        if not isinstance(columns, list) or not columns:
            raise BadRequest(f"tables[{index}].columns must be a non-empty list")
        rows = entry.get("rows", [])
        if not isinstance(rows, list):
            raise BadRequest(f"tables[{index}].rows must be a list of rows")
        name = str(entry.get("name", f"table_{index}"))
        if name in names:
            raise BadRequest(f"tables[{index}].name {name!r} repeats tables[{names[name]}].name")
        names[name] = index
        _check_rows(index, rows, len(columns))
        try:
            relations.append(Relation.encode(name, [str(column) for column in columns], rows))
        except ValueError as exc:
            raise BadRequest(f"tables[{index}]: {exc}") from exc
    return relations


def _check_rows(index: int, rows: List[Any], width: int) -> None:
    """Rows are lists of ``width`` JSON scalars; else name the first offender."""
    if {list} >= set(map(type, rows)) and {width} >= set(map(len, rows)) and CELL_TYPES >= set(map(type, chain.from_iterable(rows))):
        return
    for position, row in enumerate(rows):
        where = f"tables[{index}].rows[{position}]"
        if not isinstance(row, list):
            raise BadRequest(f"{where} must be a list of cells, got {type(row).__name__}")
        if len(row) != width:
            raise BadRequest(f"{where} has {len(row)} cells for {width} columns")
        for cell_index, cell in enumerate(row):
            if type(cell) not in CELL_TYPES:
                raise BadRequest(f"{where}[{cell_index}] must be a string, number, boolean or null, got {type(cell).__name__}")


def response_to_json(response: ServiceResponse) -> Dict[str, Any]:
    """The JSON body for any service response (trace included when present)."""
    body: Dict[str, Any] = {
        "status": response.status,
        "request_id": response.request_id,
        "trace": response.trace.to_dict() if response.trace is not None else None,
    }
    if isinstance(response, IntegrationResponse) and response.result is not None:
        body["table"] = table_to_json(response.result.fd_result.relation)
    elif isinstance(response, ServiceOverloaded):
        body["pending"] = response.pending
        body["max_pending"] = response.max_pending
    elif isinstance(response, DeadlineExceeded):
        body["stage"] = response.stage
        body["deadline_ms"] = response.deadline_ms
    elif isinstance(response, EmbedderUnavailableResponse):
        body["error"] = response.error
        body["retry_after_ms"] = response.retry_after_ms
    else:
        error = getattr(response, "error", None)
        if error:
            body["error"] = error
    return body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line over the stream's limit is a bad request."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise BadRequest(f"line too long: {exc}") from exc


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Read one HTTP/1.1 request; returns (method, path, body) or None on EOF."""
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise BadRequest("invalid Content-Length") from exc
            if content_length < 0:
                raise BadRequest(f"invalid Content-Length {content_length}")
    if content_length > MAX_BODY_BYTES:
        raise BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(content_length) if content_length else b""
    return method, path, body


def _encode_response(
    code: int,
    reason: str,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    body = json.dumps(payload, default=str).encode("utf-8")
    extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.1 {code} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _health_payload(
    service: IntegrationService,
) -> Tuple[int, str, Dict[str, Any], Dict[str, str]]:
    """Three-state health: breaker closed / open-with-fallback / open-dark."""
    payload: Dict[str, Any] = service.health()
    if payload["breaker"]["state"] == "closed":
        payload["status"] = "healthy"
        return 200, "OK", payload, {}
    # half_open counts like open: the embedder is not known-good yet, but a
    # surface fallback still answers requests, so the pod should stay in
    # rotation ("degraded") rather than be drained ("unhealthy").
    if service.engine.config.degraded_mode == "surface":
        payload["status"] = "degraded"
        return 200, "OK", payload, {}
    payload["status"] = "unhealthy"
    retry_after = _retry_after_header(float(payload["breaker"]["retry_after_ms"]))
    return 503, "Service Unavailable", payload, retry_after


def _retry_after_header(retry_after_ms: float) -> Dict[str, str]:
    """``Retry-After`` (whole seconds, >= 1) from a breaker window in ms."""
    return {"Retry-After": str(max(1, math.ceil(retry_after_ms / 1000.0)))}


async def _dispatch(
    service: IntegrationService, method: str, path: str, body: bytes
) -> Tuple[int, str, Dict[str, Any], Dict[str, str]]:
    path = path.split("?", 1)[0]
    if method == "GET" and path == "/healthz":
        return _health_payload(service)
    if method == "GET" and path == "/stats":
        return 200, "OK", service.stats().to_dict(), {}
    if method == "POST" and path == "/integrate":
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        tables = tables_from_json(payload.get("tables"))
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise BadRequest("deadline_ms must be a positive number")
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, dict):
            raise BadRequest("overrides must be an object")
        response = await service.integrate(
            tables, deadline_ms=deadline_ms, **overrides
        )
        code, reason = STATUS_CODES.get(response.status, (500, "Internal Server Error"))
        headers: Dict[str, str] = {}
        if isinstance(response, EmbedderUnavailableResponse):
            headers = _retry_after_header(response.retry_after_ms)
        return code, reason, response_to_json(response), headers
    return 404, "Not Found", {"status": "error", "error": f"no route {method} {path}"}, {}


async def handle_connection(
    service: IntegrationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one request on one connection, then close it."""
    try:
        try:
            request = await asyncio.wait_for(_read_request(reader), REQUEST_READ_TIMEOUT_S)
            if request is None:
                return
            code, reason, payload, headers = await _dispatch(service, *request)
        except (BadRequest, asyncio.IncompleteReadError) as exc:
            code, reason, payload, headers = 400, "Bad Request", {
                "status": "error",
                "error": str(exc),
            }, {}
        except asyncio.TimeoutError:
            code, reason, payload, headers = 408, "Request Timeout", {
                "status": "error",
                "error": f"request not read within {REQUEST_READ_TIMEOUT_S:g} s",
            }, {}
        writer.write(_encode_response(code, reason, payload, headers))
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client gone
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def start_http_server(
    service: IntegrationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    sock: Optional[socket.socket] = None,
) -> asyncio.AbstractServer:
    """Bind and return the server (``port=0`` picks a free port).

    The bound address is ``server.sockets[0].getsockname()`` — the CLI
    prints it so scripted callers (the CI smoke job) can target an
    OS-assigned port.  ``sock`` serves an already bound listening socket
    instead (what every pre-forked server process shares).
    """

    async def _handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await handle_connection(service, reader, writer)

    if sock is not None:
        return await asyncio.start_server(_handler, sock=sock)
    return await asyncio.start_server(_handler, host=host, port=port)


async def serve_forever(
    service: IntegrationService, host: str = "127.0.0.1", port: int = 0
) -> None:
    """Blocking entry point of ``repro serve``: run until cancelled."""
    server = await start_http_server(service, host=host, port=port)
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    async with server:
        await server.serve_forever()
