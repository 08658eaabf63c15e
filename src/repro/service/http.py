"""Stdlib-only HTTP adapter over :class:`IntegrationService`.

A deliberately small blocking HTTP/1.1 server — no framework, no event loop,
no new dependencies — exposing the three endpoints a deployment needs:

``POST /integrate``
    Body: ``{"tables": [{"name", "columns", "rows"}, ...],
    "deadline_ms": <optional>, "overrides": {<optional REQUEST_OVERRIDES>}}``.
    Replies with the integrated table, the request trace and a ``status``;
    the HTTP code mirrors the service outcome (200 ok, 504 deadline
    exceeded, 503 when the embedder raised ``EmbedderUnavailable`` under
    ``degraded_mode="off"``, 400 bad request / pipeline error).
``GET /stats``
    The :meth:`IntegrationService.stats` snapshot as JSON, aggregated over
    every server process.
``GET /healthz``
    200 ``{"status": "healthy", "requests_served": n}`` while the server
    answers at all.

The body's rows decode straight into code columns
(:class:`~repro.table.relation.Relation`), JSON ``null`` being a missing
value, and the response's rows decode straight from the survivors' codes,
every null as ``null`` — so a round-trip preserves the missing-value
semantics of Figure 1.

:func:`serve` is one server process: it accepts a connection only while it
is idle, then reads, dispatches and answers that connection's one request
(``Connection: close``) on the same thread before it accepts the next.
Connections that arrive meanwhile wait in the listening socket's backlog,
where under ``repro serve --processes N`` whichever process frees up first
takes them.  Malformed input is answered, never dropped: a bad
``Content-Length``, two tables of one name, a column name that is not a
string, a non-list row, a cell that is not a JSON scalar or a number that is
not finite gets 400 naming the offending part, and a request not fully read
within :data:`REQUEST_READ_TIMEOUT_S` gets 408, so a slow client holds a
process for that long at most.
"""

from __future__ import annotations

import json
import math
import select
import socket
import time
import traceback
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.service.service import IntegrationService
from repro.service.types import DeadlineExceeded, IntegrationResponse, ServiceResponse
from repro.table.relation import Relation
from repro.table.table import Table

#: Service outcome ``status`` -> HTTP status line.
STATUS_CODES = {
    "ok": (200, "OK"),
    "deadline_exceeded": (504, "Gateway Timeout"),
    "unavailable": (503, "Service Unavailable"),
    "error": (400, "Bad Request"),
}

MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest request or header line, in bytes.
MAX_LINE_BYTES = 64 * 1024

#: Seconds a client has to deliver one whole request (line, headers, body).
REQUEST_READ_TIMEOUT_S = 30.0

#: An answer as :func:`_encode_response` takes it: code, reason, body.
Answer = Tuple[int, str, Dict[str, Any]]


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
    columns; a repeated name, a name or column name that is not a string or a cell
    that is no finite JSON scalar is a :class:`BadRequest` naming the
    offending part."""
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
        for position, column in enumerate(columns):
            if not isinstance(column, str):
                raise BadRequest(f"tables[{index}].columns[{position}] must be a string, got {type(column).__name__}")
        rows = entry.get("rows", [])
        if not isinstance(rows, list):
            raise BadRequest(f"tables[{index}].rows must be a list of rows")
        name = entry.get("name", f"table_{index}")
        if not isinstance(name, str):
            raise BadRequest(f"tables[{index}].name must be a string, got {type(name).__name__}")
        if name in names:
            raise BadRequest(f"tables[{index}].name {name!r} repeats tables[{names[name]}].name")
        names[name] = index
        _check_rows(index, rows, len(columns))
        try:
            relations.append(Relation.encode(name, columns, rows))
        except ValueError as exc:
            raise BadRequest(f"tables[{index}]: {exc}") from exc
    return relations


def _check_rows(index: int, rows: List[Any], width: int) -> None:
    """Rows are lists of ``width`` JSON scalars, every number finite; else name the first offender."""
    if {list} >= set(map(type, rows)) and {width} >= set(map(len, rows)):
        types = set(map(type, chain.from_iterable(rows)))
        finite = float not in types or all(math.isfinite(cell) for cell in chain.from_iterable(rows) if type(cell) is float)
        if CELL_TYPES >= types and finite:
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
            if type(cell) is float and not math.isfinite(cell):
                raise BadRequest(f"{where}[{cell_index}] must be a finite number, got {cell}")


def _no_constant(name: str) -> Any:
    """``json.loads`` hook: ``NaN`` / ``Infinity`` / ``-Infinity`` are not JSON."""
    raise BadRequest(f"body is not valid JSON: {name} is not a number")


def response_to_json(response: ServiceResponse) -> Dict[str, Any]:
    """The JSON body for any service response (trace included when present)."""
    body: Dict[str, Any] = {
        "status": response.status,
        "request_id": response.request_id,
        "trace": response.trace.to_dict() if response.trace is not None else None,
    }
    if isinstance(response, IntegrationResponse) and response.result is not None:
        body["table"] = table_to_json(response.result.fd_result.relation)
    elif isinstance(response, DeadlineExceeded):
        body["stage"] = response.stage
        body["deadline_ms"] = response.deadline_ms
    else:
        error = getattr(response, "error", None)
        if error:
            body["error"] = error
    return body


def _read_request(connection: socket.socket) -> Optional[Tuple[str, str, bytes]]:
    """(method, path, body) of one HTTP/1.1 request read whole within
    :data:`REQUEST_READ_TIMEOUT_S` (else :class:`TimeoutError`); None when
    the client closed without a byte."""
    deadline = time.monotonic() + REQUEST_READ_TIMEOUT_S
    buffer = bytearray()

    def receive() -> bool:
        """Append what arrives before the deadline; False at end of stream."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError
        connection.settimeout(remaining)
        chunk = connection.recv(1 << 16)
        buffer.extend(chunk)
        return bool(chunk)

    lines: List[str] = []
    start = 0
    while True:  # the head: lines up to the first empty one (or the end of stream)
        end = buffer.find(b"\n", start)
        if (end if end >= 0 else len(buffer)) - start > MAX_LINE_BYTES:
            raise BadRequest(f"line longer than {MAX_LINE_BYTES} bytes")
        if end < 0:
            if receive():
                continue
            end = len(buffer)  # the stream ended: what is left is the last line
        line = buffer[start:end].rstrip(b"\r").decode("latin-1")
        start = min(end + 1, len(buffer))
        if not line:
            break
        lines.append(line)
    if not buffer:  # closed without a byte
        return None
    parts = lines[0].split() if lines else []
    if len(parts) < 2:
        raise BadRequest("malformed request line")
    method, path = parts[0].upper(), parts[1]
    content_length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise BadRequest("invalid Content-Length") from exc
            if content_length < 0:
                raise BadRequest(f"invalid Content-Length {content_length}")
    if content_length > MAX_BODY_BYTES:
        raise BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
    while len(buffer) - start < content_length:
        if not receive():
            raise BadRequest(f"body ended after {len(buffer) - start} of {content_length} bytes")
    return method, path, bytes(buffer[start : start + content_length])


def _encode_response(code: int, reason: str, payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload, default=str, allow_nan=False).encode("utf-8")
    head = (
        f"HTTP/1.1 {code} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _dispatch(service: IntegrationService, method: str, path: str, body: bytes) -> Answer:
    path = path.split("?", 1)[0]
    if method == "GET" and path == "/healthz":
        return 200, "OK", {"status": "healthy", **service.health()}
    if method == "GET" and path == "/stats":
        return 200, "OK", service.stats().to_dict()
    if method == "POST" and path == "/integrate":
        try:
            payload = json.loads(body.decode("utf-8"), parse_constant=_no_constant)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        tables = tables_from_json(payload.get("tables"))
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (type(deadline_ms) not in (int, float) or not 0 < deadline_ms < math.inf):
            raise BadRequest("deadline_ms must be a positive number")
        overrides = payload.get("overrides", {})
        if not isinstance(overrides, dict):
            raise BadRequest("overrides must be an object")
        try:
            service.engine.effective_config(overrides)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"overrides: {exc}") from exc
        response = service.integrate_sync(tables, deadline_ms=deadline_ms, **overrides)
        code, reason = STATUS_CODES.get(response.status, (500, "Internal Server Error"))
        return code, reason, response_to_json(response)
    return 404, "Not Found", {"status": "error", "error": f"no route {method} {path}"}


def handle_connection(service: IntegrationService, connection: socket.socket) -> None:
    """Serve the one request of ``connection`` on this thread, then close it."""
    with connection:
        try:
            request = _read_request(connection)
            if request is None:
                return
            answer = _dispatch(service, *request)
        except BadRequest as exc:
            answer = 400, "Bad Request", {"status": "error", "error": str(exc)}
        except TimeoutError:
            answer = 408, "Request Timeout", {
                "status": "error",
                "error": f"request not read within {REQUEST_READ_TIMEOUT_S:g} s",
            }
        except OSError:  # the client went away mid-request
            return
        try:
            connection.settimeout(REQUEST_READ_TIMEOUT_S)
            connection.sendall(_encode_response(*answer))
        except OSError:  # the client went away, or stopped reading its answer
            pass


def serve(
    service: IntegrationService,
    listener: socket.socket,
    wake_fd: int,
    on_wake: Callable[[], bool] = lambda: True,
) -> None:
    """One server process: wait on ``listener`` and ``wake_fd``; accept and
    serve one connection at a time; when ``wake_fd`` is readable, stop if
    ``on_wake()`` says so.  A connection a sibling took first, or a request
    that fails unforeseen (reported, then closed), does not end the loop."""
    listener.setblocking(False)
    while True:
        ready = select.select([listener, wake_fd], [], [])[0]
        if wake_fd in ready and on_wake():
            return
        if listener in ready:
            try:
                connection = listener.accept()[0]
            except (BlockingIOError, ConnectionAbortedError):
                continue
            try:
                handle_connection(service, connection)
            except Exception:  # noqa: BLE001 — one request's failure must not end the process
                traceback.print_exc()
