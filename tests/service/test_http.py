"""HTTP adapter: routing, JSON table round-trips, status-code mapping."""

from __future__ import annotations

import json
import socket
import time

import pytest

import repro.service.http as http_module
from repro.core import FuzzyFDConfig
from repro.embeddings import MistralEmbedder
from repro.service import IntegrationService
from repro.service.http import BadRequest, table_to_json, tables_from_json
from repro.table import Table
from repro.table.nulls import NULL, LabeledNull


@pytest.fixture
def served(serve_http):
    """A fresh service and the loopback server in front of it."""
    service = IntegrationService("fast")
    with serve_http(service) as server:
        yield server, service
    service.close()


INTEGRATE_BODY = {
    "tables": [
        {"name": "a", "columns": ["name", "city"], "rows": [["alice", "nyc"], ["bob", None]]},
        {"name": "b", "columns": ["name", "country"], "rows": [["alice", "usa"]]},
    ]
}


class BrokenEmbedder(MistralEmbedder):
    """Raises a plain ``RuntimeError`` (not ``EmbedderUnavailable``) while ``broken``."""

    broken = True

    def embed_many(self, values):
        if self.broken:
            raise RuntimeError("model weights are corrupt")
        return super().embed_many(values)


def _post(body):
    """A call of ``TestEmbedderFaults._serve``: ``POST /integrate`` with ``body``."""
    return lambda server: server.request("POST", "/integrate", body)


def _get(path):
    return lambda server: server.request("GET", path)


class TestEmbedderFaults:
    """What a failing embedder looks like over a socket: a typed JSON body,
    never an unhandled 500, and a server that keeps serving."""

    #: "Berlinn" and "Berlin" are left after exact pairing, so every request embeds.
    BODY = {
        "tables": [
            {"name": "T1", "columns": ["City"], "rows": [["Berlinn"], ["Toronto"]]},
            {"name": "T2", "columns": ["City"], "rows": [["Berlin"], ["Toronto"]]},
        ]
    }

    def _serve(self, serve_http, embedder, degraded_mode, *calls):
        service = IntegrationService(FuzzyFDConfig(embedder=embedder, degraded_mode=degraded_mode))
        with serve_http(service) as server:
            answers = [call(server) for call in calls]
        service.close()
        return answers

    def test_an_embedder_error_is_a_typed_400_and_the_next_request_is_served(self, serve_http):
        embedder = BrokenEmbedder()

        def heal(server):
            embedder.broken = False
            return _post(self.BODY)(server)

        failed, served, stats = self._serve(
            serve_http, embedder, "surface",
            _post(self.BODY),
            heal,
            _get("/stats"),
        )
        status, _, body = failed
        assert status == 400
        assert body["status"] == "error"
        assert body["error"] == "RuntimeError: model weights are corrupt"
        assert body["trace"] is None and "table" not in body
        status, _, body = served
        assert status == 200 and body["status"] == "ok" and body["trace"]["degraded"] is False
        status, _, body = stats
        assert (body["failed"], body["served"], body["submitted"], body["in_flight"]) == (1, 1, 2, 0)

    def test_an_unavailable_embedder_under_off_is_a_503_without_retry_after(self, serve_http, down_embedder):
        integrate, health, stats = self._serve(
            serve_http, down_embedder, "off",
            _post(self.BODY),
            _get("/healthz"),
            _get("/stats"),
        )
        status, headers, body = integrate
        assert status == 503
        assert "retry-after" not in headers
        assert body == {"status": "unavailable", "request_id": 1, "trace": None, "error": "embedding backend is down"}
        assert health[0] == 200 and health[2]["status"] == "healthy"
        assert (stats[2]["unavailable"], stats[2]["served"], stats[2]["failed"]) == (1, 0, 0)

    def test_an_unavailable_embedder_under_surface_is_a_degraded_200(self, serve_http, down_embedder):
        integrate, health, stats = self._serve(
            serve_http, down_embedder, "surface",
            _post(self.BODY),
            _get("/healthz"),
            _get("/stats"),
        )
        status, headers, body = integrate
        assert status == 200 and "retry-after" not in headers
        assert body["status"] == "ok" and body["trace"]["degraded"] is True
        assert health[0] == 200 and health[2] == {"status": "healthy", "requests_served": 1}
        assert (stats[2]["served"], stats[2]["degraded_served"]) == (1, 1)

    def test_a_request_override_picks_the_route_over_http(self, serve_http, down_embedder):
        body = dict(self.BODY, overrides={"degraded_mode": "surface"})
        surface, refused = self._serve(
            serve_http, down_embedder, "off",
            _post(body),
            _post(dict(self.BODY, overrides={"degraded_mode": "fail"})),
        )
        assert surface[0] == 200 and surface[2]["trace"]["degraded"] is True
        assert refused[0] == 400 and "degraded_mode" in refused[2]["error"]

    def test_the_served_table_is_the_clean_one_once_the_backend_is_back(self, serve_http, down_embedder):
        def heal(server):
            down_embedder.down = False
            return _post(self.BODY)(server)

        degraded, recovered = self._serve(
            serve_http, down_embedder, "surface",
            _post(self.BODY),
            heal,
        )
        (clean,) = self._serve(
            serve_http, MistralEmbedder(), "surface",
            _post(self.BODY),
        )
        assert degraded[2]["trace"]["degraded"] is True
        assert recovered[2]["trace"]["degraded"] is False
        assert recovered[2]["table"] == clean[2]["table"]


class TestEndpoints:
    def test_healthz(self, served):
        status, _, body = served[0].request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "healthy"
        assert body == {"status": "healthy", "requests_served": 0}

    def test_integrate_round_trip_with_trace(self, served):
        status, _, body = served[0].request("POST", "/integrate", INTEGRATE_BODY)
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

    def test_stats_reflects_served_requests(self, served):
        served[0].request("POST", "/integrate", INTEGRATE_BODY)
        status, _, body = served[0].request("GET", "/stats")
        assert status == 200
        assert body["served"] == 1
        assert body["submitted"] == 1

    def test_unknown_route_is_404(self, served):
        status, _, body = served[0].request("GET", "/nope")
        assert status == 404
        assert body["status"] == "error"

    def test_malformed_json_is_400(self, served):
        status, _, _ = served[0].raw(_post_raw(b"not json"))
        assert status == 400

    def test_missing_tables_is_400(self, served):
        status, _, body = served[0].request("POST", "/integrate", {"tables": []})
        assert status == 400
        assert "tables" in body["error"]

    def test_bad_deadline_is_400(self, served):
        status, _, body = served[0].request("POST", "/integrate", {**INTEGRATE_BODY, "deadline_ms": -5})
        assert status == 400
        assert "deadline_ms" in body["error"]


def _post_raw(body: bytes, content_length: int | None = None) -> bytes:
    length = len(body) if content_length is None else content_length
    return b"POST /integrate HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length + body


def _strict_json(blob: bytes):
    """Parse as a strict parser would: ``NaN`` / ``Infinity`` are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(blob, parse_constant=refuse)


class TestHostileInput:
    """Malformed or slow requests get a typed answer, never a dropped connection."""

    def test_negative_content_length_is_400(self, served):
        status, _, body = served[0].raw(_post_raw(b"{}", content_length=-5))
        assert status == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize("row", [5, "xy", {"a": 1}], ids=["number", "string", "object"])
    def test_row_that_is_not_a_list_is_400_naming_table_and_row(self, served, row):
        payload = {
            "tables": [
                {"name": "a", "columns": ["a"], "rows": [["ok"]]},
                {"name": "b", "columns": ["a"], "rows": [["ok"], row]},
            ]
        }
        status, _, body = served[0].raw(_post_raw(json.dumps(payload).encode()))
        assert status == 400
        assert "tables[1].rows[1]" in body["error"]

    def test_two_tables_of_one_name_are_400_naming_the_second(self, served):
        payload = {
            "tables": [
                {"name": "a", "columns": ["k", "v"], "rows": [["a", "x"]]},
                {"name": "a", "columns": ["k", "w"], "rows": [["a", "z"]]},
            ]
        }
        status, _, body = served[0].raw(_post_raw(json.dumps(payload).encode()))
        assert status == 400
        assert "tables[1].name 'a' repeats tables[0].name" in body["error"]

    @pytest.mark.parametrize("cell", [["a", "b"], {"a": 1}], ids=["list", "object"])
    def test_a_cell_that_is_not_a_scalar_is_400_naming_it(self, served, cell):
        server, service = served
        payload = {
            "tables": [
                {"name": "a", "columns": ["k", "v"], "rows": [["a", "x"]]},
                {"name": "b", "columns": ["k", "w"], "rows": [["a", "z"], ["b", cell]]},
            ]
        }
        status, _, body = server.raw(_post_raw(json.dumps(payload).encode()))
        assert status == 400
        assert "tables[1].rows[1][1] must be a string, number, boolean or null" in body["error"]
        assert service.stats().submitted == 0  # refused before any stage ran

    @pytest.mark.parametrize("number", ["1e400", "-1e400"])
    def test_a_number_that_overflows_is_400_naming_its_cell(self, served, number):
        server, service = served
        blob = (
            '{"tables": [{"name": "a", "columns": ["k", "v"], "rows": [["a", "x"]]},'
            ' {"name": "b", "columns": ["k", "w"], "rows": [["a", "z"], [%s, "y"]]}]}' % number
        ).encode()
        status, _, body = server.raw(_post_raw(blob))
        assert status == 400
        assert "tables[1].rows[1][0] must be a finite number" in body["error"]
        assert service.stats().submitted == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_are_not_json(self, served, literal):
        blob = ('{"tables": [{"name": "a", "columns": ["k"], "rows": [[%s]]}]}' % literal).encode()
        status, _, body = served[0].raw(_post_raw(blob))
        assert status == 400
        assert f"{literal} is not a number" in body["error"]

    def test_an_infinite_deadline_is_400(self, served):
        blob = json.dumps(INTEGRATE_BODY)[:-1].encode() + b', "deadline_ms": 1e400}'
        status, _, body = served[0].raw(_post_raw(blob))
        assert status == 400
        assert "deadline_ms" in body["error"]

    def test_every_answer_is_strict_json(self, served):
        payload = {
            "tables": [
                {"name": "l", "columns": ["k", "v"], "rows": [[1.5, "x"], [1e300, "y"]]},
                {"name": "r", "columns": ["k", "w"], "rows": [[1.5, "z"]]},
            ]
        }
        with socket.create_connection(("127.0.0.1", served[0].port), timeout=10) as connection:
            connection.sendall(_post_raw(json.dumps(payload).encode()))
            answer = b"".join(iter(lambda: connection.recv(1 << 16), b""))
        body = _strict_json(answer.partition(b"\r\n\r\n")[2])
        assert body["status"] == "ok"
        assert sorted(map(json.dumps, body["table"]["rows"])) == ['[1.5, "x", "z"]', '[1e+300, "y", null]']
        with pytest.raises(ValueError):
            http_module._encode_response(200, "OK", {"rows": [[float("inf"), "x"]]})

    @pytest.mark.parametrize("column", [1, None, {"x": 1}], ids=["number", "null", "object"])
    def test_a_column_name_that_is_not_a_string_is_400_naming_it(self, served, column):
        server, service = served
        payload = {
            "tables": [
                {"name": "a", "columns": ["1", "v"], "rows": [["a", "x"]]},
                {"name": "b", "columns": ["k", column], "rows": [["a", "z"]]},
            ]
        }
        status, _, body = server.raw(_post_raw(json.dumps(payload).encode()))
        assert status == 400
        assert f"tables[1].columns[1] must be a string, got {type(column).__name__}" in body["error"]
        assert service.stats().submitted == 0

    def test_true_is_not_the_number_one(self, served):
        payload = {
            "tables": [
                {"name": "l", "columns": ["k", "v"], "rows": [[1, "x"], [True, "y"]]},
                {"name": "r", "columns": ["k", "w"], "rows": [[1.0, "z"]]},
            ]
        }
        status, _, body = served[0].raw(_post_raw(json.dumps(payload).encode()))
        assert status == 200
        rows = body["table"]["rows"]
        assert sorted(map(json.dumps, rows)) == ['[1, "x", "z"]', '[true, "y", null]']

    def test_a_boolean_deadline_is_400_not_a_one_millisecond_budget(self, served):
        server, service = served
        status, _, body = server.request("POST", "/integrate", {**INTEGRATE_BODY, "deadline_ms": True})
        assert status == 400
        assert "deadline_ms must be a positive number" in body["error"]
        assert service.stats().submitted == 0

    @pytest.mark.parametrize("name", [None, 1, ["a"]], ids=["null", "number", "list"])
    def test_a_table_name_that_is_not_a_string_is_400_naming_it(self, served, name):
        # Stringified, 1 would have become "1" and null "None".
        server, service = served
        payload = {
            "tables": [
                {"name": "1", "columns": ["k", "v"], "rows": [["a", "x"]]},
                {"name": name, "columns": ["k", "w"], "rows": [["a", "z"]]},
            ]
        }
        status, _, body = server.raw(_post_raw(json.dumps(payload).encode()))
        assert status == 400
        assert f"tables[1].name must be a string, got {type(name).__name__}" in body["error"]
        assert service.stats().submitted == 0

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"threshold": "0.5"}, "threshold must be a number, got str"),
            ({"threshold": True}, "threshold must be a number, got bool"),
            ({"exact_first": "false"}, "exact_first must be a boolean, got str"),
            ({"blocking_cutoff": 2.5}, "blocking_cutoff must be an integer, got float"),
            ({"threshold": 2.0}, "threshold must be in (0, 1]"),
            ({"no_such_knob": 1}, "unknown per-request override(s) ['no_such_knob']"),
            ({"retry_max_attempts": 1}, "unknown per-request override(s) ['retry_max_attempts']"),
            ({"alignment": "by_name"}, "unknown per-request override(s) ['alignment']"),
        ],
        ids=["string", "boolean-number", "string-boolean", "float-integer", "out-of-range", "unknown", "engine-policy",
             "no-alignment-knob"],
    )
    def test_an_invalid_override_is_400_naming_the_field(self, served, overrides, named):
        server, service = served
        status, _, body = server.request("POST", "/integrate", {**INTEGRATE_BODY, "overrides": overrides})
        assert status == 400
        assert body["error"].startswith("overrides: ") and named in body["error"]
        assert service.stats().submitted == 0

    def test_request_line_over_the_line_limit_is_400(self, served):
        status, _, body = served[0].raw(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        assert status == 400
        assert body["status"] == "error"

    def test_truncated_body_is_408(self, served, monkeypatch):
        monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT_S", 0.2)
        started = time.monotonic()
        status, _, body = served[0].raw(_post_raw(b'{"tables": [', content_length=100))
        assert status == 408
        assert body["status"] == "error"
        assert 0.2 <= time.monotonic() - started < 5.0

    def test_silent_client_is_408(self, served, monkeypatch):
        monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT_S", 0.2)
        status, _, _ = served[0].raw(b"")
        assert status == 408

    def test_the_deadline_covers_the_whole_request_not_each_read(self, served, monkeypatch):
        # A client that trickles a byte at a time never lets one read time
        # out; the deadline is on the request as a whole.
        monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT_S", 0.3)
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", served[0].port), timeout=10) as connection:
            connection.sendall(b"POST /integrate HTTP/1.1\r\nContent-Length: 1000\r\n\r\n")
            try:
                for _ in range(100):
                    connection.sendall(b" ")
                    time.sleep(0.02)
            except OSError:  # the server answered and closed while we were still sending
                pass
            answer = b""
            try:
                for chunk in iter(lambda: connection.recv(1 << 16), b""):
                    answer += chunk
            except ConnectionResetError:  # a trickled byte reached the closed socket after the answer
                pass
        assert answer.startswith(b"HTTP/1.1 408 ")
        assert time.monotonic() - started < 1.9

    def test_a_stalled_client_does_not_end_the_loop(self, served, monkeypatch):
        monkeypatch.setattr(http_module, "REQUEST_READ_TIMEOUT_S", 0.2)
        assert served[0].raw(_post_raw(b"{", content_length=10))[0] == 408
        assert served[0].request("GET", "/healthz")[0] == 200

    def test_a_duplicate_column_header_is_400_naming_table_and_column(self, served):
        server, service = served
        duplicate = {"name": "b", "columns": ["name", "name"], "rows": [["alice", "alicia"]]}
        status, _, body = server.request("POST", "/integrate", {"tables": [INTEGRATE_BODY["tables"][0], duplicate]})
        assert status == 400
        assert "tables[1]" in body["error"] and "duplicate column name 'name'" in body["error"]
        assert service.stats().submitted == 0

    @pytest.mark.parametrize("rows", [[], [[None, None], [None, None]]], ids=["empty", "all-null"])
    def test_a_table_without_values_integrates_to_the_fd_of_the_others(self, served, rows):
        server = served[0]
        status, _, expected = server.request("POST", "/integrate", INTEGRATE_BODY)
        assert status == 200
        blank = {"name": "c", "columns": ["name", "zip"], "rows": rows}
        status, _, body = server.request("POST", "/integrate", {"tables": [*INTEGRATE_BODY["tables"], blank]})
        assert status == 200
        table, reference = body["table"], expected["table"]
        assert table["columns"] == reference["columns"] + ["zip"]
        assert table["rows"] == [row + [None] for row in reference["rows"]]

    def test_pipelined_garbage_after_a_valid_request_gets_one_answer_then_close(self, served):
        payload = json.dumps(INTEGRATE_BODY).encode()
        with socket.create_connection(("127.0.0.1", served[0].port), timeout=10) as connection:
            connection.sendall(_post_raw(payload) + b"GARBAGE \x00\xff /x HTTP/9\r\n\r\n" + _post_raw(b"{}"))
            answer = b"".join(iter(lambda: connection.recv(1 << 16), b""))  # to end of file: closed
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        assert len(body) == length  # nothing after the one answer
        assert json.loads(body)["status"] == "ok"


class TestJsonTables:
    def test_nulls_serialise_as_none(self):
        table = Table("t", ["a", "b"], [(NULL, 1), (LabeledNull(7), "x")])
        payload = table_to_json(table)
        assert payload["rows"] == [[None, 1], [None, "x"]]

    def test_none_cells_parse_to_null(self):
        [relation] = tables_from_json(
            [{"name": "t", "columns": ["a"], "rows": [[None], ["x"]]}]
        )
        table = relation.to_table()
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
