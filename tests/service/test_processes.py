"""``repro serve --processes N``: real pre-forked servers on one socket.

Every test runs the CLI as a subprocess (``python -m repro.cli serve``), so
the fork, the shared counters block, the shared store and the lifecycle are
the ones a deployment gets.  A process accepts only while idle, so a busy
process never takes a connection; among idle ones the kernel picks, and
where a test must know which, it stops the other process with ``SIGSTOP``
so that only one can accept.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import IntegrationEngine
from repro.datasets import AliteEmBenchmark, AutoJoinBenchmark
from repro.obs import TERMINAL_OUTCOMES
from repro.service.http import table_to_json

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="pre-forking needs os.fork")

SRC = Path(__file__).resolve().parents[2] / "src"


def _pool():
    """A recurring pool of paper-size requests (entity-matching and Auto-Join sets)."""
    em = AliteEmBenchmark(n_sets=2, entities_per_set=15, seed=5).generate()
    joins = AutoJoinBenchmark(n_sets=3, values_per_column=25, seed=11).generate()
    return [item.tables for item in em] + [item.tables() for item in joins]


def _body(tables) -> bytes:
    return json.dumps({"tables": [table_to_json(table) for table in tables]}).encode()


def _table_bytes(table_json) -> bytes:
    return json.dumps(table_json, default=str).encode()


class Server:
    """One ``repro serve`` subprocess on an OS-assigned port."""

    def __init__(self, tmp_path: Path, *args: str, env=None) -> None:
        self.log_path = tmp_path / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        environment = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
            env=environment, stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.sent = 0
        deadline = time.monotonic() + 60
        while "serving on http://" not in self.log_path.read_text():
            assert self.process.poll() is None, self.log_path.read_text()
            assert time.monotonic() < deadline, "repro serve did not bind"
            time.sleep(0.01)
        address = self.log_path.read_text().split("serving on http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def call(self, method: str, path: str, body: bytes = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def integrate(self, tables):
        self.sent += 1
        return self.call("POST", "/integrate", _body(tables))

    def stats(self):
        return self.call("GET", "/stats")[1]

    def children(self):
        """The children's pids, once each has written its row (pid 0 until then)."""
        _until(lambda: all(entry["pid"] for entry in self.stats()["per_process"]))
        return [entry["pid"] for entry in self.stats()["per_process"] if entry["pid"] != self.process.pid]

    def stop(self) -> None:
        children = _children_of(self.process.pid)  # before they are re-parented
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        for pid in children:
            _kill(pid, signal.SIGKILL)
        self._log.close()


def _kill(pid: int, sig: int) -> None:
    assert pid > 0, "never signal a process group"
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (``/proc`` state ``Z``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children_of(pid: int):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == pid and fields[0] != "Z":
                found.append(int(entry.name))
    return found


def _until(condition, timeout_s: float = 10.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.02)


@pytest.fixture(scope="module")
def pool():
    return _pool()


@pytest.fixture(scope="module")
def direct(pool):
    engine = IntegrationEngine("scale")
    return [_table_bytes(table_to_json(engine.integrate(tables).table)) for tables in pool]


@pytest.fixture(scope="module")
def two(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("two")
    server = Server(tmp_path, "--processes", "2", "--preset", "scale", "--store-dir", str(tmp_path / "store"))
    yield server
    server.stop()


def _closed_loop(server, pool, rounds: int, clients: int = 2):
    """``clients`` threads cycling through the pool; returns every (index, status, body)."""
    answers = []
    lock = threading.Lock()
    counter = iter(range(rounds * len(pool)))

    def client():
        for number in counter:
            index = number % len(pool)
            status, body = server.integrate(pool[index])
            with lock:
                answers.append((index, status, body))

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    return answers


class TestTwoProcesses:
    def test_concurrent_clients_get_the_direct_engines_tables_from_both_processes(self, two, pool, direct):
        answers = _closed_loop(two, pool, rounds=6)
        assert len(answers) == 6 * len(pool)
        for index, status, body in answers:
            assert status == 200 and body["status"] == "ok"
            assert _table_bytes(body["table"]) == direct[index]
        stats = two.stats()
        assert stats["processes"] == stats["processes_alive"] == 2
        assert {entry["pid"] for entry in stats["per_process"]} >= {two.process.pid}
        assert all(entry["served"] > 0 for entry in stats["per_process"])

    def test_idle_totals_equal_the_clients_counts(self, two, pool):
        _closed_loop(two, pool, rounds=2)
        stats = two.stats()
        assert stats["submitted"] == stats["served"] == two.sent
        assert stats["in_flight"] == 0
        outcomes = sum(stats[outcome] for outcome in TERMINAL_OUTCOMES)
        assert stats["submitted"] == outcomes + stats["in_flight"]
        assert sum(entry["served"] for entry in stats["per_process"]) == stats["served"]
        assert stats["latency_p99_seconds"] >= stats["latency_p50_seconds"] > 0.0


def test_a_value_published_by_one_process_is_served_by_the_other(tmp_path, pool):
    server = Server(tmp_path, "--processes", "2", "--preset", "scale", "--store-dir", str(tmp_path / "store"))
    try:
        server.children()
        before = {entry["pid"]: entry["served"] for entry in server.stats()["per_process"]}
        status, first = server.integrate(pool[2])
        assert status == 200 and first["trace"]["raw_embed_calls"] > 0
        after = {entry["pid"]: entry["served"] for entry in server.stats()["per_process"]}
        [publisher] = [pid for pid in after if after[pid] > before[pid]]
        _kill(publisher, signal.SIGSTOP)
        try:
            status, second = server.integrate(pool[2])
        finally:
            _kill(publisher, signal.SIGCONT)
        assert status == 200
        assert second["trace"]["raw_embed_calls"] == 0
        assert second["trace"]["cache_store_hits"] > 0
        assert second["table"] == first["table"]
        served = {entry["pid"]: entry["served"] for entry in server.stats()["per_process"]}
        assert served[publisher] == after[publisher]
    finally:
        server.stop()


def test_healthz_is_one_state_summed_over_every_process(tmp_path, pool):
    server = Server(tmp_path, "--processes", "2")
    try:
        pids = [server.process.pid, *server.children()]
        assert server.call("GET", "/healthz") == (200, {"status": "healthy", "requests_served": 0})
        # One request on each process: stop one, serve, swap.
        for stopped in pids:
            _kill(stopped, signal.SIGSTOP)
            try:
                assert server.integrate(pool[0])[0] == 200
            finally:
                _kill(stopped, signal.SIGCONT)
        assert server.call("GET", "/healthz") == (200, {"status": "healthy", "requests_served": 2})
        stats = server.stats()
        assert [entry["served"] for entry in stats["per_process"]] == [1, 1]
        assert set(stats["per_process"][0]) == {"pid", "alive", "served"}
    finally:
        server.stop()


def test_a_killed_child_leaves_a_serving_process_zero(tmp_path, pool, direct):
    server = Server(tmp_path, "--processes", "2", "--preset", "scale")
    try:
        [child] = server.children()
        _kill(child, signal.SIGKILL)
        _until(lambda: server.stats()["processes_alive"] == 1)
        stats = server.stats()
        assert stats["processes"] == 2
        assert [entry["alive"] for entry in stats["per_process"] if entry["pid"] == child] == [False]
        status, body = server.integrate(pool[0])
        assert status == 200 and _table_bytes(body["table"]) == direct[0]
        assert not _running(child)
    finally:
        server.stop()


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"])
def test_no_child_outlives_process_zero(tmp_path, sig):
    server = Server(tmp_path, "--processes", "3", "--preset", "scale")
    try:
        children = server.children()
        assert len(children) == 2 and all(_running(pid) for pid in children)
        os.kill(server.process.pid, sig)
        server.process.wait(timeout=10)
        _until(lambda: not any(_running(pid) for pid in children))
    finally:
        server.stop()


def test_one_process_runs_one_pid_and_answers_byte_identically(tmp_path, two, pool, direct):
    server = Server(tmp_path, "--processes", "1", "--preset", "scale", "--store-dir", str(tmp_path / "store"))
    try:
        for index, tables in enumerate(pool):
            status, single = server.integrate(tables)
            _status, forked = two.integrate(tables)
            assert status == 200
            assert _table_bytes(single["table"]) == _table_bytes(forked["table"]) == direct[index]
        stats = server.stats()
        assert stats["processes"] == stats["processes_alive"] == 1
        assert [entry["pid"] for entry in stats["per_process"]] == [server.process.pid]
        assert _children_of(server.process.pid) == []
    finally:
        server.stop()


def _fresh_body(tag: str) -> bytes:
    """A small request whose values no process has embedded yet."""
    return json.dumps({"tables": [
        {"name": "a", "columns": ["City", "Country"], "rows": [[f"Berlinn {tag}", "Germany"], [f"Toronto {tag}", "Canada"]]},
        {"name": "b", "columns": ["City", "Rate"], "rows": [[f"Berlin {tag}", "63%"], [f"Toronto {tag}", "83%"]]},
    ]}).encode()


def _threads(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("Threads:", 1)[1].split()[0])


def test_a_connection_goes_to_the_idle_process(tmp_path):
    # The first request holds a process while its body is still on the way;
    # a second one sent meanwhile must go to the other process, not queue
    # behind the busy one.
    server = Server(tmp_path, "--processes", "2")
    try:
        pids = [server.process.pid, *server.children()]
        for attempt in range(5):
            before = {entry["pid"]: entry["served"] for entry in server.stats()["per_process"]}
            body = _fresh_body(f"busy {attempt}")
            head = f"POST /integrate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            with socket.create_connection(("127.0.0.1", server.port), timeout=60) as busy:
                busy.sendall(head + body[:10])
                time.sleep(0.1)
                status, _ = server.call("POST", "/integrate", _fresh_body(f"second {attempt}"))
                assert status == 200
                busy.sendall(body[10:])
                answer = b"".join(iter(lambda: busy.recv(1 << 16), b""))
            assert answer.startswith(b"HTTP/1.1 200 "), answer[:200]
            after = {entry["pid"]: entry["served"] for entry in server.stats()["per_process"]}
            assert {pid: after[pid] - before[pid] for pid in pids} == dict.fromkeys(pids, 1), f"attempt {attempt}"
        assert [_threads(pid) for pid in pids] == [1, 1]
    finally:
        server.stop()


def test_a_silent_connection_does_not_hold_the_only_process(tmp_path, pool, direct):
    server = Server(tmp_path, "--processes", "1", "--preset", "scale")
    try:
        with socket.create_connection(("127.0.0.1", server.port)):  # connects, never sends
            started = time.monotonic()
            status, body = server.integrate(pool[0])
            assert time.monotonic() - started < 10.0  # the read deadline is 30 s
        assert status == 200 and _table_bytes(body["table"]) == direct[0]
    finally:
        server.stop()
