"""The shared counters block of a pre-forked serve, and the aggregation over it.

Without a server: the block's layout, its sequence lock (against a forked
writer) and the aggregate ``/stats`` / ``/healthz`` views.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.obs import ROW_COUNTERS
from repro.service import IntegrationService, ServiceStats
from repro.service.processes import Scoreboard, default_processes
from repro.service.service import LATENCY_WINDOW
from repro.table import Table


def _row(served=0, **counters):
    row = dict.fromkeys(ROW_COUNTERS, 0)
    row.update(counters, served=served)
    return row


class TestScoreboard:
    def test_rows_round_trip_and_start_alive(self):
        board = Scoreboard(3)
        board.write(1, _row(served=7, submitted=10, in_flight=2, unavailable=1, degraded_served=3), 0.25)
        rows = board.rows()
        assert [row["alive"] for row in rows] == [True, True, True]
        assert rows[1]["pid"] == os.getpid()
        assert (rows[1]["served"], rows[1]["submitted"], rows[1]["in_flight"]) == (7, 10, 2)
        assert (rows[1]["unavailable"], rows[1]["degraded_served"]) == (1, 3)
        assert set(rows[1]) == {*ROW_COUNTERS, "pid", "alive", "latencies"}
        assert rows[1]["latencies"] == [0.25]
        assert rows[0]["served"] == 0 and rows[0]["latencies"] == []

    def test_mark_dead_clears_only_that_row(self):
        board = Scoreboard(2)
        board.write(1, _row(served=3), None)
        board.mark_dead(1)
        rows = board.rows()
        assert [row["alive"] for row in rows] == [True, False]
        assert rows[1]["served"] == 3  # a dead process's work still counts

    def test_latency_ring_keeps_the_last_window(self):
        board = Scoreboard(1)
        for index in range(LATENCY_WINDOW + 5):
            board.write(0, _row(), float(index))
        latencies = board.rows()[0]["latencies"]
        assert len(latencies) == LATENCY_WINDOW
        assert sorted(latencies) == [float(i) for i in range(5, LATENCY_WINDOW + 5)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs a second process")
    def test_readers_never_see_a_torn_row(self):
        # A forked writer keeps submitted == served + in_flight and records
        # its count as the latest latency; a copy torn across a write breaks
        # one or the other.
        board = Scoreboard(1)
        pid = os.fork()
        if pid == 0:
            try:
                for count in range(1, 50_000):
                    board.write(0, _row(submitted=2 * count, served=count, in_flight=count), float(count))
            finally:
                os._exit(0)
        writing = True
        while writing:
            writing = os.waitpid(pid, os.WNOHANG) == (0, 0)
            [row] = board.rows()
            assert row["submitted"] == row["served"] + row["in_flight"]
            assert len(row["latencies"]) == min(row["served"], LATENCY_WINDOW)
            assert max(row["latencies"], default=0.0) == row["served"]
        assert row["served"] == 49_999


class TestAggregation:
    def test_counters_sum_and_quantiles_span_every_process(self):
        rows = [
            dict(_row(served=2, submitted=3, in_flight=1), pid=1, alive=True, latencies=[0.1, 0.2]),
            dict(_row(served=4, submitted=4), pid=2, alive=False, latencies=[0.3, 0.4, 0.5]),
        ]
        stats = ServiceStats.aggregate(rows)
        assert (stats.submitted, stats.served, stats.in_flight) == (7, 6, 1)
        assert (stats.processes, stats.processes_alive) == (2, 1)
        assert stats.latency_p50_seconds == 0.3
        assert [entry["served"] for entry in stats.per_process] == [2, 4]
        assert stats.to_dict()["per_process"][1] == {"pid": 2, "alive": False, "served": 4}

    def test_stats_carry_outcomes_latencies_and_processes_only(self):
        assert set(ServiceStats().to_dict()) == {
            *(name for name in ROW_COUNTERS if name != "requests_served"),
            "latency_p50_seconds", "latency_p99_seconds", "processes", "processes_alive", "per_process",
        }

    def test_one_process_service_reports_itself(self):
        service = IntegrationService("fast")
        stats = service.stats()
        assert (stats.processes, stats.processes_alive) == (1, 1)
        assert stats.per_process == [{"pid": os.getpid(), "alive": True, "served": 0}]
        assert service.health() == {"requests_served": 0}
        service.close()

    def test_concurrent_requests_lose_no_update_in_the_shared_row(self):
        # A serving thread writes the one row while a stats-reading thread
        # copies it, switching as often as the interpreter allows.
        board = Scoreboard(1)
        service = IntegrationService("fast")
        service.share(board, 0)
        tables = [
            Table("a", ["k", "x"], [("berlin", "1"), ("paris", "2")]),
            Table("b", ["k", "y"], [("berlinn", "3")]),
        ]
        done = threading.Event()

        def read_stats():
            while not done.is_set():
                service.stats()

        reader = threading.Thread(target=read_stats)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader.start()
        try:
            responses = [service.integrate_sync(tables) for _ in range(48)]
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
            service.close()
        assert all(response.status == "ok" for response in responses)
        [row] = board.rows()
        assert (row["submitted"], row["served"], row["in_flight"]) == (48, 48, 0)
        assert len(row["latencies"]) == 48

    def test_a_shared_service_writes_its_row(self):
        board = Scoreboard(2)
        service = IntegrationService("fast")
        service.share(board, 1)
        assert board.rows()[1]["pid"] == os.getpid()
        stats = service.stats()
        assert stats.processes == 2 and stats.per_process[1]["pid"] == os.getpid()
        service.close()


class TestDefaultProcesses:
    def test_one_per_usable_cpu(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert default_processes() == expected

    def test_one_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert default_processes() == 1
