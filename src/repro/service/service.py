"""Admission, deadlines and accounting over a single long-lived :class:`IntegrationEngine`.

The :class:`IntegrationService` is the request/response boundary the ROADMAP
asks for: one warm engine (embedding cache over the artifact store, memoised
surface keys) serving many requests, through two entries over one request
path.  :meth:`~IntegrationService.integrate_sync` runs a request on the
calling thread, as every ``repro serve`` process does
(:mod:`repro.service.http`).  :meth:`~IntegrationService.integrate` is the
in-process asyncio API: the event loop only does admission and bookkeeping,
and the pipeline runs on one service-owned thread, started by the first
async call, one request at a time — an engine serves one request at a time
anyway.  Three properties the tests pin down:

* **Admission is synchronous.**  Admit/reject is decided under one lock
  before any work, so a saturated service answers :class:`ServiceOverloaded`
  in microseconds however slow the pipeline is — backpressure, never an
  unbounded buffer.
* **Requests queue behind the running one, off the loop.**  Waiting for
  the service thread is queue time, charged to the request's trace.  The
  thread is not bound to an event loop, so the service survives many
  short-lived event loops (each test's ``asyncio.run``).
* **Accounting is atomic.**  A request's terminal counter (one of
  :data:`repro.obs.TERMINAL_OUTCOMES`) is incremented and the in-flight
  gauge decremented under the same lock, so ``stats()`` always satisfies
  ``submitted == sum(terminal outcomes) + in_flight``.

Under ``repro serve`` each process runs its own service over its own copy of
the warm engine (:mod:`repro.service.processes`).  Every counter change is
then also written, under the same lock, to the process's row of a shared
block, and ``stats()`` / ``health()`` aggregate every row.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import FuzzyFDConfig
from repro.core.engine import FuzzyIntegrationResult, IntegrationEngine
from repro.embeddings.resilient import EmbedderUnavailable
from repro.obs import BREAKER_COUNTERS, ROW_COUNTERS
from repro.service.types import (
    DeadlineExceeded,
    DeadlineExceededError,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    ServiceFailure,
    ServiceOverloaded,
    ServiceResponse,
    ServiceStats,
    StageTracker,
    aggregate_breaker,
    build_trace,
)
from repro.table.table import Table

if TYPE_CHECKING:  # the pre-forked serve imports this module, not the other way round
    from concurrent.futures import ThreadPoolExecutor

    from repro.service.processes import Scoreboard

#: Completed-request latencies kept for the p50/p99 snapshot.
LATENCY_WINDOW = 2048


class IntegrationService:
    """Admission-controlled, deadline-aware serving layer over one engine.

    Parameters
    ----------
    engine:
        An existing :class:`IntegrationEngine` to serve, or anything the
        engine constructor accepts (a :class:`FuzzyFDConfig`, preset name,
        dict, or ``None``) — the service then builds and owns the engine.
    max_pending / deadline_ms:
        Override the engine config's ``service_*`` knobs for this service.
        ``max_pending`` bounds the requests admitted behind the one running
        request (``0`` rejects whenever a request runs); ``deadline_ms`` is
        the default per-request budget (``None`` — no deadline unless the
        request sets one).
    """

    def __init__(
        self,
        engine: Union[IntegrationEngine, FuzzyFDConfig, str, Dict[str, Any], None] = None,
        *,
        max_pending: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        if isinstance(engine, IntegrationEngine):
            self.engine = engine
        else:
            self.engine = IntegrationEngine(engine)
        config = self.engine.config
        self.max_pending = (
            config.service_max_pending if max_pending is None else max_pending
        )
        self.default_deadline_ms = (
            config.service_deadline_ms if deadline_ms is None else deadline_ms
        )
        if self.max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {self.max_pending}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {self.default_deadline_ms}"
            )

        self._lock = threading.Lock()
        # The thread the async path runs requests on (see _thread()).
        self._executor: Optional["ThreadPoolExecutor"] = None
        self._next_request_id = 1
        self._counts: Dict[str, int] = dict.fromkeys(ROW_COUNTERS, 0)
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._closed = False
        # The shared counters block of a pre-forked serve, and this process's
        # row in it (see share()); the breaker as of the last finished request.
        self._board: Optional["Scoreboard"] = None
        self._row_index = 0
        self._breaker: Dict[str, Any] = self.engine.resilience_state()
        # Boot, not the first request, binds the solver's compiled routine.
        self.engine.solver.solve(np.zeros((1, 1)))

    # -- the request path ----------------------------------------------------------
    async def integrate(
        self,
        tables: Sequence[Table],
        *,
        deadline_ms: Optional[float] = None,
        **overrides: Any,
    ) -> ServiceResponse:
        """Serve one integration request; never raises for operational outcomes.

        Returns an :class:`IntegrationResponse` on success, a
        :class:`ServiceOverloaded` when admission rejects (queue full), a
        :class:`DeadlineExceeded` when the budget expires at a stage
        boundary, or a :class:`ServiceFailure` when the pipeline raises.
        ``overrides`` are the engine's per-request knobs
        (:data:`~repro.core.engine.REQUEST_OVERRIDES`); ``deadline_ms``
        replaces the service default for this request only.
        """
        import asyncio  # here, so that a server, which never calls this, never loads it

        submitted_at = time.perf_counter()
        admitted = self._admit()
        if not isinstance(admitted, int):
            return admitted
        work = partial(self._serve, admitted, list(tables), deadline_ms, submitted_at, overrides)
        try:
            return await asyncio.get_running_loop().run_in_executor(self._thread(), work)
        except RuntimeError as exc:
            # The service closed between admission and submission — reconcile
            # the gauge so the accounting identity holds.
            with self._lock:
                self._counts["in_flight"] -= 1
                self._counts["failed"] += 1
                self._publish()
            return ServiceFailure(request_id=admitted, error=str(exc), trace=None)

    def integrate_sync(
        self,
        tables: Sequence[Table],
        *,
        deadline_ms: Optional[float] = None,
        **overrides: Any,
    ) -> ServiceResponse:
        """:meth:`integrate` on the calling thread, with the same admission,
        deadline and accounting (what a ``repro serve`` process runs)."""
        submitted_at = time.perf_counter()
        admitted = self._admit()
        if not isinstance(admitted, int):
            return admitted
        return self._serve(admitted, list(tables), deadline_ms, submitted_at, overrides)

    def _thread(self) -> "ThreadPoolExecutor":
        """The one thread the async path runs requests on, started on first use."""
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-service")
            return self._executor

    def _admit(self) -> Union[int, ServiceResponse]:
        """The admitted request's id, or the response that refuses it."""
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            counts = self._counts
            counts["submitted"] += 1
            if self._closed:
                counts["failed"] += 1
                self._publish()
                return ServiceFailure(
                    request_id=request_id, error="service is closed", trace=None
                )
            pending = counts["in_flight"] - counts["executing"]
            if counts["in_flight"] >= 1 + self.max_pending:
                counts["rejected"] += 1
                self._publish()
                return ServiceOverloaded(
                    request_id=request_id,
                    pending=pending,
                    max_pending=self.max_pending,
                    trace=None,
                )
            counts["in_flight"] += 1
            self._publish()
        return request_id

    def _serve(
        self,
        request_id: int,
        tables: Sequence[Table],
        deadline_ms: Optional[float],
        submitted_at: float,
        overrides: Dict[str, Any],
    ) -> ServiceResponse:
        """Executing-thread body: run the pipeline, account once."""
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        with self._lock:
            self._counts["executing"] += 1
            self._publish()
        tracker = StageTracker(submitted_at=submitted_at, deadline_ms=deadline_ms)
        tracker.queue_wait_seconds = time.perf_counter() - submitted_at
        try:
            try:
                result: FuzzyIntegrationResult = self.engine.integrate(
                    tables, on_stage=tracker, **overrides
                )
            except DeadlineExceededError as exc:
                total = time.perf_counter() - submitted_at
                trace = build_trace(request_id, None, tracker, total, "deadline_exceeded")
                self._finish("deadline_exceeded", total)
                return DeadlineExceeded(
                    request_id=request_id,
                    stage=exc.stage,
                    deadline_ms=exc.deadline_ms,
                    trace=trace,
                )
            except EmbedderUnavailable as exc:
                # Under degraded_mode="surface" the matcher absorbs the open
                # breaker, so reaching here means the policy is "off"/"fail":
                # an operational outcome, answered as a response like every
                # other one.
                total = time.perf_counter() - submitted_at
                self._finish("unavailable", total)
                return EmbedderUnavailableResponse(
                    request_id=request_id,
                    error=str(exc),
                    retry_after_ms=exc.retry_after_ms,
                    trace=None,
                )
            except Exception as exc:  # noqa: BLE001 — relayed, service stays up
                total = time.perf_counter() - submitted_at
                self._finish("failed", total)
                return ServiceFailure(
                    request_id=request_id,
                    error=f"{type(exc).__name__}: {exc}",
                    trace=None,
                )
            total = time.perf_counter() - submitted_at
            trace = build_trace(request_id, result, tracker, total)
            self._finish("served", total, degraded=trace.degraded)
            return IntegrationResponse(request_id=request_id, result=result, trace=trace)
        finally:
            with self._lock:
                self._counts["executing"] -= 1
                self._publish()

    def _finish(self, outcome: str, latency_seconds: float, *, degraded: bool = False) -> None:
        """Terminal accounting: ``outcome``'s counter up + gauge down under one lock."""
        if self._board is not None:
            self._breaker = self.engine.resilience_state()
        with self._lock:
            self._counts["in_flight"] -= 1
            self._counts[outcome] += 1
            self._counts["degraded_served"] += degraded
            self._latencies.append(latency_seconds)
            self._publish(latency_seconds)

    # -- observability & lifecycle -------------------------------------------------
    def stats(self) -> ServiceStats:
        """Consistent aggregate snapshot (see :class:`ServiceStats`)."""
        return ServiceStats.aggregate(self.rows())

    def health(self) -> Dict[str, Any]:
        """``requests_served`` and the breaker view over the live processes."""
        rows = self.rows()
        return {
            "requests_served": sum(row["requests_served"] for row in rows),
            "breaker": aggregate_breaker(rows),
        }

    def rows(self) -> List[Dict[str, Any]]:
        """Every server process's row: this one, or all N of a pre-forked serve."""
        self._breaker = self.engine.resilience_state()
        with self._lock:
            own = self._row()
            own.update(pid=os.getpid(), alive=True, latencies=list(self._latencies))
            if self._board is None:
                return [own]
            self._publish()
        rows = self._board.rows()
        rows[self._row_index] = own
        return rows

    def share(self, board: "Scoreboard", index: int) -> None:
        """Publish this service's counters as row ``index`` of ``board``.

        ``board`` is the :class:`~repro.service.processes.Scoreboard` of a
        pre-forked ``repro serve``; from here on every counter change is
        written to it under the service lock.
        """
        with self._lock:
            self._board, self._row_index = board, index
            self._publish()

    def _row(self) -> Dict[str, Any]:
        """This process's counters and breaker (caller holds the lock)."""
        breaker = self._breaker
        return {
            **self._counts,
            **{name: int(breaker.get(name, 0)) for name in BREAKER_COUNTERS},
            "requests_served": self.engine.requests_served,
            "breaker_state": str(breaker.get("state", "closed")),
            "retry_after_ms": float(breaker.get("retry_after_ms", 0.0)),
        }

    def _publish(self, latency_seconds: Optional[float] = None) -> None:
        """Write this process's row to the shared block, if any (caller holds the lock)."""
        if self._board is not None:
            self._board.write(self._row_index, self._row(), latency_seconds)

    def close(self) -> None:
        """Stop admitting requests and let the service thread finish its queue."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    async def __aenter__(self) -> "IntegrationService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        stats = self.stats()
        return (
            f"IntegrationService(max_pending={self.max_pending}, "
            f"served={stats.served}, in_flight={stats.in_flight})"
        )
