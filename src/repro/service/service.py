"""Asyncio front-end over a single long-lived :class:`IntegrationEngine`.

The :class:`IntegrationService` is the request/response boundary the ROADMAP
asks for: one warm engine (embedding cache, durable ANN indexes, memoised
surface keys) serving many concurrent requests.  The event loop only ever
does admission and bookkeeping — the CPU-bound pipeline runs on the
engine-owned worker pool (:meth:`IntegrationEngine.worker_pool`), the same
executor ``integrate_many`` batches over, so the two entry points share warm
threads as well as warm state.

Three properties the tests pin down:

* **Admission is synchronous.**  ``integrate()`` decides admit/reject under
  one lock before its first ``await``; a saturated service answers
  :class:`ServiceOverloaded` in microseconds regardless of how slow the
  pipeline is — backpressure, never an unbounded buffer.
* **The concurrency gate lives in the pool thread, not the loop.**  Waiting
  for a slot is queue time, charged to the request's trace, and the loop
  stays free to admit/reject while requests queue.  Everything is
  ``threading``-based, so the service survives many short-lived event loops
  (each test's ``asyncio.run``) without holding loop-bound state.
* **Accounting is atomic.**  A request's terminal counter (served /
  deadline_exceeded / failed) is incremented and the in-flight gauge
  decremented under the same lock, so ``stats()`` always satisfies
  ``submitted == served + rejected + deadline_exceeded + failed +
  in_flight``.

Under ``repro serve --processes N`` each process runs its own service over
its own copy of the warm engine (:mod:`repro.service.processes`).  Every
counter change is then also written, under the same lock, to the process's
row of a shared block, and ``stats()`` / ``health()`` aggregate every row.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Union

import numpy as np
import numpy.ma  # noqa: F401 — np.unique loads it lazily; a server pays at boot, not in a request

from repro.core.config import FuzzyFDConfig
from repro.core.engine import FuzzyIntegrationResult, IntegrationEngine
from repro.embeddings.resilient import EmbedderUnavailable
from repro.service.types import (
    BREAKER_COUNTERS,
    DeadlineExceeded,
    DeadlineExceededError,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    RequestTrace,
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
    max_pending / max_concurrency / deadline_ms:
        Override the engine config's ``service_*`` knobs for this service.
        ``max_pending`` bounds admitted-but-not-executing requests (``0``
        rejects whenever every slot is busy); ``max_concurrency`` bounds
        simultaneously executing requests; ``deadline_ms`` is the default
        per-request budget (``None`` — no deadline unless the request sets
        one).
    """

    def __init__(
        self,
        engine: Union[IntegrationEngine, FuzzyFDConfig, str, Dict[str, Any], None] = None,
        *,
        max_pending: Optional[int] = None,
        max_concurrency: Optional[int] = None,
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
        self.max_concurrency = (
            config.service_max_concurrency if max_concurrency is None else max_concurrency
        )
        self.default_deadline_ms = (
            config.service_deadline_ms if deadline_ms is None else deadline_ms
        )
        if self.max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {self.max_pending}")
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {self.default_deadline_ms}"
            )

        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.max_concurrency)
        self._next_request_id = 1
        self._submitted = 0
        self._served = 0
        self._rejected = 0
        self._deadline_exceeded = 0
        self._failed = 0
        self._unavailable = 0
        self._degraded_served = 0
        self._in_flight = 0
        self._executing = 0
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
        submitted_at = time.perf_counter()
        # Admission: one synchronous decision, no awaits, so a saturated
        # service rejects immediately instead of buffering without bound.
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._submitted += 1
            if self._closed:
                self._failed += 1
                self._publish()
                return ServiceFailure(
                    request_id=request_id, error="service is closed", trace=None
                )
            pending = self._in_flight - self._executing
            if self._in_flight >= self.max_concurrency + self.max_pending:
                self._rejected += 1
                self._publish()
                return ServiceOverloaded(
                    request_id=request_id,
                    pending=pending,
                    max_pending=self.max_pending,
                    trace=None,
                )
            self._in_flight += 1
            self._publish()

        budget = deadline_ms if deadline_ms is not None else self.default_deadline_ms
        loop = asyncio.get_running_loop()
        work = partial(self._serve, request_id, list(tables), budget, submitted_at, overrides)
        try:
            return await loop.run_in_executor(
                self.engine.worker_pool(self.max_concurrency), work
            )
        except RuntimeError as exc:
            # The pool rejected the submission (shutdown race) — reconcile
            # the gauge so the accounting identity holds.
            with self._lock:
                self._in_flight -= 1
                self._failed += 1
                self._publish()
            return ServiceFailure(request_id=request_id, error=str(exc), trace=None)

    def _serve(
        self,
        request_id: int,
        tables: Sequence[Table],
        deadline_ms: Optional[float],
        submitted_at: float,
        overrides: Dict[str, Any],
    ) -> ServiceResponse:
        """Pool-thread body: gate on a slot, run the pipeline, account once."""
        self._slots.acquire()
        with self._lock:
            self._executing += 1
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
                trace = RequestTrace(
                    request_id=request_id,
                    status="deadline_exceeded",
                    stage_seconds=dict(tracker.stage_seconds),
                    queue_wait_seconds=tracker.queue_wait_seconds,
                    total_seconds=total,
                    deadline_ms=deadline_ms,
                )
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
                self._executing -= 1
                self._publish()
            self._slots.release()

    def _finish(self, outcome: str, latency_seconds: float, *, degraded: bool = False) -> None:
        """Terminal accounting: counter up + gauge down under one lock."""
        if self._board is not None:
            self._breaker = self.engine.resilience_state()
        with self._lock:
            self._in_flight -= 1
            if outcome == "served":
                self._served += 1
                if degraded:
                    self._degraded_served += 1
            elif outcome == "deadline_exceeded":
                self._deadline_exceeded += 1
            elif outcome == "unavailable":
                self._unavailable += 1
            else:
                self._failed += 1
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
        row: Dict[str, Any] = {
            "submitted": self._submitted,
            "served": self._served,
            "rejected": self._rejected,
            "deadline_exceeded": self._deadline_exceeded,
            "failed": self._failed,
            "unavailable": self._unavailable,
            "in_flight": self._in_flight,
            "executing": self._executing,
            "degraded_served": self._degraded_served,
            "requests_served": self.engine.requests_served,
            "breaker_state": str(breaker.get("state", "closed")),
            "retry_after_ms": float(breaker.get("retry_after_ms", 0.0)),
        }
        row.update({name: int(breaker.get(name, 0)) for name in BREAKER_COUNTERS})
        return row

    def _publish(self, latency_seconds: Optional[float] = None) -> None:
        """Write this process's row to the shared block, if any (caller holds the lock)."""
        if self._board is not None:
            self._board.write(self._row_index, self._row(), latency_seconds)

    def close(self) -> None:
        """Stop admitting requests and drain the engine's worker pool."""
        with self._lock:
            self._closed = True
        self.engine.close()

    async def __aenter__(self) -> "IntegrationService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        stats = self.stats()
        return (
            f"IntegrationService(max_pending={self.max_pending}, "
            f"max_concurrency={self.max_concurrency}, "
            f"served={stats.served}, in_flight={stats.in_flight})"
        )
