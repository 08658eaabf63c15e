"""Admission, deadlines and accounting over a single long-lived :class:`IntegrationEngine`.

The :class:`IntegrationService` is the request/response boundary the ROADMAP
asks for: one warm engine (embedding cache over the artifact store, memoised
surface keys) serving many requests over one request path,
:meth:`~IntegrationService.integrate_sync`, which runs a request on the
calling thread, as every ``repro serve`` process does
(:mod:`repro.service.http`).  Two properties the tests pin down:

* **Admission is synchronous.**  A closed service refuses a request under
  one lock before any work; every other request is admitted and runs.
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
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import FuzzyFDConfig
from repro.core.engine import FuzzyIntegrationResult, IntegrationEngine
from repro.embeddings.base import EmbedderUnavailable
from repro.obs import ROW_COUNTERS
from repro.service.types import (
    DeadlineExceeded,
    DeadlineExceededError,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    ServiceFailure,
    ServiceResponse,
    ServiceStats,
    StageTracker,
    build_trace,
)
from repro.table.table import Table

if TYPE_CHECKING:  # the pre-forked serve imports this module, not the other way round
    from repro.service.processes import Scoreboard

#: Completed-request latencies kept for the p50/p99 snapshot.
LATENCY_WINDOW = 2048


class IntegrationService:
    """Deadline-aware, accounted serving layer over one engine.

    Parameters
    ----------
    engine:
        An existing :class:`IntegrationEngine` to serve, or anything the
        engine constructor accepts (a :class:`FuzzyFDConfig`, preset name,
        dict, or ``None``) — the service then builds and owns the engine.
    deadline_ms:
        Overrides the engine config's ``service_deadline_ms`` for this
        service: the default per-request budget (``None`` — no deadline
        unless the request sets one).
    """

    def __init__(
        self,
        engine: Union[IntegrationEngine, FuzzyFDConfig, str, Dict[str, Any], None] = None,
        *,
        deadline_ms: Optional[float] = None,
    ) -> None:
        if isinstance(engine, IntegrationEngine):
            self.engine = engine
        else:
            self.engine = IntegrationEngine(engine)
        self.default_deadline_ms = (
            self.engine.config.service_deadline_ms if deadline_ms is None else deadline_ms
        )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {self.default_deadline_ms}"
            )

        self._lock = threading.Lock()
        self._next_request_id = 1
        self._counts: Dict[str, int] = dict.fromkeys(ROW_COUNTERS, 0)
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._closed = False
        # The shared counters block of a pre-forked serve, and this process's
        # row in it (see share()).
        self._board: Optional["Scoreboard"] = None
        self._row_index = 0
        # Boot, not the first request, binds the solver's compiled routine.
        self.engine.solver.solve(np.zeros((1, 1)))

    # -- the request path ----------------------------------------------------------
    def integrate_sync(
        self,
        tables: Sequence[Table],
        *,
        deadline_ms: Optional[float] = None,
        **overrides: Any,
    ) -> ServiceResponse:
        """Serve one integration request on the calling thread; never raises
        for operational outcomes.

        Returns an :class:`IntegrationResponse` on success, a
        :class:`DeadlineExceeded` when the budget expires at a stage
        boundary, an :class:`EmbedderUnavailableResponse` when the embedder
        is down under ``degraded_mode="off"``, or a :class:`ServiceFailure`
        when the pipeline raises or the service is closed.  ``overrides`` are the
        engine's per-request knobs (:data:`~repro.core.engine.REQUEST_OVERRIDES`);
        ``deadline_ms`` replaces the service default for this request only.
        """
        submitted_at = time.perf_counter()
        admitted = self._admit()
        if not isinstance(admitted, int):
            return admitted
        return self._serve(admitted, list(tables), deadline_ms, submitted_at, overrides)

    async def integrate(
        self,
        tables: Sequence[Table],
        *,
        deadline_ms: Optional[float] = None,
        **overrides: Any,
    ) -> ServiceResponse:
        """:meth:`integrate_sync`, awaitable: it runs on the caller's thread and
        blocks the event loop for the request.  It goes once the pipeline
        benchmark's service probe times :meth:`integrate_sync` (ROADMAP 1a)."""
        return self.integrate_sync(tables, deadline_ms=deadline_ms, **overrides)

    def _admit(self) -> Union[int, ServiceResponse]:
        """The admitted request's id, or the failure that refuses it (closed service)."""
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
        """Run the pipeline, account once."""
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        tracker = StageTracker(submitted_at=submitted_at, deadline_ms=deadline_ms)
        tracker.queue_wait_seconds = time.perf_counter() - submitted_at
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
            # Under degraded_mode="surface" the matcher absorbs a down
            # embedder, so reaching here means "off": an operational
            # outcome, answered as a response like every other one.
            total = time.perf_counter() - submitted_at
            self._finish("unavailable", total)
            return EmbedderUnavailableResponse(request_id=request_id, error=str(exc), trace=None)
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

    def _finish(self, outcome: str, latency_seconds: float, *, degraded: bool = False) -> None:
        """Terminal accounting: ``outcome``'s counter up + gauge down under one lock."""
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
        """``requests_served`` over every server process."""
        return {"requests_served": sum(row["requests_served"] for row in self.rows())}

    def rows(self) -> List[Dict[str, Any]]:
        """Every server process's row: this one, or all N of a pre-forked serve."""
        with self._lock:
            own = self._row()
            own.update(pid=os.getpid(), alive=True, latencies=list(self._latencies))
            if self._board is None:
                return [own]
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
        """This process's counters (caller holds the lock)."""
        return {**self._counts, "requests_served": self.engine.requests_served}

    def _publish(self, latency_seconds: Optional[float] = None) -> None:
        """Write this process's row to the shared block, if any (caller holds the lock)."""
        if self._board is not None:
            self._board.write(self._row_index, self._row(), latency_seconds)

    def close(self) -> None:
        """Stop admitting requests; a request already running finishes."""
        with self._lock:
            self._closed = True

    async def __aenter__(self) -> "IntegrationService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        stats = self.stats()
        return f"IntegrationService(served={stats.served}, in_flight={stats.in_flight})"
