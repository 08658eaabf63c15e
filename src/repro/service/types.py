"""Typed request/response vocabulary of the integration service.

The serving layer (:class:`~repro.service.IntegrationService`) never raises
for operational outcomes — deadline overrun, an unavailable embedder and
handler failure are *responses*, not exceptions, so a caller can pattern-match on ``status``
without wrapping every await in try/except.  The one exception type defined
here, :class:`DeadlineExceededError`, is internal: the
:class:`StageTracker` raises it inside the engine's ``on_stage`` hook and
the service converts it into a :class:`DeadlineExceeded` response before it
ever reaches a caller.

A response that ran the pipeline to a result or a deadline carries a
:class:`RequestTrace`; one that failed carries ``None``.  The trace is assembled from
data the pipeline already records — stage wall-clock from the
``on_stage`` boundaries, the traced counters of :mod:`repro.obs` from the
result's ``timings`` — so tracing adds no instrumentation to the hot path.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine import FuzzyIntegrationResult
from repro.obs import ANY, ROW_COUNTERS, TRACED


@dataclass
class RequestTrace:
    """Per-request observability record of a service response.

    ``stage_seconds`` holds wall-clock per pipeline stage (``align`` /
    ``match`` / ``integrate``) in execution order; on a
    :class:`DeadlineExceeded` response it is partial — only the stages that
    finished before the budget ran out appear.  ``counters`` holds the
    traced counters of :mod:`repro.obs` by trace key (0 / ``False`` on a
    partial trace), each also readable as an attribute (``trace.cache_hits``).
    ``raw_embed_calls`` is the number of values that reached the underlying
    embedding model this request: in-memory cache misses not absorbed by the
    durable store (``cache_misses - cache_store_hits``).
    ``queue_wait_seconds`` is the time from submission to the pipeline's
    start: admission only, since a request never waits behind another.
    """

    request_id: int
    status: str = "ok"
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    total_seconds: float = 0.0
    deadline_ms: Optional[float] = None
    counters: Dict[str, Any] = field(default_factory=lambda: trace_counters({}))

    def __getattr__(self, name: str) -> Any:
        counters = self.__dict__.get("counters", {})
        if name in counters:
            return counters[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def raw_embed_calls(self) -> float:
        """Values embedded by the raw model (missed cache *and* store)."""
        return max(0.0, self.cache_misses - self.cache_store_hits)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (what the HTTP adapter serialises)."""
        return {
            "request_id": self.request_id,
            "status": self.status,
            "stage_seconds": dict(self.stage_seconds),
            "queue_wait_seconds": self.queue_wait_seconds,
            "total_seconds": self.total_seconds,
            "deadline_ms": self.deadline_ms,
            **self.counters,
            "raw_embed_calls": self.raw_embed_calls,
        }


class DeadlineExceededError(Exception):
    """Raised by :class:`StageTracker` when the budget expires at a boundary.

    Internal to the service: callers see the :class:`DeadlineExceeded`
    *response* built from this, never the exception.  ``stage`` names the
    stage that was about to start when the budget ran out.
    """

    def __init__(self, stage: str, elapsed_seconds: float, deadline_ms: float) -> None:
        self.stage = stage
        self.elapsed_seconds = elapsed_seconds
        self.deadline_ms = deadline_ms
        super().__init__(
            f"deadline of {deadline_ms:.0f} ms exceeded after "
            f"{elapsed_seconds * 1000.0:.0f} ms, at the {stage!r} stage boundary"
        )


class StageTracker:
    """``on_stage`` hook: per-stage wall clock + stage-boundary deadlines.

    The engine calls the tracker with each stage about to run (``"align"``,
    ``"match"``, ``"integrate"``) and finally with ``"complete"``.  The
    tracker closes the previous stage's timing at every call, and — when a
    deadline was set — raises :class:`DeadlineExceededError` *before* the
    next stage starts if the budget (measured from request submission) has
    run out.  A request whose last stage
    overruns still completes: ``"complete"`` only closes timings, because
    abandoning finished work buys nothing.
    """

    def __init__(self, submitted_at: float, deadline_ms: Optional[float] = None) -> None:
        self.submitted_at = submitted_at
        self.deadline_ms = deadline_ms
        self.queue_wait_seconds = 0.0
        self.stage_seconds: Dict[str, float] = {}
        self._open: Optional[Tuple[str, float]] = None

    def __call__(self, stage: str) -> None:
        now = time.perf_counter()
        if self._open is not None:
            name, started = self._open
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + (now - started)
            self._open = None
        if stage == "complete":
            return
        if self.deadline_ms is not None:
            elapsed = now - self.submitted_at
            if elapsed * 1000.0 > self.deadline_ms:
                raise DeadlineExceededError(stage, elapsed, self.deadline_ms)
        self._open = (stage, now)


@dataclass
class ServiceResponse:
    """Common shape of every service reply; subclasses fix ``status``."""

    request_id: int
    status: str
    trace: Optional[RequestTrace] = None


@dataclass
class IntegrationResponse(ServiceResponse):
    """Success: the integration result plus its full trace."""

    result: Optional[FuzzyIntegrationResult] = None
    status: str = "ok"


@dataclass
class DeadlineExceeded(ServiceResponse):
    """The deadline expired at a stage boundary; ``trace`` is partial."""

    stage: str = ""
    deadline_ms: float = 0.0
    status: str = "deadline_exceeded"


@dataclass
class ServiceFailure(ServiceResponse):
    """The pipeline raised; the message is relayed, the service stays up."""

    error: str = ""
    status: str = "error"


@dataclass
class EmbedderUnavailableResponse(ServiceResponse):
    """The embedder raised ``EmbedderUnavailable`` under ``degraded_mode="off"``.

    The HTTP adapter maps this to 503.
    """

    error: str = ""
    status: str = "unavailable"


@dataclass
class ServiceStats:
    """Aggregate snapshot returned by :meth:`IntegrationService.stats`.

    At any instant ``submitted`` equals the sum of the terminal outcomes
    (:data:`repro.obs.TERMINAL_OUTCOMES`: ``served``, ``deadline_exceeded``,
    ``failed``, ``unavailable``) plus ``in_flight`` — the terminal counters
    and the in-flight gauge are updated under one lock so no request is ever
    counted twice or dropped.  Under ``repro serve --processes N`` every field
    is aggregated over the N server processes (:meth:`aggregate`): counters
    are sums, and latency quantiles are taken over the union of the
    processes' windows.
    """

    submitted: int = 0
    served: int = 0
    deadline_exceeded: int = 0
    failed: int = 0
    unavailable: int = 0
    in_flight: int = 0
    latency_p50_seconds: float = 0.0
    latency_p99_seconds: float = 0.0
    #: Successful responses whose trace was marked degraded (subset of
    #: ``served``).
    degraded_served: int = 0
    #: Server processes started, and those still running.
    processes: int = 1
    processes_alive: int = 1
    #: ``pid`` / ``alive`` / ``served`` of each process.
    per_process: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def aggregate(cls, rows: Sequence[Dict[str, Any]]) -> "ServiceStats":
        """One snapshot over the rows of every server process."""
        totals = {
            name: sum(int(row[name]) for row in rows)
            for name in ROW_COUNTERS
            if name in cls.__dataclass_fields__
        }
        samples = sorted(latency for row in rows for latency in row["latencies"])
        return cls(
            **totals,
            latency_p50_seconds=quantile(samples, 0.50),
            latency_p99_seconds=quantile(samples, 0.99),
            processes=len(rows),
            processes_alive=sum(bool(row["alive"]) for row in rows),
            per_process=[{name: row[name] for name in ("pid", "alive", "served")} for row in rows],
        )

    #: Plain-JSON form (what ``/stats`` serialises).
    to_dict = asdict


def trace_counters(timings: Mapping[str, float]) -> Dict[str, Any]:
    """The traced counters of a request's ``timings``, by trace key (absent: 0)."""
    return {
        counter.trace: (
            bool(timings.get(counter.name))
            if counter.merge == ANY
            else float(timings.get(counter.name, 0.0))
        )
        for counter in TRACED
    }


def build_trace(
    request_id: int,
    result: Optional[FuzzyIntegrationResult],
    tracker: StageTracker,
    total_seconds: float,
    status: str = "ok",
) -> RequestTrace:
    """Assemble a trace from the tracker's clock and the result's own timings
    (``result`` is ``None`` for a request that stopped early: no counters)."""
    return RequestTrace(
        request_id=request_id,
        status=status,
        stage_seconds=dict(tracker.stage_seconds),
        queue_wait_seconds=tracker.queue_wait_seconds,
        total_seconds=total_seconds,
        deadline_ms=tracker.deadline_ms,
        counters=trace_counters(result.timings if result is not None else {}),
    )


def quantile(samples: List[float], q: float) -> float:
    """Nearest-rank quantile of a sorted sample list (0 on empty input)."""
    if not samples:
        return 0.0
    index = int(round(q * (len(samples) - 1)))
    return samples[index]
