"""Typed request/response vocabulary of the integration service.

The serving layer (:class:`~repro.service.IntegrationService`) never raises
for operational outcomes — overload, deadline overrun and handler failure are
*responses*, not exceptions, so a caller can pattern-match on ``status``
without wrapping every await in try/except.  The one exception type defined
here, :class:`DeadlineExceededError`, is internal: the
:class:`StageTracker` raises it inside the engine's ``on_stage`` hook and
the service converts it into a :class:`DeadlineExceeded` response before it
ever reaches a caller.

Every response carries a :class:`RequestTrace` (``None`` only on
:class:`ServiceOverloaded`, where no work ran).  The trace is assembled from
data the pipeline already records — stage wall-clock from the
``on_stage`` boundaries, ANN/blocking and cache-delta counters from
:class:`~repro.core.value_matching.ValueMatchingResult.statistics` — so
tracing adds no instrumentation to the hot path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import FuzzyIntegrationResult

#: Trace counter -> the per-group ``ValueMatchingResult.statistics`` key it
#: aggregates (summed across aligned column groups).
TRACE_COUNTER_SOURCES: Dict[str, str] = {
    "ann_pairs_added": "blocking_ann_pairs_added",
    "ann_probe_candidates": "blocking_ann_probe_candidates",
    "ann_bucket_skew": "blocking_ann_skew_fallbacks",
    "cache_hits": "cache_hits",
    "cache_misses": "cache_misses",
    "cache_fills": "cache_fills",
    "cache_store_hits": "cache_store_hits",
    "cache_store_misses": "cache_store_misses",
    "embedder_retries": "embedder_retries",
    "breaker_opens": "breaker_opens",
    "breaker_short_circuits": "breaker_short_circuits",
}

#: The counters of one server process's row, summed into ``/stats``.
ROW_COUNTERS = (
    "submitted",
    "served",
    "rejected",
    "deadline_exceeded",
    "failed",
    "unavailable",
    "in_flight",
    "executing",
    "degraded_served",
    "requests_served",
)

#: The embedder breaker's counters (``ResilientEmbedder.describe``) a row carries.
BREAKER_COUNTERS = (
    "retries",
    "failures",
    "breaker_opens",
    "breaker_closes",
    "breaker_short_circuits",
    "half_open_probes",
    "consecutive_failures",
)

#: Breaker states from best to worst: health is the worst of the live processes.
BREAKER_STATES = ("closed", "half_open", "open")


@dataclass
class RequestTrace:
    """Per-request observability record attached to every service response.

    ``stage_seconds`` holds wall-clock per pipeline stage (``align`` /
    ``match`` / ``integrate``) in execution order; on a
    :class:`DeadlineExceeded` response it is partial — only the stages that
    finished before the budget ran out appear.  ``raw_embed_calls`` is the
    number of values that reached the underlying embedding model this
    request: in-memory cache misses not absorbed by the durable store
    (``cache_misses - cache_store_hits``).
    """

    request_id: int
    status: str = "ok"
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    total_seconds: float = 0.0
    deadline_ms: Optional[float] = None
    ann_pairs_added: float = 0.0
    ann_probe_candidates: float = 0.0
    ann_bucket_skew: float = 0.0
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    cache_fills: float = 0.0
    cache_store_hits: float = 0.0
    cache_store_misses: float = 0.0
    store_published_rows: float = 0.0
    #: True when any column group was matched without embeddings because the
    #: embedder breaker was open and ``degraded_mode="surface"`` applied —
    #: the answer is valid but its recall is below the healthy path.
    degraded: bool = False
    embedder_retries: float = 0.0
    breaker_opens: float = 0.0
    breaker_short_circuits: float = 0.0
    #: Corrupt store artifacts this request tripped over (now quarantined).
    store_corrupt_segments: float = 0.0

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
            "ann_pairs_added": self.ann_pairs_added,
            "ann_probe_candidates": self.ann_probe_candidates,
            "ann_bucket_skew": self.ann_bucket_skew,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_fills": self.cache_fills,
            "cache_store_hits": self.cache_store_hits,
            "cache_store_misses": self.cache_store_misses,
            "raw_embed_calls": self.raw_embed_calls,
            "store_published_rows": self.store_published_rows,
            "degraded": self.degraded,
            "embedder_retries": self.embedder_retries,
            "breaker_opens": self.breaker_opens,
            "breaker_short_circuits": self.breaker_short_circuits,
            "store_corrupt_segments": self.store_corrupt_segments,
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
    next stage starts if the budget (measured from request submission, so
    queue wait counts against it) has run out.  A request whose last stage
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
class ServiceOverloaded(ServiceResponse):
    """Rejected at admission: the pending queue was full (backpressure)."""

    pending: int = 0
    max_pending: int = 0
    status: str = "overloaded"


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
    """The embedder breaker is open and ``degraded_mode="fail"`` applies.

    The HTTP adapter maps this to 503 with a ``Retry-After`` header derived
    from ``retry_after_ms`` — the remaining open window of the breaker.
    """

    error: str = ""
    retry_after_ms: float = 0.0
    status: str = "unavailable"


@dataclass
class ServiceStats:
    """Aggregate snapshot returned by :meth:`IntegrationService.stats`.

    At any instant ``submitted == served + rejected + deadline_exceeded +
    failed + in_flight`` — the terminal counters and the in-flight gauge are
    updated under one lock so no request is ever counted twice or dropped.
    ``queued`` is ``in_flight - executing``: admitted requests still waiting
    for a concurrency slot.  Under ``repro serve --processes N`` every field
    is aggregated over the N server processes (:meth:`aggregate`): counters
    are sums, latency quantiles are taken over the union of the processes'
    windows, and ``breaker_state`` is the worst state of the live processes.
    """

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    failed: int = 0
    unavailable: int = 0
    in_flight: int = 0
    executing: int = 0
    queued: int = 0
    latency_p50_seconds: float = 0.0
    latency_p99_seconds: float = 0.0
    #: Successful responses whose trace was marked degraded (subset of
    #: ``served``).
    degraded_served: int = 0
    #: Current circuit-breaker state of the engine's embedder.
    breaker_state: str = "closed"
    #: Cumulative embedder retry / breaker-open counts over the engine's
    #: lifetime (from the resilient wrapper, not per-request deltas).
    embedder_retries: int = 0
    breaker_opens: int = 0
    #: Server processes started, and those still running.
    processes: int = 1
    processes_alive: int = 1
    #: ``pid`` / ``alive`` / ``served`` / ``breaker_state`` of each process.
    per_process: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def aggregate(cls, rows: Sequence[Dict[str, Any]]) -> "ServiceStats":
        """One snapshot over the rows of every server process."""
        totals = {name: sum(int(row[name]) for row in rows) for name in ROW_COUNTERS}
        samples = sorted(latency for row in rows for latency in row["latencies"])
        breaker = aggregate_breaker(rows)
        return cls(
            submitted=totals["submitted"],
            served=totals["served"],
            rejected=totals["rejected"],
            deadline_exceeded=totals["deadline_exceeded"],
            failed=totals["failed"],
            unavailable=totals["unavailable"],
            in_flight=totals["in_flight"],
            executing=totals["executing"],
            queued=totals["in_flight"] - totals["executing"],
            latency_p50_seconds=quantile(samples, 0.50),
            latency_p99_seconds=quantile(samples, 0.99),
            degraded_served=totals["degraded_served"],
            breaker_state=breaker["state"],
            embedder_retries=int(breaker["retries"]),
            breaker_opens=int(breaker["breaker_opens"]),
            processes=len(rows),
            processes_alive=sum(bool(row["alive"]) for row in rows),
            per_process=[
                {name: row[name] for name in ("pid", "alive", "served", "breaker_state")}
                for row in rows
            ],
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "unavailable": self.unavailable,
            "in_flight": self.in_flight,
            "executing": self.executing,
            "queued": self.queued,
            "latency_p50_seconds": self.latency_p50_seconds,
            "latency_p99_seconds": self.latency_p99_seconds,
            "degraded_served": self.degraded_served,
            "breaker_state": self.breaker_state,
            "embedder_retries": self.embedder_retries,
            "breaker_opens": self.breaker_opens,
            "processes": self.processes,
            "processes_alive": self.processes_alive,
            "per_process": [dict(entry) for entry in self.per_process],
        }


def aggregate_breaker(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One breaker view over the server processes' rows (``/healthz``).

    ``state`` is the worst state of the live processes and ``retry_after_ms``
    their longest remaining open window; the counters are sums, except
    ``consecutive_failures``, the longest current run of any live process.
    """
    live = [row for row in rows if row["alive"]]
    view: Dict[str, Any] = {name: sum(row[name] for row in rows) for name in BREAKER_COUNTERS}
    view["consecutive_failures"] = max((row["consecutive_failures"] for row in live), default=0)
    view["state"] = max(
        (row["breaker_state"] for row in live), key=BREAKER_STATES.index, default="closed"
    )
    view["retry_after_ms"] = max((row["retry_after_ms"] for row in live), default=0.0)
    return view


def build_trace(
    request_id: int,
    result: FuzzyIntegrationResult,
    tracker: StageTracker,
    total_seconds: float,
) -> RequestTrace:
    """Assemble the success trace from the pipeline's own statistics."""
    counters: Dict[str, float] = {}
    for trace_key, source_key in TRACE_COUNTER_SOURCES.items():
        counters[trace_key] = sum(
            vm.statistics.get(source_key, 0.0) for vm in result.value_matching.values()
        )
    return RequestTrace(
        request_id=request_id,
        status="ok",
        stage_seconds=dict(tracker.stage_seconds),
        queue_wait_seconds=tracker.queue_wait_seconds,
        total_seconds=total_seconds,
        deadline_ms=tracker.deadline_ms,
        store_published_rows=result.timings.get("store_published_rows", 0.0),
        degraded=any(
            vm.statistics.get("degraded", 0.0) > 0.0
            for vm in result.value_matching.values()
        ),
        store_corrupt_segments=result.timings.get("store_corrupt_segments", 0.0),
        **counters,
    )


def quantile(samples: List[float], q: float) -> float:
    """Nearest-rank quantile of a sorted sample list (0 on empty input)."""
    if not samples:
        return 0.0
    index = int(round(q * (len(samples) - 1)))
    return samples[index]
