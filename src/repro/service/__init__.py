"""The serving layer: a request/response boundary over one warm engine.

``repro.service`` wraps a single long-lived
:class:`~repro.core.engine.IntegrationEngine` with admission control for
in-process callers (bounded pending queue → :class:`ServiceOverloaded`),
per-request deadlines checked at stage boundaries
(→ :class:`DeadlineExceeded` with a partial trace), and per-request tracing
(:class:`RequestTrace` on every response, aggregates via
:meth:`IntegrationService.stats`).  The stdlib-only blocking HTTP server
lives in :mod:`repro.service.http`; ``repro serve`` wires it to a config and
an artifact store so restarts are warm.
"""

from repro.service.service import LATENCY_WINDOW, IntegrationService
from repro.service.types import (
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
    build_trace,
)

__all__ = [
    "IntegrationService",
    "IntegrationResponse",
    "RequestTrace",
    "ServiceResponse",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "DeadlineExceededError",
    "EmbedderUnavailableResponse",
    "ServiceFailure",
    "ServiceStats",
    "StageTracker",
    "build_trace",
    "LATENCY_WINDOW",
]
