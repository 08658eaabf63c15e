"""The serving layer: a request/response boundary over one warm engine.

``repro.service`` wraps a single long-lived
:class:`~repro.core.engine.IntegrationEngine` with per-request deadlines
checked at stage boundaries (→ :class:`DeadlineExceeded` with a partial
trace), per-request tracing (:class:`RequestTrace`, aggregates via
:meth:`IntegrationService.stats`) and atomic accounting; every request runs
on the calling thread (:meth:`IntegrationService.integrate_sync`).  The
stdlib-only blocking HTTP server lives in :mod:`repro.service.http`;
``repro serve`` wires it to a config and an artifact store so restarts are
warm.
"""

from repro.service.service import LATENCY_WINDOW, IntegrationService
from repro.service.types import (
    DeadlineExceeded,
    DeadlineExceededError,
    EmbedderUnavailableResponse,
    IntegrationResponse,
    RequestTrace,
    ServiceFailure,
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
    "DeadlineExceeded",
    "DeadlineExceededError",
    "EmbedderUnavailableResponse",
    "ServiceFailure",
    "ServiceStats",
    "StageTracker",
    "build_trace",
    "LATENCY_WINDOW",
]
