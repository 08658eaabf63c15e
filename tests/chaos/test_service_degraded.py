"""The serving layer over a down embedder.

A down embedder (``DownEmbedder``, ``tests/conftest.py``) must never turn
into an unhandled error: under ``degraded_mode="surface"`` requests keep
succeeding, marked degraded in their trace; under ``"off"`` they get a typed
``unavailable`` response; and once the backend is back, responses are
byte-identical to a never-failed service.  The HTTP side of this contract is
in ``tests/service/test_http.py``.
"""

from __future__ import annotations

from repro.core import FuzzyFDConfig
from repro.obs import TERMINAL_OUTCOMES
from repro.service import (
    EmbedderUnavailableResponse,
    IntegrationResponse,
    IntegrationService,
)
from repro.table import Table

TABLES = [
    Table("T1", ["City"], [("Berlinn",), ("Toronto",), ("Barcelona",)]),
    Table("T2", ["City"], [("Berlin",), ("Toronto",), ("barcelona",)]),
]


def _service(embedder, degraded_mode):
    return IntegrationService(FuzzyFDConfig(embedder=embedder, degraded_mode=degraded_mode))


def _reconciles(stats) -> bool:
    outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
    return outcomes + stats.in_flight == stats.submitted


class TestSurfaceMode:
    def test_a_down_embedder_serves_degraded_not_errors(self, down_embedder):
        service = _service(down_embedder, "surface")
        response = service.integrate_sync(TABLES)
        stats = service.stats()
        service.close()
        assert isinstance(response, IntegrationResponse)
        assert response.trace.degraded is True
        assert response.trace.raw_embed_calls == 0.0
        assert (stats.served, stats.degraded_served, stats.unavailable) == (1, 1, 0)

    def test_recovery_is_byte_identical_to_clean_service(self, down_embedder):
        clean = _service("mistral", "surface").integrate_sync(TABLES)
        service = _service(down_embedder, "surface")
        degraded = service.integrate_sync(TABLES)
        down_embedder.down = False
        recovered = service.integrate_sync(TABLES)
        stats = service.stats()
        service.close()
        assert degraded.trace.degraded is True
        assert recovered.trace.degraded is False
        assert recovered.result.table.rows == clean.result.table.rows
        assert recovered.result.table.provenance == clean.result.table.provenance
        assert (stats.served, stats.degraded_served) == (2, 1)

    def test_a_request_override_turns_the_surface_route_off(self, down_embedder):
        service = _service(down_embedder, "surface")
        response = service.integrate_sync(TABLES, degraded_mode="off")
        service.close()
        assert isinstance(response, EmbedderUnavailableResponse)


class TestOffMode:
    def test_unavailable_response_without_a_trace(self, down_embedder):
        service = _service(down_embedder, "off")
        first = service.integrate_sync(TABLES)
        second = service.integrate_sync(TABLES)
        stats = service.stats()
        service.close()
        for response in (first, second):
            assert isinstance(response, EmbedderUnavailableResponse)
            assert response.status == "unavailable"
            assert response.error == "embedding backend is down"
            assert response.trace is None
            assert not hasattr(response, "retry_after_ms")
        assert (stats.unavailable, stats.served, stats.failed) == (2, 0, 0)
        # unavailable is a terminal outcome: the accounting identity holds.
        assert _reconciles(stats) and stats.submitted == 2

    def test_a_request_override_turns_the_surface_route_on(self, down_embedder):
        service = _service(down_embedder, "off")
        response = service.integrate_sync(TABLES, degraded_mode="surface")
        stats = service.stats()
        service.close()
        assert response.status == "ok" and response.trace.degraded is True
        assert stats.degraded_served == 1

    def test_the_service_serves_again_once_the_backend_is_back(self, down_embedder):
        clean = _service("mistral", "off").integrate_sync(TABLES)
        service = _service(down_embedder, "off")
        refused = service.integrate_sync(TABLES)
        down_embedder.down = False
        served = service.integrate_sync(TABLES)
        stats = service.stats()
        service.close()
        assert refused.status == "unavailable"
        assert served.status == "ok" and served.trace.degraded is False
        assert served.result.table.rows == clean.result.table.rows
        assert (stats.unavailable, stats.served) == (1, 1) and _reconciles(stats)
