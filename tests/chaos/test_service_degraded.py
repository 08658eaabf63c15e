"""Chaos suite: the serving layer under a failing embedder.

An open breaker must never turn into an unhandled 500: under
``degraded_mode="surface"`` requests keep succeeding (marked degraded in
their trace, ``/healthz`` reports ``degraded``), under ``"fail"`` they get
a typed 503 with a ``Retry-After`` derived from the breaker's remaining
open window, and once the backend heals responses are byte-identical to a
never-failed service.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import FuzzyFDConfig
from repro.embeddings import MistralEmbedder
from repro.embeddings.resilient import ResilientEmbedder
from repro.obs import TERMINAL_OUTCOMES
from repro.service import (
    EmbedderUnavailableResponse,
    IntegrationResponse,
    IntegrationService,
)
from repro.table import Table
from repro.testing import FaultInjector, FaultyEmbedder

TABLES = [
    Table("T1", ["City"], [("Berlinn",), ("Toronto",), ("Barcelona",)]),
    Table("T2", ["City"], [("Berlin",), ("Toronto",), ("barcelona",)]),
]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


def _service(degraded_mode, *, clock=None, fail=True, breaker_reset_ms=60_000.0):
    injector = FaultInjector()
    if fail:
        injector.script("embed_many", fail_all=True)
        injector.script("embed", fail_all=True)
    kwargs = dict(
        retry_max_attempts=1,
        retry_backoff_ms=0.01,
        breaker_failure_threshold=1,
        breaker_reset_ms=breaker_reset_ms,
        sleep=lambda seconds: None,
    )
    if clock is not None:
        kwargs["clock"] = clock
    embedder = ResilientEmbedder(FaultyEmbedder(MistralEmbedder(), injector), **kwargs)
    config = FuzzyFDConfig(embedder=embedder, degraded_mode=degraded_mode)
    return IntegrationService(config), injector


INTEGRATE_BODY = {
    "tables": [
        {"name": "T1", "columns": ["City"], "rows": [["Berlinn"], ["Toronto"]]},
        {"name": "T2", "columns": ["City"], "rows": [["Berlin"], ["Toronto"]]},
    ]
}


class TestSurfaceMode:
    def test_open_breaker_serves_degraded_not_errors(self):
        async def main():
            service, _ = _service("surface")
            async with service:
                response = await service.integrate(TABLES)
                stats = service.stats()
                return response, stats

        response, stats = asyncio.run(main())
        assert isinstance(response, IntegrationResponse)
        assert response.trace.degraded is True
        assert response.trace.breaker_opens >= 1.0
        assert stats.served == 1
        assert stats.degraded_served == 1
        assert stats.breaker_state == "open"

    def test_healthz_reports_degraded_while_integrate_stays_200(self, serve_http):
        service, _ = _service("surface")
        with serve_http(service) as server:
            integrate = server.request("POST", "/integrate", INTEGRATE_BODY)
            health = server.request("GET", "/healthz")
            stats = server.request("GET", "/stats")
        service.close()
        status, _, body = integrate
        assert status == 200
        assert body["trace"]["degraded"] is True
        status, _, body = health
        assert status == 200
        assert body["status"] == "degraded"
        assert body["breaker"]["state"] in ("open", "half_open")
        status, _, body = stats
        assert body["breaker_state"] == "open"
        assert body["degraded_served"] == 1

    def test_recovery_is_byte_identical_to_clean_service(self):
        async def main():
            clean_service, _ = _service("surface", fail=False)
            async with clean_service:
                clean = await clean_service.integrate(TABLES)

            clock = FakeClock()
            service, injector = _service("surface", clock=clock, breaker_reset_ms=1000.0)
            async with service:
                degraded = await service.integrate(TABLES)
                injector.heal()
                clock.advance_ms(1001.0)
                recovered = await service.integrate(TABLES)
                breaker_state = service.stats().breaker_state
            return clean, degraded, recovered, breaker_state

        clean, degraded, recovered, breaker_state = asyncio.run(main())
        assert degraded.trace.degraded is True
        assert recovered.trace.degraded is False
        assert breaker_state == "closed"
        assert recovered.result.table.rows == clean.result.table.rows


class TestFailMode:
    def test_unavailable_response_with_retry_window(self):
        async def main():
            service, _ = _service("fail")
            async with service:
                first = await service.integrate(TABLES)
                second = await service.integrate(TABLES)
                stats = service.stats()
            return first, second, stats

        first, second, stats = asyncio.run(main())
        # The very first request trips the breaker mid-flight and surfaces
        # the typed outcome; later requests are short-circuited the same way.
        for response in (first, second):
            assert isinstance(response, EmbedderUnavailableResponse)
            assert response.status == "unavailable"
            assert response.retry_after_ms > 0.0
        assert stats.unavailable == 2
        assert stats.served == 0
        # unavailable is a terminal outcome: the accounting identity holds.
        outcomes = sum(getattr(stats, outcome) for outcome in TERMINAL_OUTCOMES)
        assert outcomes + stats.in_flight == stats.submitted == 2

    def test_http_503_with_retry_after_header(self, serve_http):
        service, _ = _service("fail", breaker_reset_ms=45_000.0)
        with serve_http(service) as server:
            integrate = server.request("POST", "/integrate", INTEGRATE_BODY)
            health = server.request("GET", "/healthz")
        service.close()
        status, headers, body = integrate
        assert status == 503
        assert body["status"] == "unavailable"
        assert body["retry_after_ms"] > 0.0
        assert 1 <= int(headers["retry-after"]) <= 45
        status, headers, body = health
        assert status == 503
        assert body["status"] == "unhealthy"
        assert "retry-after" in headers
