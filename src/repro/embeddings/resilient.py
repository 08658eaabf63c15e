"""Fault tolerance around an embedder: retries, backoff, circuit breaker.

Every real embedder backend (:mod:`repro.embeddings.fasttext`,
:mod:`~repro.embeddings.transformer`, :mod:`~repro.embeddings.llm`) wraps an
external model or IO in the production system, so transient failures are a
first-class scenario, not an anomaly.  :class:`ResilientEmbedder` wraps any
:class:`~repro.embeddings.base.ValueEmbedder` with the two standard
defences:

* **Retries with capped exponential backoff.**  A failing ``embed`` /
  ``embed_many`` call is retried up to ``retry_max_attempts`` times.  The
  delay before attempt *n* is ``retry_backoff_ms × 2^(n-1)``, capped at
  ``retry_backoff_ms × 8``, scaled by a *deterministic* jitter factor in
  [0.5, 1.0) derived by hashing ``(model name, attempt)`` — the same run
  always sleeps the same schedule, so fault-injection tests are exactly
  reproducible while a fleet of embedders still desynchronises its retries.
* **A closed / open / half-open circuit breaker.**  After
  ``breaker_failure_threshold`` consecutive exhausted calls the breaker
  opens: every call short-circuits with a typed :class:`EmbedderUnavailable`
  (carrying ``retry_after_ms``, the remaining open window) instead of
  hammering a down backend.  After ``breaker_reset_ms`` the breaker goes
  half-open and admits exactly one probe call; a successful probe closes
  the breaker, a failed one re-opens it for another full window.

Failure semantics are deliberately conservative: while the breaker is
*closed*, an exhausted call re-raises the **original** exception unchanged —
wrapping never hides an error type callers already handle.  Only breaker
transitions produce :class:`EmbedderUnavailable`: the exhausted call that
trips the breaker open (chained from the original error), every
short-circuited call while it is open, and a failed half-open probe.

The wrapper is transparent to everything else: ``name``, ``dimension``,
``revision`` and the cache plumbing mirror the inner embedder (store fingerprints and the
:class:`~repro.storage.cache.StoreBackedEmbeddingCache` attach exactly as
they would to the bare embedder), and unknown attributes delegate to the
inner instance, so engine code — and tests poking custom attributes — never
notice the wrapping.  Breaker state, counters and the retry policy are
shared by every thread using the wrapper (one backend, one health state, one
policy).  The engine embeds with the embedder it is given and never wraps one
itself: a caller with a fallible backend builds the wrapper with its policy
and passes the instance as ``FuzzyFDConfig.embedder``, and no request
overrides that policy.

``sleep`` and ``clock`` are injectable so tests drive breaker transitions
with a fake clock and assert backoff schedules without real sleeping.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Dict, Sequence

import numpy as np

from repro.embeddings.base import EmbeddingCache, ValueEmbedder

#: Cap on the exponential backoff, as a multiple of ``retry_backoff_ms``.
MAX_BACKOFF_MULTIPLIER = 8

#: Breaker states (``state()`` returns one of these).
BREAKER_STATES = ("closed", "open", "half_open")

#: What happens to a request once the breaker is open (see
#: :class:`~repro.core.config.FuzzyFDConfig.degraded_mode`): ``"off"``
#: propagates :class:`EmbedderUnavailable`, ``"surface"`` degrades matching
#: to exact + surface blocking without embeddings, ``"fail"`` maps to a
#: typed 503 at the service boundary.
DEGRADED_MODES = ("off", "surface", "fail")

class EmbedderUnavailable(RuntimeError):
    """The embedding backend is considered down (circuit breaker engaged).

    ``retry_after_ms`` is the remaining open window of the breaker — the
    serving layer derives an HTTP ``Retry-After`` header from it.
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = max(0.0, float(retry_after_ms))


class DelegatingEmbedder(ValueEmbedder):
    """A :class:`ValueEmbedder` that mirrors another embedder's identity.

    Base class of every wrapper that must be indistinguishable from the
    embedder it wraps (:class:`ResilientEmbedder`, the fault injector's
    ``FaultyEmbedder``): ``name`` / ``dimension`` / ``revision`` copy the
    inner values so store fingerprints are unchanged, the cache property and
    ``use_cache`` forward so a store-backed cache attached through the
    wrapper lands on the inner embedder, and unknown attribute access falls
    through to the inner instance (tests reading custom counters keep
    working).
    """

    def __init__(self, inner: ValueEmbedder) -> None:
        # Deliberately not ValueEmbedder.__init__: the wrapper must share the
        # inner embedder's cache, never own a second one.
        self.inner = inner
        self.name = inner.name
        self.dimension = inner.dimension
        self.revision = inner.revision

    @property
    def cache(self) -> EmbeddingCache:
        return self.inner.cache

    def use_cache(self, cache: EmbeddingCache) -> None:
        self.inner.use_cache(cache)

    def embed(self, value: object) -> np.ndarray:
        return self.inner.embed(value)

    def embed_many(self, values: Sequence[object]) -> np.ndarray:
        return self.inner.embed_many(values)

    def __getattr__(self, attribute: str):
        # Only reached when normal lookup fails.  ``inner`` must not recurse
        # into itself: on a half-constructed wrapper (an __init__ that raised
        # before assigning it) the delegation target simply does not exist.
        if attribute == "inner":
            raise AttributeError(attribute)
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


def _jitter_factor(model_name: str, attempt: int) -> float:
    """Deterministic jitter in [0.5, 1.0) for one (embedder, attempt) pair."""
    digest = hashlib.blake2b(
        f"{model_name}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    fraction = int.from_bytes(digest, "big") / 2**64
    return 0.5 + 0.5 * fraction


class ResilientEmbedder(DelegatingEmbedder):
    """Retry + circuit-breaker wrapper around any embedder (see module docs).

    ``retry_max_attempts`` >= 1 (``1`` disables retries),
    ``retry_backoff_ms`` >= 0, ``breaker_failure_threshold`` >= 1 and
    ``breaker_reset_ms`` > 0; a wrapper never wraps another one.
    """

    def __init__(
        self,
        inner: ValueEmbedder,
        *,
        retry_max_attempts: int = 3,
        retry_backoff_ms: float = 50.0,
        breaker_failure_threshold: int = 5,
        breaker_reset_ms: float = 30_000.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if isinstance(inner, ResilientEmbedder):
            raise ValueError("refusing to wrap a ResilientEmbedder in another one")
        if retry_max_attempts < 1:
            raise ValueError(f"retry_max_attempts must be >= 1, got {retry_max_attempts}")
        if retry_backoff_ms < 0:
            raise ValueError(f"retry_backoff_ms must be >= 0, got {retry_backoff_ms}")
        if breaker_failure_threshold < 1:
            raise ValueError(f"breaker_failure_threshold must be >= 1, got {breaker_failure_threshold}")
        if breaker_reset_ms <= 0:
            raise ValueError(f"breaker_reset_ms must be positive, got {breaker_reset_ms}")
        super().__init__(inner)
        self.retry_max_attempts = retry_max_attempts
        self.retry_backoff_ms = retry_backoff_ms
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_reset_ms = breaker_reset_ms
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._consecutive_failures = 0
        self._counters: Dict[str, int] = {
            "retries": 0,
            "failures": 0,
            "breaker_opens": 0,
            "breaker_closes": 0,
            "breaker_short_circuits": 0,
            "half_open_probes": 0,
        }

    # -- guarded embed paths ---------------------------------------------------------
    def embed(self, value: object) -> np.ndarray:
        return self._guarded(self.inner.embed, value)

    def embed_many(self, values: Sequence[object]) -> np.ndarray:
        return self._guarded(self.inner.embed_many, values)

    def _guarded(self, fn: Callable, argument: object) -> np.ndarray:
        is_probe = self._admit()
        attempts = self.retry_max_attempts
        for attempt in range(1, attempts + 1):
            try:
                result = fn(argument)
            except EmbedderUnavailable:
                # An inner resilient layer already classified this; pass it
                # through rather than retrying an open breaker.
                raise
            except Exception as error:  # noqa: BLE001 — classified below
                if attempt < attempts:
                    with self._lock:
                        self._counters["retries"] += 1
                    self._sleep(self._backoff_seconds(attempt))
                    continue
                now_open = self._record_failure(is_probe)
                if now_open:
                    raise EmbedderUnavailable(
                        f"embedder {self.name!r} unavailable: "
                        f"{self._consecutive_failures} consecutive failures "
                        f"(last: {type(error).__name__}: {error})",
                        retry_after_ms=self.retry_after_ms(),
                    ) from error
                raise
            self._record_success(is_probe)
            return result
        raise AssertionError("unreachable: retry loop returns or raises")

    def _backoff_seconds(self, attempt: int) -> float:
        base_ms = float(self.retry_backoff_ms)
        delay_ms = min(base_ms * 2 ** (attempt - 1), base_ms * MAX_BACKOFF_MULTIPLIER)
        return delay_ms * _jitter_factor(self.name, attempt) / 1000.0

    # -- breaker state machine ---------------------------------------------------------
    def _admit(self) -> bool:
        """Gate one call through the breaker; returns whether it is the probe.

        Raises :class:`EmbedderUnavailable` (a short-circuit) while the
        breaker is open within its reset window, or while another thread's
        half-open probe is in flight.
        """
        with self._lock:
            if self._state == "open":
                elapsed_ms = (self._clock() - self._opened_at) * 1000.0
                reset_ms = float(self.breaker_reset_ms)
                if elapsed_ms < reset_ms:
                    self._counters["breaker_short_circuits"] += 1
                    raise EmbedderUnavailable(
                        f"embedder {self.name!r} unavailable: breaker open for "
                        f"another {reset_ms - elapsed_ms:.0f} ms",
                        retry_after_ms=reset_ms - elapsed_ms,
                    )
                self._state = "half_open"
                self._probe_in_flight = False
            if self._state == "half_open":
                if self._probe_in_flight:
                    self._counters["breaker_short_circuits"] += 1
                    raise EmbedderUnavailable(
                        f"embedder {self.name!r} unavailable: half-open probe "
                        "in flight",
                        retry_after_ms=float(self.breaker_reset_ms),
                    )
                self._probe_in_flight = True
                self._counters["half_open_probes"] += 1
                return True
            return False

    def _record_failure(self, was_probe: bool) -> bool:
        """Account one exhausted call; returns whether the breaker is now open."""
        with self._lock:
            self._consecutive_failures += 1
            self._counters["failures"] += 1
            if was_probe:
                # The probe found the backend still down: a full new window.
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self._counters["breaker_opens"] += 1
                return True
            if self._state == "closed" and self._consecutive_failures >= self.breaker_failure_threshold:
                self._state = "open"
                self._opened_at = self._clock()
                self._counters["breaker_opens"] += 1
                return True
            return self._state != "closed"

    def _record_success(self, was_probe: bool) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if was_probe or self._state == "half_open":
                self._state = "closed"
                self._probe_in_flight = False
                self._counters["breaker_closes"] += 1

    # -- introspection -----------------------------------------------------------------
    def state(self) -> str:
        """Current breaker state: ``"closed"``, ``"open"`` or ``"half_open"``.

        An open breaker whose reset window has elapsed reports
        ``"half_open"`` — that is what the next call will find.
        """
        with self._lock:
            if (
                self._state == "open"
                and (self._clock() - self._opened_at) * 1000.0
                >= float(self.breaker_reset_ms)
            ):
                return "half_open"
            return self._state

    def retry_after_ms(self) -> float:
        """Remaining open window in milliseconds (0 unless the breaker is open)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            return max(0.0, float(self.breaker_reset_ms) - elapsed_ms)

    def resilience_stats(self) -> Dict[str, int]:
        """Cumulative retry/failure/breaker counters (one consistent snapshot)."""
        with self._lock:
            return dict(self._counters)

    def describe(self) -> Dict[str, object]:
        """Breaker state plus counters — the health endpoint's payload."""
        snapshot: Dict[str, object] = dict(self.resilience_stats())
        snapshot["state"] = self.state()
        snapshot["retry_after_ms"] = self.retry_after_ms()
        snapshot["consecutive_failures"] = self._consecutive_failures
        return snapshot

    def __repr__(self) -> str:
        return (
            f"ResilientEmbedder({self.inner!r}, state={self.state()!r}, "
            f"attempts={self.retry_max_attempts})"
        )
