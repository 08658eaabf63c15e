"""Seeded, deterministic fault injection for the chaos test suite.

Production failure modes — transient embedder errors, latency spikes,
corrupted store segments — are by nature irreproducible, which makes tests
against them flaky unless the *injection* itself is deterministic.
Everything in this module is: faults fire on scripted call indices (or a
seeded per-index rate) and latency comes from a scripted schedule.  Running
the same scripted scenario twice injects the exact same faults at the exact
same points.

The pieces:

* :class:`FaultInjector` — the schedule.  ``script("embed_many",
  fail_cycle=(2, 3))`` makes every third call succeed after two failures
  (the retry-masking scenario); ``fail_all=True`` is a hard-down backend
  (the breaker scenario); ``fail_calls={0, 4}`` fails exact call indices;
  ``fail_rate`` derives a per-index coin flip from the seed.  ``heal()``
  clears the schedule — the recovery scenario.
* :class:`FaultyEmbedder` — wraps any embedder; ``embed`` / ``embed_many``
  consult the injector before delegating.  Transparent like every
  :class:`~repro.embeddings.resilient.DelegatingEmbedder`: name, dimension
  and cache mirror the inner embedder.
* :class:`FaultyStore` — same idea in front of an
  :class:`~repro.storage.store.ArtifactStore`'s load/save calls.
* :func:`corrupt_array_file` — truncates a published ``.npy`` in place, the
  store-corruption scenario (quarantine + rebuild).
* :func:`chaos_embedder_from_env` — builds a scripted
  :class:`FaultyEmbedder` from ``REPRO_CHAOS_*`` environment variables, so
  a *subprocess* (``repro serve --embedder chaos``) can run a fault
  scenario the parent scripted without any IPC.

Injectors are thread-safe; call indices are global per operation, so
concurrent callers observe one shared schedule (like one shared backend).
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from random import Random
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.embeddings.base import ValueEmbedder
from repro.embeddings.resilient import DelegatingEmbedder


class TransientFault(RuntimeError):
    """The injected failure type — a stand-in for any transient backend error."""


class _Script:
    """One operation's fault schedule (immutable once installed)."""

    __slots__ = (
        "fail_calls",
        "fail_all",
        "fail_rate",
        "fail_cycle",
        "latency_ms",
        "constant_latency_ms",
    )

    def __init__(
        self,
        fail_calls: FrozenSet[int],
        fail_all: bool,
        fail_rate: float,
        fail_cycle: Optional[Tuple[int, int]],
        latency_ms: Mapping[int, float],
        constant_latency_ms: float,
    ) -> None:
        self.fail_calls = fail_calls
        self.fail_all = fail_all
        self.fail_rate = fail_rate
        self.fail_cycle = fail_cycle
        self.latency_ms = dict(latency_ms)
        self.constant_latency_ms = constant_latency_ms


class FaultInjector:
    """Deterministic scripted fault source shared by the ``Faulty*`` wrappers.

    One injector can script any number of named operations; each operation
    keeps its own call counter.  All decisions are pure functions of
    ``(seed, operation, call index, script)`` — no wall clock, no global
    randomness — so a scenario replays identically run after run.
    """

    def __init__(self, seed: int = 0, sleep: Callable[[float], None] = time.sleep) -> None:
        self.seed = int(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._scripts: Dict[str, _Script] = {}
        self._calls: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}

    def script(
        self,
        operation: str,
        *,
        fail_calls: Iterable[int] = (),
        fail_all: bool = False,
        fail_rate: float = 0.0,
        fail_cycle: Optional[Tuple[int, int]] = None,
        latency_ms: Optional[Mapping[int, float]] = None,
        constant_latency_ms: float = 0.0,
    ) -> "FaultInjector":
        """Install (replacing) the schedule of one operation.

        ``fail_calls`` — exact 0-based call indices that fail.
        ``fail_all`` — every call fails (hard-down backend).
        ``fail_rate`` — probability a call fails, decided by a Random seeded
        with ``(seed, operation, index)`` — deterministic per index.
        ``fail_cycle=(n, period)`` — indices with ``index % period < n``
        fail: "every logical call fails ``n`` times, then succeeds" when the
        caller retries up to ``period`` attempts.
        ``latency_ms`` — per-index sleep before the call; ``constant_latency_ms``
        applies to every call.  Latency applies whether or not the call fails.
        Returns ``self`` for chaining.
        """
        if not 0.0 <= fail_rate <= 1.0:
            raise ValueError(f"fail_rate must be in [0, 1], got {fail_rate}")
        if fail_cycle is not None:
            failures, period = fail_cycle
            if period < 1 or not 0 <= failures <= period:
                raise ValueError(
                    f"fail_cycle must be (failures, period) with "
                    f"0 <= failures <= period and period >= 1, got {fail_cycle}"
                )
        if constant_latency_ms < 0:
            raise ValueError(f"constant_latency_ms must be >= 0, got {constant_latency_ms}")
        with self._lock:
            self._scripts[operation] = _Script(
                fail_calls=frozenset(int(index) for index in fail_calls),
                fail_all=fail_all,
                fail_rate=float(fail_rate),
                fail_cycle=fail_cycle,
                latency_ms=latency_ms or {},
                constant_latency_ms=float(constant_latency_ms),
            )
        return self

    def heal(self, operation: Optional[str] = None) -> None:
        """Remove the schedule of ``operation`` (or all of them).

        Call counters survive, so a healed operation's indices keep
        advancing — statistics stay cumulative across the recovery.
        """
        with self._lock:
            if operation is None:
                self._scripts.clear()
            else:
                self._scripts.pop(operation, None)

    def before(self, operation: str) -> None:
        """The hook wrappers call before delegating one ``operation`` call.

        Counts the call, applies any scripted latency, and raises
        :class:`TransientFault` when the schedule says this index fails.
        """
        with self._lock:
            index = self._calls.get(operation, 0)
            self._calls[operation] = index + 1
            script = self._scripts.get(operation)
        if script is None:
            return
        delay_ms = script.constant_latency_ms + script.latency_ms.get(index, 0.0)
        if delay_ms > 0:
            self._sleep(delay_ms / 1000.0)
        fail = (
            script.fail_all
            or index in script.fail_calls
            or (
                script.fail_cycle is not None
                and index % script.fail_cycle[1] < script.fail_cycle[0]
            )
            or (
                script.fail_rate > 0.0
                and Random(f"{self.seed}:{operation}:{index}").random() < script.fail_rate
            )
        )
        if fail:
            with self._lock:
                self._injected[operation] = self._injected.get(operation, 0) + 1
            raise TransientFault(f"injected fault in {operation!r} (call #{index})")

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-operation ``{"calls": n, "injected": m}`` counters."""
        with self._lock:
            operations = set(self._calls) | set(self._injected)
            return {
                operation: {
                    "calls": self._calls.get(operation, 0),
                    "injected": self._injected.get(operation, 0),
                }
                for operation in sorted(operations)
            }


class FaultyEmbedder(DelegatingEmbedder):
    """An embedder whose ``embed`` / ``embed_many`` consult a fault injector.

    Operations are named ``"embed"`` and ``"embed_many"``.  Place *inside* a
    :class:`~repro.embeddings.resilient.ResilientEmbedder` (the engine wraps
    automatically), so every retry attempt consults the schedule — exactly
    how a flaky backend behaves.
    """

    def __init__(self, inner: ValueEmbedder, injector: FaultInjector) -> None:
        super().__init__(inner)
        self.injector = injector

    def embed(self, value: object) -> np.ndarray:
        self.injector.before("embed")
        return self.inner.embed(value)

    def embed_many(self, values: Sequence[object]) -> np.ndarray:
        self.injector.before("embed_many")
        return self.inner.embed_many(values)


class FaultyStore:
    """An :class:`~repro.storage.store.ArtifactStore` front with injected faults.

    Load calls consult operation ``"store_load"``, save calls
    ``"store_save"``; everything else (statistics, modes, paths) delegates
    untouched.  Raised :class:`TransientFault`\\ s surface to the caller —
    the store's own corruption handling only covers *unreadable data*, and
    callers are expected to treat a faulted load like any transient IO
    error.
    """

    def __init__(self, inner: object, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def load_embedding_segment(self, *args: object, **kwargs: object):
        self.injector.before("store_load")
        return self.inner.load_embedding_segment(*args, **kwargs)

    def load_ann_index(self, *args: object, **kwargs: object):
        self.injector.before("store_load")
        return self.inner.load_ann_index(*args, **kwargs)

    def load_ivf_index(self, *args: object, **kwargs: object):
        self.injector.before("store_load")
        return self.inner.load_ivf_index(*args, **kwargs)

    def save_embedding_segment(self, *args: object, **kwargs: object):
        self.injector.before("store_save")
        return self.inner.save_embedding_segment(*args, **kwargs)

    def save_ann_index(self, *args: object, **kwargs: object):
        self.injector.before("store_save")
        return self.inner.save_ann_index(*args, **kwargs)

    def save_ivf_index(self, *args: object, **kwargs: object):
        self.injector.before("store_save")
        return self.inner.save_ivf_index(*args, **kwargs)

    def __getattr__(self, attribute: str):
        return getattr(self.inner, attribute)

    def __repr__(self) -> str:
        return f"FaultyStore({self.inner!r})"


def corrupt_array_file(path: Union[str, Path]) -> None:
    """Truncate a published ``.npy`` (or any file) to half its bytes, in place.

    The store-corruption scenario: the artifact's directory still validates
    by fingerprint, but loading the array fails (or yields a wrong shape),
    which the store must count, quarantine and degrade to a rebuild.
    """
    target = Path(path)
    data = target.read_bytes()
    target.write_bytes(data[: max(1, len(data) // 2)])


#: Environment variables :func:`chaos_embedder_from_env` understands.
CHAOS_ENV_INNER = "REPRO_CHAOS_INNER"
CHAOS_ENV_EMBED_FAILURES = "REPRO_CHAOS_EMBED_FAILURES"
CHAOS_ENV_EMBED_LATENCY_MS = "REPRO_CHAOS_EMBED_LATENCY_MS"
CHAOS_ENV_SEED = "REPRO_CHAOS_SEED"


def chaos_embedder_from_env(**kwargs: object) -> FaultyEmbedder:
    """Build the ``"chaos"`` registry embedder from ``REPRO_CHAOS_*`` vars.

    ``REPRO_CHAOS_INNER`` — inner embedder registry name (default
    ``"mistral"``); ``kwargs`` pass through to its factory.
    ``REPRO_CHAOS_EMBED_FAILURES`` — ``"all"`` (hard-down), a
    ``"n:period"`` fail-cycle (e.g. ``"2:3"``), or comma-separated call
    indices (e.g. ``"0,1,4"``); empty/unset injects nothing.
    ``REPRO_CHAOS_EMBED_LATENCY_MS`` — constant per-call latency.
    ``REPRO_CHAOS_SEED`` — the injector seed (default 0).

    Both ``embed`` and ``embed_many`` get the same schedule.  This is how
    the service smoke test boots a ``repro serve`` subprocess against a
    failing backend without any IPC.
    """
    from repro.embeddings.registry import EMBEDDERS

    inner_name = os.environ.get(CHAOS_ENV_INNER, "mistral")
    inner = EMBEDDERS.create(inner_name, **kwargs)
    injector = FaultInjector(seed=int(os.environ.get(CHAOS_ENV_SEED, "0") or 0))
    spec = os.environ.get(CHAOS_ENV_EMBED_FAILURES, "").strip()
    latency = float(os.environ.get(CHAOS_ENV_EMBED_LATENCY_MS, "0") or 0.0)
    schedule: Dict[str, object] = {"constant_latency_ms": latency}
    if spec.lower() == "all":
        schedule["fail_all"] = True
    elif ":" in spec:
        failures, period = spec.split(":", 1)
        schedule["fail_cycle"] = (int(failures), int(period))
    elif spec:
        schedule["fail_calls"] = frozenset(int(token) for token in spec.split(","))
    if spec or latency > 0:
        injector.script("embed", **schedule)
        injector.script("embed_many", **schedule)
    return FaultyEmbedder(inner, injector)
