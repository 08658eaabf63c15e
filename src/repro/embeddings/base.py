"""Embedder interface and embedding cache."""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np


def embedding_text(value: object) -> str:
    """The exact text an embedder embeds (and caches) for ``value``.

    ``None`` embeds as the empty string; everything else as ``str(value)``.
    Callers that need the embedded texts themselves must use this function
    rather than re-implementing the conversion, so that they name exactly
    the rows :meth:`ValueEmbedder.embed_many` produced.
    """
    return "" if value is None else str(value)


#: Texts per raw-embed slab: bounds the working set of one ``_embed_texts``
#: call and is how often a cold batch takes the cache lock.  A constant, not
#: a knob — rows are bit-identical for any value (tests patch it to 1 / 2 / 7).
EMBED_SLAB = 256

#: What a request does when its embedder raises :class:`EmbedderUnavailable`
#: (see :class:`~repro.core.config.FuzzyFDConfig.degraded_mode`): ``"off"``
#: propagates it (the service answers ``unavailable``), ``"surface"`` matches
#: by exact pairing plus surface blocking, without embeddings.
DEGRADED_MODES = ("off", "surface")


class EmbedderUnavailable(RuntimeError):
    """Raised by an embedder whose backend is down.

    The built-in embedders are in-process and never raise it; a caller's own
    embedder over a remote backend does, from ``embed`` / ``embed_many``.
    """


class ValueEmbedder:
    """Maps cell values to fixed-dimension unit vectors.

    Subclasses implement the batch seam :meth:`_embed_texts` (or, one text at
    a time, :meth:`_embed_text`); callers use :meth:`embed` and
    :meth:`embed_many`, which handle caching and normalisation.
    """

    #: Registry name of the model (e.g. ``"mistral"``); subclasses override.
    name: str = "abstract"

    #: Bumped when the model's vectors change for the same name and
    #: dimension, so persisted vectors of the old family miss instead of
    #: being served (see :func:`repro.storage.fingerprint.embedder_fingerprint`).
    revision: int = 1

    def __init__(self, dimension: int = 256, cache: Optional["EmbeddingCache"] = None) -> None:
        if dimension <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dimension = dimension
        self._cache = cache if cache is not None else EmbeddingCache()

    # -- public API -----------------------------------------------------------------
    @property
    def cache(self) -> "EmbeddingCache":
        """The embedding cache (long-lived engines read its hit/miss stats)."""
        return self._cache

    def use_cache(self, cache: "EmbeddingCache") -> None:
        """Swap in a different cache (e.g. a store-backed tiered cache).

        The :class:`~repro.core.engine.IntegrationEngine` calls this right
        after resolving the embedder to attach a
        :class:`~repro.storage.cache.StoreBackedEmbeddingCache` when a store
        directory is configured — the embedder's embed paths are unchanged;
        only where vectors are looked up and kept differs.
        """
        self._cache = cache

    def embed(self, value: object) -> np.ndarray:
        """Return the unit-norm embedding of one cell value."""
        return self.embed_many([value])[0]

    def embed_many(self, values: Sequence[object]) -> np.ndarray:
        """Return an ``(n, dimension)`` matrix of embeddings for ``values``.

        Cached rows are copied into a preallocated matrix under a single
        cache-lock acquisition (:meth:`EmbeddingCache.fill_many`) — on warm
        caches this is the hot path of the blocked matcher, and one lock
        round instead of ``n`` matters once a worker pool shares the cache.
        The distinct uncached texts are embedded in slabs of
        :data:`EMBED_SLAB`, each validated, normalised and cached as a whole.
        """
        if not values:
            return np.zeros((0, self.dimension), dtype=np.float64)
        texts = [embedding_text(value) for value in values]
        matrix = np.empty((len(texts), self.dimension), dtype=np.float64)
        missing = self._cache.fill_many(self.name, texts, matrix)
        if missing:
            # Duplicate texts within one cold batch embed exactly once.
            row_of: Dict[str, int] = {}
            for index in missing:
                row_of.setdefault(texts[index], len(row_of))
            distinct = list(row_of)
            computed = np.empty((len(distinct), self.dimension), dtype=np.float64)
            for start in range(0, len(distinct), EMBED_SLAB):
                slab = distinct[start : start + EMBED_SLAB]
                computed[start : start + len(slab)] = self._embed_slab(slab)
            matrix[missing] = computed[[row_of[texts[index]] for index in missing]]
        return matrix

    def _embed_slab(self, texts: Sequence[str]) -> np.ndarray:
        """Compute, validate, normalise and cache the embeddings of ``texts``."""
        rows = np.asarray(self._embed_texts(texts), dtype=np.float64)
        if rows.shape != (len(texts), self.dimension):
            raise ValueError(
                f"{self.name} produced shape {rows.shape}, "
                f"expected ({len(texts)}, {self.dimension})"
            )
        if not np.isfinite(rows).all():
            # Rejected here, before the cache and the store can keep them: a
            # NaN / inf row normalises to NaN and every comparison on it is false.
            first = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
            raise ValueError(f"{self.name} produced a non-finite embedding for {texts[first]!r}")
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows / np.where(norms > 0, norms, 1.0)
        self._cache.put_many(self.name, texts, rows)
        return rows

    def cosine_similarity(self, left: object, right: object) -> float:
        """Cosine similarity between two values' embeddings."""
        return float(np.dot(self.embed(left), self.embed(right)))

    def cosine_distance(self, left: object, right: object) -> float:
        """Cosine distance (1 - similarity), clipped to [0, 2]."""
        return float(np.clip(1.0 - self.cosine_similarity(left, right), 0.0, 2.0))

    # -- extension point --------------------------------------------------------------
    def _embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Embed raw, distinct strings: ``(len(texts), dimension)``, any row norm.

        The one seam every raw embed goes through.  The default stacks
        :meth:`_embed_text`; batch-capable models override this instead.
        """
        return np.stack([np.asarray(self._embed_text(text), dtype=np.float64) for text in texts])

    def _embed_text(self, text: str) -> np.ndarray:
        """Embed a single (raw, un-normalised) string."""
        raise NotImplementedError(f"{type(self).__name__} implements neither embed seam")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dimension={self.dimension})"


class EmbeddingCache:
    """In-memory cache of embeddings keyed by (model name, raw text).

    The LLM embedders in the real system are by far the most expensive part of
    the pipeline; the paper's efficiency argument (Figure 3) assumes values are
    embedded once.  The cache makes repeated integration runs over the same
    tables (and the benchmark's repeated measurements) reflect that behaviour.

    The cache is thread-safe: a long-lived :class:`~repro.core.engine.
    IntegrationEngine` shares one cache across a worker pool, so lookups,
    inserts, evictions and the hit/miss counters all happen under one lock
    (the critical sections are dict operations — far cheaper than the
    embedding computation they guard).  Two threads missing on the same value
    may both embed it; both arrive at the same vector, so the second ``put``
    is a harmless overwrite.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._store: Dict[tuple, np.ndarray] = {}
        self._lock = threading.RLock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.fills = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, model: str, text: str) -> Optional[np.ndarray]:
        """Return a cached vector or ``None``."""
        with self._lock:
            vector = self._store.get((model, text))
            if vector is None:
                self.misses += 1
                return None
            self.hits += 1
            return vector

    def fill_many(self, model: str, texts: Sequence[str], out: np.ndarray) -> List[int]:
        """Copy cached vectors into ``out`` rows; return the missing indices.

        One lock acquisition covers the whole batch, so a pool of workers
        sharing the cache contends once per column instead of once per value.
        Counters move exactly once per text (hit or miss).
        """
        missing: List[int] = []
        missing_texts: set = set()
        distinct_misses = 0
        with self._lock:
            store = self._store
            for index, text in enumerate(texts):
                vector = store.get((model, text))
                if vector is None:
                    missing.append(index)
                    # Repeated occurrences of one uncached text count as one
                    # miss + hits, matching the old embed()-per-value path
                    # (the caller embeds the text once and reuses it).
                    if text not in missing_texts:
                        missing_texts.add(text)
                        distinct_misses += 1
                else:
                    out[index] = vector
            self.hits += len(texts) - distinct_misses
            self.misses += distinct_misses
        return missing

    def put(self, model: str, text: str, vector: np.ndarray) -> None:
        """Insert one vector (see :meth:`put_many`)."""
        self.put_many(model, (text,), (vector,))

    def put_many(self, model: str, texts: Sequence[str], vectors: Sequence[np.ndarray]) -> None:
        """Insert ``vectors[i]`` under ``texts[i]``, one lock round for the batch.

        Entries over capacity evict the oldest inserted one.  Overwriting an
        existing key never evicts: the store size does not grow, so no live
        entry needs to make room.
        """
        with self._lock:
            for text, vector in zip(texts, vectors):
                key = (model, text)
                if key not in self._store:
                    self.fills += 1
                    if (
                        self.max_entries is not None
                        and len(self._store) >= self.max_entries
                        and self._store
                    ):
                        self._evict(next(iter(self._store)))
                self._store[key] = vector

    def _evict(self, key: tuple) -> None:
        """Drop the entry ``key`` to make room (caller holds the lock)."""
        del self._store[key]

    def clear(self) -> None:
        """Drop every cached vector and reset the statistics."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.fills = 0

    def stats(self) -> Dict[str, int]:
        """Return hit/miss/fill/size counters (one consistent snapshot).

        ``fills`` counts vectors inserted (first-time keys), so
        ``misses - fills`` over a window is the duplicate-embed overlap of
        concurrent cold lookups.  Subclasses (the store-backed cache) extend
        the dict with their tier's counters.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "fills": self.fills,
                "size": len(self._store),
            }

