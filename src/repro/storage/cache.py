"""A two-tier embedding cache: in-memory hot tier over memmapped segments.

:class:`StoreBackedEmbeddingCache` extends
:class:`~repro.embeddings.base.EmbeddingCache` with a *cold tier* backed by
an :class:`~repro.storage.store.ArtifactStore`:

* **Warm start.**  Construction attaches every published segment of the
  cache's embedder fingerprint: a text → (segment, row) table in memory,
  the vectors themselves on disk behind ``numpy`` memmaps.  A restarted
  :class:`~repro.core.engine.IntegrationEngine` — or a second engine
  pointed at the same directory — therefore serves lookups for every value
  any previous run embedded, without one raw embed call.
* **Promotion.**  A cold hit copies the row into the hot tier (normal dict
  of float64 vectors), so repeated lookups pay the memmap read once.
* **Publication.**  :meth:`publish` gathers the hot-tier vectors that are
  not yet durable, fingerprints their sorted texts and publishes them as
  one new segment (atomic write-then-rename via the store).  Publishing is
  content-addressed and idempotent: the same new texts always produce the
  same segment, and a concurrent engine publishing the identical segment
  resolves to one copy.
* **Sibling publications.**  A batch that misses re-attaches once before it
  reports the misses, so a value another engine on the same directory (a
  sibling ``repro serve --processes N`` process) has published since is
  served from its segment, not re-embedded.

Thread safety matches the base class: every tier mutation happens under the
one cache lock, so a pool of engine workers shares the cache exactly as
before — the cold tier only adds read-mostly state under the same lock.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.embeddings.base import EmbeddingCache
from repro.storage.fingerprint import corpus_fingerprint, embedder_fingerprint
from repro.storage.store import ArtifactStore


class StoreBackedEmbeddingCache(EmbeddingCache):
    """An :class:`EmbeddingCache` with a persistent memmap-backed cold tier.

    Parameters
    ----------
    store:
        The artifact store to attach to (and publish into, if writable).
    model_name / dimension / revision:
        Identity of the embedder this cache serves — together they form the
        embedder fingerprint that keys every segment.  Lookups for *other*
        model names fall through to plain in-memory behaviour (the cold
        tier answers only for its own embedder).
    max_entries:
        Hot-tier capacity, as in the base class.  Evicting a persisted
        entry is harmless: the next lookup re-promotes it from the cold
        tier instead of re-embedding.
    """

    def __init__(
        self,
        store: ArtifactStore,
        model_name: str,
        dimension: int,
        max_entries: Optional[int] = None,
        revision: int = 1,
    ) -> None:
        super().__init__(max_entries)
        self.store = store
        self.model_name = model_name
        self.dimension = int(dimension)
        self.embedder_fp = embedder_fingerprint(model_name, dimension, revision)
        self.store_hits = 0
        self.store_misses = 0
        self.published_rows = 0
        self._segments: List[np.ndarray] = []
        self._cold: Dict[str, Tuple[int, int]] = {}
        self._persisted: Set[str] = set()
        self._attached_corpora: Set[str] = set()
        self.attach()

    # -- cold tier management --------------------------------------------------------
    def attach(self) -> int:
        """Attach every not-yet-attached segment; return rows gained.

        Called at construction (the warm start) and by :meth:`refresh` to
        pick up segments a concurrently running engine published since.
        Invalid or corrupt segments are skipped (the store counts them).
        """
        gained = 0
        for corpus_fp in self.store.list_embedding_segments(self.embedder_fp):
            with self._lock:
                if corpus_fp in self._attached_corpora:
                    continue
            loaded = self.store.load_embedding_segment(self.embedder_fp, corpus_fp)
            if loaded is None:
                continue
            keys, matrix = loaded
            if matrix.shape[1] != self.dimension:
                # A lying meta.json under the right fingerprint directory;
                # serving wrong-dimensional vectors would corrupt matching.
                continue
            with self._lock:
                if corpus_fp in self._attached_corpora:
                    continue
                segment_index = len(self._segments)
                self._segments.append(matrix)
                for row, text in enumerate(keys):
                    self._cold.setdefault(text, (segment_index, row))
                    self._persisted.add(text)
                self._attached_corpora.add(corpus_fp)
                gained += len(keys)
        return gained

    def refresh(self) -> int:
        """Re-scan the store directory for new segments (see :meth:`attach`)."""
        return self.attach()

    def publish(self) -> int:
        """Persist the hot-tier vectors that are not yet durable.

        Returns the number of rows in the newly published segment (0 when
        nothing new existed, the store is read-only, or another engine won
        the publication race — in the race case the rows *are* durable, just
        not through us, and they are marked persisted either way).
        """
        if not self.store.can_write:
            return 0
        with self._lock:
            pending = {
                text: vector
                for (model, text), vector in self._store.items()
                if model == self.model_name and text not in self._persisted
            }
        if not pending:
            return 0
        keys = sorted(pending)
        matrix = np.vstack([pending[key] for key in keys])
        corpus_fp = corpus_fingerprint(keys)
        published = self.store.save_embedding_segment(
            self.embedder_fp, corpus_fp, keys, matrix
        )
        with self._lock:
            self._persisted.update(keys)
            if published:
                self.published_rows += len(keys)
        # Attach the new segment (ours or, after a lost race, the identical
        # winner's) as a cold tier right away: a bounded hot tier may evict
        # these entries, and they must stay servable without a raw embed.
        self.attach()
        return len(keys) if published else 0

    @property
    def cold_rows(self) -> int:
        """Distinct texts servable from the memmapped cold tier."""
        with self._lock:
            return len(self._cold)

    # -- EmbeddingCache overrides ----------------------------------------------------
    def get(self, model: str, text: str) -> Optional[np.ndarray]:
        with self._lock:
            vector = self._store.get((model, text))
            if vector is not None:
                self.hits += 1
                return vector
            location = self._cold.get(text) if model == self.model_name else None
            if location is None:
                self.misses += 1
                if model == self.model_name:
                    self.store_misses += 1
                return None
            vector = self._promote(model, text, location)
            self.store_hits += 1
            return vector

    def fill_many(self, model: str, texts: Sequence[str], out: np.ndarray) -> List[int]:
        own = model == self.model_name
        with self._lock:
            missing = self._resolve(model, texts, out, range(len(texts)))
        # A sibling ``repro serve`` process may have published these texts
        # since this cache last attached: re-attach once and re-resolve, so
        # what turns up counts as a store hit.  A batch without misses (every
        # warm request) never gets here.
        if missing and own and self.attach():
            with self._lock:
                missing = self._resolve(model, texts, out, missing)
        with self._lock:
            # Same accounting as the base class: repeated occurrences of one
            # uncached text count as one miss plus hits (the caller embeds
            # the text once and reuses the vector).
            batch_missing: Set[str] = set()
            for index in missing:
                if texts[index] in batch_missing:
                    self.hits += 1
                else:
                    batch_missing.add(texts[index])
                    self.misses += 1
                    self.store_misses += own
        return missing

    def clear(self) -> None:
        """Drop the hot tier and reset counters; the cold tier stays attached."""
        super().clear()
        with self._lock:
            self.store_hits = 0
            self.store_misses = 0

    def stats(self) -> Dict[str, int]:
        """Hot-tier counters plus the store tier's hit/row/publication stats."""
        base = super().stats()
        with self._lock:
            base.update(
                store_hits=self.store_hits,
                store_misses=self.store_misses,
                store_rows=len(self._cold),
                store_segments=len(self._segments),
                published_rows=self.published_rows,
            )
        return base

    # -- internals -------------------------------------------------------------------
    def _resolve(
        self, model: str, texts: Sequence[str], out: np.ndarray, indices: Iterable[int]
    ) -> List[int]:
        """Fill ``out[i]`` from the hot, then the cold tier; return the rest (caller holds the lock)."""
        cold = self._cold if model == self.model_name else {}
        missing: List[int] = []
        for index in indices:
            text = texts[index]
            vector = self._store.get((model, text))
            if vector is not None:
                out[index] = vector
                self.hits += 1
                continue
            location = cold.get(text)
            if location is None:
                missing.append(index)
                continue
            out[index] = self._promote(model, text, location)
            self.store_hits += 1
        return missing

    def _promote(self, model: str, text: str, location: Tuple[int, int]) -> np.ndarray:
        """Copy one cold row into the hot tier (caller holds the lock)."""
        segment, row = location
        vector = np.array(self._segments[segment][row], dtype=np.float64)
        # Base put handles capacity eviction and the fills counter; the
        # RLock makes the nested acquisition safe.
        super().put(model, text, vector)
        return vector
