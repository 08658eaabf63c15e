"""Persistent artifact storage: memmapped embeddings, durable ANN indexes.

The storage layer externalises the pipeline's expensive, recomputable state
(embedding matrices, LSH hyperplane tables and code matrices) into a
directory of fingerprint-keyed, atomically published artifacts:

* :class:`~repro.storage.store.ArtifactStore` — the directory protocol:
  versioned metadata, validated loads, write-then-rename publication.
* :class:`~repro.storage.cache.StoreBackedEmbeddingCache` — the two-tier
  embedding cache (in-memory hot tier over memmapped segments) that makes a
  restarted engine warm.
* :mod:`~repro.storage.fingerprint` — the ``(embedder fingerprint, corpus
  fingerprint)`` keying scheme shared by everything above.

See ``docs/storage.md`` for the on-disk layout and the fingerprint scheme.
"""

from repro.storage.cache import StoreBackedEmbeddingCache
from repro.storage.fingerprint import (
    ann_params_fingerprint,
    corpus_fingerprint,
    embedder_fingerprint,
)
from repro.storage.store import FORMAT_VERSION, STORE_MODES, ArtifactStore

__all__ = [
    "ArtifactStore",
    "StoreBackedEmbeddingCache",
    "ann_params_fingerprint",
    "corpus_fingerprint",
    "embedder_fingerprint",
    "FORMAT_VERSION",
    "STORE_MODES",
]
