"""Fingerprints that key every persisted artifact.

The :class:`~repro.storage.store.ArtifactStore` is content-addressed: an
artifact is valid for exactly one ``(embedder fingerprint, corpus
fingerprint)`` pair, and a lookup under the wrong pair must miss rather than
serve stale vectors.  Everything here is derived from BLAKE2b digests (like
:mod:`repro.utils.hashing`), so fingerprints are stable across processes,
platforms and Python versions — two engines on different machines pointed at
the same store directory agree on every key.

Scheme (documented in ``docs/storage.md``):

* **Embedder fingerprint** — ``"<registry name>.d<dimension>"``, plus
  ``".r<revision>"`` once the model's ``revision`` is past 1.  Two
  embedders agree on a fingerprint exactly when they agree on the registry
  name, the output dimension and the revision of the vector family; a
  vector stored by one is valid for the other.  Human-readable on purpose:
  the store layout is debuggable with ``ls``.
* **Corpus fingerprint** — 16 hex characters of a BLAKE2b digest over the
  length-prefixed value texts.  Length prefixing makes the encoding
  injective (``["ab", "c"]`` and ``["a", "bc"]`` digest differently).
  *Unordered* fingerprints (cache segments: a set of texts) sort the
  distinct texts first; *ordered* fingerprints (ANN codes: row ``i`` is the
  code of text ``i``) preserve order and duplicates.
* **ANN parameter fingerprint** — ``"t<tables>.b<bits>.s<seed>"``: exactly
  the knobs that change the hyperplanes and codes.  ``top_k`` and
  ``min_similarity`` only steer retrieval over the codes, so they are
  deliberately *not* part of the key — one stored index serves every
  retrieval configuration.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

#: Hex digest length of corpus fingerprints (64 bits — collisions across the
#: handful of corpora one store holds are negligible, and short names keep
#: the directory layout readable).
_DIGEST_HEX_CHARS = 16


def embedder_fingerprint(name: str, dimension: int, revision: int = 1) -> str:
    """Fingerprint of an embedding model: registry name, dimension, revision.

    Revision 1 keeps the bare ``"<name>.d<dimension>"`` every existing store
    was published under; a model whose vectors changed bumps its
    :attr:`~repro.embeddings.base.ValueEmbedder.revision`, so stores of the
    old family miss instead of being served.
    """
    safe = "".join(ch if (ch.isalnum() or ch in "-_.") else "_" for ch in str(name))
    suffix = "" if int(revision) == 1 else f".r{int(revision)}"
    return f"{safe}.d{int(dimension)}{suffix}"


def _digest_texts(texts: Iterable[str]) -> str:
    digest = hashlib.blake2b(digest_size=_DIGEST_HEX_CHARS // 2)
    for text in texts:
        encoded = text.encode("utf-8")
        digest.update(len(encoded).to_bytes(8, "little"))
        digest.update(encoded)
    return digest.hexdigest()


def corpus_fingerprint(texts: Sequence[str], *, ordered: bool = False) -> str:
    """Fingerprint of a value corpus.

    ``ordered=False`` (cache segments) fingerprints the *set* of texts:
    duplicates collapse and order is irrelevant, because a segment's key
    table is looked up per text.  ``ordered=True`` (ANN code matrices)
    fingerprints the exact sequence, because row ``i`` of the stored codes
    must correspond to position ``i`` of the probing value list.
    """
    if ordered:
        return _digest_texts(texts)
    return _digest_texts(sorted(set(texts)))


def ann_params_fingerprint(n_tables: int, n_bits: int, seed: int) -> str:
    """Fingerprint of the LSH shape knobs that determine planes and codes."""
    return f"t{int(n_tables)}.b{int(n_bits)}.s{int(seed)}"


def ivf_params_fingerprint(iterations: int, seed: int) -> str:
    """Fingerprint of the IVF build knobs that determine centroids/assignments.

    Only the k-means iteration count and the seed enter the key: the cluster
    count is derived from the corpus size (already in the corpus fingerprint)
    and the probe width is a retrieval-time knob — like ``top_k`` for the LSH
    index, one stored IVF index serves every retrieval configuration.
    """
    return f"i{int(iterations)}.s{int(seed)}"
