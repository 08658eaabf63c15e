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
  sorted distinct value texts, length-prefixed.  A segment's key table is
  looked up per text, so the fingerprint names a *set*: order and
  duplicates do not matter.  Length prefixing makes the encoding injective
  (``["ab", "c"]`` and ``["a", "bc"]`` digest differently).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

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


def corpus_fingerprint(texts: Iterable[str]) -> str:
    """Fingerprint of a value corpus: the *set* of its texts."""
    digest = hashlib.blake2b(digest_size=_DIGEST_HEX_CHARS // 2)
    for text in sorted(set(texts)):
        encoded = text.encode("utf-8")
        digest.update(len(encoded).to_bytes(8, "little"))
        digest.update(encoded)
    return digest.hexdigest()
