"""Deterministic hashing helpers.

Python's built-in ``hash`` for strings is randomised per process, which would
make the simulated embedding models non-reproducible across runs.  Strings
are keyed by BLAKE2b digests and direction vectors are derived from those
keys by integer hashing alone, so everything here is stable across
processes, platforms and Python versions (``docs/embeddings.md`` pins golden
rows).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

#: splitmix64's increment and its two multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def stable_hash(text: str, seed: int = 0) -> int:
    """Return a stable 64-bit unsigned hash of ``text``.

    ``seed`` lets callers derive independent hash families from the same
    input.
    """
    digest = hashlib.blake2b(
        text.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little", signed=False)
    ).digest()
    return struct.unpack("<Q", digest)[0]


def stable_signs(keys: object, dimension: int) -> np.ndarray:
    """Return the ``(n, dimension)`` int8 matrix of ±1 signs of 64-bit ``keys``.

    Row *k* is a function of ``keys[k]`` alone: 64-bit word *w* of the row is
    the ``(w + 1)``-th output of splitmix64 started at the key (the mix of
    ``key + (w + 1)·γ``), words are laid out little-endian, and bit *j* of
    that stream — least-significant bit first — gives coordinate *j*
    (1 → +1, 0 → −1).  No generator object, no floating point, and nothing
    shared between rows, so there is nothing to memoise and a row never
    depends on what else was asked for in the same call.
    """
    state = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    words = state + np.arange(1, -(-dimension // 64) + 1, dtype=np.uint64) * _GAMMA
    words = (words ^ (words >> np.uint64(30))) * _MIX_1
    words = (words ^ (words >> np.uint64(27))) * _MIX_2
    words ^= words >> np.uint64(31)
    bits = np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8), axis=1, count=dimension, bitorder="little"
    )
    return bits.view(np.int8) * np.int8(2) - np.int8(1)


def stable_vectors(keys: object, dimension: int) -> np.ndarray:
    """Unit vectors ``stable_signs(keys, dimension) / √dimension`` (float64).

    Every entry is exactly ``±1/√dimension``, so rows have unit norm by
    construction and distinct keys give nearly orthogonal rows in high
    dimension (Achlioptas' ±1 random projections) — the behaviour the
    simulated embedders rely on for unrelated values.
    """
    return stable_signs(keys, dimension) / np.sqrt(dimension)


def stable_vector(text: str, dimension: int, seed: int = 0) -> np.ndarray:
    """The direction of one string: ``stable_vectors`` of its ``stable_hash``."""
    return stable_vectors([stable_hash(text, seed=seed)], dimension)[0]
