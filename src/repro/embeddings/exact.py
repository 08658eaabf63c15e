"""Exact-match embedder (equi-join behaviour).

Every distinct raw string maps to its own pseudo-random direction, so two
values are close (distance ≈ 0) only when they are exactly equal and far
(distance ≈ 1) otherwise.  Plugging this embedder into the fuzzy pipeline
degenerates it to the regular, equality-based Full Disjunction — useful both
as a baseline and for testing that the pipeline leaves already-consistent
values untouched.
"""

from __future__ import annotations

from typing import Sequence

from repro.embeddings.hashed import Bag, HashedFeatureEmbedder


class ExactEmbedder(HashedFeatureEmbedder):
    """One direction per distinct raw value; no fuzziness at all."""

    name = "exact"

    def __init__(self, dimension: int = 64, cache=None) -> None:
        super().__init__(dimension=dimension, cache=cache)

    def _features(self, text: str) -> Sequence[Bag]:
        # The raw text (not normalised) is hashed so that case differences —
        # which an equi-join would not bridge — stay far apart.
        return ((1.0, (f"exact:{text}",)),)
