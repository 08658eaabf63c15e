"""The one kernel behind every simulated embedder: features × scales × directions.

A simulated model states *what* it embeds as :meth:`HashedFeatureEmbedder.
_features` — per text, one bag per feature class in a fixed class order
(grams, tokens, concept anchor, noise, …), each bag a scale and the feature
strings it sums.  *How* is shared: :func:`hashed_feature_rows` sums every
bag's ±1 directions in **integers**, so a text's row has the same bits
whatever else shares the call — what serial == thread and store on == off
rest on.  See ``docs/embeddings.md``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.embeddings.base import ValueEmbedder
from repro.utils.hashing import stable_hash, stable_signs

#: ``(scale, feature strings)``; the bag's vector is ``scale · Σ direction(feature)``.
Bag = Tuple[float, Sequence[str]]

EMPTY_BAG: Bag = (0.0, ())


def pooled(weight: float, features: Sequence[str]) -> Bag:
    """A bag whose sum is scaled by ``weight / √len(features)`` (fastText pooling)."""
    return (weight / np.sqrt(len(features)), features) if features else EMPTY_BAG


def hashed_feature_rows(texts_bags: Sequence[Sequence[Bag]], dimension: int) -> np.ndarray:
    """``Σ_class scale/√d · Σ_feature sign(feature)`` per text: ``(n, dimension)``, not normalised.

    ``texts_bags[t]`` holds text *t*'s bags; every text lists the same
    number of bags (its embedder's classes, in order).
    """
    if not texts_bags:
        return np.zeros((0, dimension), dtype=np.float64)
    interned: Dict[str, int] = {}
    occurrences: List[int] = []
    scales: List[float] = []
    lengths: List[int] = []
    for bags in texts_bags:
        for scale, features in bags:
            scales.append(scale)
            lengths.append(len(features))
            occurrences.extend([interned.setdefault(f, len(interned)) for f in features])
    signs = stable_signs([stable_hash(feature) for feature in interned], dimension)
    members = np.asarray(occurrences, dtype=np.intp)
    sizes = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    sums = np.zeros((len(sizes), dimension), dtype=np.float64)
    # The one accumulation over features: bags of equal size are gathered
    # into one (bags, size, d) block of sign rows and summed in integers —
    # exact, unlike a float accumulation, whose bits would depend on the
    # order in which the call first saw each feature.
    for size in np.unique(sizes[sizes > 0]):
        bags = np.flatnonzero(sizes == size)
        block = members[starts[bags][:, None] + np.arange(size)]
        sums[bags] = signs[block].sum(axis=1, dtype=np.int32)
    sums *= (np.asarray(scales, dtype=np.float64) / np.sqrt(dimension))[:, None]
    by_class = sums.reshape(len(texts_bags), -1, dimension)
    rows = np.zeros((len(texts_bags), dimension), dtype=np.float64)
    for klass in range(by_class.shape[1]):
        rows += by_class[:, klass]
    return rows


class HashedFeatureEmbedder(ValueEmbedder):
    """An embedder whose whole model is :meth:`_features`."""

    #: The ±1 counter-hash direction family (revision 1 drew Gaussian
    #: directions from a seeded generator); stores of the old family miss.
    revision = 2

    def _features(self, text: str) -> Sequence[Bag]:
        """The bags of ``text``, one per feature class, in fixed class order."""
        raise NotImplementedError

    def _embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return hashed_feature_rows([self._features(text) for text in texts], self.dimension)
