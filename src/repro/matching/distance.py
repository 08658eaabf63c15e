"""Distance functions between cell values.

The paper uses the cosine distance between cell-value embeddings
(:class:`EmbeddingDistance`).  Two lexical distances are provided as ablation
baselines: normalised Levenshtein and token-Jaccard.  All distances return
values in ``[0, 1]`` where 0 means "same value" — the matching threshold θ of
Definition 2 is interpreted against this scale.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from repro.embeddings.base import ValueEmbedder
from repro.utils.text import jaccard_similarity, levenshtein, normalize_value, tokenize


class DistanceFunction(abc.ABC):
    """Distance in [0, 1] between two cell values, plus a batched matrix form."""

    name: str = "abstract"

    @abc.abstractmethod
    def distance(self, left: object, right: object) -> float:
        """Distance between two values."""

    def matrix(self, left_values: Sequence[object], right_values: Sequence[object]) -> np.ndarray:
        """Pairwise distance matrix of shape ``(len(left), len(right))``."""
        result = np.empty((len(left_values), len(right_values)), dtype=np.float64)
        for i, left in enumerate(left_values):
            for j, right in enumerate(right_values):
                result[i, j] = self.distance(left, right)
        return result


def cosine_distance_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Cosine distance matrix between two row-wise embedding matrices.

    Inputs are assumed row-normalised (the :class:`ValueEmbedder` contract),
    so the distance is simply ``1 - left @ right.T`` clipped to ``[0, 1]``
    (rounding can put a similarity just outside ``[-1, 1]``).  Both steps
    run in place on the product, which is a fresh array.
    """
    if left.ndim != 2 or right.ndim != 2:
        raise ValueError("cosine_distance_matrix expects 2-D matrices")
    if left.shape[1] != right.shape[1]:
        raise ValueError(
            f"embedding dimensions differ: {left.shape[1]} vs {right.shape[1]}"
        )
    distances = left @ right.T
    np.subtract(1.0, distances, out=distances)
    return distances.clip(0.0, 1.0, out=distances)


class EmbeddingDistance(DistanceFunction):
    """Cosine distance between value embeddings (the paper's distance)."""

    def __init__(self, embedder: ValueEmbedder) -> None:
        self.embedder = embedder
        self.name = f"cosine[{embedder.name}]"

    def distance(self, left: object, right: object) -> float:
        return float(np.clip(self.embedder.cosine_distance(left, right), 0.0, 1.0))

    def matrix(self, left_values: Sequence[object], right_values: Sequence[object]) -> np.ndarray:
        left_matrix = self.embedder.embed_many(list(left_values))
        right_matrix = self.embedder.embed_many(list(right_values))
        if left_matrix.size == 0 or right_matrix.size == 0:
            return np.zeros((len(left_values), len(right_values)), dtype=np.float64)
        return cosine_distance_matrix(left_matrix, right_matrix)


class LevenshteinDistance(DistanceFunction):
    """Normalised edit distance (ablation baseline; no semantics)."""

    name = "levenshtein"

    def distance(self, left: object, right: object) -> float:
        a = normalize_value(left)
        b = normalize_value(right)
        longest = max(len(a), len(b))
        if longest == 0:
            return 0.0
        return levenshtein(a, b) / longest


class JaccardTokenDistance(DistanceFunction):
    """1 - Jaccard similarity of token sets (ablation baseline)."""

    name = "jaccard"

    def distance(self, left: object, right: object) -> float:
        return 1.0 - jaccard_similarity(tokenize(left), tokenize(right))


def available_distances(embedder: ValueEmbedder | None = None) -> List[DistanceFunction]:
    """Distance functions used by the matching ablation benchmark."""
    distances: List[DistanceFunction] = [LevenshteinDistance(), JaccardTokenDistance()]
    if embedder is not None:
        distances.insert(0, EmbeddingDistance(embedder))
    return distances
