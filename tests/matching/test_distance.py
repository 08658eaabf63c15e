"""Tests for the distance functions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import FastTextEmbedder, MistralEmbedder
from repro.matching.distance import (
    EmbeddingDistance,
    JaccardTokenDistance,
    LevenshteinDistance,
    available_distances,
    cosine_distance_matrix,
)


class TestCosineDistanceMatrix:
    def test_identical_rows_have_zero_distance(self):
        matrix = np.eye(3)
        distances = cosine_distance_matrix(matrix, matrix)
        assert np.allclose(np.diag(distances), 0.0)

    def test_orthogonal_rows_have_distance_one(self):
        left = np.array([[1.0, 0.0]])
        right = np.array([[0.0, 1.0]])
        assert cosine_distance_matrix(left, right)[0, 0] == pytest.approx(1.0)

    def test_shape(self):
        left = np.random.default_rng(0).standard_normal((3, 8))
        right = np.random.default_rng(1).standard_normal((5, 8))
        assert cosine_distance_matrix(left, right).shape == (3, 5)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_distance_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            cosine_distance_matrix(np.zeros(3), np.zeros((2, 3)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_result_is_bit_equal_to_the_clipped_difference(self, dtype):
        rng = np.random.default_rng(7)
        left = rng.standard_normal((40, 32)).astype(dtype)
        left /= np.linalg.norm(left, axis=1, keepdims=True)
        right = rng.standard_normal((30, 32)).astype(dtype)
        right /= np.linalg.norm(right, axis=1, keepdims=True)
        # Rows equal to, and opposite to, rows of the other side, so some
        # similarities round to just past 1 or -1 and the clip engages.
        right[:10] = left[:10]
        right[10:20] = -left[10:20]
        scaled = left[:5] * dtype(1.0000001)
        left = np.vstack([left, scaled])
        similarities = left @ right.T
        assert (similarities > 1.0).any() and (similarities < -1.0).any()
        expected = np.clip(1.0 - left @ right.T, 0.0, 1.0)
        actual = cosine_distance_matrix(left, right)
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()
        assert actual.min() == 0.0 and actual.max() == 1.0


class TestLexicalDistances:
    def test_levenshtein_identity(self):
        assert LevenshteinDistance().distance("Berlin", "berlin") == 0.0

    def test_levenshtein_range(self):
        assert 0.0 < LevenshteinDistance().distance("Berlin", "Berlinn") < 0.3

    def test_jaccard_identity(self):
        assert JaccardTokenDistance().distance("New Delhi", "delhi new") == 0.0

    def test_jaccard_disjoint(self):
        assert JaccardTokenDistance().distance("Berlin", "Boston") == 1.0

    @given(st.text(max_size=15), st.text(max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_distances_bounded(self, left, right):
        for distance in (LevenshteinDistance(), JaccardTokenDistance()):
            assert 0.0 <= distance.distance(left, right) <= 1.0

    def test_matrix_matches_pointwise(self):
        distance = LevenshteinDistance()
        left = ["Berlin", "Boston"]
        right = ["Berlinn", "Toronto"]
        matrix = distance.matrix(left, right)
        assert matrix[0, 0] == pytest.approx(distance.distance("Berlin", "Berlinn"))
        assert matrix.shape == (2, 2)


class TestEmbeddingDistance:
    def test_matches_embedder_cosine(self, mistral_embedder):
        distance = EmbeddingDistance(mistral_embedder)
        direct = mistral_embedder.cosine_distance("Berlin", "Berlinn")
        assert distance.distance("Berlin", "Berlinn") == pytest.approx(min(1.0, direct), abs=1e-9)

    def test_matrix_shape_and_symmetric_values(self, fasttext_embedder):
        distance = EmbeddingDistance(fasttext_embedder)
        matrix = distance.matrix(["a", "b"], ["a", "b", "c"])
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_inputs(self, fasttext_embedder):
        distance = EmbeddingDistance(fasttext_embedder)
        assert distance.matrix([], ["x"]).shape == (0, 1)

    def test_available_distances_includes_embedding(self, fasttext_embedder):
        names = [distance.name for distance in available_distances(fasttext_embedder)]
        assert any(name.startswith("cosine") for name in names)
        assert "levenshtein" in names
