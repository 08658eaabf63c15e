"""Tests for text normalisation and string distances."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.utils.text import (
    character_ngrams,
    jaccard_similarity,
    levenshtein,
    normalize_value,
    normalized_edit_similarity,
    tokenize,
)


class TestNormalize:
    def test_lowercases_and_strips(self):
        assert normalize_value("  Berlin ") == "berlin"

    def test_collapses_internal_whitespace(self):
        assert normalize_value("New   Delhi") == "new delhi"

    def test_strips_accents(self):
        assert normalize_value("Berlín") == "berlin"

    def test_none_becomes_empty(self):
        assert normalize_value(None) == ""

    def test_numbers_pass_through(self):
        assert normalize_value(42) == "42"


class TestTokenize:
    def test_splits_on_punctuation(self):
        assert tokenize("New Delhi (IN)") == ["new", "delhi", "in"]

    def test_empty_value(self):
        assert tokenize("") == []

    def test_alphanumeric_tokens(self):
        assert tokenize("Route 66") == ["route", "66"]


class TestCharacterNgrams:
    def test_padding_markers(self):
        assert character_ngrams("ab", n=3) == ["<ab", "ab>"]

    def test_short_string_returns_whole(self):
        assert character_ngrams("a", n=3) == ["<a>"]

    def test_empty_returns_nothing(self):
        assert character_ngrams("", n=3) == []

    def test_count_matches_length(self):
        grams = character_ngrams("berlin", n=3)
        # "<berlin>" has 8 characters -> 6 trigrams.
        assert len(grams) == 6


class TestLevenshtein:
    @pytest.mark.parametrize(
        "left, right, expected",
        [
            ("berlin", "berlin", 0),
            ("berlin", "berlinn", 1),
            ("kitten", "sitting", 3),
            ("", "abc", 3),
            ("abc", "", 3),
        ],
    )
    def test_known_distances(self, left, right, expected):
        assert levenshtein(left, right) == expected

    def test_case_insensitive(self):
        assert levenshtein("Berlin", "berlin") == 0

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetry(self, left, right):
        assert levenshtein(left, right) == levenshtein(right, left)

    @given(st.text(max_size=10), st.text(max_size=10), st.text(max_size=10))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=15))
    def test_identity(self, text):
        assert levenshtein(text, text) == 0


class TestSimilarities:
    def test_jaccard_identical(self):
        assert jaccard_similarity(["a", "b"], ["b", "a"]) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity(["a"], ["b"]) == 0.0

    def test_jaccard_empty_both(self):
        assert jaccard_similarity([], []) == 1.0

    def test_edit_similarity_range(self):
        assert normalized_edit_similarity("berlin", "berlinn") == pytest.approx(1 - 1 / 7)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_edit_similarity_bounds(self, left, right):
        assert 0.0 <= normalized_edit_similarity(left, right) <= 1.0
