"""Tests for bipartite value matching."""

from __future__ import annotations

import pytest

from repro.embeddings import ExactEmbedder, MistralEmbedder
from repro.matching.bipartite import BipartiteValueMatcher, ValueMatch
from repro.matching.distance import EmbeddingDistance, LevenshteinDistance


@pytest.fixture(scope="module")
def mistral_matcher():
    return BipartiteValueMatcher(EmbeddingDistance(MistralEmbedder()), threshold=0.7)


class TestBipartiteMatcher:
    def test_matches_paper_country_example(self, mistral_matcher):
        left = ["Germany", "Canada", "Spain", "India"]
        right = ["CA", "US", "DE", "ES"]
        matches = {match.as_tuple() for match in mistral_matcher.match(left, right)}
        assert ("Germany", "DE") in matches
        assert ("Canada", "CA") in matches
        assert ("Spain", "ES") in matches
        # India/US is produced by the assignment but discarded by the threshold.
        assert ("India", "US") not in matches

    def test_distances_below_threshold(self, mistral_matcher):
        matches = mistral_matcher.match(["Berlin"], ["Berlinn"])
        assert len(matches) == 1
        assert matches[0].distance < 0.7

    def test_empty_inputs(self, mistral_matcher):
        assert mistral_matcher.match([], ["x"]) == []
        assert mistral_matcher.match(["x"], []) == []

    def test_each_value_matched_at_most_once(self, mistral_matcher):
        left = ["Berlin", "Berlin City"]
        right = ["Berlin"]
        matches = mistral_matcher.match(left, right)
        assert len(matches) <= 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BipartiteValueMatcher(LevenshteinDistance(), threshold=0.0)

    def test_exact_embedder_only_matches_identical(self):
        matcher = BipartiteValueMatcher(EmbeddingDistance(ExactEmbedder()), threshold=0.7)
        matches = matcher.match(["Berlin", "Boston"], ["Berlin", "barcelona"])
        assert {match.as_tuple() for match in matches} == {("Berlin", "Berlin")}

    def test_exact_first_fixes_identical_values(self, mistral_matcher):
        left = ["Toronto", "Barcelona"]
        right = ["Barcelona", "Toronto"]
        matches = mistral_matcher.match_exact_first(left, right)
        assert {match.as_tuple() for match in matches} == {
            ("Toronto", "Toronto"),
            ("Barcelona", "Barcelona"),
        }
        assert all(match.distance == 0.0 for match in matches)

    def test_exact_first_still_matches_fuzzy_remainder(self, mistral_matcher):
        left = ["Toronto", "Berlin"]
        right = ["Toronto", "Berlinn"]
        matches = mistral_matcher.match_exact_first(left, right)
        assert {match.as_tuple() for match in matches} == {
            ("Toronto", "Toronto"),
            ("Berlin", "Berlinn"),
        }

    def test_exact_first_keeps_duplicate_left_values(self, mistral_matcher):
        # An exact match consumes one left position, not every copy of the
        # value; the surviving duplicate still reaches the fuzzy stage.
        matches = mistral_matcher.match_exact_first(
            ["Berlin", "Berlin"], ["Berlin", "Berlinn"]
        )
        assert sorted(match.as_tuple() for match in matches) == [
            ("Berlin", "Berlin"),
            ("Berlin", "Berlinn"),
        ]

    def test_exact_first_keeps_duplicate_right_values(self, mistral_matcher):
        matches = mistral_matcher.match_exact_first(
            ["Berlin", "Berlinn"], ["Berlin", "Berlin"]
        )
        assert sorted(match.as_tuple() for match in matches) == [
            ("Berlin", "Berlin"),
            ("Berlinn", "Berlin"),
        ]

    def test_matches_sorted_by_distance(self, mistral_matcher):
        matches = mistral_matcher.match(["Berlin", "Toronto"], ["Berlinn", "Toronto"])
        distances = [match.distance for match in matches]
        assert distances == sorted(distances)
