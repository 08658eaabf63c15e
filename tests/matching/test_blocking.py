"""Tests for blocked fuzzy value matching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import MistralEmbedder
from repro.matching import BipartiteValueMatcher, BlockedValueMatcher, ValueBlocker
from repro.matching.distance import EmbeddingDistance


@pytest.fixture(scope="module")
def embedder():
    return MistralEmbedder()


class TestValueBlocker:
    def test_keys_include_prefixes_and_grams(self):
        keys = ValueBlocker(use_lexicon=False).keys("Berlin")
        assert "p:berl" in keys
        assert any(key.startswith("g:") for key in keys)

    def test_lexicon_key_joins_abbreviations(self):
        blocker = ValueBlocker(use_lexicon=True)
        assert blocker.keys("United States") & blocker.keys("US")

    def test_without_lexicon_disjoint_surfaces_do_not_share_blocks(self):
        blocker = ValueBlocker(use_lexicon=False)
        assert not (blocker.keys("United States") & blocker.keys("US"))

    def test_typos_share_blocks(self):
        blocker = ValueBlocker(use_lexicon=False)
        assert blocker.keys("Berlin") & blocker.keys("Berlinn")

    def test_candidate_pairs_subset_of_cartesian(self):
        blocker = ValueBlocker()
        left = ["Berlin", "Toronto"]
        right = ["Berlinn", "Boston", "Toronto"]
        pairs = blocker.candidate_pairs(left, right)
        assert set(pairs) <= {(i, j) for i in range(2) for j in range(3)}
        assert (0, 0) in pairs  # Berlin / Berlinn
        assert (1, 2) in pairs  # Toronto / Toronto

    def test_empty_value_still_gets_some_key_or_none(self):
        assert ValueBlocker().keys("") == set() or ValueBlocker().keys("")

    def test_ngrams_capped_at_max(self):
        blocker = ValueBlocker(use_lexicon=False, max_ngrams=4)
        grams = {key for key in blocker.keys("abcdefghijklmnop") if key.startswith("g:")}
        assert len(grams) <= 4

    def test_ngrams_sampled_across_whole_value(self):
        # Long values sharing only their suffix must still share a block;
        # keeping only the first max_ngrams grams would block on the prefix.
        blocker = ValueBlocker(use_lexicon=False)
        left = blocker.keys("aaaaaaaaaaaaaaaazzzz")
        right = blocker.keys("bbbbbbbbbbbbbbbbzzzz")
        assert {key for key in left if key.startswith("g:")} & {
            key for key in right if key.startswith("g:")
        }

    def test_sampling_keeps_first_and_last_gram(self):
        from repro.utils.text import character_ngrams

        blocker = ValueBlocker(use_lexicon=False)
        value = "abcdefghijklmnopqrstuvwxyz"
        grams = character_ngrams(value, n=3)
        keys = blocker.keys(value)
        assert f"g:{grams[0]}" in keys
        assert f"g:{grams[-1]}" in keys


class TestBlockedValueMatcher:
    def test_matches_agree_with_unblocked_on_small_input(self, embedder):
        left = ["Germany", "Canada", "Spain", "India", "Berlin"]
        right = ["DE", "CA", "ES", "US", "Berlinn"]
        blocked = BlockedValueMatcher(embedder, threshold=0.7)
        unblocked = BipartiteValueMatcher(EmbeddingDistance(embedder), threshold=0.7)
        blocked_pairs = {match.as_tuple() for match in blocked.match(left, right)}
        unblocked_pairs = {match.as_tuple() for match in unblocked.match(left, right)}
        assert blocked_pairs == unblocked_pairs

    def test_blocking_reduces_scored_pairs(self, embedder):
        left = [f"Entity Alpha {i}" for i in range(20)] + ["Berlin"]
        right = [f"Different Beta {i}" for i in range(20)] + ["Berlinn"]
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matches = matcher.match(left, right)
        statistics = matcher.last_statistics
        assert statistics is not None
        assert statistics.candidate_pairs < statistics.full_matrix_pairs
        assert statistics.reduction_ratio > 0.0
        assert ("Berlin", "Berlinn") in {match.as_tuple() for match in matches}

    def test_each_value_matched_at_most_once(self, embedder):
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matches = matcher.match(["Berlin", "Berlin City"], ["Berlinn"])
        assert len(matches) <= 1

    def test_empty_inputs(self, embedder):
        matcher = BlockedValueMatcher(embedder)
        assert matcher.match([], ["x"]) == []
        assert matcher.last_statistics.candidate_pairs == 0

    def test_threshold_validated(self, embedder):
        with pytest.raises(ValueError):
            BlockedValueMatcher(embedder, threshold=1.5)

    def test_exact_first_variant(self, embedder):
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matches = matcher.match_exact_first(["Toronto", "Berlin"], ["Toronto", "Berlinn"])
        assert {match.as_tuple() for match in matches} == {
            ("Toronto", "Toronto"),
            ("Berlin", "Berlinn"),
        }

    def test_prohibitive_cost_never_selected(self, embedder):
        # Values sharing no block are never matched even if the assignment
        # would otherwise be forced to pair them.
        matcher = BlockedValueMatcher(embedder, threshold=0.99, blocker=ValueBlocker(use_lexicon=False))
        matches = matcher.match(["Zebra"], ["Quokka"])
        assert matches == []

    def test_exact_first_keeps_duplicate_left_values(self, embedder):
        # One exact match must consume one left *position*; the surviving
        # duplicate still participates in the fuzzy stage.
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matches = matcher.match_exact_first(["Berlin", "Berlin"], ["Berlin", "Berlinn"])
        assert sorted(match.as_tuple() for match in matches) == [
            ("Berlin", "Berlin"),
            ("Berlin", "Berlinn"),
        ]


class TestComponentEngine:
    def test_statistics_describe_components(self, embedder):
        matcher = BlockedValueMatcher(embedder, threshold=0.7, blocker=ValueBlocker(use_lexicon=False))
        matcher.match(["Berlin", "Toronto"], ["Berlinn", "Toronto City"])
        statistics = matcher.last_statistics
        assert statistics.components == 2
        assert statistics.largest_component == 1
        assert statistics.pairs_scored == 2
        assert statistics.pairs_avoided == statistics.full_matrix_pairs - statistics.pairs_scored

    def test_component_matrices_smaller_than_full_matrix(self, embedder):
        left = [f"group{index} alpha" for index in range(8)] + ["Berlin"]
        right = [f"group{index} beta" for index in range(8)] + ["Berlinn"]
        matcher = BlockedValueMatcher(embedder, threshold=0.7, blocker=ValueBlocker(use_lexicon=False))
        matcher.match(left, right)
        statistics = matcher.last_statistics
        assert statistics.components > 1
        assert statistics.largest_component < statistics.full_matrix_pairs
        assert statistics.pairs_scored < statistics.full_matrix_pairs

    def test_component_engine_agrees_with_dense_path(self, embedder):
        left = ["Germany", "Canada", "Spain", "India", "Berlin", "Main Street"]
        right = ["DE", "CA", "ES", "US", "Berlinn", "Main St"]
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        component = {match.as_tuple() for match in matcher.match(left, right)}
        dense = {match.as_tuple() for match in matcher.match_dense(left, right)}
        assert component == dense

    def test_dense_path_reports_single_component(self, embedder):
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matcher.match_dense(["Berlin", "Toronto"], ["Berlinn", "Toronto"])
        statistics = matcher.last_statistics
        assert statistics.components == 1
        assert statistics.largest_component >= statistics.pairs_scored

    def test_transitive_non_candidates_stay_unmatchable(self, embedder):
        # "ab cd" and "cd ef" share a block via "cd"; "ab xx" connects to
        # "ab cd" only.  Within the component, pairs that never shared a key
        # keep the prohibitive cost.
        blocker = ValueBlocker(use_lexicon=False)
        matcher = BlockedValueMatcher(embedder, threshold=0.99, blocker=blocker)
        matches = matcher.match(["alpha beta"], ["gamma delta", "alpha omega"])
        for match in matches:
            assert blocker.keys(match.left) & blocker.keys(match.right)


@st.composite
def _shared_block_values(draw):
    """Two small unique value lists that all share one token-prefix block."""
    suffixes = st.text(alphabet="abcd", min_size=1, max_size=4)
    left = draw(st.lists(suffixes, min_size=1, max_size=5, unique=True))
    right = draw(st.lists(suffixes, min_size=1, max_size=5, unique=True))
    return (
        [f"value{suffix}" for suffix in left],
        [f"value{suffix}" for suffix in right],
    )


class TestBlockedMatchesBipartiteProperty:
    @settings(max_examples=40, deadline=None)
    @given(_shared_block_values())
    def test_identical_matches_when_blocking_generates_all_pairs(self, embedder, values):
        left, right = values
        blocked = BlockedValueMatcher(embedder, threshold=0.7)
        # Precondition: every pair shares the "value" prefix block, so the
        # candidate graph is complete and blocking loses nothing.
        all_pairs = {(i, j) for i in range(len(left)) for j in range(len(right))}
        assert set(blocked.blocker.candidate_pairs(left, right)) == all_pairs
        bipartite = BipartiteValueMatcher(EmbeddingDistance(embedder), threshold=0.7)
        assert {match.as_tuple() for match in blocked.match(left, right)} == {
            match.as_tuple() for match in bipartite.match(left, right)
        }
        assert {match.as_tuple() for match in blocked.match_exact_first(left, right)} == {
            match.as_tuple() for match in bipartite.match_exact_first(left, right)
        }


class TestValueBlockerKeyMemo:
    def test_keys_computed_once_per_distinct_normalised_text(self, monkeypatch):
        import repro.matching.blocking as blocking_module

        calls = []
        real = blocking_module._surface_keys_for_text

        def counting(normalised, **kwargs):
            calls.append(normalised)
            return real(normalised, **kwargs)

        monkeypatch.setattr(blocking_module, "_surface_keys_for_text", counting)
        blocker = ValueBlocker()
        first = blocker.keys("Main Street")
        again = blocker.keys("  main   STREET ")
        assert first == again
        assert calls == ["main street"]

    def test_memo_stays_bounded(self, monkeypatch):
        import repro.matching.blocking as blocking_module

        monkeypatch.setattr(blocking_module, "KEY_MEMO_LIMIT", 4)
        blocker = ValueBlocker()
        for index in range(10):
            blocker.keys(f"value {index}")
        assert len(blocker._key_memo) <= 4
        # Evicted entries are simply recomputed on demand.
        assert blocker.keys("value 0") == ValueBlocker().keys("value 0")
