"""Tests for the semantic ANN blocking channel (:mod:`repro.matching.ann`).

The workloads here are the adversarial case for surface blocking: planted
synonym pairs whose two surface forms are drawn from disjoint alphabet halves,
so they share no character n-gram and no token prefix — the surface channel
provably emits zero candidates, and every recovered match is the semantic
channel's doing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.value_matching import ColumnValues, ValueMatcher
from repro.datasets.corruptions import Corruptor
from repro.embeddings.lexicon import SemanticLexicon
from repro.embeddings.transformer import SimulatedTransformerEmbedder
from repro.matching.ann import SemanticBlocker
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker

LEFT_ALPHABET = "abcdefghijklm"
RIGHT_ALPHABET = "nopqrstuvwxyz"


def planted_synonyms(n_pairs: int, seed: int = 3, tokens: int = 2):
    """Surface-disjoint synonym pairs + the lexicon that anchors them."""
    rng = random.Random(seed)

    def word(alphabet):
        return "".join(rng.choice(alphabet) for _ in range(6))

    groups, left, right = {}, [], []
    seen = set()
    while len(left) < n_pairs:
        left_form = " ".join(word(LEFT_ALPHABET) for _ in range(tokens))
        right_form = " ".join(word(RIGHT_ALPHABET) for _ in range(tokens))
        if left_form in seen or right_form in seen:
            continue
        seen.update((left_form, right_form))
        groups[left_form] = [right_form]
        left.append(left_form)
        right.append(right_form)
    return left, right, SemanticLexicon(groups)


def full_coverage_embedder(lexicon: SemanticLexicon) -> SimulatedTransformerEmbedder:
    """An embedder that reliably knows every planted concept."""
    return SimulatedTransformerEmbedder(
        model_name="ann_test", lexicon_coverage=1.0, noise_level=0.1, lexicon=lexicon
    )


class CountingEmbedder(SimulatedTransformerEmbedder):
    """Counts raw (cache-missing) embedding computations."""

    def __init__(self, lexicon=None):
        super().__init__(
            model_name="ann_count", lexicon_coverage=1.0, noise_level=0.1, lexicon=lexicon
        )
        self.embed_calls = 0

    def _embed_texts(self, texts):
        self.embed_calls += len(texts)
        return super()._embed_texts(texts)


class TestSemanticBlockerValidation:
    def test_rejects_bad_knobs(self):
        embedder = full_coverage_embedder(SemanticLexicon())
        with pytest.raises(ValueError):
            SemanticBlocker(embedder, top_k=0)
        with pytest.raises(ValueError):
            SemanticBlocker(embedder, n_tables=0)
        with pytest.raises(ValueError):
            SemanticBlocker(embedder, n_bits=0)
        with pytest.raises(ValueError):
            SemanticBlocker(embedder, n_bits=31)
        with pytest.raises(ValueError):
            SemanticBlocker(embedder, min_similarity=1.0)

    def test_empty_inputs_yield_no_pairs(self):
        embedder = full_coverage_embedder(SemanticLexicon())
        blocker = SemanticBlocker(embedder)
        assert blocker.candidate_pairs([], ["x"]) == []
        assert blocker.candidate_pairs(["x"], []) == []


class TestBruteForcePath:
    def test_recovers_all_planted_pairs(self):
        left, right, lexicon = planted_synonyms(40)
        blocker = SemanticBlocker(full_coverage_embedder(lexicon), top_k=3)
        pairs = blocker.candidate_pairs(left, right)
        assert not blocker.last_used_lsh
        assert {(index, index) for index in range(40)} <= set(pairs)

    def test_similarity_floor_prunes_unrelated_fillers(self):
        """Without the floor, top-k pads with garbage that welds components."""
        left, right, lexicon = planted_synonyms(30)
        embedder = full_coverage_embedder(lexicon)
        unfloored = SemanticBlocker(embedder, top_k=5).candidate_pairs(left, right)
        floored = SemanticBlocker(embedder, top_k=5, min_similarity=0.3).candidate_pairs(
            left, right
        )
        assert set(floored) <= set(unfloored)
        # Only the planted neighbours clear the floor on this vocabulary.
        assert set(floored) == {(index, index) for index in range(30)}
        assert len(unfloored) > len(floored)


class TestLshPath:
    def test_recovers_planted_pairs_at_high_recall(self):
        left, right, lexicon = planted_synonyms(120)
        blocker = SemanticBlocker(
            full_coverage_embedder(lexicon), top_k=3, brute_force_cells=0
        )
        pairs = blocker.candidate_pairs(left, right)
        assert blocker.last_used_lsh
        planted = {(index, index) for index in range(120)}
        recovered = planted & set(pairs)
        # LSH is approximate; the default 8 tables x 8 bits with single-bit
        # multiprobe must stay well above 80% on moderate-similarity pairs.
        assert len(recovered) >= 0.8 * len(planted)

    def test_same_seed_same_candidates(self):
        """The satellite determinism requirement: seed fixes the candidate set."""
        left, right, lexicon = planted_synonyms(60)
        embedder = full_coverage_embedder(lexicon)
        first = SemanticBlocker(embedder, brute_force_cells=0, seed=11)
        second = SemanticBlocker(embedder, brute_force_cells=0, seed=11)
        pairs = first.candidate_pairs(left, right)
        assert pairs == second.candidate_pairs(left, right)
        assert pairs == first.candidate_pairs(left, right)  # idempotent too

    def test_different_seed_may_differ_but_stays_sorted(self):
        left, right, lexicon = planted_synonyms(40)
        embedder = full_coverage_embedder(lexicon)
        pairs = SemanticBlocker(embedder, brute_force_cells=0, seed=99).candidate_pairs(
            left, right
        )
        assert pairs == sorted(pairs)

    def test_indexing_reuses_cached_embeddings(self):
        """ANN indexing over a warm cache performs zero new embeddings."""
        left, right, lexicon = planted_synonyms(30)
        embedder = CountingEmbedder(lexicon)
        embedder.embed_many(left)
        embedder.embed_many(right)
        warm_calls = embedder.embed_calls
        assert warm_calls == len(left) + len(right)
        SemanticBlocker(embedder, brute_force_cells=0).candidate_pairs(left, right)
        SemanticBlocker(embedder).candidate_pairs(left, right)
        assert embedder.embed_calls == warm_calls


class TestBlockedMatcherUnion:
    def test_surface_channel_alone_finds_nothing(self):
        left, right, lexicon = planted_synonyms(25)
        matcher = BlockedValueMatcher(
            full_coverage_embedder(lexicon), blocker=ValueBlocker(use_lexicon=False)
        )
        assert matcher.match(left, right) == []
        assert matcher.last_statistics.candidate_pairs == 0
        assert matcher.last_statistics.ann_pairs_added == 0

    def test_semantic_channel_recovers_the_matches(self):
        left, right, lexicon = planted_synonyms(25)
        embedder = full_coverage_embedder(lexicon)
        matcher = BlockedValueMatcher(
            embedder,
            blocker=ValueBlocker(use_lexicon=False),
            semantic_blocker=SemanticBlocker(embedder, min_similarity=0.3),
        )
        matches = matcher.match(left, right)
        matched = {(match.left, match.right) for match in matches}
        assert matched == set(zip(left, right))
        statistics = matcher.last_statistics
        assert statistics.ann_pairs_added > 0
        assert statistics.ann_pairs_duplicate == 0
        # The whole point of blocking: nowhere near the dense cross product.
        assert statistics.pairs_scored < len(left) * len(right)

    def test_duplicate_counter_counts_resurfaced_pairs(self):
        """Identical value lists: surface keys already propose every pair."""
        values = [f"shared value {index}" for index in range(12)]
        embedder = full_coverage_embedder(SemanticLexicon())
        matcher = BlockedValueMatcher(
            embedder,
            blocker=ValueBlocker(use_lexicon=False),
            semantic_blocker=SemanticBlocker(embedder, min_similarity=0.3),
        )
        matcher.match(values, list(values))
        statistics = matcher.last_statistics
        assert statistics.ann_pairs_duplicate > 0

    def test_auto_mode_skips_fully_covered_pairs(self):
        """With every value covered by surface keys, ``auto`` never indexes."""
        values = [f"covered value {index}" for index in range(10)]
        embedder = full_coverage_embedder(SemanticLexicon())
        matcher = BlockedValueMatcher(
            embedder,
            blocker=ValueBlocker(use_lexicon=False),
            semantic_blocker=SemanticBlocker(embedder, min_similarity=0.3),
            semantic_mode="auto",
        )
        matcher.match(values, list(values))
        statistics = matcher.last_statistics
        assert statistics.ann_pairs_added == 0
        assert statistics.ann_pairs_duplicate == 0

    def test_auto_mode_engages_on_uncovered_values(self):
        left, right, lexicon = planted_synonyms(20)
        embedder = full_coverage_embedder(lexicon)
        matcher = BlockedValueMatcher(
            embedder,
            blocker=ValueBlocker(use_lexicon=False),
            semantic_blocker=SemanticBlocker(embedder, min_similarity=0.3),
            semantic_mode="auto",
        )
        matches = matcher.match(left, right)
        assert len(matches) == 20

    def test_typos_ride_the_surface_keys_and_synonyms_the_semantic_channel(self):
        """Half typo pairs, half synonym pairs: ``off`` finds only the typos,
        ``auto`` and ``on`` find the synonyms too, all off the dense product."""
        synonym_left, synonym_right, lexicon = planted_synonyms(20)
        rng = random.Random(10)
        typo_left = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(12)) for _ in range(20)]
        typo_right = [Corruptor(seed=9).corrupt(value, "typo", rng) for value in typo_left]
        left, right = synonym_left + typo_left, synonym_right + typo_right
        embedder = full_coverage_embedder(lexicon)
        found = {}
        for mode in ("off", "auto", "on"):
            matcher = BlockedValueMatcher(
                embedder,
                blocker=ValueBlocker(ngram_size=5, use_lexicon=False),
                semantic_blocker=None if mode == "off" else SemanticBlocker(embedder, min_similarity=0.3),
                semantic_mode="on" if mode == "off" else mode,
            )
            found[mode] = {(match.left, match.right) for match in matcher.match(left, right)}
            assert matcher.last_statistics.pairs_scored < len(left) * len(right)
        typos, synonyms = set(zip(typo_left, typo_right)), set(zip(synonym_left, synonym_right))
        assert typos <= found["off"] and not synonyms & found["off"]
        assert typos | synonyms <= found["auto"] and typos | synonyms <= found["on"]

    def test_invalid_semantic_mode_rejected(self):
        embedder = full_coverage_embedder(SemanticLexicon())
        with pytest.raises(ValueError):
            BlockedValueMatcher(embedder, semantic_mode="sometimes")


class TestValueMatcherRecallProperty:
    """The satellite recall property, at the Match Values level."""

    def test_semantic_blocking_recovers_synonym_corrupted_vocabulary(self):
        left, right, lexicon = planted_synonyms(30)
        embedder = full_coverage_embedder(lexicon)

        surface_only = ValueMatcher(embedder, blocking="on")
        blind = surface_only.match_columns(
            [ColumnValues("A", left), ColumnValues("B", right)]
        )
        # Zero surface candidates: every value stays a singleton set.
        assert all(len(match_set) == 1 for match_set in blind.sets)

        semantic = ValueMatcher(embedder, blocking="on", semantic_blocking="on")
        result = semantic.match_columns(
            [ColumnValues("A", left), ColumnValues("B", right)]
        )
        merged = [match_set for match_set in result.sets if len(match_set) > 1]
        assert len(merged) == 30
        assert result.statistics["blocking_ann_pairs_added"] > 0

    def test_two_runs_produce_identical_match_sets(self):
        left, right, lexicon = planted_synonyms(40)

        def run():
            embedder = full_coverage_embedder(lexicon)
            matcher = ValueMatcher(
                embedder, blocking="on", semantic_blocking="on", ann_top_k=3
            )
            result = matcher.match_columns(
                [ColumnValues("A", left), ColumnValues("B", right)]
            )
            return [
                (match_set.representative, tuple(match_set.members))
                for match_set in result.sets
            ]

        assert run() == run()

    def test_semantic_on_requires_blocking(self):
        embedder = full_coverage_embedder(SemanticLexicon())
        with pytest.raises(ValueError):
            ValueMatcher(embedder, blocking="off", semantic_blocking="on")
        # "auto" is allowed with blocking off: it simply never engages (the
        # exhaustive matcher scores every pair anyway).
        ValueMatcher(embedder, blocking="off", semantic_blocking="auto")
