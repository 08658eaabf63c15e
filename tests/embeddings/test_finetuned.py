"""Tests for the fine-tuned embedder (the paper's future-work extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FuzzyFDConfig, IntegrationEngine
from repro.core.value_matching import ColumnValues, ValueMatcher
from repro.embeddings import FastTextEmbedder, FineTunedEmbedder, MistralEmbedder
from repro.table import Table


class TestFineTunedEmbedder:
    def test_unfitted_behaves_like_base(self):
        base = FastTextEmbedder()
        tuned = FineTunedEmbedder(base)
        assert not tuned.is_fitted
        assert tuned.cosine_distance("Berlin", "Boston") == pytest.approx(
            base.cosine_distance("Berlin", "Boston"), abs=1e-9
        )

    def test_positive_pairs_become_close(self):
        base = FastTextEmbedder()
        tuned = FineTunedEmbedder(base).fit(positive_pairs=[("WHO", "World Health Organization")])
        before = base.cosine_distance("WHO", "World Health Organization")
        after = tuned.cosine_distance("WHO", "World Health Organization")
        assert after < before
        assert after < 0.5

    def test_transitive_positive_closure(self):
        tuned = FineTunedEmbedder(FastTextEmbedder()).fit(
            positive_pairs=[("US", "United States"), ("United States", "USA")]
        )
        assert tuned.cosine_distance("US", "USA") < 0.5

    def test_negative_pairs_become_more_distant(self):
        base = MistralEmbedder()
        # The base simulator considers these close (shared tokens); declare
        # them non-matches and verify they move apart.
        left, right = "Springfield Illinois", "Springfield Massachusetts"
        before = base.cosine_distance(left, right)
        tuned = FineTunedEmbedder(base).fit(positive_pairs=[], negative_pairs=[(left, right)])
        after = tuned.cosine_distance(left, right)
        assert after > before

    def test_fit_returns_self_and_counts_values(self):
        tuned = FineTunedEmbedder(FastTextEmbedder())
        result = tuned.fit(positive_pairs=[("a", "b"), ("c", "d")])
        assert result is tuned
        assert tuned.known_values() == 4
        assert tuned.is_fitted

    def test_refit_replaces_previous_state(self):
        tuned = FineTunedEmbedder(FastTextEmbedder()).fit(positive_pairs=[("WHO", "World Health Organization")])
        tuned.fit(positive_pairs=[("MIT", "Massachusetts Institute of Technology")])
        assert tuned.cosine_distance("WHO", "World Health Organization") > 0.5
        assert tuned.cosine_distance("MIT", "Massachusetts Institute of Technology") < 0.5

    def test_embeddings_stay_unit_norm(self):
        tuned = FineTunedEmbedder(FastTextEmbedder()).fit(positive_pairs=[("a", "b")])
        assert np.linalg.norm(tuned.embed("a")) == pytest.approx(1.0, abs=1e-9)

    def test_unrelated_values_unaffected(self):
        base = FastTextEmbedder()
        tuned = FineTunedEmbedder(base).fit(positive_pairs=[("WHO", "World Health Organization")])
        assert tuned.cosine_distance("Berlin", "Boston") == pytest.approx(
            base.cosine_distance("Berlin", "Boston"), abs=1e-9
        )


class TestFineTunedInPipeline:
    def test_value_matcher_uses_learned_matches(self):
        # FastText alone cannot match the acronym; after fitting it can.
        columns = [
            ColumnValues("c1", ["World Health Organization", "Berlin"]),
            ColumnValues("c2", ["WHO", "Boston"]),
        ]
        plain = ValueMatcher(FastTextEmbedder(), threshold=0.7).match_columns(columns)
        assert all(len(match_set) == 1 for match_set in plain.sets)

        tuned = FineTunedEmbedder(FastTextEmbedder()).fit(
            positive_pairs=[("WHO", "World Health Organization")]
        )
        fitted = ValueMatcher(tuned, threshold=0.7).match_columns(columns)
        who_set = next(
            match_set for match_set in fitted.sets
            if ("c2", "WHO") in match_set.members
        )
        assert ("c1", "World Health Organization") in who_set.members

    def test_fuzzy_fd_accepts_finetuned_embedder(self, covid_tables):
        tuned = FineTunedEmbedder(MistralEmbedder()).fit(
            positive_pairs=[("Berlinn", "Berlin"), ("barcelona", "Barcelona")]
        )
        config = FuzzyFDConfig(embedder=tuned)
        result = IntegrationEngine(config).integrate(covid_tables)
        assert result.table.num_rows == 5
