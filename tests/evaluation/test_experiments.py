"""Tests for the programmatic experiment runners (miniature scale)."""

from __future__ import annotations

import pytest

from repro.evaluation import experiments
from repro.evaluation.experiments import (
    MATCHING_ABLATIONS,
    run_downstream_em_experiment,
    run_fd_experiment,
    run_figure3_experiment,
    run_matching_sweep,
    run_table1_experiment,
)


class TestTable1Experiment:
    def test_returns_scores_for_requested_models(self):
        scores = run_table1_experiment(
            n_sets=3, values_per_column=20, models=("fasttext", "mistral")
        )
        assert set(scores) == {"fasttext", "mistral"}
        for model_scores in scores.values():
            assert 0.0 <= model_scores.precision <= 1.0
            assert 0.0 <= model_scores.recall <= 1.0

    def test_mistral_not_worse_than_fasttext(self):
        scores = run_table1_experiment(
            n_sets=4, values_per_column=25, models=("fasttext", "mistral")
        )
        assert scores["mistral"].f1 >= scores["fasttext"].f1


class TestDownstreamEmExperiment:
    def test_returns_both_methods(self):
        scores = run_downstream_em_experiment(n_sets=1, entities_per_set=20)
        assert set(scores) == {"regular_fd", "fuzzy_fd"}
        assert scores["fuzzy_fd"].recall >= scores["regular_fd"].recall


class TestFigure3Experiment:
    def test_returns_points_for_each_size_and_method(self):
        points = run_figure3_experiment(sizes=(80, 160))
        assert len(points) == 4
        assert {point.method for point in points} == {"regular_fd", "fuzzy_fd"}
        sizes = sorted({point.input_tuples for point in points})
        assert len(sizes) == 2


class TestMatchingAblations:
    """The value-matching ablations are Table 1's loop over one config knob."""

    def test_blocking_scores_a_fraction_of_the_pairs_at_about_the_same_f1(self):
        knob, values = MATCHING_ABLATIONS["blocking"]
        rows = run_matching_sweep(knob, values, n_sets=4, values_per_column=40)
        assert rows["off"].pairs_scored_share == 1.0
        assert rows["on"].pairs_scored_share < 0.7
        assert rows["on"].scores.f1 >= rows["off"].scores.f1 - 0.1

    def test_greedy_stays_in_the_optimal_assignments_band(self):
        knob, values = MATCHING_ABLATIONS["assignment"]
        rows = run_matching_sweep(knob, values, n_sets=4, values_per_column=40)
        assert abs(rows["greedy"].scores.f1 - rows["scipy"].scores.f1) < 0.05

    def test_the_papers_threshold_is_within_reach_of_the_best(self):
        knob, values = MATCHING_ABLATIONS["threshold"]
        rows = run_matching_sweep(knob, values, n_sets=4, values_per_column=40)
        assert rows[0.7].scores.f1 >= max(row.scores.f1 for row in rows.values()) - 0.05

    def test_representative_policies_rewrite_the_same_sets(self):
        knob, values = MATCHING_ABLATIONS["representatives"]
        rows = run_matching_sweep(knob, values, n_sets=3, values_per_column=20)
        assert len({(row.scores, row.rewrites) for row in rows.values()}) == 1


class TestFdExperiment:
    def test_the_routes_agree_and_components_close_apart(self):
        runs = run_fd_experiment(sizes=(400,))
        assert list(runs) == ["IMDB, 400 tuples", "multi-schema lake, 400 tuples", "join triangle, 400 tuples"]
        # IMDB is one component, so alite closes it whole and the other route labels.
        assert list(runs["IMDB, 400 tuples"]) == ["alite", "alite, labelled"]
        for kind in ("multi-schema lake", "join triangle"):
            runs_of = runs[f"{kind}, 400 tuples"]
            assert list(runs_of) == ["alite", "alite, unlabelled"], kind
            assert runs_of["alite"]["components"] == runs_of["alite"]["output_tuples"], kind
        lake = runs["multi-schema lake, 400 tuples"]
        assert lake["alite"]["output_tuples"] == lake["alite, unlabelled"]["output_tuples"] == 200
        assert lake["alite"]["complementation_comparisons"] * 10 < lake["alite, unlabelled"]["complementation_comparisons"]

    def test_disagreeing_routes_raise(self, monkeypatch):
        real = experiments.get_algorithm

        class DropsARow:
            name = "alite"

            def integrate(self, tables):
                result = real("alite").integrate(tables)
                result.table.rows.pop()
                return result

        monkeypatch.setattr(experiments, "get_algorithm", lambda name: DropsARow())
        with pytest.raises(AssertionError, match="different tables"):
            run_fd_experiment(sizes=(80,))
