"""Tests for evaluation metrics, runtime sweep and reporting."""

from __future__ import annotations

import pytest

from repro.core import FuzzyFDConfig
from repro.core.value_matching import ColumnValues, ValueMatcher
from repro.datasets import ImdbBenchmark
from repro.embeddings import MistralEmbedder
from repro.evaluation import (
    MatchingScores,
    format_cache_statistics,
    format_markdown_table,
    format_scores_table,
    macro_average,
    score_integration_set,
    score_match_sets,
)
from repro.evaluation.reporting import format_runtime_series
from repro.evaluation.runtime import RuntimePoint, overhead_ratio, runtime_sweep


class TestMatchingScores:
    def test_perfect_match(self):
        sets = [[("a", "x"), ("b", "y")]]
        scores = score_match_sets(sets, sets)
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_partial_prediction(self):
        predicted = [[("a", "x"), ("b", "y")], [("c", "z")]]
        gold = [[("a", "x"), ("b", "y"), ("c", "z")]]
        scores = score_match_sets(predicted, gold)
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(1 / 3)

    def test_wrong_prediction(self):
        predicted = [[("a", "x"), ("c", "z")]]
        gold = [[("a", "x"), ("b", "y")]]
        scores = score_match_sets(predicted, gold)
        assert scores.precision == 0.0
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_empty_prediction_convention(self):
        scores = score_match_sets([], [[("a", "x"), ("b", "y")]])
        assert scores.precision == 1.0
        assert scores.recall == 0.0

    def test_score_integration_set_accepts_matcher_result(self):
        matcher = ValueMatcher(MistralEmbedder(), threshold=0.7)
        columns = [ColumnValues("c1", ["Germany", "Canada"]), ColumnValues("c2", ["DE", "CA"])]
        result = matcher.match_columns(columns)
        gold = [
            [("c1", "Germany"), ("c2", "DE")],
            [("c1", "Canada"), ("c2", "CA")],
        ]
        scores = score_integration_set(result, gold)
        assert scores.f1 == 1.0

    def test_macro_average(self):
        scores = macro_average(
            [
                MatchingScores(precision=1.0, recall=0.5, f1=2 / 3),
                MatchingScores(precision=0.5, recall=1.0, f1=2 / 3),
            ]
        )
        assert scores.precision == pytest.approx(0.75)
        assert scores.recall == pytest.approx(0.75)

    def test_macro_average_empty(self):
        assert macro_average([]).f1 == 0.0


class TestRuntimeSweep:
    def test_sweep_produces_point_per_size_and_method(self):
        bench = ImdbBenchmark(seed=2)
        points = runtime_sweep(bench.tables, sizes=[60], config=FuzzyFDConfig())
        assert len(points) == 2
        methods = {point.method for point in points}
        assert methods == {"regular_fd", "fuzzy_fd"}
        assert all(point.seconds >= 0.0 for point in points)
        assert all(point.output_tuples > 0 for point in points)

    def test_unknown_method_raises(self):
        bench = ImdbBenchmark(seed=2)
        with pytest.raises(ValueError):
            runtime_sweep(bench.tables, sizes=[60], methods=("teleport",))

    def test_overhead_ratio(self):
        points = [
            RuntimePoint(100, "regular_fd", 2.0, 10),
            RuntimePoint(100, "fuzzy_fd", 2.2, 10),
        ]
        ratios = overhead_ratio(points)
        assert ratios[100] == pytest.approx(1.1)

    def test_point_as_dict(self):
        point = RuntimePoint(100, "fuzzy_fd", 1.23456, 42)
        assert point.as_dict()["seconds"] == 1.2346


class TestReporting:
    def test_markdown_table_structure(self):
        text = format_markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| a")
        assert set(lines[1]) <= {"|", "-"}

    def test_scores_table_contains_models(self):
        table = format_scores_table(
            {"mistral": MatchingScores(precision=0.81, recall=0.86, f1=0.82)}
        )
        assert "mistral" in table
        assert "0.82" in table

    def test_runtime_series_table(self):
        points = [
            RuntimePoint(100, "regular_fd", 2.0, 10),
            RuntimePoint(100, "fuzzy_fd", 2.2, 10),
        ]
        text = format_runtime_series(points)
        assert "100" in text and "2.00" in text and "2.20" in text

    def test_cache_statistics_table(self):
        text = format_cache_statistics(
            {
                "value_matching_seconds": 1.5,  # non-counter keys are ignored
                "cache_hits": 120.0,
                "cache_store_hits": 80.0,
                "cache_misses": 0.0,
                "ann_index_builds": 2.0,
                "store_published_rows": 40.0,
            }
        )
        assert "120" in text and "80" in text
        assert "ANN indexes built" in text
        # 200 of 200 lookups served without a raw embed — the warm-start row.
        assert "100.0%" in text
        assert "1.5" not in text

    def test_cache_statistics_rejects_counterless_dicts(self):
        with pytest.raises(ValueError, match="no cache or store counters"):
            format_cache_statistics({"alignment_seconds": 0.1})
