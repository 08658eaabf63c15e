"""Determinism of the parallel blocked matcher and the blocker's frequent-key cap.

The parallel execution layer's contract is strict: for any backend and any
worker count, ``BlockedValueMatcher.match`` must return *exactly* what the
serial loop returns — same pairs, same distances, same order.  These tests
pin that contract, the vectorised singleton fast path, the frequent-key cap
of the surface candidates, and the component-size statistics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import MistralEmbedder
from repro.matching.blocking import BlockedValueMatcher, ValueBlocker
from repro.utils.executor import ExecutorConfig


@pytest.fixture(scope="module")
def embedder():
    return MistralEmbedder()


def _workload(n_groups: int = 12, group_size: int = 3):
    """Values forming ``n_groups`` multi-value components plus singletons."""
    left, right = [], []
    for group in range(n_groups):
        for member in range(group_size):
            left.append(f"group{group:03d} item{member}{chr(97 + member)}")
            right.append(f"group{group:03d} item{member}{chr(98 + member)}")
    left += [f"solo left {index}qqq" for index in range(10)]
    right += [f"solo right {index}zzz" for index in range(10)]
    return left, right


def _exact(matches):
    return [(match.left, match.right, match.distance) for match in matches]


class TestBackendDeterminism:
    @pytest.mark.parametrize(
        "backend,workers",
        [("serial", 1), ("thread", 2), ("thread", 4)],
    )
    def test_every_backend_matches_the_serial_path_exactly(self, embedder, backend, workers):
        left, right = _workload()
        serial = BlockedValueMatcher(embedder, threshold=0.7)
        pooled = BlockedValueMatcher(
            embedder,
            threshold=0.7,
            executor=ExecutorConfig(backend=backend, max_workers=workers,
                                    min_parallel_items=0, batch_size=2),
        )
        assert _exact(pooled.match(left, right)) == _exact(serial.match(left, right))
        assert _exact(pooled.match_exact_first(left, right)) == _exact(
            serial.match_exact_first(left, right)
        )

    def test_statistics_identical_across_backends(self, embedder):
        left, right = _workload()
        serial = BlockedValueMatcher(embedder, threshold=0.7)
        serial.match(left, right)
        pooled = BlockedValueMatcher(
            embedder, threshold=0.7,
            executor=ExecutorConfig(backend="thread", max_workers=4, min_parallel_items=0),
        )
        pooled.match(left, right)
        assert pooled.last_statistics == serial.last_statistics

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), min_size=1,
                    max_size=6, unique=True),
           st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), min_size=1,
                    max_size=6, unique=True))
    def test_property_thread_pool_equals_serial(self, embedder, left_suffixes, right_suffixes):
        left = [f"value{suffix}" for suffix in left_suffixes]
        right = [f"value{suffix}" for suffix in right_suffixes]
        serial = BlockedValueMatcher(embedder, threshold=0.7)
        pooled = BlockedValueMatcher(
            embedder, threshold=0.7,
            executor=ExecutorConfig(backend="thread", max_workers=3,
                                    min_parallel_items=0, batch_size=1),
        )
        assert _exact(pooled.match(left, right)) == _exact(serial.match(left, right))


class TestSingletonBatching:
    def test_fast_path_matches_solver_path_pairs(self, embedder):
        left, right = _workload(n_groups=4)
        batched = BlockedValueMatcher(embedder, threshold=0.7)
        unbatched = BlockedValueMatcher(embedder, threshold=0.7, singleton_batching=False)
        assert [match.as_tuple() for match in batched.match(left, right)] == [
            match.as_tuple() for match in unbatched.match(left, right)
        ]

    def test_one_sided_components_all_cells_are_candidates(self, embedder):
        # A 1×N component is a star graph: its optimal assignment is the
        # cheapest cell, which the batched argmin must select.
        matcher = BlockedValueMatcher(
            embedder, threshold=0.99, blocker=ValueBlocker(use_lexicon=False)
        )
        matches = matcher.match(["berlin"], ["berlin city", "berlinn"])
        assert len(matches) == 1
        best = matches[0]
        alternative = [m for m in matcher.match(["berlin"], ["berlin city"])] + [
            m for m in matcher.match(["berlin"], ["berlinn"])
        ]
        assert best.distance == min(match.distance for match in alternative)


class TestFrequentKeyCap:
    def test_stop_word_key_does_not_explode_pairs(self):
        # Every value shares the token "the"; only the capped blocker keeps
        # the candidate set near-linear.
        blocker = ValueBlocker(use_lexicon=False, frequent_key_cap=10)
        uncapped = ValueBlocker(use_lexicon=False, frequent_key_cap=None)
        left = [f"the {index:04d}x" for index in range(40)]
        right = [f"the {index:04d}y" for index in range(40)]
        capped_pairs = blocker.candidate_pairs(left, right)
        uncapped_pairs = uncapped.candidate_pairs(left, right)
        assert blocker.last_skipped_keys >= 1
        assert len(capped_pairs) < len(uncapped_pairs)
        assert set(capped_pairs) <= set(uncapped_pairs)
        # Typo pairs still share their rare numeric key, so none are lost.
        assert all((index, index) in capped_pairs for index in range(40))

    def test_candidate_pairs_are_sorted_and_deduplicated(self):
        # "berlin" on the left shares several keys with both right values;
        # each pair still comes back once, in ascending (left, right) order.
        blocker = ValueBlocker(use_lexicon=False)
        pairs = blocker.candidate_pairs(["berlin", "boston", "berlin"], ["berlinn", "berlin"])
        assert pairs == sorted(set(pairs))
        assert {(0, 0), (0, 1), (2, 0), (2, 1)} <= set(pairs)

    def test_skipped_keys_reset_by_an_uncapped_pass(self):
        blocker = ValueBlocker(use_lexicon=False, frequent_key_cap=5)
        left = [f"the {index:04d}x" for index in range(30)]
        right = [f"the {index:04d}y" for index in range(30)]
        blocker.candidate_keys(left, right)
        assert blocker.last_skipped_keys >= 1
        blocker.frequent_key_cap = None
        blocker.candidate_keys(left, right)
        assert blocker.last_skipped_keys == 0

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            ValueBlocker(frequent_key_cap=0)

    def test_skipped_keys_surface_in_statistics(self, embedder):
        from repro.core.value_matching import ColumnValues, ValueMatcher

        # Both sides share the stop-word token "the" beyond the cap.
        left = [f"the {index:04d}x" for index in range(30)]
        right = [f"the {index:04d}y" for index in range(30)]
        matcher = BlockedValueMatcher(
            embedder, blocker=ValueBlocker(use_lexicon=False, frequent_key_cap=5)
        )
        matcher.match(left, right)
        assert matcher.last_statistics.skipped_keys >= 1

        value_matcher = ValueMatcher(embedder, blocking="on", blocking_key_cap=5)
        result = value_matcher.match_columns(
            [ColumnValues("a", left), ColumnValues("b", right)]
        )
        assert result.statistics["blocking_skipped_keys"] >= 1.0

    def test_one_sided_blocks_survive_the_cap(self):
        # A key popular on one side only yields a linear block; dropping it
        # could strip a value of its only candidates, so it must be kept.
        blocker = ValueBlocker(use_lexicon=False, frequent_key_cap=10)
        left = [f"smith {index:04d}" for index in range(50)]  # all share p:smit
        right = ["smith 0007"]
        pairs = blocker.candidate_pairs(left, right)
        assert blocker.last_skipped_keys == 0
        assert (7, 0) in pairs


class TestComponentSizeStatistics:
    def test_component_cells_recorded_per_component(self, embedder):
        matcher = BlockedValueMatcher(
            embedder, threshold=0.7, blocker=ValueBlocker(use_lexicon=False)
        )
        matcher.match(["Berlin", "Toronto"], ["Berlinn", "Toronto City"])
        statistics = matcher.last_statistics
        assert statistics.component_cells == (1, 1)
        assert sum(statistics.component_cells) == statistics.pairs_scored
        assert max(statistics.component_cells) == statistics.largest_component

    def test_histogram_buckets_cover_all_components(self, embedder):
        left, right = _workload(n_groups=6, group_size=3)
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matcher.match(left, right)
        histogram = matcher.last_statistics.component_size_histogram()
        assert sum(histogram.values()) == matcher.last_statistics.components
        assert list(histogram) == ["1", "2-4", "5-16", "17-64", "65-256", "257-1024", ">1024"]

    def test_histogram_renders_in_reporting(self, embedder):
        from repro.evaluation import format_component_histogram

        left, right = _workload(n_groups=3)
        matcher = BlockedValueMatcher(embedder, threshold=0.7)
        matcher.match(left, right)
        report = format_component_histogram(matcher.last_statistics)
        assert "Component cells" in report
        assert "#" in report

    def test_reporting_accepts_matcher_statistics_dict(self, embedder):
        from repro.core.value_matching import ColumnValues, ValueMatcher
        from repro.evaluation import format_component_histogram

        matcher = ValueMatcher(embedder, blocking="on")
        result = matcher.match_columns(
            [
                ColumnValues("a", ["Berlin", "Toronto"]),
                ColumnValues("b", ["Berlinn", "Toronto City"]),
            ]
        )
        report = format_component_histogram(result.statistics)
        assert "Component cells" in report

    def test_reporting_rejects_mappings_without_distribution(self):
        from repro.evaluation import format_component_histogram

        # A non-blocked statistics dict must not be rendered as a histogram.
        with pytest.raises(ValueError, match="component-size distribution"):
            format_component_histogram({"columns": 3.0, "values": 120.0})
