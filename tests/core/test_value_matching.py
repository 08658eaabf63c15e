"""Tests for the Match Values component (Sec. 2.2) and representative policies."""

from __future__ import annotations

import pytest

from repro.core import IntegrationEngine
from repro.core.representatives import available_policies, select_representative
from repro.core.value_matching import ColumnValues, ValueMatcher
from repro.embeddings import EmbedderUnavailable, ExactEmbedder, MistralEmbedder
from repro.table import Table


@pytest.fixture(scope="module")
def matcher():
    return ValueMatcher(MistralEmbedder(), threshold=0.7)


class TestColumnValues:
    def test_deduplicates_preserving_order(self):
        column = ColumnValues("c", ["a", "b", "a"])
        assert column.values == ["a", "b"]

    def test_default_counts(self):
        column = ColumnValues("c", ["a", "b"])
        assert column.counts == {"a": 1, "b": 1}

    def test_explicit_counts_kept(self):
        column = ColumnValues("c", ["a"], counts={"a": 5})
        assert column.counts["a"] == 5

    def test_partial_counts_default_missing_values_to_one(self):
        # A partially populated counts dict must not leave the uncounted
        # values weightless in frequency-based representative selection.
        column = ColumnValues("c", ["a", "b", "c"], counts={"b": 3})
        assert column.counts == {"a": 1, "b": 3, "c": 1}

    def test_caller_counts_dict_not_mutated(self):
        counts = {"b": 3}
        ColumnValues("c", ["a", "b"], counts=counts)
        assert counts == {"b": 3}


class TestRepresentativePolicies:
    MEMBERS = [("c1", "Berlinn"), ("c2", "Berlin"), ("c3", "Berlin")]
    FREQUENCIES = {"Berlinn": 1, "Berlin": 2}
    ORDER = {"c1": 0, "c2": 1, "c3": 2}

    def test_frequency_policy_matches_paper_example(self):
        representative = select_representative(
            self.MEMBERS, self.FREQUENCIES, self.ORDER, policy="frequency"
        )
        assert representative == "Berlin"

    def test_frequency_tie_prefers_first_column(self):
        members = [("c1", "Toronto"), ("c2", "Torontoo")]
        representative = select_representative(
            members, {"Toronto": 1, "Torontoo": 1}, self.ORDER, policy="frequency"
        )
        assert representative == "Toronto"

    def test_first_column_policy(self):
        representative = select_representative(
            self.MEMBERS, self.FREQUENCIES, self.ORDER, policy="first_column"
        )
        assert representative == "Berlinn"

    def test_longest_and_shortest(self):
        members = [("c1", "US"), ("c2", "United States")]
        assert select_representative(members, {}, self.ORDER, policy="longest") == "United States"
        assert select_representative(members, {}, self.ORDER, policy="shortest") == "US"

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            select_representative(self.MEMBERS, {}, {}, policy="magic")

    def test_empty_members_raises(self):
        with pytest.raises(ValueError):
            select_representative([], {}, {})

    def test_available_policies(self):
        assert set(available_policies()) == {"frequency", "first_column", "longest", "shortest"}


class TestMatchColumnsPaperExample:
    """Example 4 of the paper: the three City columns of Figure 1/2."""

    @pytest.fixture()
    def columns(self):
        return [
            ColumnValues(("T1", "City"), ["Berlinn", "Toronto", "Barcelona", "New Delhi"]),
            ColumnValues(("T2", "City"), ["Toronto", "Boston", "Berlin", "Barcelona"]),
            ColumnValues(("T3", "City"), ["Berlin", "barcelona", "Boston"]),
        ]

    def test_combined_column_matches_figure_2(self, matcher, columns):
        result = matcher.match_columns(columns)
        combined = set(result.combined_column())
        assert combined == {"Berlin", "Toronto", "Barcelona", "New Delhi", "Boston"}

    def test_berlin_set_contains_all_three_variants(self, matcher, columns):
        result = matcher.match_columns(columns)
        berlin_set = next(
            match_set for match_set in result.sets if match_set.representative == "Berlin"
        )
        assert set(berlin_set.members) == {
            (("T1", "City"), "Berlinn"),
            (("T2", "City"), "Berlin"),
            (("T3", "City"), "Berlin"),
        }

    def test_representative_is_majority_value(self, matcher, columns):
        result = matcher.match_columns(columns)
        assert result.representative_of(("T1", "City"), "Berlinn") == "Berlin"
        assert result.representative_of(("T3", "City"), "barcelona") == "Barcelona"

    def test_rewrite_map_only_contains_changes(self, matcher, columns):
        result = matcher.match_columns(columns)
        t1_map = result.rewrite_map(("T1", "City"))
        assert t1_map == {"Berlinn": "Berlin"}
        t2_map = result.rewrite_map(("T2", "City"))
        assert t2_map == {}

    def test_unmatched_value_stays_singleton(self, matcher, columns):
        result = matcher.match_columns(columns)
        new_delhi = next(
            match_set
            for match_set in result.sets
            if (("T1", "City"), "New Delhi") in match_set.members
        )
        assert len(new_delhi) == 1
        assert new_delhi.representative == "New Delhi"

    def test_statistics_recorded(self, matcher, columns):
        result = matcher.match_columns(columns)
        assert result.statistics["columns"] == 3.0
        assert result.statistics["assignments"] == 2.0
        assert result.statistics["match_sets"] == len(result.sets)


class TestMatchColumnsGeneral:
    def test_empty_input(self, matcher):
        result = matcher.match_columns([])
        assert result.sets == []

    def test_single_column_all_singletons(self, matcher):
        result = matcher.match_columns([ColumnValues("c", ["a", "b"])])
        assert len(result.sets) == 2
        assert all(len(match_set) == 1 for match_set in result.sets)

    def test_sets_are_disjoint(self, matcher):
        columns = [
            ColumnValues("c1", ["Germany", "Canada", "Spain"]),
            ColumnValues("c2", ["DE", "CA", "ES"]),
        ]
        result = matcher.match_columns(columns)
        seen = set()
        for match_set in result.sets:
            for member in match_set.members:
                assert member not in seen
                seen.add(member)

    def test_every_input_value_appears_exactly_once(self, matcher):
        columns = [
            ColumnValues("c1", ["Germany", "Canada"]),
            ColumnValues("c2", ["DE", "US"]),
        ]
        result = matcher.match_columns(columns)
        members = [member for match_set in result.sets for member in match_set.members]
        assert sorted(members) == sorted(
            [("c1", "Germany"), ("c1", "Canada"), ("c2", "DE"), ("c2", "US")]
        )

    def test_exact_embedder_reduces_to_equality_matching(self):
        matcher = ValueMatcher(ExactEmbedder(), threshold=0.7)
        columns = [
            ColumnValues("c1", ["Berlin", "Boston"]),
            ColumnValues("c2", ["Berlin", "barcelona"]),
        ]
        result = matcher.match_columns(columns)
        berlin_set = next(
            match_set for match_set in result.sets if ("c1", "Berlin") in match_set.members
        )
        assert ("c2", "Berlin") in berlin_set.members
        assert all(
            len(match_set) == 1
            for match_set in result.sets
            if ("c1", "Berlin") not in match_set.members
        )

    def test_frequency_counts_influence_representative(self, matcher):
        columns = [
            ColumnValues("c1", ["Berlinn"], counts={"Berlinn": 10}),
            ColumnValues("c2", ["Berlin"], counts={"Berlin": 1}),
        ]
        result = matcher.match_columns(columns)
        merged = next(match_set for match_set in result.sets if len(match_set) == 2)
        assert merged.representative == "Berlinn"

    def test_matched_pairs_enumeration(self, matcher):
        columns = [
            ColumnValues("c1", ["Germany"]),
            ColumnValues("c2", ["DE"]),
            ColumnValues("c3", ["Deutschland"]),
        ]
        result = matcher.match_columns(columns)
        pairs = result.matched_pairs()
        assert len(pairs) == 3


class TestBlockingRouting:
    def test_invalid_blocking_mode_rejected(self):
        with pytest.raises(ValueError):
            ValueMatcher(MistralEmbedder(), blocking="maybe")
        with pytest.raises(ValueError):
            ValueMatcher(MistralEmbedder(), blocking="auto", blocking_cutoff=0)

    def test_blocking_on_routes_through_blocked_matcher(self):
        matcher = ValueMatcher(MistralEmbedder(), threshold=0.7, blocking="on")
        columns = [
            ColumnValues("c1", ["Berlin", "Toronto"]),
            ColumnValues("c2", ["Berlinn", "Toronto"]),
        ]
        result = matcher.match_columns(columns)
        assert result.statistics["blocked_assignments"] == 1.0
        assert result.statistics["blocking_components"] >= 1.0
        assert result.statistics["blocking_pairs_avoided"] >= 0.0
        merged = [match_set for match_set in result.sets if len(match_set) == 2]
        assert len(merged) == 2

    def test_auto_keeps_small_pairs_exact(self):
        matcher = ValueMatcher(
            MistralEmbedder(), threshold=0.7, blocking="auto", blocking_cutoff=10_000
        )
        columns = [
            ColumnValues("c1", ["Berlin", "Toronto"]),
            ColumnValues("c2", ["Berlinn", "Toronto"]),
        ]
        result = matcher.match_columns(columns)
        assert result.statistics["blocked_assignments"] == 0.0

    def test_auto_engages_blocking_above_cutoff(self):
        matcher = ValueMatcher(
            MistralEmbedder(), threshold=0.7, blocking="auto", blocking_cutoff=4
        )
        columns = [
            ColumnValues("c1", ["Berlin", "Toronto", "Madrid"]),
            ColumnValues("c2", ["Berlinn", "Toronto", "Madrid"]),
        ]
        result = matcher.match_columns(columns)
        assert result.statistics["blocked_assignments"] == 1.0

    def test_blocking_off_omits_blocking_statistics(self, matcher):
        columns = [
            ColumnValues("c1", ["Berlin"]),
            ColumnValues("c2", ["Berlinn"]),
        ]
        result = matcher.match_columns(columns)
        assert "blocked_assignments" not in result.statistics

    def test_blocked_and_exhaustive_agree_on_small_columns(self):
        columns = [
            ColumnValues("c1", ["Berlin", "Toronto", "Barcelona"]),
            ColumnValues("c2", ["Berlinn", "Toronto", "barcelona"]),
        ]
        exhaustive = ValueMatcher(MistralEmbedder(), threshold=0.7)
        blocked = ValueMatcher(MistralEmbedder(), threshold=0.7, blocking="on")
        exhaustive_sets = {
            tuple(match_set.members) for match_set in exhaustive.match_columns(columns).sets
        }
        blocked_sets = {
            tuple(match_set.members) for match_set in blocked.match_columns(columns).sets
        }
        assert exhaustive_sets == blocked_sets


class TestDegradedRoute:
    """A down embedder (``DownEmbedder``, ``tests/conftest.py``) under
    ``degraded_mode="surface"``: exact pairing plus normalised surface
    equality on every route, and never an embedding."""

    COLUMNS = [
        ColumnValues("c1", ["Berlin", "Toronto", "Barcelona "]),
        ColumnValues("c2", ["Berlinn", "toronto", "barcelona"]),
        ColumnValues("c3", ["Toronto", "Madrid"]),
    ]

    @staticmethod
    def _sets(result):
        return sorted(sorted(map(repr, match_set.members)) for match_set in result.sets)

    def test_the_mode_is_validated(self):
        with pytest.raises(ValueError, match=r"degraded_mode must be one of \['off', 'surface'\]"):
            ValueMatcher(MistralEmbedder(), degraded_mode="fail")

    @pytest.mark.parametrize("blocking, semantic", [("off", "off"), ("on", "off"), ("on", "on"), ("auto", "auto")])
    def test_every_route_degrades_alike(self, down_embedder, blocking, semantic):
        matcher = ValueMatcher(down_embedder, blocking=blocking, semantic_blocking=semantic, degraded_mode="surface")
        result = matcher.match_columns(self.COLUMNS)
        merged = sorted(sorted(match_set.values()) for match_set in result.sets if len(match_set) > 1)
        assert merged == [["Barcelona ", "barcelona"], ["Toronto", "Toronto", "toronto"]]
        statistics = result.statistics
        assert (statistics["degraded"], statistics["degraded_assignments"], statistics["assignments"]) == (1.0, 2.0, 2.0)
        assert statistics.get("blocked_assignments", 0.0) == 0.0
        assert statistics["cache_misses"] == statistics["cache_fills"] == 0.0
        assert len(down_embedder.cache) == 0

    def test_identical_values_pair_without_exact_first(self, down_embedder):
        matcher = ValueMatcher(down_embedder, exact_first=False, degraded_mode="surface")
        result = matcher.match_columns(self.COLUMNS)
        assert ["Toronto", "Toronto", "toronto"] in [sorted(match_set.values()) for match_set in result.sets]

    def test_off_propagates_the_error(self, down_embedder):
        with pytest.raises(EmbedderUnavailable, match="down"):
            ValueMatcher(down_embedder).match_columns(self.COLUMNS)

    def test_a_matcher_recovers_as_a_healthy_one(self, down_embedder):
        matcher = ValueMatcher(down_embedder, degraded_mode="surface")
        degraded = matcher.match_columns(self.COLUMNS)
        down_embedder.down = False
        recovered = matcher.match_columns(self.COLUMNS)
        healthy = ValueMatcher(MistralEmbedder()).match_columns(self.COLUMNS)
        assert self._sets(recovered) == self._sets(healthy) != self._sets(degraded)
        assert repr(recovered.replacements) == repr(healthy.replacements)
        assert "degraded" not in recovered.statistics


class TestBooleansAreNotTheirNumbers:
    """A boolean is never the number it equals, so a column holding ``True``
    and ``1`` counts and rewrites them apart (a dict keyed by value cannot)."""

    def test_a_boolean_does_not_take_the_count_of_its_number(self):
        # 1 occurs three times in a and "1" twice in b: 1 represents the set.
        # Keyed by value, True's count of 1 overwrote 1's, and "1" won 2 to 1.
        a = Table("a", ["k", "x"], [(1, "p"), (1, "q"), (1, "r"), (True, "s")])
        b = Table("b", ["k", "y"], [("1", "u"), ("1", "v")])
        for tables in ([a, b], [Table("a", ["k", "x"], a.rows[:3]), b]):
            result = IntegrationEngine("paper").integrate(tables)
            merged = [match_set for match_set in result.value_matching["k"].sets if len(match_set) > 1]
            assert [repr(match_set.representative) for match_set in merged] == ["1"]

    def test_both_rewrites_of_a_column_holding_true_and_one_count(self):
        a = Table("a", ["k", "x"], [("1", "p"), ("True", "q"), ("1", "r"), ("True", "t")])
        b = Table("b", ["k", "y"], [(1, "u"), (True, "v")])
        result = IntegrationEngine("paper").integrate([a, b])
        assert result.value_matching["k"].replacements[("b", "k")] == {0: "1", 1: "True"}
        assert result.rewrites_applied() == 2
