"""Tests for the Full Disjunction algorithms.

The key properties: every algorithm produces the same result (the naive
definitional fixpoint is the oracle), the result subsumes every input tuple,
no output tuple is subsumed by another, the operator is order-independent
(associativity, the motivation for FD over outer joins), and the paper's
Figure 1 result is reproduced exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fd import (
    AliteFullDisjunction,
    IncrementalFullDisjunction,
    NaiveFullDisjunction,
    OuterJoinSequence,
    PartitionedFullDisjunction,
    available_algorithms,
    get_algorithm,
)
from repro.table import NULL, Table, subsumes
from repro.table.operations import outer_union

ALL_ALGORITHMS = [
    NaiveFullDisjunction,
    AliteFullDisjunction,
    IncrementalFullDisjunction,
    PartitionedFullDisjunction,
]


@pytest.fixture()
def simple_tables():
    left = Table("L", ["k", "a"], [("1", "x"), ("2", "y"), ("3", "z")])
    middle = Table("M", ["k", "b"], [("1", "p"), ("2", "q"), ("4", "r")])
    right = Table("R", ["b", "c"], [("p", "!"), ("r", "?"), ("s", "*")])
    return [left, middle, right]


class TestRegistry:
    def test_all_registered(self):
        assert set(available_algorithms()) >= {"naive", "alite", "incremental", "partitioned"}

    def test_get_algorithm_by_name(self):
        assert get_algorithm("alite").name == "alite"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_algorithm("nope")


class TestPartitionedStatistics:
    def _disjoint_tables(self, n_components=10):
        left = Table("L", ["k", "a"], [(f"k{i}", f"a{i}") for i in range(n_components)])
        right = Table("R", ["k", "b"], [(f"k{i}", f"b{i}") for i in range(n_components)])
        return [left, right]

    def test_complementation_statistics_recorded(self):
        # Regression: the executor refactor must keep summing the closure
        # counters (the old parallel branch silently dropped them).
        result = PartitionedFullDisjunction().integrate(self._disjoint_tables())
        assert result.statistics["components"] == 10.0
        assert "complementation_comparisons" in result.statistics
        assert result.statistics["complementation_tuples"] >= 10.0

    def test_statistics_identical_serial_vs_parallel(self):
        # The closure is one vectorised pass: no executor setting reaches it,
        # so whatever the pipeline is configured with, table and statistics agree.
        from repro.core.config import FuzzyFDConfig

        tables = self._disjoint_tables()
        serial = FuzzyFDConfig(fd_algorithm="partitioned", max_workers=1)
        parallel = FuzzyFDConfig(fd_algorithm="partitioned", max_workers=4, parallel_backend="thread")
        serial, parallel = (
            config.resolve_fd_algorithm().integrate(tables) for config in (serial, parallel)
        )
        assert (parallel.table.rows, parallel.table.provenance) == (serial.table.rows, serial.table.provenance)
        assert parallel.statistics == serial.statistics

    def test_parallel_workers_recorded_when_pool_engages(self):
        # There is no pool to engage any more, and no trace of one in the counters.
        result = PartitionedFullDisjunction().integrate(self._disjoint_tables())
        assert not [key for key in result.statistics if key.startswith("parallel")]
        assert sorted(result.statistics) == [
            "complementation_comparisons",
            "complementation_merges",
            "complementation_tuples",
            "components",
            "outer_union_tuples",
        ]

    def test_configure_executor_keeps_the_constructor_threshold(self):
        # The executor path is gone, constructor arguments and hook included:
        # ``partitioned`` is the incremental algorithm under its registry name.
        with pytest.raises(TypeError):
            PartitionedFullDisjunction(min_parallel_components=2)
        with pytest.raises(TypeError):
            PartitionedFullDisjunction(max_workers=3)
        assert not hasattr(PartitionedFullDisjunction(), "configure_executor")
        tables = self._disjoint_tables(n_components=2)
        partitioned = PartitionedFullDisjunction().integrate(tables)
        incremental = IncrementalFullDisjunction().integrate(tables)
        assert partitioned.statistics["components"] == 2.0
        assert partitioned.statistics == incremental.statistics
        assert (partitioned.table.rows, partitioned.table.provenance) == (
            incremental.table.rows,
            incremental.table.provenance,
        )


class TestBasicBehaviour:
    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_single_table_is_returned_unchanged(self, algorithm_cls):
        table = Table("t", ["a", "b"], [("1", "2"), ("3", "4")])
        result = algorithm_cls().integrate([table])
        assert result.table.same_rows(table)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_disjoint_schemas_concatenate(self, algorithm_cls):
        left = Table("l", ["a"], [("1",)])
        right = Table("r", ["b"], [("2",)])
        result = algorithm_cls().integrate([left, right])
        assert result.table.num_rows == 2

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_simple_join_case(self, algorithm_cls, simple_tables):
        result = algorithm_cls().integrate(simple_tables)
        rows = {tuple(row) for row in result.table.project(["k", "a", "b", "c"]).rows}
        assert ("1", "x", "p", "!") in rows
        # Tuple 3/z has no join partner but must be preserved.
        assert any(row[0] == "3" for row in rows)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_empty_table_in_set_is_tolerated(self, algorithm_cls):
        left = Table("l", ["a", "k"], [("1", "x")])
        empty = Table("e", ["k", "b"], [])
        result = algorithm_cls().integrate([left, empty])
        assert result.table.num_rows == 1

    def test_requires_at_least_one_table(self):
        with pytest.raises(ValueError):
            AliteFullDisjunction().integrate([])

    def test_result_metadata(self, simple_tables):
        result = AliteFullDisjunction().integrate(simple_tables)
        assert result.algorithm == "alite"
        assert result.input_tuple_count == 9
        assert result.output_tuple_count == result.table.num_rows
        assert result.elapsed_seconds >= 0.0
        assert result.statistics["outer_union_tuples"] == 9.0


class TestFullDisjunctionProperties:
    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_every_input_tuple_is_subsumed_by_some_output(self, algorithm_cls, simple_tables):
        result = algorithm_cls().integrate(simple_tables)
        union = outer_union(simple_tables)
        aligned = result.table.project(list(union.columns))
        for input_row in union.rows:
            assert any(subsumes(output_row, input_row) for output_row in aligned.rows)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_no_output_tuple_subsumed_by_another(self, algorithm_cls, simple_tables):
        result = algorithm_cls().integrate(simple_tables)
        rows = result.table.rows
        for i, left in enumerate(rows):
            for j, right in enumerate(rows):
                if i != j:
                    assert not subsumes(left, right)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_provenance_covers_all_inputs(self, algorithm_cls, simple_tables):
        result = algorithm_cls().integrate(simple_tables)
        covered = set()
        for sources in result.table.provenance:
            covered |= set(sources)
        expected = {
            f"{table.name}:{index}" for table in simple_tables for index in range(table.num_rows)
        }
        assert covered == expected

    @pytest.mark.parametrize("algorithm_cls", [AliteFullDisjunction, IncrementalFullDisjunction])
    def test_order_independence(self, algorithm_cls, simple_tables):
        forwards = algorithm_cls().integrate(simple_tables).table
        backwards = algorithm_cls().integrate(list(reversed(simple_tables))).table
        assert forwards.same_rows(backwards)


class TestAlgorithmsAgree:
    def _row_set(self, table, columns):
        return table.project(columns).rows_as_set()

    def test_all_algorithms_agree_on_fixture(self, simple_tables):
        reference = NaiveFullDisjunction().integrate(simple_tables).table
        columns = list(reference.columns)
        expected = self._row_set(reference, columns)
        for algorithm_cls in (AliteFullDisjunction, IncrementalFullDisjunction, PartitionedFullDisjunction):
            actual = algorithm_cls().integrate(simple_tables).table
            assert self._row_set(actual, columns) == expected

    def test_outer_join_sequence_agrees_on_chain_schema(self):
        # A chain schema (L-M-R) is γ-acyclic, where the all-orders outer join
        # characterisation coincides with Full Disjunction.
        left = Table("L", ["k", "a"], [("1", "x"), ("2", "y")])
        middle = Table("M", ["k", "b"], [("1", "p")])
        right = Table("R", ["b", "c"], [("p", "!")])
        reference = NaiveFullDisjunction().integrate([left, middle, right]).table
        sequence = OuterJoinSequence().integrate([left, middle, right]).table
        assert sequence.same_rows(reference)

    def test_outer_join_sequence_rejects_too_many_tables(self):
        tables = [Table(f"t{i}", [f"c{i}"], [(str(i),)]) for i in range(9)]
        with pytest.raises(ValueError):
            OuterJoinSequence(max_tables=8).integrate(tables)

    @given(
        left_rows=st.lists(
            st.tuples(st.sampled_from(["1", "2", "3"]), st.sampled_from(["x", "y"])), max_size=5
        ),
        middle_rows=st.lists(
            st.tuples(st.sampled_from(["1", "2", "4"]), st.sampled_from(["p", "q"])), max_size=5
        ),
        right_rows=st.lists(
            st.tuples(st.sampled_from(["p", "q", "r"]), st.sampled_from(["!", "?"])), max_size=5
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_alite_matches_naive_on_random_inputs(self, left_rows, middle_rows, right_rows):
        tables = [
            Table("L", ["k", "a"], list(dict.fromkeys(left_rows))),
            Table("M", ["k", "b"], list(dict.fromkeys(middle_rows))),
            Table("R", ["b", "c"], list(dict.fromkeys(right_rows))),
        ]
        reference = NaiveFullDisjunction().integrate(tables).table
        alite = AliteFullDisjunction().integrate(tables).table
        incremental = IncrementalFullDisjunction().integrate(tables).table
        columns = list(reference.columns)
        assert alite.project(columns).rows_as_set() == reference.rows_as_set()
        assert incremental.project(columns).rows_as_set() == reference.rows_as_set()


class TestPaperFigure1:
    def test_regular_fd_produces_nine_tuples(self, covid_tables):
        result = AliteFullDisjunction().integrate(covid_tables)
        assert result.table.num_rows == 9

    def test_berlin_typo_tuples_stay_separate(self, covid_tables):
        result = AliteFullDisjunction().integrate(covid_tables)
        cities = result.table.column("City")
        assert "Berlinn" in cities and "Berlin" in cities

    def test_boston_tuples_integrate_on_equal_values(self, covid_tables):
        result = AliteFullDisjunction().integrate(covid_tables)
        boston = next(row for row in result.table if row["City"] == "Boston")
        assert boston["VaxRate"] == "62%"
        assert boston["TotalCases"] == "263K"


class TestSafetyLimits:
    def test_max_tuples_limit_raises(self):
        left = Table("l", ["k", "a"], [("1", f"a{i}") for i in range(4)])
        right = Table("r", ["k", "b"], [("1", f"b{i}") for i in range(4)])
        with pytest.raises(RuntimeError):
            AliteFullDisjunction(max_tuples=5).integrate([left, right])

    def test_naive_round_limit_raises(self):
        left = Table("l", ["k", "a"], [("1", "x")])
        right = Table("r", ["k", "b"], [("1", "y")])
        with pytest.raises(RuntimeError):
            NaiveFullDisjunction(max_rounds=0).integrate([left, right])
