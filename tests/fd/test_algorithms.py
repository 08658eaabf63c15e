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
    FD_ALGORITHMS,
    AliteFullDisjunction,
    IncrementalFullDisjunction,
    NaiveFullDisjunction,
    OuterJoinSequence,
    available_algorithms,
    get_algorithm,
)
from repro.table import NULL, Table, subsumes
from repro.table.operations import outer_union

ALL_ALGORITHMS = [
    NaiveFullDisjunction,
    AliteFullDisjunction,
    IncrementalFullDisjunction,
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

    def test_registered_names(self):
        assert sorted(available_algorithms()) == [
            "alite",
            "incremental",
            "naive",
            "outer_join_sequence",
            "partitioned",
        ]

    def test_retired_streaming_name_is_unknown(self):
        # The lazy ``streaming`` enumeration is gone: a configuration naming
        # it fails at lookup, not at the first request it serves.
        with pytest.raises(ValueError):
            get_algorithm("streaming")


class TestPartitionedStatistics:
    def _disjoint_tables(self, n_components=10):
        left = Table("L", ["k", "a"], [(f"k{i}", f"a{i}") for i in range(n_components)])
        right = Table("R", ["k", "b"], [(f"k{i}", f"b{i}") for i in range(n_components)])
        return [left, right]

    def test_complementation_statistics_recorded(self):
        # Regression: the executor refactor must keep summing the closure
        # counters (the old parallel branch silently dropped them).
        result = get_algorithm("partitioned").integrate(self._disjoint_tables())
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
        result = get_algorithm("partitioned").integrate(self._disjoint_tables())
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
        # ``partitioned`` names the incremental algorithm itself.
        assert FD_ALGORITHMS.get("partitioned") is IncrementalFullDisjunction
        with pytest.raises(TypeError):
            get_algorithm("partitioned", min_parallel_components=2)
        with pytest.raises(TypeError):
            get_algorithm("partitioned", max_workers=3)
        assert not hasattr(get_algorithm("partitioned"), "configure_executor")
        tables = self._disjoint_tables(n_components=2)
        partitioned = get_algorithm("partitioned").integrate(tables)
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

    @pytest.mark.parametrize("algorithm_cls", [AliteFullDisjunction, IncrementalFullDisjunction])
    def test_integrate_does_not_remove_subsumed_tuples_twice(self, algorithm_cls, monkeypatch):
        # The closure marks the tuples it subsumes: no subsumption self-join
        # runs after it, in the kernel or in integrate().
        from repro.table import subsumption

        def fail(codes):
            raise AssertionError("the closure already marks the subsumed tuples")

        monkeypatch.setattr(subsumption, "reduce_coded", fail)
        left = Table("L", ["k", "a"], [("1", "x"), ("2", "y"), ("3", "z")])
        right = Table("R", ["k", "b"], [("1", "p"), ("3", "q"), ("4", "r")])
        assert algorithm_cls().integrate([left, right]).table.num_rows == 4

    @pytest.mark.parametrize("algorithm_cls", [AliteFullDisjunction, IncrementalFullDisjunction])
    def test_outer_union_is_built_once(self, algorithm_cls, monkeypatch):
        import repro.fd.base as base

        calls = []
        original = base.outer_union
        monkeypatch.setattr(
            base, "outer_union", lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs)
        )
        left = Table("L", ["k", "a"], [("1", "x"), ("2", "y"), ("3", "z")])
        right = Table("R", ["k", "b"], [("1", "p"), ("3", "q"), ("4", "r")])
        algorithm_cls().integrate([left, right])
        assert len(calls) == 1

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_result_counts(self, algorithm_cls, simple_tables):
        result = algorithm_cls().integrate(simple_tables)
        assert result.algorithm == algorithm_cls.name
        assert result.input_tuple_count == 9
        assert result.output_tuple_count == result.table.num_rows == len(result.table.provenance)

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

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_no_duplicate_output_rows(self, algorithm_cls, simple_tables):
        rows = algorithm_cls().integrate(simple_tables).table.rows
        assert len(rows) == len(set(rows))

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
    def test_every_source_tuple_is_subsumed_by_its_output_row(self, algorithm_cls, simple_tables):
        # Provenance names only tuples an output row carries: each source
        # tuple, aligned to the result's columns, agrees with its row.
        table = algorithm_cls().integrate(simple_tables).table
        columns = list(table.columns)
        inputs = {}
        for source in simple_tables:
            for index, values in enumerate(source.rows):
                aligned = [NULL] * len(columns)
                for column, value in zip(source.columns, values):
                    aligned[columns.index(column)] = value
                inputs[f"{source.name}:{index}"] = tuple(aligned)
        for row, sources in zip(table.rows, table.provenance):
            assert sources
            for source in sources:
                assert subsumes(row, inputs[source]), (row, source)

    @pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS)
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
        for algorithm_cls in (AliteFullDisjunction, IncrementalFullDisjunction):
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

    @given(
        left_rows=st.lists(
            st.tuples(st.sampled_from(["1", "2", NULL]), st.sampled_from(["x", "y"])), max_size=6
        ),
        right_rows=st.lists(
            st.tuples(st.sampled_from(["1", "2", "3"]), st.sampled_from(["p", NULL])), max_size=6
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_incremental_matches_alite_with_provenance_on_random_inputs(self, left_rows, right_rows):
        tables = [Table("L", ["k", "a"], left_rows), Table("R", ["k", "b"], right_rows)]
        if not left_rows and not right_rows:
            return
        alite = AliteFullDisjunction().integrate(tables).table
        incremental = IncrementalFullDisjunction().integrate(tables).table
        assert incremental.columns == alite.columns
        assert incremental.num_rows == alite.num_rows
        assert set(zip(incremental.rows, incremental.provenance)) == set(zip(alite.rows, alite.provenance))


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

    def test_incremental_equals_alite_on_figure1(self, covid_tables):
        # The components list the same nine tuples, each with the same sources.
        incremental = IncrementalFullDisjunction().integrate(covid_tables).table
        alite = AliteFullDisjunction().integrate(covid_tables).table
        assert incremental.num_rows == alite.num_rows == 9
        assert set(zip(incremental.rows, incremental.provenance)) == set(zip(alite.rows, alite.provenance))


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
