"""Tests for the streaming (lazy) Full Disjunction enumeration."""

from __future__ import annotations

import pytest

from repro.fd import AliteFullDisjunction, StreamingFullDisjunction, get_algorithm
from repro.table import NULL, Table


@pytest.fixture()
def tables():
    left = Table("L", ["k", "a"], [("1", "x"), ("2", "y"), ("3", "z")])
    right = Table("R", ["k", "b"], [("1", "p"), ("3", "q"), ("4", "r")])
    return [left, right]


class TestStreamingFullDisjunction:
    def test_registered(self):
        assert get_algorithm("streaming").name == "streaming"

    def test_eager_result_matches_alite(self, tables):
        streaming = StreamingFullDisjunction().integrate(tables).table
        alite = AliteFullDisjunction().integrate(tables).table
        assert streaming.same_rows(alite)

    def test_eager_result_matches_alite_on_figure1(self, covid_tables):
        streaming = StreamingFullDisjunction().integrate(covid_tables).table
        alite = AliteFullDisjunction().integrate(covid_tables).table
        assert streaming.same_rows(alite)

    def test_iterator_yields_every_tuple_exactly_once(self, tables):
        streaming = StreamingFullDisjunction()
        emitted = list(streaming.iter_tuples(tables))
        eager = streaming.integrate(tables).table
        assert len(emitted) == eager.num_rows
        assert {values for values, _ in emitted} == set(eager.rows)

    def test_iterator_carries_provenance(self, tables):
        emitted = list(StreamingFullDisjunction().iter_tuples(tables))
        all_sources = set()
        for _, sources in emitted:
            all_sources |= set(sources)
        assert all_sources == {"L:0", "L:1", "L:2", "R:0", "R:1", "R:2"}

    def test_preview_limits_output(self, tables):
        preview = StreamingFullDisjunction().preview(tables, limit=2)
        assert preview.num_rows == 2
        assert set(preview.columns) == {"k", "a", "b"}

    def test_preview_of_empty_input_raises(self):
        with pytest.raises(ValueError):
            StreamingFullDisjunction().preview([], limit=3)

    def test_iterator_on_empty_table_list_yields_nothing(self):
        assert list(StreamingFullDisjunction().iter_tuples([])) == []

    def test_largest_components_last_changes_order_not_content(self, tables):
        default_order = [values for values, _ in StreamingFullDisjunction().iter_tuples(tables)]
        sorted_order = [
            values
            for values, _ in StreamingFullDisjunction(largest_components_last=True).iter_tuples(tables)
        ]
        assert set(default_order) == set(sorted_order)

    def test_statistics_report_emitted_tuples(self, tables):
        result = StreamingFullDisjunction().integrate(tables)
        assert result.statistics["emitted_tuples"] == float(result.table.num_rows)

    def test_outer_union_is_built_once(self, tables, monkeypatch):
        import repro.fd.base as base

        calls = []
        original = base.outer_union
        monkeypatch.setattr(
            base, "outer_union", lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs)
        )
        StreamingFullDisjunction().integrate(tables)
        assert len(calls) == 1
        StreamingFullDisjunction().preview(tables, limit=2)
        assert len(calls) == 2

    def test_integrate_does_not_remove_subsumed_tuples_twice(self, tables, monkeypatch):
        # The closure marks the tuples it subsumes: no subsumption self-join
        # runs after it, in the kernel or in integrate().
        from repro.table import subsumption

        def fail(codes):
            raise AssertionError("the closure already marks the subsumed tuples")

        monkeypatch.setattr(subsumption, "reduce_coded", fail)
        assert StreamingFullDisjunction().integrate(tables).table.num_rows == 4

    def test_same_order_as_incremental_past_two_to_the_sixteen_components(self):
        # Every input tuple is a component of its own.  Each batch numbers its
        # components from 1: numbers counted across batches would pass 2¹⁶ and
        # wrap in the 16-bit sort of the survivors by label.
        n = (1 << 16) + 1
        left = Table("L", ["k", "a"], [(f"k{i}", f"a{i}") for i in range(n)])
        right = Table("R", ["k", "b"], [("r", "b")])
        streaming = StreamingFullDisjunction().integrate([left, right]).table
        incremental = get_algorithm("incremental").integrate([left, right]).table
        assert (streaming.rows, streaming.provenance) == (incremental.rows, incremental.provenance)

    def test_fully_null_tuples_fold_into_the_first_emitted_tuple(self):
        # A fully-null tuple is its own component; it is subsumed by any tuple
        # with information, exactly as the eager algorithms decide.
        left = Table("L", ["k", "a"], [(NULL, NULL), ("1", "x")])
        right = Table("R", ["k", "b"], [("1", "p"), (NULL, NULL)])
        emitted = list(StreamingFullDisjunction().iter_tuples([left, right]))
        assert emitted == [(("1", "x", "p"), frozenset({"L:0", "L:1", "R:0", "R:1"}))]
        alite = AliteFullDisjunction().integrate([left, right]).table
        streaming = StreamingFullDisjunction().integrate([left, right]).table
        assert (streaming.rows, streaming.provenance) == (alite.rows, alite.provenance)
        only_nulls = list(StreamingFullDisjunction().iter_tuples([Table("N", ["k"], [(NULL,), (NULL,)])]))
        assert only_nulls == [((NULL,), frozenset({"N:0", "N:1"}))]
