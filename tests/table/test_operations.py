"""Tests for relational operations (joins, outer union, subsumption)."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.table import (
    NULL,
    Table,
    full_outer_join,
    is_null,
    outer_union,
    remove_subsumed,
    subsumes,
)
from repro.table import coded
from repro.table.nulls import LabeledNull
from repro.table.operations import join_consistent, merge_rows
from repro.table.schema import Schema


@pytest.fixture()
def cities():
    return Table("cities", ["City", "Country"], [("Berlin", "DE"), ("Boston", "US"), ("Lyon", "FR")])


@pytest.fixture()
def stats():
    return Table("stats", ["City", "Cases"], [("Berlin", 10), ("Boston", 20), ("Madrid", 30)])


class TestOuterJoins:
    def test_joins_on_shared_column(self, cities, stats):
        joined = full_outer_join(cities, stats)
        assert joined.columns == ("City", "Country", "Cases")
        by_city = {row["City"]: (row["Country"], row["Cases"]) for row in joined}
        assert by_city["Berlin"] == ("DE", 10)
        assert by_city["Boston"] == ("US", 20)

    def test_unmatched_left_is_padded_with_nulls(self, cities, stats):
        joined = full_outer_join(cities, stats)
        lyon = next(row for row in joined if row["City"] == "Lyon")
        assert lyon["Country"] == "FR"
        assert is_null(lyon["Cases"])

    def test_a_disagreement_on_any_shared_column_blocks_the_join(self):
        # Join consistency: every shared attribute where both sides are non-null
        # must agree, and a null on one side agrees with anything.
        left = Table("l", ["k", "m", "x"], [("a", "p", 1), ("b", NULL, 2)])
        right = Table("r", ["k", "m", "y"], [("a", "q", 3), ("b", "q", 4)])
        assert full_outer_join(left, right).rows == [
            ("a", "p", 1, NULL),
            ("b", "q", 2, 4),
            ("a", "q", NULL, 3),
        ]

    def test_full_outer_preserves_both_sides(self, cities, stats):
        joined = full_outer_join(cities, stats)
        assert joined.num_rows == 4
        madrid = next(row for row in joined if row["City"] == "Madrid")
        assert is_null(madrid["Country"])

    def test_full_outer_without_shared_columns_keeps_everything(self):
        left = Table("l", ["a"], [(1,)])
        right = Table("r", ["b"], [(2,)])
        joined = full_outer_join(left, right)
        assert joined.num_rows == 2

    def test_null_join_values_do_not_match(self):
        left = Table("l", ["k", "x"], [(NULL, 1)])
        right = Table("r", ["k", "y"], [(NULL, 2)])
        joined = full_outer_join(left, right)
        assert [(row["x"], row["y"]) for row in joined] == [(1, NULL), (NULL, 2)]

    def test_multi_match_produces_all_combinations(self):
        left = Table("l", ["k", "x"], [("a", 1)])
        right = Table("r", ["k", "y"], [("a", 2), ("a", 3)])
        assert full_outer_join(left, right).rows == [("a", 1, 2), ("a", 1, 3)]

    def test_provenance_merged_on_join(self, cities, stats):
        joined = full_outer_join(cities.with_default_provenance(), stats.with_default_provenance())
        berlin = next(i for i, row in enumerate(joined) if row["City"] == "Berlin")
        assert joined.provenance[berlin] == frozenset({"cities:0", "stats:0"})


class TestJoinHelpers:
    def test_join_consistent_requires_agreement(self):
        shared = [(0, 0)]
        assert join_consistent(("a",), ("a",), shared)
        assert not join_consistent(("a",), ("b",), shared)

    def test_join_consistent_requires_some_non_null(self):
        shared = [(0, 0)]
        assert not join_consistent((NULL,), ("a",), shared)

    def test_merge_rows_prefers_non_null(self):
        left_schema = Schema(["a", "b"])
        right_schema = Schema(["b", "c"])
        output = left_schema.union(right_schema)
        merged = merge_rows(("x", NULL), ("y", "z"), left_schema, right_schema, output)
        assert merged == ("x", "y", "z")


class TestOuterUnion:
    def test_schema_is_union(self, cities, stats):
        union = outer_union([cities, stats])
        assert set(union.columns) == {"City", "Country", "Cases"}
        assert union.num_rows == 6

    def test_missing_attributes_are_null(self, cities, stats):
        union = outer_union([cities, stats])
        assert is_null(union.cell(0, "Cases"))

    def test_labeled_nulls_are_unique(self, cities, stats):
        union = outer_union([cities, stats], labeled_nulls=True)
        first = union.cell(0, "Cases")
        second = union.cell(1, "Cases")
        assert isinstance(first, LabeledNull)
        assert first != second

    def test_provenance_defaults_to_table_row(self, cities, stats):
        union = outer_union([cities, stats])
        assert union.provenance[0] == frozenset({"cities:0"})
        assert union.provenance[3] == frozenset({"stats:0"})

    def test_requires_at_least_one_table(self):
        with pytest.raises(ValueError):
            outer_union([])


def reference_remove_subsumed(rows, provenance):
    """Row-by-row subsumption removal, the reference for the coded core.

    The first of equal rows stands for them; the rest are visited in order and
    a row is absorbed by the first not-yet-removed row, in order, among the
    holders of its rarest (position, value) pair that strictly subsumes it.
    Provenance follows the chain of absorbers to a survivor.
    """
    information = [{(p, v) for p, v in enumerate(row) if not is_null(v)} for row in rows]
    absorbed_by = {}
    first_of = {}
    for index, pairs in enumerate(information):
        first = first_of.setdefault(frozenset(pairs), index)
        if first != index:
            absorbed_by[index] = first
    distinct = list(first_of.values())
    holders = {}
    for index in distinct:
        for position, value in enumerate(rows[index]):
            if not is_null(value):
                holders.setdefault((position, value), []).append(index)
    for index in distinct:
        if not information[index]:
            if len(distinct) > 1:
                absorbed_by[index] = next(other for other in distinct if other != index)
            continue
        rarest = min(
            (holders[(p, v)] for p, v in enumerate(rows[index]) if not is_null(v)), key=len
        )
        for candidate in rarest:
            if candidate not in absorbed_by and information[candidate] > information[index]:
                absorbed_by[index] = candidate
                break
    folded = {index: set(provenance[index]) for index in range(len(rows)) if index not in absorbed_by}
    for index in absorbed_by:
        survivor = absorbed_by[index]
        while survivor in absorbed_by:
            survivor = absorbed_by[survivor]
        folded[survivor] |= provenance[index]
    return [rows[index] for index in folded], [frozenset(sources) for sources in folded.values()]


class TestSubsumption:
    def test_tuple_subsumes_itself(self):
        assert subsumes(("a", "b"), ("a", "b"))

    def test_more_informative_subsumes_less(self):
        assert subsumes(("a", "b"), ("a", NULL))
        assert not subsumes(("a", NULL), ("a", "b"))

    def test_conflicting_values_do_not_subsume(self):
        assert not subsumes(("a", "b"), ("a", "c"))

    def test_remove_subsumed_drops_partial_tuples(self):
        table = Table("t", ["a", "b"], [("x", "y"), ("x", NULL), (NULL, "y")])
        reduced = remove_subsumed(table)
        assert reduced.num_rows == 1
        assert reduced.rows[0] == ("x", "y")

    def test_remove_subsumed_merges_provenance(self):
        table = Table(
            "t",
            ["a", "b"],
            [("x", "y"), ("x", NULL)],
            provenance=[{"p:0"}, {"q:0"}],
        )
        reduced = remove_subsumed(table)
        assert reduced.num_rows == 1
        assert reduced.provenance[0] == frozenset({"p:0", "q:0"})

    def test_exact_duplicates_collapse(self):
        table = Table("t", ["a"], [("x",), ("x",)])
        assert remove_subsumed(table).num_rows == 1

    def test_incomparable_tuples_are_kept(self):
        table = Table("t", ["a", "b"], [("x", NULL), (NULL, "y")])
        assert remove_subsumed(table).num_rows == 2

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.sampled_from(["a", "b"])),
                st.one_of(st.none(), st.sampled_from(["c", "d"])),
                st.one_of(st.none(), st.sampled_from(["e", "f"])),
            ),
            max_size=14,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_remove_subsumed_is_minimal_and_complete(self, raw_rows):
        rows = [tuple(NULL if cell is None else cell for cell in row) for row in raw_rows]
        table = Table("t", ["a", "b", "c"], rows)
        reduced = remove_subsumed(table)
        kept = reduced.rows
        # Minimality: no kept tuple is subsumed by a different kept tuple
        # (duplicates have been collapsed, so distinct kept tuples must be
        # incomparable under subsumption).
        for i, left in enumerate(kept):
            for j, right in enumerate(kept):
                if i != j:
                    assert not subsumes(left, right)
        # Every original tuple is subsumed by some kept tuple.
        for row in rows:
            assert any(subsumes(keeper, row) for keeper in kept)

    @given(
        st.integers(1, 5).flatmap(
            lambda width: st.lists(
                st.tuples(*[st.sampled_from([NULL, NULL, None, "a", "b", 1, 1.0])] * width),
                max_size=16,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_coded_core_equals_row_by_row_reference(self, rows):
        provenance = [frozenset({f"t:{index}"}) for index in range(len(rows))]
        width = len(rows[0]) if rows else 1
        table = Table("t", [f"c{p}" for p in range(width)], rows, provenance=provenance)
        reduced = remove_subsumed(table)
        expected_rows, expected_provenance = reference_remove_subsumed(rows, provenance)
        assert [tuple(map(id, row)) for row in reduced.rows] == [tuple(map(id, row)) for row in expected_rows]
        assert reduced.provenance == expected_provenance

    @pytest.mark.parametrize(
        "rows_for, survivors_for",
        [
            # Exactly one block of (row, holder) pairs: the next block would start at the end.
            (lambda block: [(f"u{index}", NULL) for index in range(block)], lambda block: block),
            # The last row's rarest pair is held by every row, so the pair a
            # block away from the start falls inside it.
            (
                lambda block: [("k", f"u{index}") for index in range(block * 5 // 8)] + [("k", NULL)],
                lambda block: block * 5 // 8,
            ),
            # Eight blocks and more; subsumers, chains of them, duplicates and a fully-null row.
            (
                lambda block: [
                    tuple(NULL if rng.random() < nulls else rng.randrange(50) for nulls in (0.0, 0.4, 0.4, 0.7))
                    for rng in [random.Random(14)]
                    for _ in range(4000 * block >> 14)
                ]
                + [(NULL, NULL, NULL, NULL)],
                {1 << 14: 2726, 1 << 16: 8179}.get,
            ),
        ],
        ids=["pairs-end-on-a-boundary", "boundary-inside-the-last-row", "many-blocks"],
    )
    @pytest.mark.parametrize("block", [1 << 14, 1 << 16])
    def test_coded_core_equals_reference_across_pair_blocks(self, block, rows_for, survivors_for, monkeypatch):
        # The shipped block size and the one before it, each on inputs cut for its boundaries.
        assert block <= coded.PAIR_BLOCK, "add the shipped block size to the parameters"
        monkeypatch.setattr(coded, "PAIR_BLOCK", block)
        rows, survivors = rows_for(block), survivors_for(block)
        provenance = [frozenset({f"t:{index}"}) for index in range(len(rows))]
        table = Table("t", [f"c{p}" for p in range(len(rows[0]))], rows, provenance=provenance)
        reduced = remove_subsumed(table)
        expected_rows, expected_provenance = reference_remove_subsumed(rows, provenance)
        assert reduced.rows == expected_rows
        assert reduced.provenance == expected_provenance
        assert reduced.num_rows == survivors

    def test_same_survivors_order_and_provenance_as_before_the_coded_core(self, ordered_digest):
        # 60 seeded tables (1-6 low-cardinality columns, 45 % nulls, so chains
        # of subsumers, duplicates and fully-null rows all occur); the digest
        # was recorded from the object-level loop the coded core replaced.
        rng = random.Random(20260930)
        state = hashlib.blake2b(digest_size=16)
        survivors = 0
        for number in range(60):
            width = rng.randint(1, 6)
            rows = [
                tuple(NULL if rng.random() < 0.45 else f"v{rng.randint(0, 2)}" for _ in range(width))
                for _ in range(rng.randint(0, 60))
            ]
            provenance = [frozenset({f"t{number}:{index}"}) for index in range(len(rows))]
            table = Table(f"t{number}", [f"c{p}" for p in range(width)], rows, provenance=provenance)
            reduced = remove_subsumed(table)
            assert frozenset().union(*reduced.provenance) == frozenset().union(*provenance)
            survivors += reduced.num_rows
            state.update(ordered_digest(reduced.rows, reduced.provenance).encode())
        assert survivors == 752
        assert state.hexdigest() == "2ed6445d185f957b9b56436b3cf01055"

    def test_survivors_keep_their_original_cells(self):
        # Coding is internal: the kept rows are the input's own tuples, whatever
        # flavour of null they hold, and a fully-null row folds into a survivor.
        marked = LabeledNull()
        table = Table(
            "t",
            ["a", "b"],
            [(None, marked), ("x", marked), ("x", None)],
            provenance=[{"p:0"}, {"p:1"}, {"p:2"}],
        )
        reduced = remove_subsumed(table)
        assert reduced.rows == [("x", marked)]
        assert reduced.rows[0][1] is marked
        assert reduced.provenance == [frozenset({"p:0", "p:1", "p:2"})]
