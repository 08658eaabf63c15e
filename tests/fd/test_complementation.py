"""Tests for the complementation engine and component decomposition."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import ImdbBenchmark
from repro.evaluation.experiments import KernelRoute
from repro.fd import complementation
from repro.fd.complementation import ComplementationEngine, subsumed_sources
from repro.fd.naive import _join_consistent_same_schema, _merge_same_schema
from repro.table import NULL, Table, outer_union, remove_subsumed
from repro.table.relation import Relation, sources


def encode_rows(rows, width):
    """Same-schema rows coded as the closure reads them: ``(codes, values)``."""
    relation = Relation.encode("rows", map(str, range(width)), rows)
    return relation.codes, relation.values


def close(engine, rows, provenance, statistics=None):
    """``engine``'s complementation closure of ``rows`` — subsumed tuples
    kept, duplicates collapsed — decoded, with each tuple's provenance."""
    if not rows:
        return [], []
    codes, values = encode_rows(rows, len(rows[0]))
    closed = engine.close_coded(codes, statistics)[0]
    inputs, holders = subsumed_sources(closed, codes, np.flatnonzero((closed < 0).all(axis=0)))
    decoded = Relation("closed", map(str, range(len(values))), closed, values).decode()
    return decoded, sources(provenance, inputs, holders, closed.shape[1])


class LabelledRoute(KernelRoute):
    """``alite`` with its closure's labels forced on, whatever its listing:
    every tuple meets only its own component's nulls."""

    name = "alite, labelled"

    def __init__(self) -> None:
        super().__init__(labelled=True)


class UnlabelledRoute(KernelRoute):
    """``alite`` with one label for every input, whatever its listing: the
    whole-input closure."""

    name = "alite, unlabelled"

    def __init__(self) -> None:
        super().__init__(labelled=False)


class TestJoinConsistency:
    def test_agreeing_tuples_are_consistent(self):
        assert _join_consistent_same_schema(("a", NULL), ("a", "b"))

    def test_conflicting_tuples_are_not(self):
        assert not _join_consistent_same_schema(("a", "x"), ("a", "y"))

    def test_requires_at_least_one_shared_value(self):
        assert not _join_consistent_same_schema(("a", NULL), (NULL, "b"))

    def test_merge_prefers_non_null(self):
        assert _merge_same_schema(("a", NULL), (NULL, "b")) == ("a", "b")


class TestEngine:
    def test_closure_adds_merged_tuples(self):
        engine = ComplementationEngine()
        rows = [("1", "x", NULL), ("1", NULL, "y")]
        prov = [frozenset({"a"}), frozenset({"b"})]
        closed, closed_prov = close(engine, rows, prov)
        assert ("1", "x", "y") in closed
        merged_index = closed.index(("1", "x", "y"))
        assert closed_prov[merged_index] == frozenset({"a", "b"})

    def test_inputs_are_preserved(self):
        engine = ComplementationEngine()
        rows = [("1", "x", NULL), ("2", NULL, "y")]
        closed, _ = close(engine, rows, [frozenset({"a"}), frozenset({"b"})])
        assert set(rows) <= set(closed)

    def test_duplicates_collapse_and_merge_provenance(self):
        engine = ComplementationEngine()
        rows = [("1", "x"), ("1", "x")]
        closed, prov = close(engine, rows, [frozenset({"a"}), frozenset({"b"})])
        assert len(closed) == 1
        assert prov[0] == frozenset({"a", "b"})

    def test_transitive_chain_produces_full_tuple(self):
        engine = ComplementationEngine()
        rows = [
            ("k", "x", NULL, NULL),
            ("k", NULL, "y", NULL),
            ("k", NULL, NULL, "z"),
        ]
        closed, _ = close(engine, rows, [frozenset({str(i)}) for i in range(3)])
        assert ("k", "x", "y", "z") in closed

    def test_empty_input(self):
        assert close(ComplementationEngine(), [], []) == ([], [])

    def test_max_tuples_guard(self):
        engine = ComplementationEngine(max_tuples=2)
        rows = [("1", "a", NULL), ("1", NULL, "b"), ("1", "c", NULL)]
        with pytest.raises(RuntimeError):
            close(engine, rows, [frozenset({str(i)}) for i in range(3)])

    def test_statistics_recorded(self):
        statistics = {}
        engine = ComplementationEngine()
        close(
            engine,
            [("1", "x", NULL), ("1", NULL, "y")],
            [frozenset({"a"}), frozenset({"b"})],
            statistics,
        )
        assert statistics["complementation_merges"] >= 1
        assert statistics["complementation_tuples"] >= 3

def reference_closure(rows, provenance):
    """The definitional pairwise fixpoint: row -> provenance of the closure."""
    known = {}
    for values, sources in zip(rows, provenance):
        known.setdefault(values, set()).update(sources)
    changed = True
    while changed:
        changed = False
        for (left, left_sources), (right, right_sources) in itertools.combinations(
            list(known.items()), 2
        ):
            agreements = [l == r for l, r in zip(left, right) if l is not NULL and r is not NULL]
            if not agreements or not all(agreements):
                continue
            merged = tuple(r if l is NULL else l for l, r in zip(left, right))
            sources = left_sources | right_sources
            if not sources <= known.setdefault(merged, set()):
                known[merged] |= sources
                changed = True
    return {values: frozenset(sources) for values, sources in known.items()}


@st.composite
def low_cardinality_rows(draw):
    """Same-schema rows with nulls over 4-6 columns of 2-3 distinct values each,
    so the most selective position is often not the one a partner shares."""
    width = draw(st.integers(4, 6))
    cell = st.one_of(st.just(NULL), st.just(NULL), st.sampled_from(["a", "b", "c"][: draw(st.integers(2, 3))]))
    return draw(st.lists(st.tuples(*[cell] * width), max_size=7))


class TestSelectivePostingKernel:
    @given(low_cardinality_rows())
    @settings(max_examples=150, deadline=None)
    def test_close_equals_reference_fixpoint(self, rows):
        provenance = [frozenset({f"s{index}"}) for index in range(len(rows))]
        closed, closed_provenance = close(ComplementationEngine(), rows, provenance)
        assert len(set(closed)) == len(closed)
        assert dict(zip(closed, closed_provenance)) == reference_closure(rows, provenance)

    def test_partner_reached_through_null_posting(self):
        # When ("a", "b", NULL) is processed, column 0 is its selective
        # position ("a" is unique, one tuple is null there; five tuples hold
        # "b").  Its only partner is null in that column and shares "b", a
        # value of another column.
        rows = [
            (NULL, "b", "z"),
            ("x1", "b", NULL),
            ("x2", "b", NULL),
            ("x3", "b", NULL),
            ("a", "b", NULL),
        ]
        provenance = [frozenset({f"s{index}"}) for index in range(len(rows))]
        statistics = {}
        closed, closed_provenance = close(ComplementationEngine(), rows, provenance, statistics)
        assert closed[:5] == rows
        assert closed[8] == ("a", "b", "z")
        assert closed_provenance[8] == frozenset({"s0", "s4"})
        assert dict(zip(closed, closed_provenance)) == reference_closure(rows, provenance)
        # One candidate (the null posting) per input tuple, two per merged one;
        # a shared-value index would have scanned every holder of "b".
        assert statistics["complementation_comparisons"] == 12.0
        assert statistics["complementation_merges"] == 12.0

    def test_null_posting_candidate_sharing_nothing_is_rejected(self):
        rows = [(NULL, "q", NULL), ("a", NULL, "y")]
        statistics = {}
        closed, _ = close(
            ComplementationEngine(), rows, [frozenset({"s0"}), frozenset({"s1"})], statistics
        )
        assert closed == rows
        assert statistics["complementation_comparisons"] == 1.0
        assert statistics["complementation_merges"] == 0.0

    def test_max_tuples_is_an_exact_bound(self):
        rows = [("k", "x", NULL, NULL), ("k", NULL, "y", NULL), ("k", NULL, NULL, "z")]
        provenance = [frozenset({str(index)}) for index in range(3)]
        closed, _ = close(ComplementationEngine(max_tuples=7), rows, provenance)
        assert len(closed) == 7
        with pytest.raises(RuntimeError, match="exceeded 6 tuples"):
            close(ComplementationEngine(max_tuples=6), rows, provenance)

    def test_same_ids_same_order_same_provenance_as_before_the_rewrite(self, ordered_digest, set_digest):
        # The set digests were recorded from the kernel that met every smaller
        # id, whose ordered digests dated from before the selective-posting
        # kernel; the ordered ones pin the ids of the input-partner loop.
        union = outer_union([t.with_default_provenance() for t in ImdbBenchmark(13).tables(400)])
        rows, provenance = close(ComplementationEngine(), union.rows, union.provenance)
        assert len(rows) == 2826
        assert set_digest(rows, provenance) == "00e485f6da724fefa424e57ac2e80b32"
        assert ordered_digest(rows, provenance) == "c63327fd367b6ffaa5c690bf2202132e"
        reduced = remove_subsumed(Table("closed", union.schema, rows, provenance=provenance))
        assert reduced.num_rows == 155
        assert set_digest(reduced.rows, reduced.provenance) == "3fe7b93746e547c932b5c90a6e801b69"
        assert ordered_digest(reduced.rows, reduced.provenance) == "185a4ddc00223a27ee172e943ee56cab"


def connected_components(rows):
    roots = complementation.component_roots(encode_rows(rows, len(rows[0]))[0])
    return [np.flatnonzero(roots == root) for root in sorted(set(roots.tolist()))]


class TestConnectedComponents:
    def test_tuples_sharing_values_share_components(self):
        rows = [("1", "x"), ("1", "y"), ("2", "z")]
        components = connected_components(rows)
        assert sorted(map(sorted, components)) == [[0, 1], [2]]

    def test_nulls_do_not_connect(self):
        rows = [(NULL, "x"), (NULL, "y")]
        assert len(connected_components(rows)) == 2

    def test_transitive_connection(self):
        rows = [("1", "x"), ("1", "y"), ("y", "1")]
        # Row 2 shares no value *in the same column* with rows 0/1.
        components = connected_components(rows)
        assert sorted(map(sorted, components)) == [[0, 1], [2]]

    def test_every_row_appears_exactly_once(self):
        rows = [("a", "b"), ("c", "d"), ("a", "d")]
        components = connected_components(rows)
        flattened = sorted(row for component in components for row in component)
        assert flattened == [0, 1, 2]
