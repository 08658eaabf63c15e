"""Provenance and the decoded table are derived on first read, once.

The FD stage returns its survivors coded; the provenance join
(:func:`~repro.fd.complementation.subsumed_sources`) and the decoding run
only when ``relation.provenance`` or ``result.table`` is read.  Two things
are pinned here: what is derived equals what the eager derivation computed
(:class:`TestProvenanceOracle`), and a served request derives neither
(:class:`TestServedPath`).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import IntegrationEngine
from repro.fd import base, get_algorithm
from repro.fd.complementation import ComplementationEngine, component_ranks
from repro.service import IntegrationService
from repro.service.http import table_to_json
from repro.table import NULL, Table
from repro.table.relation import Relation, outer_union, sources, tuple_ids
from repro.table.subsumption import subsumers, survivor
from repro.utils.sorting import stable_order
from test_complementation import LabelledRoute


def eager_disjunction(codes, labels=None):
    """Full Disjunction with provenance pairs as it was computed before the
    derivation was deferred: the subsumption join right after the closure,
    and, under ``labels``, the survivors ordered by the label of one input
    each stems from."""
    closed, subsumed, _ = ComplementationEngine().close_coded(codes, {}, labels)
    kept = np.flatnonzero(~subsumed)
    empty = np.flatnonzero((closed < 0).all(axis=0)).tolist()
    starts = [int(index == 0) if subsumed[index] else index for index in empty]
    empty_to = np.searchsorted(kept, [survivor(closed, subsumed, start) for start in starts])
    survivors = closed[:, kept]
    inputs, holders = subsumers(codes, survivors)
    stem = np.zeros(survivors.shape[1], dtype=np.int64)
    stem[holders] = inputs
    empty = np.flatnonzero((codes < 0).all(axis=0))
    inputs, holders = np.concatenate((inputs, empty)), np.concatenate((holders, np.repeat(empty_to, empty.size)))
    if labels is not None:
        order = stable_order(labels[stem], codes.shape[1] + 1)
        survivors, holders = survivors[:, order], np.argsort(order)[holders]
    return survivors, inputs, holders


def eager_integrate(inputs, labelled):
    """The survivors and provenance of ``inputs``, derived eagerly, over one
    label for every input or, if ``labelled``, over their components' ranks."""
    relations = [Relation.of(table) for table in inputs]
    _, codes, _ = outer_union(relations)
    labels = component_ranks(codes) if labelled else np.zeros(codes.shape[1], dtype=np.intp)
    survivors, members, holders = eager_disjunction(codes, labels)
    return survivors, sources(tuple_ids(relations), members, holders, survivors.shape[1])


@st.composite
def lakes(draw):
    """1-3 tables over columns from a pool of four — or none at all, zero
    width — with rows from three disjoint vocabularies (several components),
    fully-null rows and duplicates; half the time the first table is the
    relation another integration returned, its provenance not yet derived."""
    width = draw(st.sampled_from([0, 1, 2, 4, 4, 4]))
    tables = []
    for index in range(draw(st.integers(1, 3))):
        columns = draw(st.lists(st.sampled_from("abcd"[:width]), min_size=1, max_size=width, unique=True)) if width else []
        rows = []
        for kind in draw(st.lists(st.sampled_from(["row", "row", "row", "empty", "repeat"]), max_size=10)):
            if kind == "repeat" and rows:
                rows.append(draw(st.sampled_from(rows)))
            elif kind == "empty" or not columns:
                rows.append((NULL,) * len(columns))
            else:
                group = draw(st.integers(0, 2))
                rows.append(tuple(draw(st.sampled_from([NULL, f"{group}x", f"{group}y"])) for _ in columns))
        tables.append(Table(f"t{index}", columns, rows))
    if draw(st.booleans()):
        tables[0] = get_algorithm("alite", result_name="t0").integrate(tables[:1]).relation
    return tables


class TestProvenanceOracle:
    # The first component's survivor is a merge, numbered after every input,
    # the second's an input: the labels, not the closure order, put it first.
    @example(tables=[Table("t", ["a", "b", "c"], [("0x", "0y", NULL), ("1x", NULL, NULL), ("0x", NULL, "0z")])],
             forced=True)
    @given(tables=lakes(), forced=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_derived_on_read_equals_the_eager_derivation(self, tables, forced):
        result = (LabelledRoute() if forced else get_algorithm("alite")).integrate(tables)
        expected_survivors, expected_provenance = eager_integrate(tables, forced or "components" in result.statistics)
        # Rows in the same order: labelled, they follow the closed tuples'
        # labels where they followed the labels of the inputs they stem from.
        assert np.array_equal(result.relation.codes, expected_survivors)
        assert result.relation.provenance == expected_provenance
        assert result.table.rows == result.relation.decode()
        assert result.table.provenance == expected_provenance
        assert result.output_tuple_count == len(expected_provenance)

    def test_labels_handed_back_are_the_inputs_labels(self):
        # Three components and a fully-null row: every closed tuple carries
        # the label of each input it merged.
        rows = [("a", NULL), (NULL, NULL), ("b", "x"), ("a", "y"), ("c", NULL), ("b", NULL)]
        codes = Relation.encode("t", ["p", "q"], rows).codes
        labels = np.array([1, 0, 2, 1, 3, 2])
        closed, _, closed_labels = ComplementationEngine().close_coded(codes, {}, labels)
        members, holders = subsumers(codes, closed)
        assert np.array_equal(closed_labels[holders], labels[members])
        assert closed.shape[1] == closed_labels.size


@contextmanager
def counted_derivations():
    """Count the calls of the provenance join, of ``sources`` as the FD stage
    calls it and of :meth:`Relation.to_table`."""
    counts = Counter()

    def counting(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return call

    with patch.object(base, "subsumed_sources", counting("subsumed_sources", base.subsumed_sources)), patch.object(
        base, "sources", counting("sources", base.sources)
    ), patch.object(Relation, "to_table", counting("to_table", Relation.to_table)):
        yield counts


class TestServedPath:
    BODY = {
        "tables": [
            {"name": "a", "columns": ["name", "city"], "rows": [["alice", "nyc"], ["bob", None], [None, None]]},
            {"name": "b", "columns": ["name", "country"], "rows": [["alice", "usa"]]},
        ]
    }

    def test_a_served_request_derives_neither_provenance_nor_table(self, serve_http):
        service = IntegrationService("fast")
        served = []
        integrate = service.engine.integrate

        def kept(*args, **kwargs):
            served.append(integrate(*args, **kwargs))
            return served[-1]

        with patch.object(service.engine, "integrate", kept), counted_derivations() as counts:
            with serve_http(service) as server:
                status, _, body = server.request("POST", "/integrate", self.BODY)
            assert status == 200 and len(body["table"]["rows"]) == 2
            assert counts == Counter()
            (result,) = served
            for _ in range(3):
                assert result.table is result.fd_result.table
                assert result.table.provenance == result.fd_result.relation.provenance
            assert counts == {"subsumed_sources": 1, "sources": 1, "to_table": 1}
        assert set(result.table.provenance) == {frozenset({"a:0", "a:2", "b:0"}), frozenset({"a:1"})}
        assert body["table"] == table_to_json(result.table)
        service.close()

    def test_the_engine_result_derives_on_first_read_only(self):
        with IntegrationEngine("fast") as engine, counted_derivations() as counts:
            result = engine.integrate([Table("a", ["k"], [("x",), ("y",)]), Table("b", ["k", "v"], [("x", 1)])])
            assert result.output_tuple_count == 2 and counts == Counter()
            provenance = result.fd_result.relation.provenance
            assert counts == {"subsumed_sources": 1, "sources": 1}
            assert result.table.provenance == provenance
            assert set(provenance) == {frozenset({"a:0", "b:0"}), frozenset({"a:1"})}
            assert counts == {"subsumed_sources": 1, "sources": 1, "to_table": 1}
