"""The closure's two routes: the whole input at once, or each component apart.

``ComplementationEngine.disjunction_coded`` labels the connected components
of its inputs itself when their unlabelled listing holds more than
``LISTED_PER_CELL`` candidates per non-null input cell and they fall into
more than one component; a caller may also hand it labels.  Whatever the
labels, the rows and the provenance are the same: only their order follows
the route, the labelled one listing them component by component.

``test_complementation``'s ``LabelledRoute`` and ``UnlabelledRoute`` force
one route through the ``alite`` algorithm, so that the tests of the
algorithms hold both against their references.  The route the rule picks is
pinned by counters (``components`` is reported when the closure labels),
never by timing: on a join triangle and on a lake wider than 63 positions it
labels, and on every pipeline workload's FD inputs it does what :func:`rule`
computes from the definitions.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import IntegrationEngine
from repro.datasets import ImdbBenchmark, join_triangle, multi_schema_lake
from repro.fd import base, get_algorithm
from repro.fd.complementation import (
    LISTED_PER_CELL,
    ComplementationEngine,
    component_ranks,
    component_roots,
    subsumed_sources,
)
from test_batched_closure import load_pipeline_workloads
from test_complementation import UnlabelledRoute


def rule(codes):
    """``(listed per cell, components)`` of the distinct inputs ``codes``, from
    the definitions: per input holding a value, the fewest inputs, over its
    non-null positions, that hold its value there or are null there; and the
    value-sharing components of the inputs that hold a value."""
    distinct = np.unique(codes, axis=1)
    listed = 0
    for column in distinct.T:
        held = np.flatnonzero(column >= 0)
        if held.size:
            at = distinct[held]
            listed += int(((at == column[held, None]) | (at < 0)).sum(axis=1).min())
    cells = np.count_nonzero(distinct >= 0)
    informative = (distinct >= 0).any(axis=0)
    components = np.unique(component_roots(distinct)[informative]).size
    return listed / max(cells, 1), components


def labels_by_rule(codes):
    listed, components = rule(codes)
    return listed > LISTED_PER_CELL and components > 1


def listed_rows(codes, survivors, empty_to):
    """The survivors in order, each with the set of inputs it stems from."""
    inputs, holders = subsumed_sources(survivors, codes, empty_to)
    stems = [set() for _ in range(survivors.shape[1])]
    for source, holder in zip(inputs.tolist(), holders.tolist()):
        stems[holder].add(source)
    return [(tuple(column), frozenset(stem)) for column, stem in zip(survivors.T.tolist(), stems)]


@st.composite
def triangle_codes(draw):
    """Codes of three tables over the pairwise-shared columns 0, 1 and 2, each
    row null at the column its table lacks; keys from pools that let some
    rows join and leave others alone, duplicates among them."""
    entities = draw(st.integers(1, 60))
    key = st.integers(0, draw(st.integers(entities, 3 * entities)))
    rows = []
    for missing in range(3):
        for first, second in draw(st.lists(st.tuples(key, key), min_size=entities, max_size=entities)):
            row = [first, second]
            row.insert(missing, -1)
            rows.append(row)
    return np.array(draw(st.permutations(rows)), dtype=np.int32).T.copy()


@st.composite
def wide_codes(draw):
    """Codes over more than 63 positions: groups of three columns, each row
    holding values (or nulls) in one group's columns only, a row now and then
    fully null."""
    groups = draw(st.integers(22, 28))
    rows = []
    for group in range(groups):
        cell = st.integers(-1, 2)
        for cells in draw(st.lists(st.tuples(cell, cell, cell), min_size=1, max_size=4)):
            row = [-1] * (3 * groups)
            row[3 * group : 3 * group + 3] = cells
            rows.append(row)
    if draw(st.booleans()):
        rows.append([-1] * (3 * groups))
    return np.array(draw(st.permutations(rows)), dtype=np.int32).T.copy()


def _coded(tables):
    return base.outer_union([base.Relation.of(table) for table in tables])[1]


class TestTheRoutesAgree:
    @example(codes=_coded(join_triangle(40)))
    @example(codes=_coded(multi_schema_lake(32, 1)))
    @given(codes=st.one_of(triangle_codes(), wide_codes()))
    @settings(max_examples=80, deadline=None)
    def test_disjunction_coded_gives_the_same_rows_and_provenance_with_and_without_labels(self, codes):
        engine = ComplementationEngine()
        statistics = {}
        chosen = listed_rows(codes, *engine.disjunction_coded(codes, statistics))
        whole = listed_rows(codes, *engine.disjunction_coded(codes, {}, np.zeros(codes.shape[1], dtype=np.intp)))
        apart = listed_rows(codes, *engine.disjunction_coded(codes, {}, component_ranks(codes)))
        assert set(chosen) == set(whole) == set(apart)
        assert len(chosen) == len(whole) == len(apart)
        # Without labels the closure takes the route the rule gives, in that route's order.
        labelled = labels_by_rule(codes)
        assert ("components" in statistics) == labelled
        assert chosen == (apart if labelled else whole)

    def test_the_examples_cross_the_bound(self):
        # Both shapes of the test above reach the labelled route.
        for codes in (_coded(join_triangle(40)), _coded(multi_schema_lake(32, 1))):
            listed, components = rule(codes)
            assert listed > LISTED_PER_CELL and components > 1


class TestComponentRanks:
    def test_components_ranked_by_their_first_tuples_and_the_fully_null_tuple_zero(self):
        codes = np.array([[1, -1, 0, 1, 2, 0], [-1, -1, 0, 3, -1, -1]], dtype=np.int32)
        # Tuples 0 and 3 share a value, 2 and 5; 4 stands alone; 1 is fully null.
        assert component_ranks(codes).tolist() == [1, 0, 2, 1, 3, 2]

    def test_no_tuples(self):
        assert component_ranks(np.zeros((2, 0), dtype=np.int32)).size == 0


class TestTheRouteTaken:
    def test_a_join_triangle_is_closed_component_by_component(self):
        tables = join_triangle(1000)
        result = get_algorithm("alite").integrate(tables)
        assert result.statistics == {
            "outer_union_tuples": 3000.0,
            "components": 1000.0,
            "complementation_comparisons": 6000.0,
            "complementation_expanded": 6000.0,
            "complementation_merges": 6000.0,
            "complementation_tuples": 4000.0,
        }
        # Closed at once, every tuple lists the table null at its key.
        whole = UnlabelledRoute().integrate(tables)
        assert whole.statistics["complementation_comparisons"] > 1000 * 1000
        assert result.table.rows[:2] == [("a0", "b0", "c0"), ("a1", "b1", "c1")]
        assert set(zip(result.table.rows, result.table.provenance)) == set(zip(whole.table.rows, whole.table.provenance))

    def test_a_lake_wider_than_63_positions_is_closed_component_by_component(self):
        tables = multi_schema_lake(32, 20)
        assert len(base.outer_union([base.Relation.of(table) for table in tables])[0]) == 96
        result = get_algorithm("alite").integrate(tables)
        assert result.statistics == {
            "outer_union_tuples": 1280.0,
            "components": 640.0,
            "complementation_comparisons": 1920.0,
            "complementation_expanded": 1920.0,
            "complementation_merges": 1920.0,
            "complementation_tuples": 1920.0,
        }
        assert result.output_tuple_count == 640

    def test_one_component_is_closed_whole_however_long_its_lists(self):
        # An IMDB sample is one component: labels would change nothing.
        codes = _coded(ImdbBenchmark(13).tables(400))
        listed, components = rule(codes)
        assert listed > LISTED_PER_CELL and components == 1
        assert "components" not in get_algorithm("alite").integrate(ImdbBenchmark(13).tables(400)).statistics

    @pytest.mark.parametrize("inputs", [LISTED_PER_CELL, LISTED_PER_CELL + 1])
    def test_the_bound(self, inputs):
        # Each input holds one value, at a column of its own: it lists every
        # input there, so the inputs list as many per cell as they are.
        codes = np.full((inputs, inputs), -1, dtype=np.int32)
        np.fill_diagonal(codes, 0)
        statistics = {}
        ComplementationEngine().disjunction_coded(codes, statistics)
        assert rule(codes) == (inputs, inputs)
        assert statistics.get("components") == (inputs if inputs > LISTED_PER_CELL else None)

    def test_every_pipeline_workload_takes_the_route_the_rule_gives(self):
        workloads = load_pipeline_workloads()
        real = base.outer_union
        seen = []

        def spied(relations):
            union = real(relations)
            seen.append(union[1])
            return union

        routes = {}
        with patch.object(base, "outer_union", spied):
            for name in ("imdb_equi", "autojoin_cold", "lake_mixed", "serve_recurring"):
                workload = workloads.build(name, 13)
                with IntegrationEngine(workload.preset) as engine:
                    for tables in workload.requests:
                        del seen[:]
                        statistics = engine.integrate(tables, **workload.overrides).fd_result.statistics
                        (codes,) = seen
                        assert ("components" in statistics) == labels_by_rule(codes), name
                        routes.setdefault(name, []).append("components" in statistics)
        # On these inputs the whole-input closure is the cheaper one: their
        # lists are short, or (imdb_equi) they are one component.
        assert not any(route for taken in routes.values() for route in taken)
        assert [len(taken) for taken in routes.values()] == [1, 31, 1, 8]
