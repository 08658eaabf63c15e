"""Definition-level Full Disjunction algorithms.

Two reference implementations live here:

* :class:`NaiveFullDisjunction` — the definitional complementation fixpoint
  with unindexed pairwise scanning.  Exponentially safe but slow; it is the
  oracle the other algorithms are validated against in the test suite.
* :class:`OuterJoinSequence` — Galindo-Legaria's original characterisation:
  apply the natural full outer join in *every* order of the input tables,
  outer-union the results and remove subsumed tuples.  Because a single outer
  join order is not associative, different orders produce different partial
  results; their union (for the acyclic integration sets used in the paper's
  benchmarks) recovers the Full Disjunction.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set

from repro.fd.base import FullDisjunctionAlgorithm
from repro.table.nulls import NULL, is_null
from repro.table.operations import full_outer_join, outer_union
from repro.table.relation import Relation
from repro.table.subsumption import remove_subsumed
from repro.table.table import CellValue, Provenance, RowValues, Table


def _normalise(values: RowValues) -> RowValues:
    """Map every flavour of null to the plain NULL so tuples hash consistently."""
    return tuple(NULL if is_null(value) else value for value in values)


def _join_consistent_same_schema(left: RowValues, right: RowValues) -> bool:
    """Join-consistency for tuples over the same schema (all positions shared)."""
    agreed = False
    for left_value, right_value in zip(left, right):
        left_null = is_null(left_value)
        right_null = is_null(right_value)
        if left_null or right_null:
            continue
        if left_value != right_value:
            return False
        agreed = True
    return agreed


def _merge_same_schema(left: RowValues, right: RowValues) -> RowValues:
    """Merge two join-consistent tuples over the same schema (non-null wins)."""
    merged: List[CellValue] = []
    for left_value, right_value in zip(left, right):
        if is_null(left_value):
            merged.append(NULL if is_null(right_value) else right_value)
        else:
            merged.append(left_value)
    return tuple(merged)


class RowOracle(FullDisjunctionAlgorithm):
    """A definition-level algorithm: :meth:`_integrate` works on the rows of
    the input tables, every tuple carrying its provenance, and returns the
    Full Disjunction itself (no subsumed tuples)."""

    def _collect(self, relations: Sequence[Relation], statistics: Dict[str, float], limit=None) -> Relation:
        tables = [relation.to_table() for relation in relations]
        tables = [table if table.provenance is not None else table.with_default_provenance() for table in tables]
        return Relation.of(self._integrate(tables, statistics))  # type: ignore[attr-defined]


class NaiveFullDisjunction(RowOracle):
    """Unindexed complementation fixpoint (reference oracle).

    Every pair of known tuples is re-examined in every round until a round
    produces nothing new.  Use only on small inputs (tests, examples).
    """

    name = "naive"

    def __init__(self, result_name: str = "full_disjunction", max_rounds: int = 64) -> None:
        super().__init__(result_name)
        self.max_rounds = max_rounds

    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        union = outer_union(tables, name="outer_union")

        known: Dict[RowValues, Set[str]] = {}
        for values, sources in zip(union.rows, union.provenance):
            normalised = _normalise(values)
            known.setdefault(normalised, set()).update(sources)

        rounds = 0
        changed = True
        while changed:
            if rounds >= self.max_rounds:
                raise RuntimeError(
                    f"naive complementation did not converge within {self.max_rounds} rounds"
                )
            rounds += 1
            changed = False
            current_items = list(known.items())
            for (left_values, left_sources), (right_values, right_sources) in itertools.combinations(
                current_items, 2
            ):
                if not _join_consistent_same_schema(left_values, right_values):
                    continue
                merged = _merge_same_schema(left_values, right_values)
                merged_sources = set(left_sources) | set(right_sources)
                existing = known.get(merged)
                if existing is None:
                    known[merged] = merged_sources
                    changed = True
                elif not merged_sources <= existing:
                    existing.update(merged_sources)
                    changed = True

        statistics["complementation_rounds"] = float(rounds)
        statistics["complementation_tuples"] = float(len(known))
        rows: List[RowValues] = list(known.keys())
        prov: List[Provenance] = [frozenset(known[values]) for values in rows]
        return remove_subsumed(Table(self.result_name, union.schema, rows, provenance=prov))


class OuterJoinSequence(RowOracle):
    """Galindo-Legaria's all-orders outer-join characterisation of FD.

    For ``n`` input tables this evaluates ``n!`` left-deep full outer join
    sequences, so it is only usable for small ``n`` (the paper's integration
    sets contain a handful of tables).  Included both as a historical baseline
    and as a second, independently-derived oracle for the test suite.
    """

    name = "outer_join_sequence"

    def __init__(self, result_name: str = "full_disjunction", max_tables: int = 7) -> None:
        super().__init__(result_name)
        self.max_tables = max_tables

    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        if len(tables) > self.max_tables:
            raise ValueError(
                f"OuterJoinSequence evaluates n! join orders; refusing n={len(tables)} "
                f"(max {self.max_tables})"
            )
        partial_results: List[Table] = []
        orders = 0
        for order in itertools.permutations(range(len(tables))):
            orders += 1
            joined = tables[order[0]]
            for table_index in order[1:]:
                joined = full_outer_join(joined, tables[table_index])
            partial_results.append(joined)
        statistics["join_orders"] = float(orders)
        return remove_subsumed(outer_union(partial_results, name=self.result_name))
