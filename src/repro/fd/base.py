"""Shared interface and helpers for the Full Disjunction algorithms."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.table.relation import Relation, outer_union, sources, tuple_ids
from repro.table.table import Table

#: Survivors coded over the outer union's dictionaries, with their provenance
#: as pairs: union row ``inputs[k]`` is a source of survivor ``holders[k]``.
Batch = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class FullDisjunctionResult:
    """The outcome of a Full Disjunction integration.

    Attributes
    ----------
    table:
        The integrated table over the union schema.  Rows carry provenance
        (the ``TIDs`` sets of the paper's Figure 1).
    algorithm:
        Name of the algorithm that produced the result.
    input_tuple_count:
        Total number of tuples across the input tables.
    elapsed_seconds:
        Wall-clock time of the integration.
    relation:
        ``table`` coded: the HTTP adapter writes its JSON rows from these.
    statistics:
        Algorithm-specific counters (complementation rounds, merges, ...).
    """

    table: Table
    algorithm: str
    input_tuple_count: int
    elapsed_seconds: float
    relation: Relation
    statistics: Dict[str, float] = field(default_factory=dict)

    @property
    def output_tuple_count(self) -> int:
        """Number of tuples in the integrated table."""
        return self.table.num_rows


class FullDisjunctionAlgorithm:
    """Base class for Full Disjunction implementations.

    :meth:`integrate` codes its inputs (:class:`~repro.table.relation.Relation`),
    outer-unions them over one dictionary per column, and decodes the
    survivors that the subclass's :meth:`_disjunction` lists — the Full
    Disjunction itself, no subsumed tuples — once, provenance included.
    """

    #: Short registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, result_name: str = "full_disjunction") -> None:
        self.result_name = result_name

    # -- public API ----------------------------------------------------------------
    def integrate(self, tables: Sequence[Union[Table, Relation]]) -> FullDisjunctionResult:
        """Integrate ``tables`` (or relations) and return a :class:`FullDisjunctionResult`.

        Input tuples without provenance stand for themselves (``"name:row"``),
        so each output tuple reports the set of source tuple ids it merged.
        """
        if not tables:
            raise ValueError("integrate() requires at least one table")
        relations = [Relation.of(table) for table in tables]
        start = time.perf_counter()
        statistics: Dict[str, float] = {}
        integrated = self._collect(relations, statistics)
        table = integrated.to_table()
        elapsed = time.perf_counter() - start
        return FullDisjunctionResult(
            table, self.name, sum(relation.num_rows for relation in relations), elapsed, integrated, statistics
        )

    def __call__(self, tables: Sequence[Union[Table, Relation]]) -> Table:
        """Convenience: integrate and return just the table."""
        return self.integrate(tables).table

    # -- extension point -------------------------------------------------------------
    def _disjunction(self, codes: np.ndarray, statistics: Dict[str, float]) -> Batch:
        """The Full Disjunction of the outer union ``codes``."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------------
    def _collect(self, relations: Sequence[Relation], statistics: Dict[str, float]) -> Relation:
        """The survivors as one relation, their provenance decoded."""
        schema, codes, values = outer_union(relations)
        survivors, inputs, holders = self._disjunction(codes, statistics)
        provenance = sources(tuple_ids(relations), inputs, holders, survivors.shape[1])
        return Relation(self.result_name, schema, survivors, values, provenance)
