"""Shared interface and helpers for the Full Disjunction algorithms."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.table.operations import outer_union
from repro.table.table import Table


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
    statistics:
        Algorithm-specific counters (complementation rounds, merges, ...).
    """

    table: Table
    algorithm: str
    input_tuple_count: int
    elapsed_seconds: float
    statistics: Dict[str, float] = field(default_factory=dict)

    @property
    def output_tuple_count(self) -> int:
        """Number of tuples in the integrated table."""
        return self.table.num_rows


class FullDisjunctionAlgorithm(abc.ABC):
    """Base class for Full Disjunction implementations.

    Subclasses implement :meth:`_integrate`, which returns the Full
    Disjunction itself (no subsumed tuples), and inherit input validation,
    provenance bookkeeping and timing from :meth:`integrate`.
    """

    #: Short registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, result_name: str = "full_disjunction") -> None:
        self.result_name = result_name

    # -- public API ----------------------------------------------------------------
    def integrate(self, tables: Sequence[Table]) -> FullDisjunctionResult:
        """Integrate ``tables`` and return a :class:`FullDisjunctionResult`.

        Input tables that lack provenance get default singleton provenance so
        that each output tuple reports the set of source tuple ids it merged.
        """
        if not tables:
            raise ValueError("integrate() requires at least one table")
        prepared = [
            table if table.provenance is not None else table.with_default_provenance()
            for table in tables
        ]
        input_tuple_count = sum(table.num_rows for table in prepared)
        start = time.perf_counter()
        statistics: Dict[str, float] = {}
        integrated = self._integrate(prepared, statistics)
        elapsed = time.perf_counter() - start
        integrated = integrated.with_name(self.result_name)
        return FullDisjunctionResult(
            table=integrated,
            algorithm=self.name,
            input_tuple_count=input_tuple_count,
            elapsed_seconds=elapsed,
            statistics=statistics,
        )

    def __call__(self, tables: Sequence[Table]) -> Table:
        """Convenience: integrate and return just the table."""
        return self.integrate(tables).table

    # -- extension point -------------------------------------------------------------
    @abc.abstractmethod
    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        """Produce the integrated table, without subsumed tuples."""

    # -- shared helpers ---------------------------------------------------------------
    @staticmethod
    def _outer_union(tables: Sequence[Table]) -> Table:
        """Outer union of the inputs with plain nulls and preserved provenance."""
        return outer_union(tables, name="outer_union")
