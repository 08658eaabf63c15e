"""Lazy (polynomial-delay-style) enumeration of Full Disjunction tuples.

Cohen et al. (VLDB 2006) showed that Full Disjunction tuples can be enumerated
with polynomial delay, which matters when a consumer only needs the first few
integrated tuples (e.g. to preview an integration in a UI) or wants to stream
them into a downstream operator without materialising the whole result.

:class:`StreamingFullDisjunction` provides that interface on top of the
incremental algorithm: connected components of the value-sharing graph are
discovered first (cheap), then closed and emitted one bounded batch after the
other (not all in one pass), so the delay between two emitted tuples is
bounded by the cost of closing a single component (or one batch of small
ones) rather than the whole input.  Collected, the emitted tuples are the
incremental algorithm's result, in its order.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.fd.base import FullDisjunctionResult
from repro.fd.incremental import IncrementalFullDisjunction
from repro.table.relation import Relation
from repro.table.table import Provenance, RowValues, Table


class StreamingFullDisjunction(IncrementalFullDisjunction):
    """The incremental algorithm with a streaming iterator API: besides
    :meth:`integrate`, :meth:`iter_tuples` yields ``(values, provenance)``
    pairs and :meth:`preview` collects the first few."""

    name = "streaming"
    #: The delay bound: input tuples per pass of the kernel (a larger component has its own).
    component_batch = 256

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
        largest_components_last: bool = False,
    ) -> None:
        super().__init__(result_name, max_tuples)
        self.largest_components_last = largest_components_last

    def iter_tuples(
        self, tables: Sequence[Table]
    ) -> Iterator[Tuple[RowValues, Provenance]]:
        """Yield Full Disjunction tuples (with provenance) component by component."""
        if tables:
            for batch in self._batches([Relation.of(table) for table in tables], {}):
                yield from zip(batch.decode(), batch.provenance)

    def preview(self, tables: Sequence[Table], limit: int = 10) -> Table:
        """Return the first ``limit`` Full Disjunction tuples as a table."""
        if not tables:
            raise ValueError("preview() requires at least one table")
        return self._collect([Relation.of(table) for table in tables], {}, limit).to_table()

    def integrate(self, tables: Sequence[Table]) -> FullDisjunctionResult:
        result = super().integrate(tables)
        result.statistics["emitted_tuples"] = float(result.table.num_rows)
        return result
