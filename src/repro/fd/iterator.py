"""Lazy (polynomial-delay-style) enumeration of Full Disjunction tuples.

Cohen et al. (VLDB 2006) showed that Full Disjunction tuples can be enumerated
with polynomial delay, which matters when a consumer only needs the first few
integrated tuples (e.g. to preview an integration in a UI) or wants to stream
them into a downstream operator without materialising the whole result.

:class:`StreamingFullDisjunction` provides that interface on top of the
component decomposition used by the incremental algorithm: connected
components of the value-sharing graph are discovered first (cheap), and each
component is then closed and emitted independently, so the delay between two
emitted tuples is bounded by the cost of closing a single component rather
than the whole input.  The union of the emitted tuples equals the result of
the eager algorithms (a property checked by the test suite).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.fd.base import FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, connected_components
from repro.table.coded import decode_rows, encode_rows
from repro.table.nulls import NULL
from repro.table.subsumption import reduce_coded
from repro.table.table import Provenance, RowValues, Table


class StreamingFullDisjunction(FullDisjunctionAlgorithm):
    """Component-at-a-time Full Disjunction with a streaming iterator API.

    Besides the usual :meth:`integrate`, the class exposes
    :meth:`iter_tuples`, a generator yielding ``(values, provenance)`` pairs;
    tuples of one connected component are emitted as soon as that component is
    closed and de-duplicated, before later components are even touched.
    """

    name = "streaming"
    subsumption_free = True

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
        largest_components_last: bool = False,
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)
        self.largest_components_last = largest_components_last

    # -- streaming API ----------------------------------------------------------------
    def iter_tuples(
        self, tables: Sequence[Table]
    ) -> Iterator[Tuple[RowValues, Provenance]]:
        """Yield Full Disjunction tuples (with provenance) component by component."""
        if tables:
            yield from self._iter_union(self._outer_union(tables))

    def _iter_union(self, union: Table) -> Iterator[Tuple[RowValues, Provenance]]:
        codes, values = encode_rows(union.rows, union.num_columns)
        components = connected_components(union.rows)
        if self.largest_components_last:
            components = sorted(components, key=len)
        # Fully-null tuples are subsumed by any tuple with information: they
        # are never emitted, and the first emitted tuple carries their provenance.
        informative = (codes >= 0).any(axis=0)
        leftover = frozenset().union(
            *(union.provenance[index] for index in np.flatnonzero(~informative).tolist())
        )
        for component in components:
            if not informative[component[0]]:
                continue
            closed, provenance = self._engine.close_coded(
                codes[:, component], [union.provenance[index] for index in component]
            )
            # Subsumption removal is local to the component: tuples of different
            # components can never subsume each other because they never share a
            # non-null value.
            kept, provenance = reduce_coded(closed, provenance)
            for row, sources in zip(decode_rows(closed[:, kept], values), provenance):
                yield row, sources | leftover
                leftover = frozenset()
        if union.num_rows and not informative.any():
            yield (NULL,) * union.num_columns, leftover

    def preview(self, tables: Sequence[Table], limit: int = 10) -> Table:
        """Return the first ``limit`` Full Disjunction tuples as a table."""
        if not tables:
            raise ValueError("preview() requires at least one table")
        return self._collect(self._outer_union(tables), limit)

    def _collect(self, union: Table, limit: int | None = None) -> Table:
        emitted = list(islice(self._iter_union(union), limit))
        return Table(
            self.result_name,
            union.schema,
            [values for values, _ in emitted],
            provenance=[sources for _, sources in emitted],
        )

    # -- eager API (FullDisjunctionAlgorithm) --------------------------------------------
    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        integrated = self._collect(self._outer_union(tables))
        statistics["emitted_tuples"] = float(integrated.num_rows)
        return integrated
