"""Component-decomposed Full Disjunction.

Tuples that never share a value in any aligned column can never be merged by
complementation, directly or transitively.  The incremental algorithm exploits
this: it partitions the outer-unioned tuples into connected components of the
value-sharing graph and closes each component independently.  On key-joined
workloads such as the IMDB benchmark the components are tiny (one per entity),
so the closure touches far fewer candidate pairs than a global pass.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.fd.base import FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, connected_components
from repro.table.coded import encode_rows
from repro.table.table import Table


class IncrementalFullDisjunction(FullDisjunctionAlgorithm):
    """Connected-component decomposition followed by per-component closure."""

    name = "incremental"
    subsumption_free = True

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)

    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        union = self._outer_union(tables)
        codes, values = encode_rows(union.rows, union.num_columns)
        components = connected_components(union.rows)
        statistics["outer_union_tuples"] = float(union.num_rows)
        statistics["components"] = float(len(components))
        closed = [
            self._engine.close_coded(
                codes[:, component], [union.provenance[index] for index in component], statistics
            )
            for component in components
        ]
        return self._reduced_table(union, values, closed)
