"""ALITE-style Full Disjunction (the paper's integration substrate [18]).

The algorithm is the one Khatiwada et al. use for integrating data-lake
tables: outer union all input tables over their aligned (union) schema, close
the resulting tuple set under *complementation* (merging join-consistent
tuples), and finally drop subsumed tuples.  The complementation step here is
posting-indexed — a tuple is only compared with the tuples that hold its most
selective value or a null in that column — which is what makes the IMDB-scale
runtime experiment (Figure 3) feasible.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.fd.base import FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine
from repro.table.coded import decode_rows, encode_rows
from repro.table.table import Table


class AliteFullDisjunction(FullDisjunctionAlgorithm):
    """Outer union → indexed complementation closure → subsumption removal."""

    name = "alite"

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)

    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        union = self._outer_union(tables)
        statistics["outer_union_tuples"] = float(union.num_rows)
        codes, values = encode_rows(union.rows, union.num_columns)
        # Only the surviving tuples are ever decoded back to cell values.
        survivors, provenance = self._engine.disjunction_coded(codes, union.provenance, statistics)
        rows = decode_rows(survivors, values)
        return Table(self.result_name, union.schema, rows, provenance=provenance)
