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

from typing import Dict

import numpy as np

from repro.fd.base import Batch, FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine


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

    def _disjunction(self, codes: np.ndarray, statistics: Dict[str, float]) -> Batch:
        statistics["outer_union_tuples"] = float(codes.shape[1])
        return self._engine.disjunction_coded(codes, statistics)
