"""Component-decomposed Full Disjunction.

Tuples that never share a value in any aligned column can never be merged by
complementation, directly or transitively, so the closure of the input is the
closures of the connected components of its value-sharing graph side by side.
The incremental algorithm labels every tuple with its component and closes
all of them in one pass of the kernel: a tuple's candidates are the holders
of its value or of *its component's* null at its most selective position
(:class:`~repro.table.coded.PairPostings`), so on a lake of several schemas,
where nearly every tuple of another schema is null there, it tests exactly
what closing each component alone would — linear where the whole-input
closure of ``alite`` is quadratic — without paying the kernel's fixed cost
once per component.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.fd.base import Batch, FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, component_roots
from repro.utils.sorting import first_of_runs, stable_order


class IncrementalFullDisjunction(FullDisjunctionAlgorithm):
    """Connected-component decomposition, then one closure of every component,
    each tuple meeting its own component's; the result lists the components
    in the order of their first input tuples, each in closure order."""

    name = "incremental"

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)

    def _disjunction(self, codes: np.ndarray, statistics: Dict[str, float]) -> Batch:
        roots = component_roots(codes)
        rows = stable_order(roots, roots.size)  # components in the order of their first tuples
        statistics["outer_union_tuples"] = float(codes.shape[1])
        statistics["components"] = float(np.count_nonzero(first_of_runs(roots[rows])))
        # A fully-null tuple is a component of its own that any tuple with
        # information subsumes: all of them go first, under label 0 (the
        # components count from 1), and the reduction folds them into the
        # survivor standing for the first tuple.
        informative = (codes >= 0).any(axis=0)
        empty, rows = np.flatnonzero(~informative), rows[informative[rows]]
        order = np.concatenate((empty, rows))
        labels = np.append(np.zeros(empty.size, dtype=np.intp), np.cumsum(first_of_runs(roots[rows])))
        return self._engine.disjunction_coded(codes[:, order], statistics, labels)
