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

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.fd.base import Batch, FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, component_roots
from repro.table.coded import compact_codes
from repro.utils.sorting import first_of_runs, stable_order


def _batches(heads: np.ndarray, count: int, bound: float) -> Iterator[Tuple[int, int]]:
    """Spans ``low:high`` of ``count`` tuples: runs of the components starting at ``heads``, ≤ ``bound`` tuples or one component."""
    low = high = 0
    for end in heads.tolist()[1:] + [count]:
        if high > low and end - low > bound:
            yield low, high
            low = high
        high = end
    if high > low:
        yield low, high


class IncrementalFullDisjunction(FullDisjunctionAlgorithm):
    """Connected-component decomposition, then one closure of every component,
    each tuple meeting its own component's; the result lists the components
    in the order of their first input tuples, each in closure order."""

    name = "incremental"
    #: Close the components smallest first instead of in input order.
    largest_components_last = False
    #: Input tuples closed per pass of the kernel: every one.
    component_batch = float("inf")

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)

    def _disjunction(self, codes: np.ndarray, statistics: Dict[str, float]) -> Iterator[Batch]:
        """The Full Disjunction tuples of the outer union ``codes``, each batch
        of components as soon as it is closed and reduced."""
        roots = component_roots(codes)
        rows = stable_order(roots, roots.size)  # components in the order of their first tuples
        statistics["outer_union_tuples"] = float(codes.shape[1])
        statistics["components"] = float(np.count_nonzero(first_of_runs(roots[rows])))
        if self.largest_components_last:
            rows = rows[stable_order(np.bincount(roots)[roots[rows]], roots.size + 1)]
        # A fully-null tuple is a component of its own that any tuple with
        # information subsumes: all of them are closed with the first batch,
        # whose reduction folds them into the survivor standing for its first tuple.
        informative = (codes >= 0).any(axis=0)
        empty, rows = np.flatnonzero(~informative), rows[informative[rows]]
        heads = first_of_runs(roots[rows])
        for low, high in list(_batches(np.flatnonzero(heads), rows.size, self.component_batch)) or [(0, 0)] * bool(empty.size):
            # The batch's components, from 1 in closing order (a batch starts at a head); the fully-null tuples 0.
            batch, batch_labels = rows[low:high], np.cumsum(heads[low:high])
            if low == 0:
                batch, batch_labels = np.concatenate((empty, batch)), np.append(np.zeros(empty.size, dtype=np.intp), batch_labels)
            # A batch of every tuple holds every code; a smaller one is renumbered densely.
            compact, present = (codes[:, batch], []) if batch.size == codes.shape[1] else compact_codes(codes[:, batch])
            survivors, inputs, holders = self._engine.disjunction_coded(compact, statistics, batch_labels)
            # Back from the batch's dense codes to the outer union's.
            for position, old in enumerate(present):
                survivors[position] = np.append(old, -1)[survivors[position]]
            yield survivors, batch[inputs], holders


class PartitionedFullDisjunction(IncrementalFullDisjunction):
    """The incremental algorithm under the registry name of the former
    worker-pool variant, which configurations and the ``scale`` preset use:
    one labelled pass closes the components faster than a pool is handed them."""

    name = "partitioned"
