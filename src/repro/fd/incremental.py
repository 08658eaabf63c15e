"""Component-decomposed Full Disjunction.

Tuples that never share a value in any aligned column can never be merged by
complementation, directly or transitively, so the closure of the input is the
closures of the connected components of its value-sharing graph side by side.
The incremental algorithm closes them apart: a tuple's candidates are the
holders of a value *or of null* at its most selective position, and on a lake
of several schemas nearly every tuple of another schema is null there — closed
together, two unrelated join groups of ``n`` tuples each cost ``n²``
candidate tests that closing them apart never makes.  One pass of the closure
kernel costs about as much for 3 tuples as for 300, though, so consecutive
small components share a pass: a tuple then meets at most the
:data:`COMPONENT_BATCH` tuples closed with it, which keeps the work linear in
the input.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.fd.base import Batch, FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, connected_components
from repro.table.coded import compact_codes

#: Input tuples closed at a time: consecutive components share a pass of the
#: kernel until they hold this many tuples; a larger component has its own.
COMPONENT_BATCH = 256


def _batches(components: Sequence[np.ndarray]) -> Iterator[List[np.ndarray]]:
    """Runs of consecutive components holding at most :data:`COMPONENT_BATCH`
    tuples together (or one larger component)."""
    batch: List[np.ndarray] = []
    held = 0
    for component in components:
        if batch and held + component.size > COMPONENT_BATCH:
            yield batch
            batch, held = [], 0
        batch.append(component)
        held += component.size
    if batch:
        yield batch


class IncrementalFullDisjunction(FullDisjunctionAlgorithm):
    """Connected-component decomposition, then the closure of one bounded
    batch of components after the other; the result lists the components in
    the order of their first input tuples, each in closure order."""

    name = "incremental"
    #: Close the components smallest first instead of in input order.
    largest_components_last = False

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
        components = connected_components(codes)
        statistics["outer_union_tuples"] = float(codes.shape[1])
        statistics["components"] = float(len(components))
        if self.largest_components_last:
            components = sorted(components, key=len)
        informative = (codes >= 0).any(axis=0)
        batches = list(_batches([component for component in components if informative[component[0]]]))
        # A fully-null tuple is a component of its own that any tuple with
        # information subsumes: all of them are closed with the first batch,
        # whose reduction folds them into the survivor standing for its first tuple.
        empty = np.flatnonzero(~informative)
        if empty.size:
            batches[:1] = [[empty, *(batches[0] if batches else [])]]
        for batch in batches:
            rows = np.concatenate(batch)
            # A batch of every tuple holds every code; a smaller one is renumbered densely.
            compact, present = (codes[:, rows], []) if rows.size == codes.shape[1] else compact_codes(codes[:, rows])
            survivors, inputs, holders = self._engine.disjunction_coded(
                compact,
                statistics,
                labels=np.repeat(np.arange(len(batch)), [component.size for component in batch]),
            )
            # Back from the batch's dense codes to the outer union's.
            for position, old in enumerate(present):
                survivors[position] = np.append(old, -1)[survivors[position]]
            yield survivors, rows[inputs], holders


class PartitionedFullDisjunction(IncrementalFullDisjunction):
    """The incremental algorithm under the registry name of the former
    worker-pool variant, which configurations and the ``scale`` preset use: a
    batch of components closes faster than a pool is handed them."""

    name = "partitioned"
