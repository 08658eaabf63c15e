"""Partition-parallel Full Disjunction (after Paganelli et al. 2019).

The component decomposition of :mod:`repro.fd.incremental` makes the closure
embarrassingly parallel: every connected component is an independent work
unit.  This implementation distributes components through the shared parallel
execution layer (:mod:`repro.utils.executor`), so the backend (serial /
thread / process), worker bound and component batching are the same knobs the
blocked value matcher and the integration engine use — one
:class:`~repro.utils.executor.ExecutorConfig` end to end.  Because the
closure is mostly pure Python, the thread backend's speed-up on CPython is
modest (the GIL); the process backend ships each batch of components to a
worker process instead.  For single-threaded use it degrades gracefully to
the incremental algorithm.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fd.base import FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, connected_components
from repro.table.coded import encode_rows
from repro.table.table import Provenance, Table
from repro.utils.executor import ExecutorConfig, run_partitioned

#: One work unit: the coded tuples and provenance sets of one connected component.
ComponentWork = Tuple[np.ndarray, List[Provenance]]


def _close_component(
    engine: ComplementationEngine, work: ComponentWork
) -> Tuple[np.ndarray, List[Provenance], Dict[str, float]]:
    """Close one component (module-level so process pools can pickle it).

    Each worker records its closure counters into a private dict (sharing
    one dict across a pool would race); the caller sums them.
    """
    statistics: Dict[str, float] = {}
    codes, provenance = engine.close_coded(work[0], work[1], statistics)
    return codes, provenance, statistics


class PartitionedFullDisjunction(FullDisjunctionAlgorithm):
    """Per-component complementation executed by a worker pool."""

    name = "partitioned"
    subsumption_free = True

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
        max_workers: int = 4,
        min_parallel_components: int = 8,
        backend: str = "thread",
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)
        self.min_parallel_components = min_parallel_components
        self.executor = ExecutorConfig(
            backend=backend,
            max_workers=max_workers,
            min_parallel_items=min_parallel_components,
        )

    @property
    def max_workers(self) -> int:
        """Worker bound of the executor (kept for back-compat introspection)."""
        return self.executor.max_workers

    def configure_executor(self, config: ExecutorConfig) -> None:
        """Adopt pipeline-wide executor settings (called by ``FuzzyFDConfig``).

        The component threshold below which the work stays serial is an
        algorithm property, not a pipeline one, so the incoming config's
        ``min_parallel_items`` is replaced by the constructor's
        ``min_parallel_components``.
        """
        self.executor = ExecutorConfig(
            backend=config.backend,
            max_workers=config.max_workers,
            batch_size=config.batch_size,
            min_parallel_items=self.min_parallel_components,
        )

    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        union = self._outer_union(tables)
        codes, values = encode_rows(union.rows, union.num_columns)
        components = connected_components(union.rows)
        statistics["outer_union_tuples"] = float(union.num_rows)
        statistics["components"] = float(len(components))

        work: List[ComponentWork] = [
            (codes[:, component], [union.provenance[index] for index in component])
            for component in components
        ]
        closed = run_partitioned(
            work,
            partial(_close_component, self._engine),
            self.executor,
            weight=lambda item: len(item[1]),
        )
        for _, _, closed_statistics in closed:
            for key, value in closed_statistics.items():
                statistics[key] = statistics.get(key, 0.0) + value
        if self.executor.should_parallelise(len(work)):
            statistics["parallel_workers"] = float(self.executor.max_workers)
            statistics["parallel_backend_" + self.executor.backend] = 1.0
        return self._reduced_table(union, values, [part[:2] for part in closed])
