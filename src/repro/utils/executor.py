"""Shared parallel execution layer for partitioned workloads.

Two layers of the pipeline are embarrassingly parallel over independent
partitions: the component-wise blocked matcher solves one assignment per
connected component, and the :class:`~repro.core.engine.IntegrationEngine`
can serve independent integration requests concurrently.  This module is the
one abstraction they share:

* :class:`ExecutorConfig` — the validated knob set (``backend``,
  ``max_workers``, ``batch_size``, ``min_parallel_items``), carried end to end
  from :class:`~repro.core.config.FuzzyFDConfig` / the CLI down to the worker
  pools.
* :func:`run_partitioned` — ``[fn(item) for item in items]`` executed over the
  configured backend.  Items are grouped into contiguous, weight-balanced
  *batches* before dispatch so thousands of tiny partitions (the singleton-
  dominated candidate graphs of data-lake columns) amortise the per-task
  executor overhead, and results are always returned in input order — callers
  get a byte-identical merge regardless of backend or worker count.

Backends
--------
``"serial"``
    A plain loop — the baseline and the fallback for tiny workloads.
``"thread"``
    ``concurrent.futures.ThreadPoolExecutor``.  Pays off when the per-item
    work releases the GIL (numpy scoring, scipy assignments); zero
    serialisation cost, shared memory.

There is no per-call process backend: it paid a pickle of ``fn`` and every
batch per call and measured 0.06–0.10× serial in ``BENCH_parallel.json``.
Process-level parallelism lives in one place, ``repro serve --processes N``
(:mod:`repro.service.processes`), which forks warm servers once at boot.

Determinism guarantees
----------------------
``run_partitioned(items, fn, config)`` returns exactly
``[fn(item) for item in items]`` for *every* backend and worker count —
serial == thread, element for element.  Three design decisions make that
hold:

* **Contiguous batches.**  :func:`partition_batches` only ever groups
  *adjacent* items, so flattening the batches restores the exact input
  order; no hashing, no work stealing, no arrival-order dependence.
* **Positional merge.**  The thread path collects ``pool.map`` results in
  batch-submission order and flattens them positionally; nothing is merged
  by completion time.
* **No shared mutable state.**  ``fn`` receives one item and returns one
  result; the executor never passes accumulators between workers.

Consequently a caller may treat the executor configuration as a pure
performance knob: changing ``backend``, ``max_workers`` or ``batch_size``
can never change a result, only its latency.  ``weight`` steers batch
balancing only — it affects *which* batch an item lands in, never the order
results come back in.  ``tests/utils/test_executor.py`` and
``tests/matching/test_parallel_matching.py`` assert these guarantees
(byte-identical matches across serial/thread at 1/2/4 workers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Executor backends accepted by :class:`ExecutorConfig`.
EXECUTOR_BACKENDS = ("serial", "thread")


@dataclass(frozen=True)
class ExecutorConfig:
    """How a partitioned workload is executed.

    Attributes
    ----------
    backend:
        One of :data:`EXECUTOR_BACKENDS`.  ``"serial"`` ignores every other
        knob.
    max_workers:
        Upper bound on concurrent workers; ``1`` degrades any backend to the
        serial loop (no pool is ever created).
    batch_size:
        Maximum number of items per dispatched batch.  Batching is what makes
        thousands of sub-millisecond partitions worth parallelising at all.
    min_parallel_items:
        Workloads with fewer items than this run serially — a pool spin-up
        costs more than it saves on a handful of items.
    """

    backend: str = "serial"
    max_workers: int = 1
    batch_size: int = 64
    min_parallel_items: int = 4

    def __post_init__(self) -> None:
        if self.backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"backend must be one of {list(EXECUTOR_BACKENDS)}, got {self.backend!r}"
            )
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.min_parallel_items < 0:
            raise ValueError(
                f"min_parallel_items must be >= 0, got {self.min_parallel_items}"
            )

    @property
    def is_parallel(self) -> bool:
        """Whether this configuration can ever dispatch to a pool."""
        return self.backend != "serial" and self.max_workers > 1

    def should_parallelise(self, item_count: int) -> bool:
        """Whether a workload of ``item_count`` items goes to a pool."""
        return self.is_parallel and item_count >= self.min_parallel_items


#: The serial default, shared so callers don't allocate one per call site.
SERIAL_EXECUTOR = ExecutorConfig()


def partition_batches(
    items: Sequence[ItemT],
    config: ExecutorConfig,
    weight: Optional[Callable[[ItemT], float]] = None,
) -> List[List[ItemT]]:
    """Group ``items`` into contiguous batches balanced by total ``weight``.

    Contiguity is what keeps the merge deterministic: flattening the batches
    restores the exact input order.  Each batch holds at most
    ``config.batch_size`` items and roughly ``total_weight / (4 × workers)``
    weight (four batches per worker smooths out skewed partitions — one giant
    connected component doesn't serialise the whole pool behind it).
    """
    if not items:
        return []
    weights = [1.0 if weight is None else max(0.0, float(weight(item))) for item in items]
    total = sum(weights)
    slots = max(1, 4 * config.max_workers)
    target = total / slots if total > 0 else 0.0

    batches: List[List[ItemT]] = []
    current: List[ItemT] = []
    current_weight = 0.0
    for item, item_weight in zip(items, weights):
        if current and (
            len(current) >= config.batch_size
            or (target > 0.0 and current_weight + item_weight > target)
        ):
            batches.append(current)
            current = []
            current_weight = 0.0
        current.append(item)
        current_weight += item_weight
    if current:
        batches.append(current)
    return batches


def run_partitioned(
    items: Sequence[ItemT],
    fn: Callable[[ItemT], ResultT],
    config: ExecutorConfig = SERIAL_EXECUTOR,
    *,
    weight: Optional[Callable[[ItemT], float]] = None,
) -> List[ResultT]:
    """Return ``[fn(item) for item in items]``, possibly executed in parallel.

    Results are always in input order, whatever the backend — the thread
    path dispatches contiguous batches and reassembles them positionally, so
    a caller that merges results sequentially gets output identical to the
    serial loop.  A worker exception propagates to the caller unchanged.
    ``weight`` estimates the relative cost of one item (e.g. cost-matrix
    cells) and steers the batch balancing; it never affects the results.
    """
    items = list(items)
    if not config.should_parallelise(len(items)):
        return [fn(item) for item in items]
    batches = partition_batches(items, config, weight)
    if len(batches) <= 1:
        return [fn(item) for item in items]

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(config.max_workers, len(batches))) as pool:
        batch_results = list(pool.map(lambda batch: [fn(item) for item in batch], batches))
    return [result for batch_result in batch_results for result in batch_result]
