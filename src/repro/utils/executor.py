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

Large read-only constants (an embedding matrix every item slices, say) must
**not** be captured inside ``fn``: the process backend pickles ``fn`` once
per dispatched batch, so captured megabytes would cross the pipe once per
batch.  Pass them via ``shared=`` instead — ``run_partitioned`` then calls
``fn(item, **shared)``, binding the arrays directly on the serial and thread
paths and handing the process pool memmap *handles* (publish once to disk,
attach once per worker, see :mod:`repro.storage.shared`) so only the small
batch items and a few-hundred-byte handle ever cross the pipe.

Backends
--------
``"serial"``
    A plain loop — the baseline and the fallback for tiny workloads.
``"thread"``
    ``concurrent.futures.ThreadPoolExecutor``.  Pays off when the per-item
    work releases the GIL (numpy scoring, scipy assignments) or blocks on IO;
    zero serialisation cost, shared memory.
``"process"``
    ``concurrent.futures.ProcessPoolExecutor``.  True CPU parallelism for
    pure-Python work at the price of pickling ``fn`` and every batch; ``fn``
    must be a module-level callable (or a ``functools.partial`` of one).

Determinism guarantees
----------------------
``run_partitioned(items, fn, config)`` returns exactly
``[fn(item) for item in items]`` for *every* backend and worker count —
serial == thread == process, element for element.  Three design decisions
make that hold:

* **Contiguous batches.**  :func:`partition_batches` only ever groups
  *adjacent* items, so flattening the batches restores the exact input
  order; no hashing, no work stealing, no arrival-order dependence.
* **Positional merge.**  The parallel paths collect ``pool.map`` results in
  batch-submission order and flatten them positionally; nothing is merged
  by completion time.
* **No shared mutable state.**  ``fn`` receives one item and returns one
  result; the executor never passes accumulators between workers.

Consequently a caller may treat the executor configuration as a pure
performance knob: changing ``backend``, ``max_workers`` or ``batch_size``
can never change a result, only its latency.  ``weight`` steers batch
balancing only — it affects *which* batch an item lands in, never the order
results come back in.  ``tests/utils/test_executor.py`` and
``tests/matching/test_parallel_matching.py`` assert these guarantees
(byte-identical matches across serial/thread/process at 1/2/4 workers).
"""

from __future__ import annotations

import atexit
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Executor backends accepted by :class:`ExecutorConfig`.
EXECUTOR_BACKENDS = ("serial", "thread", "process")


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


def contiguous_ranges(
    count: int, config: ExecutorConfig, *, min_chunk: int = 256
) -> List[tuple]:
    """Split ``range(count)`` into contiguous ``(start, stop)`` spans.

    The span-per-item shape :func:`run_partitioned` wants for *indexable*
    workloads: when every item is "positions ``start:stop`` of one shared
    array", dispatching spans instead of elements keeps the pickled batch a
    few tuples regardless of workload size, and each worker slices its rows
    out of the ``shared=`` array locally.  Spans follow the same ~four-slots-
    per-worker sizing as :func:`partition_batches` so one slow span cannot
    serialise the pool, but never drop below ``min_chunk`` positions — a span
    must outweigh its dispatch overhead.  Flattening the spans in order
    restores ``range(count)`` exactly, preserving the positional-merge
    guarantee.
    """
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be >= 1, got {min_chunk}")
    if count <= 0:
        return []
    slots = max(1, 4 * config.max_workers)
    size = max(min_chunk, -(-count // slots))
    return [(start, min(count, start + size)) for start in range(0, count, size)]


def _apply_batch(fn: Callable[[ItemT], ResultT], batch: Sequence[ItemT]) -> List[ResultT]:
    """Apply ``fn`` to one batch (module-level so process pools can pickle it)."""
    return [fn(item) for item in batch]


#: Long-lived process pools keyed by worker count.  Worker processes pay a
#: full interpreter + numpy import at startup, so spinning a pool per call
#: (one per column pair, say) would cost more than it saves; pools live until
#: interpreter exit instead.  Thread pools are cheap and stay per-call.
_PROCESS_POOLS: Dict[int, object] = {}
_PROCESS_POOL_LOCK = threading.Lock()


def _process_pool(workers: int):
    """A shared ``ProcessPoolExecutor`` with ``workers`` workers.

    Uses the ``forkserver`` start method (falling back to ``spawn``) rather
    than ``fork``: callers like ``IntegrationEngine.integrate_many`` invoke
    this from worker *threads*, and forking a multi-threaded parent can
    deadlock children on locks held by unrelated threads.  Both safe methods
    require ``fn`` to be importable in a fresh interpreter — which
    :func:`run_partitioned` demands anyway.
    """
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    with _PROCESS_POOL_LOCK:
        pool = _PROCESS_POOLS.get(workers)
        if pool is None:
            try:
                context = multiprocessing.get_context("forkserver")
            except ValueError:  # pragma: no cover - platform without forkserver
                context = multiprocessing.get_context("spawn")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            _PROCESS_POOLS[workers] = pool
        return pool


@atexit.register
def _shutdown_process_pools() -> None:  # pragma: no cover - interpreter exit
    with _PROCESS_POOL_LOCK:
        for pool in _PROCESS_POOLS.values():
            pool.shutdown(wait=False, cancel_futures=True)
        _PROCESS_POOLS.clear()


def _discard_process_pool(workers: int, pool: object) -> None:
    """Drop a broken shared pool so the next request builds a fresh one.

    Identity-checked under the lock: a concurrent caller may already have
    replaced the entry, and discarding *its* healthy pool would cascade the
    failure.
    """
    with _PROCESS_POOL_LOCK:
        if _PROCESS_POOLS.get(workers) is pool:
            del _PROCESS_POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


#: Worker-death recovery counters (cumulative, process-wide).
_RECOVERY_LOCK = threading.Lock()
_RECOVERY_COUNTERS: Dict[str, int] = {
    "pool_rebuilds": 0,
    "serial_fallbacks": 0,
    "batches_retried": 0,
}


def executor_statistics() -> Dict[str, int]:
    """Cumulative worker-death recovery counters of the process backend.

    ``pool_rebuilds`` counts broken pools replaced, ``batches_retried`` the
    batches re-dispatched after a break, ``serial_fallbacks`` the times a
    rebuilt pool broke again and the remaining batches ran in-process.
    """
    with _RECOVERY_LOCK:
        return dict(_RECOVERY_COUNTERS)


def _run_process_batches(
    task: Callable[[ItemT], ResultT],
    batches: Sequence[Sequence[ItemT]],
    config: ExecutorConfig,
) -> List[List[ResultT]]:
    """Run the batches on the shared process pool, surviving worker death.

    A worker that dies mid-batch (``os._exit``, OOM-kill, segfault) breaks
    the whole ``ProcessPoolExecutor``: every unfinished future raises
    ``BrokenProcessPool``.  The completed batches' results are kept; the
    broken pool is discarded, a fresh one is built, and only the failed
    batches are re-dispatched — positionally, so the merged result is still
    ``[fn(item) for item in items]`` exactly.  If the rebuilt pool breaks
    too, the remaining batches run serially in this process (progress over
    parallelism).  Exceptions *raised by the task itself* propagate
    unchanged — recovery only engages on pool breakage.
    """
    from concurrent.futures.process import BrokenProcessPool

    results: List[Optional[List[ResultT]]] = [None] * len(batches)
    pending = list(range(len(batches)))
    for attempt in range(2):
        pool = _process_pool(config.max_workers)
        futures = {}
        failed: List[int] = []
        for index in pending:
            try:
                futures[index] = pool.submit(_apply_batch, task, batches[index])
            except (BrokenProcessPool, RuntimeError):
                # The pool broke (or was shut down) between submissions.
                failed.append(index)
        for index, future in futures.items():
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                failed.append(index)
        if not failed:
            return results  # type: ignore[return-value]
        failed.sort()
        _discard_process_pool(config.max_workers, pool)
        with _RECOVERY_LOCK:
            _RECOVERY_COUNTERS["batches_retried"] += len(failed)
            if attempt == 0:
                _RECOVERY_COUNTERS["pool_rebuilds"] += 1
        pending = failed
    # Two broken pools in a row: stop gambling on worker processes and finish
    # the remaining batches in this one.
    with _RECOVERY_LOCK:
        _RECOVERY_COUNTERS["serial_fallbacks"] += 1
    for index in pending:
        results[index] = _apply_batch(task, batches[index])
    return results  # type: ignore[return-value]


def run_partitioned(
    items: Sequence[ItemT],
    fn: Callable[..., ResultT],
    config: ExecutorConfig = SERIAL_EXECUTOR,
    *,
    weight: Optional[Callable[[ItemT], float]] = None,
    shared: Optional[Mapping[str, "object"]] = None,
) -> List[ResultT]:
    """Return ``[fn(item) for item in items]``, possibly executed in parallel.

    Results are always in input order, whatever the backend — the parallel
    paths dispatch contiguous batches and reassemble them positionally, so a
    caller that merges results sequentially gets output identical to the
    serial loop.  A worker exception propagates to the caller unchanged.

    For the ``"process"`` backend ``fn`` (and every item and result) must be
    picklable; pass a module-level function or a ``functools.partial`` over
    one.  ``weight`` estimates the relative cost of one item (e.g. cost-matrix
    cells) and steers the batch balancing; it never affects the results.

    ``shared`` maps keyword names to large read-only ``numpy`` arrays that
    every item needs; ``fn`` is then called as ``fn(item, **shared)``.  On
    the serial and thread paths the arrays are bound directly (zero copies).
    On the process path they are published once to memmap files and workers
    attach on first use (:mod:`repro.storage.shared`), so batches carry only
    items and handles — never the arrays.  Binding through ``shared`` never
    changes results, only what crosses the process pipe.
    """
    items = list(items)
    if not items:
        return []
    if not config.should_parallelise(len(items)):
        return _run_serial(items, fn, shared)

    batches = partition_batches(items, config, weight)
    if len(batches) <= 1:
        return _run_serial(items, fn, shared)
    workers = min(config.max_workers, len(batches))

    if config.backend == "thread":
        from concurrent.futures import ThreadPoolExecutor

        task = fn if shared is None else _bind_shared_in_memory(fn, shared)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batch_results = list(pool.map(_apply_batch, [task] * len(batches), batches))
    else:  # "process" — shared long-lived pool (submitting is thread-safe)
        if shared is None:
            batch_results = _run_process_batches(fn, batches, config)
        else:
            from repro.storage.shared import SharedArrayBinding, SharedArrays

            with SharedArrays(shared) as region:
                task = SharedArrayBinding(fn, shared, region.handles)
                batch_results = _run_process_batches(task, batches, config)

    flattened: List[ResultT] = []
    for batch_result in batch_results:
        flattened.extend(batch_result)
    return flattened


def _run_serial(
    items: Sequence[ItemT],
    fn: Callable[..., ResultT],
    shared: Optional[Mapping[str, "object"]],
) -> List[ResultT]:
    """The plain loop, with ``shared`` bound as keyword arguments if given."""
    if shared is None:
        return [fn(item) for item in items]
    return [fn(item, **shared) for item in items]


def _bind_shared_in_memory(
    fn: Callable[..., ResultT], shared: Mapping[str, "object"]
) -> Callable[[ItemT], ResultT]:
    """Bind ``shared`` directly for in-process execution (no serialisation)."""

    def bound(item: ItemT) -> ResultT:
        return fn(item, **shared)

    return bound
