"""Tests for the shared parallel execution layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.executor import (
    EXECUTOR_BACKENDS,
    ExecutorConfig,
    partition_batches,
    run_partitioned,
)


def _square(value: int) -> int:
    return value * value


class TestExecutorConfig:
    def test_defaults_are_serial(self):
        config = ExecutorConfig()
        assert config.backend == "serial"
        assert not config.is_parallel
        assert not config.should_parallelise(10_000)

    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_known_backends_accepted(self, backend):
        assert ExecutorConfig(backend=backend).backend == backend

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutorConfig(backend="gpu")

    def test_there_is_no_process_backend(self):
        # Process-level parallelism is `repro serve --processes`, not a backend.
        assert EXECUTOR_BACKENDS == ("serial", "thread")
        with pytest.raises(ValueError, match="backend"):
            ExecutorConfig(backend="process")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"batch_size": 0},
            {"min_parallel_items": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(backend="thread", **kwargs)

    def test_single_worker_never_parallelises(self):
        config = ExecutorConfig(backend="thread", max_workers=1)
        assert not config.should_parallelise(1000)

    def test_tiny_workloads_stay_serial(self):
        config = ExecutorConfig(backend="thread", max_workers=4, min_parallel_items=10)
        assert not config.should_parallelise(9)
        assert config.should_parallelise(10)


class TestPartitionBatches:
    def test_flattening_restores_input_order(self):
        items = list(range(100))
        config = ExecutorConfig(backend="thread", max_workers=4, batch_size=7)
        batches = partition_batches(items, config)
        assert [item for batch in batches for item in batch] == items

    def test_batch_size_respected(self):
        config = ExecutorConfig(backend="thread", max_workers=2, batch_size=5)
        batches = partition_batches(list(range(23)), config)
        assert all(len(batch) <= 5 for batch in batches)

    def test_weights_split_heavy_items_apart(self):
        # One heavy item per batch once its weight exceeds the target.
        config = ExecutorConfig(backend="thread", max_workers=2, batch_size=64)
        batches = partition_batches([1000, 1000, 1000, 1000], config, weight=lambda w: w)
        assert len(batches) == 4

    def test_empty_items(self):
        assert partition_batches([], ExecutorConfig()) == []


class TestRunPartitioned:
    @pytest.mark.parametrize("backend", EXECUTOR_BACKENDS)
    def test_results_in_input_order(self, backend):
        config = ExecutorConfig(backend=backend, max_workers=2, batch_size=3,
                                min_parallel_items=0)
        items = list(range(20))
        assert run_partitioned(items, _square, config) == [_square(item) for item in items]

    def test_serial_default(self):
        assert run_partitioned([1, 2, 3], _square) == [1, 4, 9]

    def test_empty(self):
        assert run_partitioned([], _square, ExecutorConfig(backend="thread", max_workers=4)) == []

    def test_worker_exception_propagates(self):
        def explode(value: int) -> int:
            raise RuntimeError(f"boom {value}")

        config = ExecutorConfig(backend="thread", max_workers=2, batch_size=1,
                                min_parallel_items=0)
        with pytest.raises(RuntimeError, match="boom"):
            run_partitioned([1, 2, 3, 4], explode, config)

    def test_closures_allowed_on_thread_backend(self):
        offset = 7
        config = ExecutorConfig(backend="thread", max_workers=2, batch_size=1,
                                min_parallel_items=0)
        assert run_partitioned([1, 2], lambda value: value + offset, config) == [8, 9]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=40),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8))
    def test_thread_backend_equals_serial_loop(self, items, workers, batch_size):
        config = ExecutorConfig(backend="thread", max_workers=workers,
                                batch_size=batch_size, min_parallel_items=0)
        assert run_partitioned(items, _square, config) == [_square(item) for item in items]
