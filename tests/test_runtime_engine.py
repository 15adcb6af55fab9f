"""Tests for the parallel sweep engine (repro.runtime.engine)."""

import warnings

import pytest

from repro.experiments.common import default_dataset, run_pose_recovery_sweep
from repro.runtime import engine
from repro.runtime.engine import (
    PoolUnavailableError,
    chunk_indices,
    resolve_workers,
)
from repro.runtime.pool import WorkerPool
from repro.runtime.timings import SweepTimings


class TestChunking:
    def test_chunks_cover_all_indices_contiguously(self):
        chunks = chunk_indices(10, workers=3)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))

    def test_explicit_chunk_size(self):
        chunks = chunk_indices(7, workers=2, chunk_size=3)
        assert chunks == [(0, 1, 2), (3, 4, 5), (6,)]

    def test_empty_dataset(self):
        assert chunk_indices(0, workers=4) == []

    def test_default_targets_four_chunks_per_worker(self):
        chunks = chunk_indices(80, workers=2)
        assert len(chunks) == 8

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1


class TestParallelDeterminism:
    def test_parallel_matches_serial(self):
        """workers=4 must produce byte-identical outcomes to workers=1."""
        dataset = default_dataset(6, seed=11)
        serial = run_pose_recovery_sweep(dataset, include_vips=True,
                                         workers=1, cache=False)
        parallel = run_pose_recovery_sweep(dataset, include_vips=True,
                                           workers=4)
        assert serial == parallel

    def test_parallel_records_timings(self):
        timings = SweepTimings()
        dataset = default_dataset(4, seed=12)
        outcomes = run_pose_recovery_sweep(dataset, include_vips=False,
                                           workers=2, timings=timings)
        assert len(outcomes) == 4
        assert timings.pairs == 4
        assert timings.workers == 2
        assert timings.wall_seconds > 0
        assert timings.seconds.get("bv_extract", 0) > 0


class TestFallback:
    def test_falls_back_to_serial_when_pool_unavailable(self, monkeypatch):
        """A pool that refuses to start degrades the sweep and the
        generic map alike to in-process execution, with one warning."""
        def refuse(self):
            raise PoolUnavailableError("pool refused (test)")

        engine.shutdown_pool()
        monkeypatch.setattr(WorkerPool, "executor", refuse)
        dataset = default_dataset(3, seed=13)
        items = list(range(5))
        cases = [
            (lambda: run_pose_recovery_sweep(dataset, include_vips=False,
                                             workers=4, cache=False),
             run_pose_recovery_sweep(dataset, include_vips=False,
                                     workers=1, cache=False)),
            (lambda: engine.run_tasks_parallel(_square, items, workers=3),
             engine.run_tasks_parallel(_square, items, workers=1)),
        ]
        for run, serial in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run()
            fallbacks = [w for w in caught
                         if "falling back" in str(w.message)]
            assert len(fallbacks) == 1
            assert fallbacks[0].category is RuntimeWarning
            assert result == serial

    def test_single_pair_dataset_stays_serial(self, monkeypatch):
        def must_not_run(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("pool path taken for 1-pair dataset")

        monkeypatch.setattr(engine, "run_sweep_parallel", must_not_run)
        dataset = default_dataset(1, seed=14)
        outcomes = run_pose_recovery_sweep(dataset, include_vips=False,
                                           workers=4, cache=False)
        assert len(outcomes) == 1


def _square(x):
    return x * x


def _increment_positive(x):
    if x < 0:
        raise ValueError(f"bad item {x}")
    return x + 1


class TestTasksParallel:
    def test_serial_path_matches_comprehension(self):
        items = list(range(7))
        assert engine.run_tasks_parallel(_square, items, workers=1) \
            == [x * x for x in items]

    def test_pool_matches_serial(self):
        items = list(range(9))
        serial = engine.run_tasks_parallel(_square, items, workers=1)
        parallel = engine.run_tasks_parallel(_square, items, workers=3)
        engine.shutdown_pool()
        assert parallel == serial

    def test_item_error_degrades_not_aborts(self):
        out = engine.run_tasks_parallel(_increment_positive, [1, -2, 3],
                                        workers=1)
        assert out[0] == 2 and out[2] == 4
        assert isinstance(out[1], engine.TaskError)
        assert out[1].index == 1
        assert out[1].error_type == "ValueError"

    def test_pool_item_error_in_slot(self):
        out = engine.run_tasks_parallel(_increment_positive,
                                        [5, -1, 6, 7], workers=2)
        engine.shutdown_pool()
        assert [r for r in out if not isinstance(r, engine.TaskError)] \
            == [6, 7, 8]
        assert isinstance(out[1], engine.TaskError)

    def test_empty_items(self):
        assert engine.run_tasks_parallel(_square, [], workers=4) == []

    def test_timings_count_task_errors(self):
        timings = SweepTimings()
        engine.run_tasks_parallel(_increment_positive, [1, -2, -3],
                                  workers=2, timings=timings)
        engine.shutdown_pool()
        assert timings.registry.counter("engine/task_errors").value == 2
