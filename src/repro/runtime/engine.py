"""Process-pool execution: one fault-tolerant map, and the sweep on it.

The pose-recovery sweep is embarrassingly parallel: every pair
regenerates deterministically from ``(dataset config, index)`` and
evaluates independently of every other pair.  So are the multi-vehicle
study's scenes.  Both run on one fault-tolerant map: it shards the item
list into contiguous chunks, runs them on a :class:`ProcessPoolExecutor`,
and reassembles results in index order — so a parallel run returns
*exactly* what a serial run returns, regardless of which worker
finished first.  :func:`run_tasks_parallel` is the map over any
picklable function; :func:`run_sweep_parallel` is the map over the
sweep's per-pair function.

Design notes:

* **Chunking** amortizes task overhead while still giving the pool ~4
  chunks per worker to balance uneven item costs.
* **Worker state** (the sweep's dataset/aligner/detector) is keyed by
  the configuration fingerprints and rebuilt only when they change, so
  consecutive sweeps over the same dataset (multi-variant studies) pay
  construction once per process.
* **The pool is kept alive** between maps: worker processes retain
  their per-process :mod:`repro.runtime.cache` feature caches, which is
  what lets an ablation study's second variant skip BV re-extraction.
* **Fault tolerance** is layered by blast radius.  An item whose
  evaluation *raises* becomes an error record in its slot — a
  ``PairErrorOutcome`` for a sweep pair, a :class:`TaskError` otherwise
  — and the chunk continues.  A chunk whose worker *dies*
  (``BrokenProcessPool``), *hangs* (``chunk_timeout``) or otherwise
  fails wholesale is resubmitted once to a freshly restarted pool —
  outstanding futures are cancelled and the broken pool is torn down
  without waiting first — and, if it fails again, runs serially
  in-process; a chunk that even the serial path cannot finish yields
  one :class:`TaskError` per item.  No single pathological item, worker
  or chunk can take down a map.
* **Telemetry** rides the chunk protocol.  The chunk runner installs a
  chunk-local :class:`~repro.runtime.timings.SweepTimings` as the
  ambient timings and instrument store, so stage seconds and counters
  recorded anywhere below it (and, when the parent traced the map, span
  events nested under ``engine/chunk``) come home as a picklable
  snapshot with the results.  The parent folds snapshots in *keyed by
  chunk* (:meth:`~repro.runtime.timings.SweepTimings.merge_chunk`), so
  the retry ladder can deliver a chunk's telemetry more than once
  without any stage being double-counted.  Retries, timeouts and serial
  fallbacks are themselves counted (``engine/*`` counters).
* **Fallback**: a pool that cannot start at all (no process support,
  pool creation refused) degrades the map to in-process execution of
  the same chunk runner, with one ``RuntimeWarning``; callers never see
  :class:`PoolUnavailableError`.
* **Shared mechanics**: pool lifecycle (lazy start, restart, idempotent
  shutdown) lives in :class:`repro.runtime.pool.WorkerPool` and retry
  *scheduling* in :data:`repro.runtime.retry.ENGINE_DEFAULT` (one
  immediate retry, then serial) — both shared with the always-on
  :mod:`repro.service`, whose indexed batches run this module's sweep
  chunks.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

from repro.baselines.vips import VipsConfig
from repro.core.config import BBAlignConfig
from repro.detection.simulated import COBEVT_PROFILE, DetectorProfile
from repro.obs.metrics import counter
from repro.obs.spans import active_collector, collect_spans, span
from repro.runtime.cache import (
    dataset_fingerprint,
    extraction_fingerprint,
    get_default_cache,
)
from repro.runtime.faults import WorkerFault
from repro.runtime.pool import (
    PoolUnavailableError,
    WorkerPool,
    resolve_workers,
)
from repro.runtime.retry import ENGINE_DEFAULT
from repro.runtime.timings import (
    SweepTimings,
    active_timings,
    stage,
    use_timings,
)
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim

__all__ = ["PoolUnavailableError", "resolve_workers", "chunk_indices",
           "run_sweep_parallel", "run_tasks_parallel", "TaskError",
           "shutdown_pool"]


def chunk_indices(num_items: int, workers: int,
                  chunk_size: int | None = None) -> list[tuple[int, ...]]:
    """Split ``range(num_items)`` into contiguous scheduling chunks.

    The default size targets ~4 chunks per worker: large enough that
    per-task pool overhead is amortized, small enough that one slow
    chunk cannot serialize the tail of the map.
    """
    if num_items <= 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, math.ceil(num_items / (max(workers, 1) * 4)))
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [tuple(range(start, min(start + chunk_size, num_items)))
            for start in range(0, num_items, chunk_size)]


@dataclass(frozen=True)
class TaskError:
    """Sentinel result for an item whose evaluation failed.

    An item that raises — even after the chunk retry ladder — occupies
    its slot in the result list with one of these instead of aborting
    the map.
    """

    index: int
    error: str
    error_type: str

    @classmethod
    def from_exception(cls, index: int, error: Exception) -> TaskError:
        return cls(index=index, error=str(error),
                   error_type=type(error).__name__)


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ChunkTask:
    """One chunk of a map: the per-item function plus its item slice.

    ``fn`` must pickle (a module-level function, or an instance of a
    module-level class); each item crosses the process boundary, so
    callers keep items small (configuration, not data) and regenerate
    heavy state in ``fn``.  ``trace_parent`` carries the parent-side map
    span id so worker spans nest under it; ``attempt`` numbers the rung
    of the retry ladder delivering the chunk (0 = first pool attempt).
    """

    indices: tuple[int, ...]
    fn: Callable
    items: tuple
    trace_parent: str | None = None
    attempt: int = 0


def _apply(fn: Callable, index: int, item):
    try:
        return fn(item)
    except Exception as error:
        counter("engine/task_errors").inc()
        return TaskError.from_exception(index, error)


def _run_chunk(task: _ChunkTask) -> tuple[int, list, dict]:
    """Evaluate one chunk; returns (first index, results, telemetry).

    Item-level exceptions become :class:`TaskError` records; only
    process-level failures (worker death, hang) escape to the parent's
    retry ladder.  ``telemetry`` is picklable: the chunk-local registry
    snapshot plus the chunk's span events when the parent traced the
    map — a chunk is an atomic, dedupable telemetry unit.
    """
    timings = SweepTimings()
    # Span collection is paid only when the parent traced the map; the
    # chunk-local timings are installed either way so counters always
    # travel home with the chunk.
    spans_cm: contextlib.AbstractContextManager
    spans_cm = (collect_spans(task.trace_parent)
                if task.trace_parent is not None
                else contextlib.nullcontext(None))
    with use_timings(timings), spans_cm as collector:
        with span("engine/chunk", first_index=task.indices[0],
                  items=len(task.indices), attempt=task.attempt):
            results = [_apply(task.fn, index, item)
                       for index, item in zip(task.indices, task.items)]
    telemetry = {"snapshot": timings.to_snapshot(),
                 "spans": collector.events if collector is not None else []}
    return task.indices[0], results, telemetry


def _run_chunk_serially(task: _ChunkTask) -> tuple[int, list, dict]:
    """Last rung: run a chunk in-process; even that failing yields
    one error record per item instead of an exception."""
    try:
        return _run_chunk(task)
    except Exception as error:
        results = [TaskError.from_exception(index, error)
                   for index in task.indices]
        return task.indices[0], results, {"snapshot": {}, "spans": []}


# ----------------------------------------------------------------------
# Parent side.  The engine keeps one module-global WorkerPool so worker
# processes retain their per-process feature caches across maps; the
# lifecycle mechanics live in repro.runtime.pool, shared with the
# service.
# ----------------------------------------------------------------------
_POOL: WorkerPool | None = None


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL
    if _POOL is None or _POOL.workers != workers:
        shutdown_pool()
        _POOL = WorkerPool(workers)
    return _POOL.executor()


def shutdown_pool(wait: bool = True, cancel_futures: bool = False) -> None:
    """Tear down the shared pool (tests; failure recovery; exit).

    Idempotent: a second invocation (or one with no pool running) is a
    no-op.

    Args:
        wait: block until workers exit.  The failure-recovery path and
            the interpreter-exit hook pass ``False`` so a dead or hung
            worker cannot wedge the caller.
        cancel_futures: cancel queued-but-unstarted chunks, so a serial
            fallback never races chunks still draining out of a
            half-broken pool.
    """
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=wait, cancel_futures=cancel_futures)
        _POOL = None


def _shutdown_pool_at_exit() -> None:
    # Non-blocking on purpose: a hung worker must not wedge interpreter
    # exit; orphaned processes drain on their own once the call queue
    # closes.
    shutdown_pool(wait=False, cancel_futures=True)


atexit.register(_shutdown_pool_at_exit)


def _collect_chunks(pool: ProcessPoolExecutor, tasks: list[_ChunkTask],
                    per_chunk: dict[int, tuple], merged: SweepTimings,
                    chunk_timeout: float | None) -> list[_ChunkTask]:
    """Submit ``tasks`` and gather results; returns the failed ones.

    Successful chunks land in ``per_chunk`` keyed by first index and
    their telemetry folds into ``merged`` (chunk-keyed, so a chunk
    retried by the ladder replaces rather than adds).  Any per-chunk
    failure — worker death, timeout, serialization error, an exception
    escaping the worker — is returned for the retry ladder, never
    raised.
    """
    failed: list[_ChunkTask] = []
    futures: list[tuple] = []
    for task in tasks:
        try:
            futures.append((pool.submit(_run_chunk, task), task))
        except Exception:  # pool died between submits
            failed.append(task)
    for future, task in futures:
        try:
            first_index, results, telemetry = future.result(
                timeout=chunk_timeout)
        except TimeoutError:
            merged.registry.counter("engine/chunk_timeouts").inc()
            failed.append(task)
        except Exception:
            merged.registry.counter("engine/chunk_failures").inc()
            failed.append(task)
        else:
            per_chunk[first_index] = (results, telemetry)
            merged.merge_chunk(first_index, telemetry["snapshot"])
    return failed


def _map(fn: Callable, items, workers: int, chunk_size: int | None,
         chunk_timeout: float | None, timings: SweepTimings | None,
         span_name: str) -> list:
    """The fault-tolerant map behind both public entry points.

    Chunks go to the pool; failures are resubmitted to a restarted pool
    per :data:`~repro.runtime.retry.ENGINE_DEFAULT`, then run serially
    in-process.  A pool that cannot start sends every pending chunk
    straight to the serial rung.  Worker span events are re-emitted
    into the caller's collector (chunk-deduplicated, in chunk order)
    under a parent-side ``span_name`` span.
    """
    chunks = chunk_indices(len(items), workers, chunk_size)
    if not chunks:
        return []
    collector = active_collector()
    merged = SweepTimings()
    start = time.perf_counter()
    with span(span_name, items=len(items), workers=workers,
              chunks=len(chunks)) as map_span:
        trace_parent = map_span.span_id if map_span is not None else None
        failed = [_ChunkTask(indices, fn, tuple(items[i] for i in indices),
                             trace_parent)
                  for indices in chunks]
        merged.registry.counter("engine/chunks").inc(len(chunks))
        per_chunk: dict[int, tuple] = {}
        for attempt, delay in enumerate((0.0, *ENGINE_DEFAULT.delays())):
            if attempt:
                # Retry the failures on a fresh pool.  Cancel anything
                # still queued and tear the old pool down without
                # waiting, so the retry (and a possible serial fallback)
                # never races chunks still running in half-broken
                # workers.
                shutdown_pool(wait=False, cancel_futures=True)
                merged.registry.counter("engine/chunk_retries").inc(
                    len(failed))
                if delay > 0:
                    time.sleep(delay)
            failed = [replace(task, attempt=attempt) for task in failed]
            try:
                pool = _get_pool(workers)
            except PoolUnavailableError as error:
                warnings.warn(
                    f"process pool unavailable ({error}); falling back "
                    "to in-process serial execution",
                    RuntimeWarning, stacklevel=3)
                break
            failed = _collect_chunks(pool, failed, per_chunk, merged,
                                     chunk_timeout)
            if not failed:
                break
        if failed:
            shutdown_pool(wait=False, cancel_futures=True)
        for task in failed:
            merged.registry.counter("engine/serial_fallbacks").inc()
            first_index, results, telemetry = _run_chunk_serially(
                replace(task, attempt=attempt + 1))
            per_chunk[first_index] = (results, telemetry)
            merged.merge_chunk(first_index, telemetry["snapshot"])

        ordered: list = []
        for first_index in sorted(per_chunk):
            results, telemetry = per_chunk[first_index]
            ordered.extend(results)
            if collector is not None:
                for event in telemetry["spans"]:
                    collector.emit(event)
    if timings is not None:
        merged.workers = workers
        merged.wall_seconds = time.perf_counter() - start
        timings.merge(merged)
    return ordered


def run_tasks_parallel(fn: Callable, items, *, workers: int | None = None,
                       chunk_size: int | None = None,
                       chunk_timeout: float | None = None,
                       timings: SweepTimings | None = None) -> list:
    """Fault-tolerant parallel map of ``fn`` over ``items``.

    Returns one result per item, in item order, exactly as a serial
    ``[fn(item) for item in items]`` would — except an item whose
    evaluation raises yields a :class:`TaskError` in its slot rather
    than an exception.  Chunks ride the retry ladder (failed chunk →
    fresh pool → in-process serial); a pool that cannot start degrades
    the whole map to in-process execution.  ``workers=1`` runs serially
    without touching the pool.  Chunk telemetry merges into ``timings``
    when given; worker spans nest under a parent-side ``engine/map``
    span when tracing.

    ``fn`` must be a module-level function and every item picklable.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1:
        return [_apply(fn, index, item) for index, item in enumerate(items)]
    return _map(fn, items, workers, chunk_size, chunk_timeout, timings,
                "engine/map")


# ----------------------------------------------------------------------
# The pose-recovery sweep: the map over a per-pair function.  Module
# globals are per-process: each pool worker keeps its own constructed
# state and reuses it across the pairs (and sweeps) it is handed,
# rebuilding only when the configuration changes.
# ----------------------------------------------------------------------
_WORKER_STATE_KEY: tuple | None = None
_WORKER_STATE: tuple | None = None


@dataclass(frozen=True)
class _SweepPair:
    """Evaluates sweep pair ``index``; the sweep's per-item function.

    Only configuration travels to the worker — frame pairs regenerate
    there from ``(dataset_config, index)``, so no point clouds cross the
    process boundary.  Stage seconds and the pair count go to the
    ambient timings — chunk-local inside :func:`_run_chunk`.
    """

    dataset_config: DatasetConfig
    config: BBAlignConfig | None
    detector_profile: DetectorProfile
    include_vips: bool
    vips_config: VipsConfig | None
    seed: int
    fault: WorkerFault | None = None

    def state_key(self) -> tuple:
        return (dataset_fingerprint(self.dataset_config),
                repr(self.config), repr(self.detector_profile))

    def _state(self) -> tuple:
        global _WORKER_STATE_KEY, _WORKER_STATE
        key = self.state_key()
        if _WORKER_STATE is None or key != _WORKER_STATE_KEY:
            from repro.core.pipeline import BBAlign
            from repro.detection.simulated import SimulatedDetector
            aligner = BBAlign(self.config)
            _WORKER_STATE = (V2VDatasetSim(self.dataset_config), aligner,
                             SimulatedDetector(self.detector_profile),
                             dataset_fingerprint(self.dataset_config),
                             extraction_fingerprint(aligner.config))
            _WORKER_STATE_KEY = key
        return _WORKER_STATE

    def __call__(self, index: int):
        """The pair's outcome; a pair whose evaluation raises becomes a
        :class:`~repro.experiments.common.PairErrorOutcome` — one
        degraded data point — and the chunk moves on."""
        # Imported here (not at module top) so the runtime package
        # carries no import-time dependency on the experiments package.
        from repro.experiments.common import PairErrorOutcome, evaluate_pair

        timings = active_timings()
        if timings is not None:
            timings.pairs += 1
        try:
            if self.fault is not None:
                self.fault.maybe_fire(index)
            dataset, aligner, detector, ds_fp, ext_fp = self._state()
            with span("engine/pair", index=index):
                with stage(timings, "data_generation"):
                    record = dataset[index]
                return evaluate_pair(
                    record, aligner, detector, seed=self.seed,
                    include_vips=self.include_vips,
                    vips_config=self.vips_config, cache=get_default_cache(),
                    dataset_fp=ds_fp, extraction_fp=ext_fp, timings=timings)
        except Exception as error:
            counter("engine/pair_errors").inc()
            return PairErrorOutcome.from_exception(index, error)


def run_sweep_parallel(
        dataset_config: DatasetConfig,
        *,
        num_pairs: int,
        config: BBAlignConfig | None = None,
        detector_profile: DetectorProfile = COBEVT_PROFILE,
        include_vips: bool = True,
        vips_config: VipsConfig | None = None,
        seed: int = 7,
        workers: int | None = None,
        chunk_size: int | None = None,
        timings: SweepTimings | None = None,
        chunk_timeout: float | None = None,
        fault: WorkerFault | None = None):
    """Run the pose-recovery sweep on the fault-tolerant map.

    Returns the same outcome list (same ordering, same values) the
    serial sweep produces: one ``PairOutcome`` per pair — or a
    ``PairErrorOutcome`` for a pair whose evaluation failed.  Per-chunk
    stage timings are merged into ``timings`` when given; merged stage
    seconds are CPU-seconds summed across workers, while
    ``wall_seconds`` reflects the pool's elapsed time as seen from the
    parent.  When tracing, worker spans nest under a parent-side
    ``engine/sweep`` span.  ``chunk_timeout`` bounds each chunk's wall
    time on the pool; ``fault`` injects a
    :class:`~repro.runtime.faults.WorkerFault` for robustness testing.
    """
    pair = _SweepPair(dataset_config, config, detector_profile,
                      include_vips, vips_config, seed, fault)
    return _map(pair, range(num_pairs), resolve_workers(workers),
                chunk_size, chunk_timeout, timings, "engine/sweep")
