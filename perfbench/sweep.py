"""The ``sweep`` workload: the paper-reproduction pair sweep.

Each timed operation is one cold sweep, ``shutdown_pool()`` followed by
``run_pose_recovery_sweep(default_dataset(PAIRS, seed), include_vips=True,
workers=2)``.  Shutting the engine's module-global pool down first
drops the workers' per-process feature caches, so no sweep reads
features a previous one extracted; a sweep whose cache hit ratio is not
0 fails the run.

A run sweeps each of ``DATASETS`` distinct datasets once (dataset 0
uses the workload seed itself, the others seeds derived from it) and
keeps cycling over them until ``--seconds`` have passed.  Every sweep of
a dataset must reproduce the outcome digest of its first sweep, in this
run and in earlier runs of the same program sources (see
:class:`~perfbench.common.DigestStore`).  Quality (success and accuracy)
is scored once per distinct pair.

Pool workers record their stage seconds into the ``SweepTimings``
passed as ``timings=``; the ledger reads them from there.  Merged stage
seconds are worker seconds summed over workers, so the ledger divides
them by the worker count to put them on the sweep's wall clock.
"""

from __future__ import annotations

import time

from perfbench.common import (
    WorkloadResult,
    derived_seed,
    digest,
    median,
    percentile,
)
from perfbench.ledger import format_table, layer_metrics, registry_ledger

PAIRS = 10
DATASETS = 16
WORKERS = 2
WARMUPS = 3
WARM_PAIRS = 2

# Worker stages the ledger lists, as (row, stage) pairs.  ``bev.projection``
# and ``features.match`` are the remainders of their parent stages.
_STAGE_ROWS = (
    ("simulation", "data_generation"),
    ("detection", "detection"),
    ("bev.mim", "bv_extract/mim"),
    ("features.fast", "bv_extract/keypoints"),
    ("features.descriptors", "bv_extract/descriptors"),
    ("features.nn", "stage1_match/nn"),
    ("geometry.ransac", "stage1_match/ransac"),
    ("features.flip", "stage1_match/flip"),
    ("core.box_alignment", "stage2_align"),
    ("baselines.vips", "baseline"),
)


def _pair_record(outcome) -> tuple:
    if hasattr(outcome, "error_type"):
        return (outcome.index, "error", outcome.error_type)
    return (outcome.index, outcome.success, outcome.inliers_bv,
            outcome.inliers_box, outcome.tx, outcome.ty, outcome.theta)


def _cold_sweep(dataset):
    """One timed operation; returns (wall seconds, outcomes, timings)."""
    from repro.experiments.common import run_pose_recovery_sweep
    from repro.runtime.engine import shutdown_pool
    from repro.runtime.timings import SweepTimings

    timings = SweepTimings()
    start = time.perf_counter()
    shutdown_pool()
    outcomes = run_pose_recovery_sweep(dataset, include_vips=True,
                                       workers=WORKERS, timings=timings)
    return time.perf_counter() - start, outcomes, timings


def _traced_sweep(dataset, ledger):
    """A cold sweep with the layer wrappers installed; returns (segment
    wall, sweep wall, timings, outcomes)."""
    began = time.perf_counter()
    ledger.install()
    try:
        wall, outcomes, timings = _cold_sweep(dataset)
    finally:
        ledger.uninstall()
    return time.perf_counter() - began, wall, timings, outcomes


def run(seed: int, seconds: float, trace: bool, ledger, store,
        calibrator) -> WorkloadResult:
    from repro.experiments.common import PairErrorOutcome, default_dataset
    from repro.runtime.engine import shutdown_pool
    from repro.runtime.timings import SweepTimings

    result = WorkloadResult("sweep")
    datasets = [default_dataset(PAIRS, seed if d == 0
                                else derived_seed(seed, d))
                for d in range(DATASETS)]
    warm = default_dataset(WARM_PAIRS, derived_seed(seed, 0x57A))
    warm_s = []
    for _ in range(WARMUPS):
        warm_s.append(_cold_sweep(warm)[0])
        result.setup_samples.append(calibrator.sample())
    result.setup_s = median(warm_s)

    walls: list[float] = []
    scaled: list[float] = []
    first_digest: dict[int, str] = {}
    quality: dict[int, list] = {}
    hits = misses = retries = 0
    traced_walls: list[float] = []
    traced_timings = SweepTimings()
    ledger_wall = 0.0
    start = time.perf_counter()
    op = 0
    while op < DATASETS or time.perf_counter() - start < seconds:
        d = op % DATASETS
        # Traced and untraced sweeps of a dataset alternate in order.
        traced_first = trace and op % 2 == 1
        if traced_first:
            traced = _traced_sweep(datasets[d], ledger)
        if trace or not walls:
            # The kernel ran right after the previous untraced sweep
            # unless a traced one ran since.
            after = calibrator.sample()
        before = after
        wall, outcomes, timings = _cold_sweep(datasets[d])
        after = calibrator.sample()
        scaled.append(wall * calibrator.factor(before, after))
        if trace and not traced_first:
            traced = _traced_sweep(datasets[d], ledger)
        walls.append(wall)
        result.attempted += len(outcomes)
        result.failed += sum(isinstance(o, PairErrorOutcome)
                             for o in outcomes)
        sweep_digest = digest(_pair_record(o) for o in outcomes)
        if d in first_digest:
            result.check(f"sweep digest repeat (dataset {d}, op {op})",
                         sweep_digest == first_digest[d], sweep_digest[:16])
        else:
            first_digest[d] = sweep_digest
            quality[d] = outcomes
            store.check(result, f"sweep-{seed}-d{d}", sweep_digest)
        result.check(f"pairs returned (op {op})", len(outcomes) == PAIRS,
                     f"{len(outcomes)}/{PAIRS}")
        for run_timings in (timings, traced[2]) if trace else (timings,):
            hits += run_timings.cache_hits
            misses += run_timings.cache_misses
            op_retries = run_timings.registry.counter(
                "engine/chunk_retries").value
            retries += op_retries
            result.check(f"cold cache (op {op})",
                         run_timings.cache_hits == 0,
                         f"{run_timings.cache_hits} hits")
            result.check(f"no chunk retries (op {op})", op_retries == 0)
        if trace:
            segment_wall, traced_wall, op_timings, traced_outcomes = traced
            traced_walls.append(traced_wall)
            traced_timings.merge(op_timings)
            ledger_wall += segment_wall
            result.check(f"traced digest (dataset {d}, op {op})",
                         digest(_pair_record(o) for o in traced_outcomes)
                         == sweep_digest)
        op += 1
    shutdown_pool()

    scored = [o for d in sorted(quality) for o in quality[d]]
    good = [o for o in scored if not isinstance(o, PairErrorOutcome)]
    success_rate = sum(o.success for o in good) / len(scored)
    accurate_rate = sum(o.errors.within() for o in good) / len(scored)
    pairs_per_s = result.attempted / sum(scaled)
    result.end_to_end = {
        "throughput_per_s": pairs_per_s,
        "latency_p50_ms": median(scaled) * 1000.0,
        "latency_p90_ms": percentile(scaled, 0.9) * 1000.0,
    }
    result.named = [
        ("sweep.pairs_per_s", pairs_per_s, "1/s"),
        ("sweep.success_rate", success_rate, "share"),
        ("sweep.accurate_rate", accurate_rate, "share"),
        ("sweep.sweep_p50_ms", median(scaled) * 1000.0, "ms"),
    ]
    result.report.append(
        f"sweep: {len(walls)} cold sweeps of {PAIRS} pairs over "
        f"{DATASETS} datasets, measured {result.attempted / sum(walls):.3f} "
        f"pairs/s; outcome digest "
        f"{digest(first_digest[d] for d in sorted(first_digest))[:16]}")
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    result.report.append(f"sweep: runtime.cache.hit_ratio {hit_ratio:g}, "
                         f"runtime.engine.chunk_retries {retries}")
    result.per_layer["runtime.engine.chunk_retries"] = retries
    result.per_layer["runtime.cache.hit_ratio"] = hit_ratio
    if trace:
        _ledger(result, traced_timings, traced_walls, walls, ledger_wall)
    return result


def _ledger(result: WorkloadResult, timings, traced_walls: list[float],
            walls: list[float], ledger_wall: float) -> None:
    seconds = dict(timings.seconds)
    counts = {name: timings.stage_count(name) for name in seconds}
    rows = [(row, seconds.get(stage, 0.0) / WORKERS, counts.get(stage, 0))
            for row, stage in _STAGE_ROWS]
    extract = seconds.get("bv_extract", 0.0) - sum(
        seconds.get(f"bv_extract/{part}", 0.0)
        for part in ("mim", "keypoints", "descriptors"))
    rows.insert(2, ("bev.projection", extract / WORKERS,
                    counts.get("bv_extract", 0)))
    match = seconds.get("stage1_match", 0.0) - sum(
        seconds.get(f"stage1_match/{part}", 0.0)
        for part in ("nn", "ransac", "flip"))
    rows.insert(9, ("features.match", match / WORKERS,
                    counts.get("stage1_match", 0)))
    pool_s = sum(traced_walls) - timings.stage_seconds_total / WORKERS
    rows.append(("runtime.engine.pool", pool_s, len(traced_walls)))
    unattributed = ledger_wall - sum(row[1] for row in rows)
    by_row = {row: value for row, value, _ in rows}

    # Counts come from the wrappers the forked workers inherited; times
    # from the stage seconds the engine returns.
    result.per_layer.update(layer_metrics(registry_ledger(timings.registry)))
    result.per_layer.update({
        "simulation.busy_s": by_row["simulation"],
        "detection.busy_s": by_row["detection"],
        "bev.projection_s": by_row["bev.projection"],
        "bev.mim_s": by_row["bev.mim"],
        "features.fast_s": by_row["features.fast"],
        "features.descriptors_s": by_row["features.descriptors"],
        "features.nn_s": by_row["features.nn"],
        "geometry.ransac_s": by_row["geometry.ransac"],
        "core.box_alignment_s": by_row["core.box_alignment"],
        "baselines.vips_s": by_row["baselines.vips"],
        "runtime.engine.pool_s": pool_s,
        "unattributed_s": unattributed,
        "trace_overhead_s": sum(traced_walls) - sum(walls),
    })
    result.report.extend(format_table(
        "sweep", rows, ledger_wall, unattributed,
        note=f"worker stage seconds / {WORKERS} workers; "
             f"{len(traced_walls)} traced sweeps"))
    result.report.append(
        f"  tracing overhead: traced {sum(traced_walls):.3f} s - "
        f"untraced {sum(walls):.3f} s = "
        f"{sum(traced_walls) - sum(walls):+.3f} s")
