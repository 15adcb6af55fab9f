"""Simulation kernel benchmarks and the end-to-end pipeline trajectory.

Measures the vectorized simulation hot path — cached world geometry,
sector-culled ray casting in :func:`simulate_scan`, the batched
rotated-rectangle clip behind :func:`iou_matrix` — against the kept
pre-rework implementations, then times a full serial
``run_success_rate``-shaped sweep (40 pairs, ``include_vips=False``)
three-sided: the pre-rework pipeline ("before"), the current default
configuration ("after", byte-identical outcomes to "before"), and the
headline configuration with overlap-ROI culling enabled ("roi").
Results go to ``benchmarks/results/BENCH_pipeline.json`` (schema
documented in ``docs/api.md``) so future PRs accumulate a perf
trajectory alongside ``BENCH_stage1.json``.

The "before" side is the real pre-rework code: the per-ray / per-rank
occlusion loops of :func:`_reference_simulate_scan`, per-object
``pose_at`` world placement (:func:`_reference_generate_world`),
per-point pose evaluation for motion de-skew, the all-pairs visibility
loop (:func:`_reference_visible_objects`), the scalar ``bev_iou``
candidate loop (:func:`_reference_iou_matrix`), the pre-rework dataset
loop (which never screened doomed attempts early) — and the
pre-stage-1-wave-2 extraction kernels: the scratch-allocating Log-Gabor
bank pass, the wave-1 FAST packing, the unfused BV projection, and
serial (unbatched) per-car extraction.  All sides run the identical
sweep orchestration with the feature cache disabled.

Timing assertions are tolerant by default (shared CI runners make
wall-clock flaky); set ``REPRO_BENCH_STRICT=1`` to enforce the
acceptance bars (>= 2.5x ``simulate_scan``, >= 1.8x end-to-end, >= 2.0x
``bv_extract`` before -> roi).  Output-equivalence assertions always
run: every benchmark rep's sweep outcomes are compared field-by-field
across before/after, and the ROI side's success agreement with the
default configuration is pinned as deterministic fields.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.bev._fft import fft2 as _fft2, ifft2 as _ifft2
from repro.bev.log_gabor import LogGaborBank
from repro.bev.projection import _reference_height_map
from repro.bev.roi import RoiCullConfig
from repro.boxes import matching as matching_module
from repro.boxes.box import Box2D
from repro.boxes.iou import _reference_iou_matrix, iou_matrix
from repro.core import bv_matching as bv_matching_module
from repro.core.config import BBAlignConfig
from repro.experiments import common as common_module
from repro.experiments.common import default_dataset, run_pose_recovery_sweep
from repro.geometry.polygon import (
    convex_polygon_area,
    convex_polygon_clip,
    convex_polygon_clip_batch,
)
from repro.geometry.se2 import SE2
from repro.pointcloud.distortion import MotionState
from repro.runtime.timings import SweepTimings
from repro.simulation import lidar as lidar_module
from repro.simulation import scenario as scenario_module
from repro.simulation import world as world_module
from repro.simulation.dataset import V2VDatasetSim
from repro.simulation.lidar import (
    LidarConfig,
    _reference_simulate_scan,
    simulate_scan,
)
from repro.simulation.world import ScenarioKind, WorldConfig, generate_world

SWEEP_PAIRS = 40
SWEEP_SEED = 2024
_STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
_SCAN_TARGET = 2.5
_PIPELINE_TARGET = 1.8
_BV_EXTRACT_TARGET = 2.0
_ROUNDS = int(os.environ.get("REPRO_BENCH_PIPELINE_ROUNDS", "3"))

#: The headline sweep configuration: everything at its default except
#: overlap-ROI culling, which is the opt-in half of the stage-1 wave-2
#: rework (the other half is byte-identical and on by default).
_ROI_CONFIG = BBAlignConfig(roi=RoiCullConfig(enabled=True))


def _once(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def _ab_best(before_fn, after_fn, rounds: int = 5) -> tuple[float, float]:
    """Interleaved A/B timing in milliseconds: alternate the two sides
    round-robin and keep each side's best, so slow drift of the host
    (shared VMs swing +-40% over tens of seconds) biases neither side."""
    before = after = float("inf")
    for _ in range(rounds):
        before = min(before, _once(before_fn))
        after = min(after, _once(after_fn))
    return before, after


def _cloud_bytes(cloud) -> tuple:
    return (cloud.points.tobytes(),
            None if cloud.timestamps is None else cloud.timestamps.tobytes(),
            None if cloud.labels is None else cloud.labels.tobytes())


def _outcome_sig(outcome) -> tuple:
    errors = outcome.errors
    return (outcome.index, outcome.scenario_kind, outcome.success,
            outcome.num_matches, outcome.num_common, outcome.inliers_bv,
            outcome.inliers_box, outcome.message_bytes,
            repr(errors.__dict__ if hasattr(errors, "__dict__")
                 else errors))


def _random_boxes(rng: np.random.Generator, n: int) -> list[Box2D]:
    return [Box2D(float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)),
                  float(rng.uniform(3.5, 5.5)), float(rng.uniform(1.6, 2.2)),
                  float(rng.uniform(-np.pi, np.pi))) for _ in range(n)]


@pytest.fixture(scope="module")
def report() -> dict:
    return {
        "schema_version": 2,
        "config": {
            "num_pairs": SWEEP_PAIRS,
            "seed": SWEEP_SEED,
            "include_vips": False,
            "workers": 1,
            "rounds": _ROUNDS,
            "strict": _STRICT,
        },
        "kernels": {},
    }


def test_simulate_scan_kernel(report):
    """Sector-culled, cached-geometry scan vs the pre-rework ray loop."""
    rng = np.random.default_rng(11)
    world = generate_world(WorldConfig(kind=ScenarioKind.SUBURBAN), rng)
    pose = SE2(0.35, 4.0, -1.5)
    config = LidarConfig()
    motion = MotionState(velocity_x=9.0, velocity_y=0.0, yaw_rate=0.05)

    # Byte identity first (fresh generator per call, same stream).
    for seed in (5, 6):
        new = simulate_scan(world, pose, config,
                            rng=np.random.default_rng(seed), motion=motion)
        ref = _reference_simulate_scan(world, pose, config,
                                       rng=np.random.default_rng(seed),
                                       motion=motion)
        assert _cloud_bytes(new) == _cloud_bytes(ref)

    # The identity runs above also primed the world's cached obstacle
    # arrays, so the timing measures the steady state the sweep sees
    # (each world is scanned twice and re-scanned across attempts).
    timing_rng = np.random.default_rng(7)
    before, after = _ab_best(
        lambda: _reference_simulate_scan(world, pose, config,
                                         rng=timing_rng, motion=motion),
        lambda: simulate_scan(world, pose, config,
                              rng=timing_rng, motion=motion),
        rounds=7)
    speedup = before / after
    report["kernels"]["simulate_scan"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(speedup, 2), "target_speedup": _SCAN_TARGET}
    if _STRICT:
        assert speedup >= _SCAN_TARGET, (
            f"simulate_scan speedup {speedup:.2f}x is below the "
            f"{_SCAN_TARGET}x acceptance bar")


def test_generate_world_kernel(report):
    """Batched road-frame placement vs per-object ``pose_at``."""
    config = WorldConfig(kind=ScenarioKind.URBAN)
    # Equality at the consumer: identical worlds produce identical scans.
    for seed in (3, 4):
        new_world = generate_world(config, np.random.default_rng(seed))
        ref_world = world_module._reference_generate_world(
            config, np.random.default_rng(seed))
        pose = SE2(0.0, 0.0, 0.0)
        new = simulate_scan(new_world, pose, rng=np.random.default_rng(1))
        ref = simulate_scan(ref_world, pose, rng=np.random.default_rng(1))
        assert _cloud_bytes(new) == _cloud_bytes(ref)

    before, after = _ab_best(
        lambda: world_module._reference_generate_world(
            config, np.random.default_rng(12)),
        lambda: generate_world(config, np.random.default_rng(12)),
        rounds=7)
    report["kernels"]["generate_world"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2)}


def test_iou_matrix_kernel(report):
    """Batched-clip IoU matrix vs the scalar ``bev_iou`` candidate loop."""
    rng = np.random.default_rng(21)
    boxes_a = _random_boxes(rng, 24)
    boxes_b = _random_boxes(rng, 24)
    new = iou_matrix(boxes_a, boxes_b)
    ref = _reference_iou_matrix(boxes_a, boxes_b)
    assert np.array_equal(new, ref)

    before, after = _ab_best(
        lambda: _reference_iou_matrix(boxes_a, boxes_b),
        lambda: iou_matrix(boxes_a, boxes_b), rounds=7)
    report["kernels"]["iou_matrix"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2),
        "num_boxes": [len(boxes_a), len(boxes_b)]}


def test_polygon_clip_batch_kernel(report):
    """Batched Sutherland-Hodgman vs the per-pair scalar clip."""
    rng = np.random.default_rng(31)
    pairs = 200
    subjects = np.stack([b.corners() for b in _random_boxes(rng, pairs)])
    shift = rng.uniform(-2.0, 2.0, size=(pairs, 1, 2))
    clips = subjects[::-1].copy() * rng.uniform(0.8, 1.2) + shift

    verts, counts = convex_polygon_clip_batch(subjects, clips)
    scalar_areas = np.array([
        convex_polygon_area(convex_polygon_clip(subjects[p], clips[p]))
        for p in range(pairs)])
    batch_areas = np.array([
        convex_polygon_area(verts[p, :counts[p]]) if counts[p] >= 3 else 0.0
        for p in range(pairs)])
    np.testing.assert_allclose(batch_areas, scalar_areas,
                               rtol=1e-12, atol=1e-12)

    before, after = _ab_best(
        lambda: [convex_polygon_clip(subjects[p], clips[p])
                 for p in range(pairs)],
        lambda: convex_polygon_clip_batch(subjects, clips), rounds=7)
    report["kernels"]["polygon_clip_batch"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2), "num_pairs": pairs}


def _wave1_orientation_amplitude_sum(self, image):
    """The bank pass as it stood after stage-1 wave 1: packed real
    windows over the shared FFT backend, but fresh scratch allocations
    on every call (wave 2 moved these into the bank's reusable
    workspace).  Bitwise-identical outputs."""
    cfg = self.config
    image_fft = _fft2(self._check_image(image)).astype(np.complex64)
    fview = image_fft.view(np.float32)
    scaled = np.empty((cfg.num_scales, self.size, 2 * self.size),
                      dtype=np.float32)
    for s in range(cfg.num_scales):
        np.multiply(fview, self._radial_packed[s], out=scaled[s])
    sums = np.empty((cfg.num_orientations, self.size, self.size),
                    dtype=np.float32)
    product = np.empty((self.size, self.size), dtype=np.complex64)
    pview = product.view(np.float32)
    magnitude = np.empty((self.size, self.size), dtype=np.float32)
    for o in range(cfg.num_orientations):
        acc = sums[o]
        np.multiply(scaled[0], self._angular_packed[o], out=pview)
        np.abs(_ifft2(product, overwrite=True), out=acc)
        for s in range(1, cfg.num_scales):
            np.multiply(scaled[s], self._angular_packed[o], out=pview)
            np.abs(_ifft2(product, overwrite=True), out=magnitude)
            acc += magnitude
    return sums


def _serial_features_for_pair(aligner, pair, index, cache, dataset_fp,
                              extraction_fp, timings):
    """The pre-wave-2 pair handling: each car extracted independently
    (no shared bank pass, no priors)."""
    ego = common_module._features_for(
        aligner, pair.ego_cloud, "ego", index, cache, dataset_fp,
        extraction_fp, timings)
    other = common_module._features_for(
        aligner, pair.other_cloud, "other", index, cache, dataset_fp,
        extraction_fp, timings)
    return ego, other


def _stage1_baseline_patches(patch) -> None:
    """Swap the pre-wave-2 stage-1 extraction kernels into the sweep:
    the scratch-allocating bank pass, wave-1 FAST packing, the unfused
    BV projection, and serial per-car extraction.  All four are
    byte-identical to the current defaults, so the before side's sweep
    outcomes still compare field-identical."""
    from test_stage1_kernels import _wave1_detect_fast

    patch.setattr(LogGaborBank, "orientation_amplitude_sum",
                  _wave1_orientation_amplitude_sum)
    patch.setattr(bv_matching_module, "detect_fast", _wave1_detect_fast)
    patch.setattr(bv_matching_module, "height_map", _reference_height_map)
    patch.setattr(common_module, "_features_for_pair",
                  _serial_features_for_pair)


def _baseline_patches(patch) -> None:
    """Swap the pre-rework simulation pipeline into the production sweep.

    Everything the sweep's data-generation stage calls goes back to its
    kept ``_reference_*`` twin, and the dataset loop loses this PR's
    early-rejection screen — the "before" side is the pipeline as it
    existed before this rework, running the identical orchestration.
    """
    patch.setattr(scenario_module, "simulate_scan",
                  _reference_simulate_scan)
    patch.setattr(scenario_module, "generate_world",
                  world_module._reference_generate_world)
    patch.setattr(scenario_module, "_visible_objects",
                  scenario_module._reference_visible_objects)

    def _reference_compensate(cloud, motion, scan_duration, azimuth_steps):
        return scenario_module.compensate_self_motion_distortion(
            cloud, motion, scan_duration)

    patch.setattr(scenario_module, "_compensate_on_grid",
                  _reference_compensate)
    patch.setattr(matching_module, "iou_matrix", _reference_iou_matrix)
    original_attempt = V2VDatasetSim._attempt
    patch.setattr(
        V2VDatasetSim, "_attempt",
        lambda self, index, attempt, min_common=0:
        original_attempt(self, index, attempt, 0))


def _timed_sweep(config=None) -> tuple[list, SweepTimings, float]:
    timings = SweepTimings()
    start = time.perf_counter()
    outcomes = run_pose_recovery_sweep(
        default_dataset(SWEEP_PAIRS, SWEEP_SEED), config=config,
        include_vips=False, workers=1, cache=False, timings=timings)
    return outcomes, timings, time.perf_counter() - start


def test_pipeline_end_to_end(report, results_dir, monkeypatch):
    """Serial 40-pair sweep: pre-rework vs current default vs ROI.

    Interleaves the three sides round-robin and keeps each side's best
    round (wall clock and its per-stage breakdown).  Every round's
    outcomes are checked deterministic per side; before/after outcomes
    are checked field-identical, so that speedup is over a
    byte-equivalent computation.  The ROI side changes which keypoints
    exist by design, so its relation to the default is pinned as
    deterministic agreement counts instead, and the headline
    ``bv_extract`` speedup is measured before -> roi.
    """
    sides = (("after", None, False),
             ("roi", _ROI_CONFIG, False),
             ("before", None, True))
    best: dict = {name: (float("inf"), {}) for name, _, _ in sides}
    sigs: dict = {}
    for _ in range(_ROUNDS):
        for name, config, patched in sides:
            if patched:
                with monkeypatch.context() as patch:
                    _baseline_patches(patch)
                    _stage1_baseline_patches(patch)
                    outcomes, timings, elapsed = _timed_sweep(config)
            else:
                outcomes, timings, elapsed = _timed_sweep(config)
            side_sigs = [_outcome_sig(o) for o in outcomes]
            sigs.setdefault(name, side_sigs)
            assert side_sigs == sigs[name], (
                f"{name} sweep is not deterministic across rounds")
            if elapsed < best[name][0]:
                best[name] = (elapsed, dict(timings.seconds))

    # The default configuration must be byte-equivalent to the
    # pre-rework pipeline, outcome by outcome.
    assert sigs["after"] == sigs["before"]
    # ROI culling flips discrete outputs on occasional pairs; pin its
    # agreement with the default as deterministic fields (and insist it
    # never costs more than one success on the seeded sweep).
    success_at = 2  # position of `success` in _outcome_sig
    successes_default = sum(s[success_at] for s in sigs["after"])
    successes_roi = sum(s[success_at] for s in sigs["roi"])
    success_parity = sum(a[success_at] == b[success_at]
                         for a, b in zip(sigs["after"], sigs["roi"]))
    assert successes_roi >= successes_default - 1
    assert success_parity >= int(0.95 * SWEEP_PAIRS)

    before_s, before_stages = best["before"]
    after_s, after_stages = best["roi"]
    after_default_s, _ = best["after"]
    speedup = before_s / after_s
    stage_speedups = {
        name: round(before_stages[name] / after_stages[name], 2)
        for name in sorted(before_stages)
        if name in after_stages and after_stages[name] > 0}
    report["end_to_end"] = {
        "before_s": round(before_s, 3),
        "after_s": round(after_s, 3),
        "after_default_s": round(after_default_s, 3),
        "speedup": round(speedup, 2),
        "target_speedup": _PIPELINE_TARGET,
        "bv_extract_target": _BV_EXTRACT_TARGET,
        "strict": _STRICT,
        "num_outcomes": len(sigs["after"]),
        "successes_default": int(successes_default),
        "successes_roi": int(successes_roi),
        "success_parity": int(success_parity),
        "stages_before_s": {k: round(v, 3)
                            for k, v in sorted(before_stages.items())},
        "stages_after_s": {k: round(v, 3)
                           for k, v in sorted(after_stages.items())},
        "stage_speedups": stage_speedups,
    }

    out_path = results_dir / "BENCH_pipeline.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    lines = [f"BENCH_pipeline ({SWEEP_PAIRS} pairs, serial, "
             f"after = ROI culling):"]
    for name, row in report["kernels"].items():
        lines.append(f"  {name:>22}  {row['before_ms']:9.1f} ms -> "
                     f"{row['after_ms']:8.1f} ms  ({row['speedup']:.2f}x)")
    e2e = report["end_to_end"]
    lines.append(f"  {'end_to_end':>22}  {e2e['before_s']:9.2f} s  -> "
                 f"{e2e['after_s']:8.2f} s   ({e2e['speedup']:.2f}x)")
    lines.append(f"  {'(default config)':>22}  "
                 f"{e2e['before_s']:9.2f} s  -> "
                 f"{e2e['after_default_s']:8.2f} s   "
                 f"({before_s / after_default_s:.2f}x)")
    for name, ratio in stage_speedups.items():
        lines.append(f"  {'stage ' + name:>22}  "
                     f"{before_stages[name]:9.2f} s  -> "
                     f"{after_stages[name]:8.2f} s   ({ratio:.2f}x)")
    lines.append(f"  successes default={successes_default} "
                 f"roi={successes_roi}, "
                 f"parity {success_parity}/{SWEEP_PAIRS}")
    print("\n" + "\n".join(lines))

    if _STRICT:
        assert speedup >= _PIPELINE_TARGET, (
            f"end-to-end sweep speedup {speedup:.2f}x is below the "
            f"{_PIPELINE_TARGET}x acceptance bar")
        bv_speedup = stage_speedups.get("bv_extract", 0.0)
        assert bv_speedup >= _BV_EXTRACT_TARGET, (
            f"bv_extract speedup {bv_speedup:.2f}x is below the "
            f"{_BV_EXTRACT_TARGET}x acceptance bar")
