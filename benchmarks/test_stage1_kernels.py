"""Stage-1 kernel micro-benchmarks (the BENCH trajectory baseline).

Measures the vectorized stage-1 kernels — Log-Gabor/MIM, BVFT
descriptors, chunked RANSAC, FAST keypoints, the BV projection, the
pair-batched bank pass and overlap-ROI culling — against their kept
predecessors, plus the end-to-end stage-1 path (BV image -> ``T_bv``),
and writes ``benchmarks/results/BENCH_stage1.json`` so future PRs
accumulate a perf trajectory.

The "before" side is the real pre-rework code: the per-frame
``radial * angular`` filter product over ``numpy.fft`` (the bank kernel
as it existed before filters were precomputed and transforms moved to
``scipy.fft``), the per-keypoint descriptor loop
(:meth:`BvftDescriptorExtractor._reference_compute`) and the sequential
RANSAC loop (:func:`_reference_ransac_rigid_2d`).  The end-to-end
comparison swaps those implementations into the production
:class:`BVMatcher` via monkeypatching, so both sides run the identical
orchestration code.

Timing assertions are tolerant by default (shared CI runners make
wall-clock flaky); set ``REPRO_BENCH_STRICT=1`` to enforce the >= 3x
end-to-end speedup acceptance bar.  Output-equivalence assertions always
run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.bev.log_gabor import LogGaborBank
from repro.bev import mim as mim_module
from repro.bev.mim import compute_mim
from repro.bev.projection import _reference_height_map, height_map
from repro.bev.roi import RoiCullConfig
from repro.core.bv_matching import BVMatcher
from repro.core.config import BBAlignConfig, BVImageConfig
from repro.experiments.common import default_dataset
from repro.features.descriptors import BvftDescriptorExtractor
from repro.features.fast import _reference_detect_fast, detect_fast
from repro.features.matching import match_descriptors
from repro.geometry import ransac as ransac_module
from repro.geometry.ransac import (
    _reference_ransac_rigid_2d,
    ransac_rigid_2d,
)
from repro.geometry.se2 import SE2

# The paper-scale configuration the acceptance bar is measured on:
# 2 * 76.8 m / 0.48 m per cell = 320 x 320 pixels.
_CELL_SIZE = 0.48
_RNG_SEED = 7
_STRICT = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
_TARGET_SPEEDUP = 3.0


def _once(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def _best_of(fn, repeats: int = 5) -> float:
    """Best wall-clock of ``repeats`` runs, in milliseconds."""
    return min(_once(fn) for _ in range(repeats))


def _ab_best(before_fn, after_fn, rounds: int = 5) -> tuple[float, float]:
    """Interleaved A/B timing: alternate the two sides round-robin and
    keep each side's best, so slow drift of the host (shared VMs swing
    +-40% over tens of seconds) biases neither side."""
    before = after = float("inf")
    for _ in range(rounds):
        before = min(before, _once(before_fn))
        after = min(after, _once(after_fn))
    return before, after


def _seed_nn_statistics(a, b):
    """Seed NN statistics: one unblocked float64 distance matrix."""
    sq = (np.sum(a ** 2, axis=1)[:, None]
          + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * (a @ b.T))
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq)
    nearest = np.argmin(dist, axis=1)
    best = dist[np.arange(len(a)), nearest]
    second = (np.partition(dist, 1, axis=1)[:, 1] if len(b) >= 2
              else np.full(len(a), np.inf))
    reverse = np.argmin(dist, axis=0)
    return nearest, best, second, reverse


def _seed_orientation_amplitude_sum(self, image):
    """The bank kernel as it existed before this rework: per-frame
    ``radial * angular`` products over ``numpy.fft`` transforms."""
    image = np.asarray(image, dtype=float)
    cfg = self.config
    image_fft = np.fft.fft2(image)
    sums = np.empty((cfg.num_orientations, self.size, self.size))
    for o in range(cfg.num_orientations):
        acc = np.zeros((self.size, self.size))
        for s in range(cfg.num_scales):
            filt = self._radial[s] * self._angular[o]
            acc += np.abs(np.fft.ifft2(image_fft * filt))
        sums[o] = acc
    return sums


def _seed_flipped(self):
    """Seed ``BVFeatures.flipped``: eager copies of the reversed maps
    (the rework returns reversed views)."""
    from repro.bev.projection import BVImage
    from repro.core.bv_matching import BVFeatures
    from repro.features.descriptors import DescriptorSet
    from repro.features.fast import Keypoints

    image = self.bv_image
    size = image.size
    flipped_image = BVImage(image.image[::-1, ::-1].copy(),
                            image.cell_size, image.lidar_range)
    flipped_mim = mim_module.MIMResult(
        mim=self.mim.mim[::-1, ::-1].copy(),
        max_amplitude=self.mim.max_amplitude[::-1, ::-1].copy(),
        total_amplitude=self.mim.total_amplitude[::-1, ::-1].copy(),
        num_orientations=self.mim.num_orientations)
    flipped_kp = Keypoints((size - 1) - self.keypoints.xy,
                           self.keypoints.scores)
    empty = DescriptorSet.empty(
        self.descriptors.descriptors.shape[1]
        if len(self.descriptors) else 0)
    return BVFeatures(flipped_image, flipped_mim, flipped_kp, empty)


def _seed_compute_mim(bv, config=None):
    """Seed ``compute_mim``: float64 amplitudes with axis-0 argmax/gather
    (the rework replaced these with a float32 maximum sweep)."""
    image = bv.image if isinstance(bv, mim_module.BVImage) \
        else np.asarray(bv, dtype=float)
    config = config or mim_module.LogGaborConfig()
    bank = mim_module._get_bank(image.shape[0], config)
    amplitude = _seed_orientation_amplitude_sum(bank, image)
    mim = np.argmax(amplitude, axis=0).astype(np.int32)
    max_amplitude = np.take_along_axis(
        amplitude, mim[None].astype(np.int64), axis=0)[0]
    total = amplitude.sum(axis=0)
    return mim_module.MIMResult(mim=mim, max_amplitude=max_amplitude,
                                total_amplitude=total,
                                num_orientations=config.num_orientations)


def _wave1_detect_fast(image, config=None):
    """``detect_fast`` as it stood after the first vectorization wave:
    the segment-test bits were packed through ``astype`` temporaries
    (one fresh uint16 array per circle offset), which regressed the
    keypoint kernel below the reference loop at bench scale.  Kept as
    the "before" side of the keypoint-kernel floor assertion."""
    from scipy import ndimage

    from repro.features.fast import (
        CIRCLE_OFFSETS,
        FastConfig,
        Keypoints,
        _arc_lut,
    )
    config = config or FastConfig()
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    if min(h, w) < 8:
        return Keypoints.empty()
    padded = np.pad(image, 3, mode="constant", constant_values=0.0)
    packed_b = np.zeros((h, w), dtype=np.uint16)
    packed_d = np.zeros((h, w), dtype=np.uint16)
    diff = np.empty((h, w))
    for k, (dr, dc) in enumerate(CIRCLE_OFFSETS):
        np.subtract(padded[3 + dr:3 + dr + h, 3 + dc:3 + dc + w], image,
                    out=diff)
        packed_b |= np.left_shift(
            (diff > config.threshold).astype(np.uint16), k)
        packed_d |= np.left_shift(
            (diff < -config.threshold).astype(np.uint16), k)
    lut = _arc_lut(config.arc_length)
    corners = lut.take(packed_b) | lut.take(packed_d)
    corners[:3, :] = corners[-3:, :] = False
    corners[:, :3] = corners[:, -3:] = False
    if not corners.any():
        return Keypoints.empty()
    rows, cols = np.nonzero(corners)
    circle = np.empty((16, len(rows)))
    for k, (dr, dc) in enumerate(CIRCLE_OFFSETS):
        circle[k] = padded[rows + (3 + dr), cols + (3 + dc)]
    excess = np.abs(circle - image[rows, cols])
    excess -= config.threshold
    np.maximum(excess, 0.0, out=excess)
    scores = excess.sum(axis=0)
    if config.nms_radius > 0:
        score = np.zeros((h, w))
        score[rows, cols] = scores
        size = 2 * config.nms_radius + 1
        local_max = ndimage.maximum_filter(score, size=size, mode="constant")
        keep = (scores >= local_max[rows, cols]) & (scores > 0)
        rows, cols, scores = rows[keep], cols[keep], scores[keep]
        if not len(rows):
            return Keypoints.empty()
    order = np.argsort(-scores, kind="stable")
    if config.max_keypoints:
        order = order[:config.max_keypoints]
    xy = np.stack([cols[order], rows[order]], axis=1).astype(float)
    return Keypoints(xy=xy, scores=scores[order])


def _ransac_kernel(src, dst, **kwargs):
    """A/B-time chunked RANSAC against the sequential loop on one
    correspondence set; the result and the generator's stream position
    afterwards must be identical."""
    def run(ransac):
        rng = np.random.default_rng(_RNG_SEED)
        return ransac(src, dst, rng=rng, **kwargs), rng

    before, after = _ab_best(lambda: run(_reference_ransac_rigid_2d),
                             lambda: run(ransac_rigid_2d))
    ref_r, ref_rng = run(_reference_ransac_rigid_2d)
    new_r, new_rng = run(ransac_rigid_2d)
    assert new_r.num_inliers == ref_r.num_inliers
    assert new_r.iterations == ref_r.iterations
    assert np.array_equal(new_r.inlier_mask, ref_r.inlier_mask)
    assert new_r.transform.theta == ref_r.transform.theta
    assert new_r.transform.tx == ref_r.transform.tx
    assert new_r.transform.ty == ref_r.transform.ty
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    entry = {"before_ms": round(before, 3), "after_ms": round(after, 3),
             "speedup": round(before / after, 2), "num_matches": int(len(src))}
    return entry, new_r


@pytest.fixture(scope="module")
def bench_inputs():
    """One realistic frame pair rendered at the 320 x 320 bench scale."""
    config = BBAlignConfig(bv_image=BVImageConfig(cell_size=_CELL_SIZE))
    matcher = BVMatcher(config)
    record = next(iter(default_dataset(1, seed=2024)))
    ego_bv = matcher.make_bv_image(record.pair.ego_cloud)
    other_bv = matcher.make_bv_image(record.pair.other_cloud)
    assert ego_bv.size == 320
    return {"config": config, "matcher": matcher, "record": record,
            "ego_bv": ego_bv, "other_bv": other_bv}


def _run_stage1(matcher: BVMatcher, other_bv, ego_bv):
    other = matcher.extract(other_bv)
    ego = matcher.extract(ego_bv)
    return matcher.match(other, ego, rng=np.random.default_rng(_RNG_SEED))


def test_stage1_kernels_write_bench_trajectory(bench_inputs, results_dir,
                                               monkeypatch):
    config = bench_inputs["config"]
    matcher = bench_inputs["matcher"]
    ego_bv, other_bv = bench_inputs["ego_bv"], bench_inputs["other_bv"]
    report: dict = {
        "schema_version": 1,
        "config": {
            "image_size": ego_bv.size,
            "cell_size": _CELL_SIZE,
            "num_scales": config.log_gabor.num_scales,
            "num_orientations": config.log_gabor.num_orientations,
            "descriptor_dim": config.descriptor.descriptor_length(
                config.log_gabor.num_orientations),
            "ransac_max_iterations": config.bv_ransac.max_iterations,
            "rng_seed": _RNG_SEED,
        },
        "kernels": {},
    }

    # ------------------------------------------------------------------
    # Kernel 1: Log-Gabor bank application (the MIM hot path).
    # ------------------------------------------------------------------
    bank = LogGaborBank(ego_bv.size, config.log_gabor)
    image = ego_bv.image
    before, after = _ab_best(
        lambda: _seed_orientation_amplitude_sum(bank, image),
        lambda: bank.orientation_amplitude_sum(image))
    seed_sums = _seed_orientation_amplitude_sum(bank, image)
    new_sums = bank.orientation_amplitude_sum(image)
    # The new bank runs its per-filter transforms in single precision, so
    # amplitudes agree to float32 rounding; what stage 1 consumes — the
    # per-pixel orientation argmax on valid (non-zero-energy) pixels —
    # must be identical.
    np.testing.assert_allclose(new_sums, seed_sums,
                               atol=1e-4 * float(seed_sums.max()))
    valid = compute_mim(ego_bv, config.log_gabor).valid_mask()
    assert np.array_equal(np.argmax(new_sums, axis=0)[valid],
                          np.argmax(seed_sums, axis=0)[valid])
    report["kernels"]["log_gabor_bank"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2)}

    # ------------------------------------------------------------------
    # Kernel 2: BVFT descriptors.
    # ------------------------------------------------------------------
    mim = compute_mim(ego_bv, config.log_gabor)
    keypoints = detect_fast(image, config.fast)
    extractor = BvftDescriptorExtractor(config.descriptor)
    before, after = _ab_best(
        lambda: extractor._reference_compute(mim, keypoints),
        lambda: extractor.compute(mim, keypoints))
    ref_desc = extractor._reference_compute(mim, keypoints)
    new_desc = extractor.compute(mim, keypoints)
    assert np.array_equal(new_desc.keypoint_indices, ref_desc.keypoint_indices)
    np.testing.assert_allclose(new_desc.descriptors, ref_desc.descriptors,
                               atol=1e-9)
    report["kernels"]["bvft_descriptors"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2),
        "num_keypoints": int(len(keypoints))}

    # ------------------------------------------------------------------
    # Kernel 3: RANSAC over the real stage-1 match set.
    # ------------------------------------------------------------------
    other_mim = compute_mim(other_bv, config.log_gabor)
    other_kp = detect_fast(other_bv.image, config.fast)
    other_desc = extractor.compute(other_mim, other_kp)
    matches = match_descriptors(other_desc, new_desc,
                                ratio=config.bv_ransac.ratio_test,
                                mutual=config.bv_ransac.mutual_check)
    assert len(matches) >= 2
    kwargs = dict(threshold=config.bv_ransac.threshold_pixels,
                  max_iterations=config.bv_ransac.max_iterations)
    report["kernels"]["ransac_rigid_2d"], _ = _ransac_kernel(
        matches.src_xy, matches.dst_xy, **kwargs)

    # Kernel 3b: a low-consensus long run (20 inliers among 300 matches
    # over the BV image), where minimal-sample drawing dominates and the
    # adaptive rule runs more than a thousand trials.
    sampler = np.random.default_rng(_RNG_SEED)
    src = sampler.uniform(0, ego_bv.size, (300, 2))
    dst = sampler.uniform(0, ego_bv.size, (300, 2))
    dst[:20] = SE2(0.3, 12.0, -7.0).apply(src[:20])
    entry, result = _ransac_kernel(src, dst, **kwargs)
    report["kernels"]["ransac_low_consensus"] = {
        **entry, "iterations": result.iterations,
        "num_inliers": result.num_inliers}

    # Kernel 3c: a stage-2-sized run (6 boxes' corners, one box wrong)
    # that stops after a few trials, far inside the first chunk.
    src = sampler.uniform(-40, 40, (24, 2))
    dst = SE2(0.05, 0.8, -0.4).apply(src) + sampler.normal(0, 0.05, (24, 2))
    dst[:4] += 3.0
    stage2 = config.box_align
    entry, result = _ransac_kernel(
        src, dst, threshold=stage2.threshold_meters,
        max_iterations=stage2.max_iterations, min_inliers=4)
    report["kernels"]["ransac_box_early_stop"] = {
        **entry, "iterations": result.iterations,
        "num_inliers": result.num_inliers}

    # ------------------------------------------------------------------
    # Kernel 4: FAST keypoints.  The "before" is the first-wave
    # vectorization (astype bit packing), which regressed below the
    # reference loop; the floor assertion keeps the kernel from ever
    # sliding back under it.
    # ------------------------------------------------------------------
    wave1_kp = _wave1_detect_fast(image, config.fast)
    new_kp = detect_fast(image, config.fast)
    assert np.array_equal(new_kp.xy, wave1_kp.xy)
    assert np.array_equal(new_kp.scores, wave1_kp.scores)
    before, after = _ab_best(
        lambda: _wave1_detect_fast(image, config.fast),
        lambda: detect_fast(image, config.fast), rounds=7)
    kp_speedup = before / after
    report["kernels"]["fast_keypoints"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(kp_speedup, 2),
        "num_keypoints": int(len(new_kp))}
    if _STRICT:
        assert kp_speedup >= 1.0, (
            f"fast_keypoints speedup {kp_speedup:.2f}x: the keypoint "
            f"kernel is slower than its wave-1 predecessor again")

    # ------------------------------------------------------------------
    # Kernel 5: BV projection (cloud -> height map).
    # ------------------------------------------------------------------
    cloud = bench_inputs["record"].pair.ego_cloud
    cell = config.bv_image.cell_size
    lidar_range = config.bv_image.lidar_range
    ref_bv = _reference_height_map(cloud, cell, lidar_range)
    new_bv = height_map(cloud, cell, lidar_range)
    assert np.array_equal(new_bv.image, ref_bv.image)
    assert new_bv.num_nonfinite == ref_bv.num_nonfinite
    before, after = _ab_best(
        lambda: _reference_height_map(cloud, cell, lidar_range),
        lambda: height_map(cloud, cell, lidar_range), rounds=7)
    report["kernels"]["projection_height_map"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2),
        "num_points": int(len(cloud.points))}

    # ------------------------------------------------------------------
    # Kernel 6: pair-batched extraction vs two single extractions.
    # Bitwise-identical outputs; the gain is the shared bank pass.
    # ------------------------------------------------------------------
    pa, pb = matcher.extract_pair(ego_bv, other_bv)
    sa = matcher.extract(ego_bv)
    sb = matcher.extract(other_bv)
    for pair_f, single_f in ((pa, sa), (pb, sb)):
        assert np.array_equal(pair_f.keypoints.xy, single_f.keypoints.xy)
        assert np.array_equal(pair_f.descriptors.descriptors,
                              single_f.descriptors.descriptors)
    before, after = _ab_best(
        lambda: (matcher.extract(ego_bv), matcher.extract(other_bv)),
        lambda: matcher.extract_pair(ego_bv, other_bv), rounds=5)
    report["kernels"]["pair_batched_extraction"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2)}

    # ------------------------------------------------------------------
    # Kernel 7: overlap-ROI culling.  Not an equivalence pair — cropping
    # deliberately changes which keypoints exist (see DESIGN.md) — so
    # this records the cost ratio of a culled extraction against the
    # same extraction without a prior.
    # ------------------------------------------------------------------
    roi_matcher = BVMatcher(BBAlignConfig(
        bv_image=BVImageConfig(cell_size=_CELL_SIZE),
        roi=RoiCullConfig(enabled=True)))
    gt = bench_inputs["record"].pair.gt_relative
    prior = gt.translation
    roi_features = roi_matcher.extract(ego_bv, prior=prior)
    assert roi_features.roi is not None
    before, after = _ab_best(
        lambda: roi_matcher.extract(ego_bv),
        lambda: roi_matcher.extract(ego_bv, prior=prior), rounds=5)
    report["kernels"]["roi_extraction"] = {
        "before_ms": round(before, 3), "after_ms": round(after, 3),
        "speedup": round(before / after, 2),
        "window_size": int(roi_features.roi.size),
        "image_size": int(ego_bv.size)}

    # ------------------------------------------------------------------
    # End to end: BV image -> T_bv through the production BVMatcher, with
    # the pre-rework kernels swapped in for the "before" side.
    # ------------------------------------------------------------------
    def _seed_patches(patch):
        patch.setattr(LogGaborBank, "orientation_amplitude_sum",
                      _seed_orientation_amplitude_sum)
        # The seed compute_mim ran float64 argmax/gather post-processing.
        patch.setattr("repro.core.bv_matching.compute_mim",
                      _seed_compute_mim)
        patch.setattr(BvftDescriptorExtractor, "compute",
                      BvftDescriptorExtractor._reference_compute)
        patch.setattr("repro.core.bv_matching.detect_fast",
                      _reference_detect_fast)
        # The seed code built the flip hypothesis from eagerly copied
        # maps and recomputed its descriptors from the flipped MIM
        # instead of deriving them by cell permutation.
        patch.setattr("repro.core.bv_matching.BVFeatures.flipped",
                      _seed_flipped)
        patch.setattr(
            BVMatcher, "_flipped_descriptors",
            lambda self, other, flipped: self._extractor.compute(
                flipped.mim, flipped.keypoints))
        patch.setattr(ransac_module, "ransac_rigid_2d",
                      _reference_ransac_rigid_2d)
        patch.setattr("repro.core.bv_matching.ransac_rigid_2d",
                      _reference_ransac_rigid_2d)
        # The seed matcher ran one unblocked float64 distance matrix.
        patch.setattr("repro.features.matching._nn_statistics",
                      _seed_nn_statistics)
        # compute_mim caches banks, not amplitude maps, so patching the
        # bank method is enough to put the cached banks on the seed path.

    after_result = _run_stage1(matcher, other_bv, ego_bv)
    with monkeypatch.context() as patch:
        _seed_patches(patch)
        before_result = _run_stage1(matcher, other_bv, ego_bv)

    before_ms = after_ms = float("inf")
    for _ in range(7):  # interleaved rounds, same rationale as _ab_best
        after_ms = min(after_ms,
                       _once(lambda: _run_stage1(matcher, other_bv, ego_bv)))
        with monkeypatch.context() as patch:
            _seed_patches(patch)
            before_ms = min(
                before_ms,
                _once(lambda: _run_stage1(matcher, other_bv, ego_bv)))

    # The two paths must agree on the stage-1 outcome.  (numpy.fft and
    # scipy.fft differ by final-ulp rounding, so amplitude maps are not
    # bitwise identical — but the discrete outputs must match.)
    assert after_result.success == before_result.success
    assert after_result.inliers_bv == before_result.inliers_bv
    assert after_result.num_matches == before_result.num_matches
    assert after_result.transform.is_close(before_result.transform,
                                           atol_translation=1e-6,
                                           atol_rotation=1e-8)

    speedup = before_ms / after_ms
    report["end_to_end"] = {
        "before_ms": round(before_ms, 3), "after_ms": round(after_ms, 3),
        "speedup": round(speedup, 2),
        "inliers_bv": int(after_result.inliers_bv),
        "num_matches": int(after_result.num_matches),
        "target_speedup": _TARGET_SPEEDUP,
        "strict": _STRICT,
    }

    out_path = results_dir / "BENCH_stage1.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    lines = [f"BENCH_stage1 ({ego_bv.size}x{ego_bv.size}):"]
    for name, row in report["kernels"].items():
        lines.append(f"  {name:>18}  {row['before_ms']:9.1f} ms -> "
                     f"{row['after_ms']:8.1f} ms  ({row['speedup']:.2f}x)")
    e2e = report["end_to_end"]
    lines.append(f"  {'end_to_end':>18}  {e2e['before_ms']:9.1f} ms -> "
                 f"{e2e['after_ms']:8.1f} ms  ({e2e['speedup']:.2f}x)")
    print("\n" + "\n".join(lines))

    if _STRICT:
        assert speedup >= _TARGET_SPEEDUP, (
            f"end-to-end stage-1 speedup {speedup:.2f}x is below the "
            f"{_TARGET_SPEEDUP}x acceptance bar")
