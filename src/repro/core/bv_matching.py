"""Stage 1: BV image matching (paper Section IV-A, Algorithm 1 lines 5-11).

Pipeline per vehicle: lidar scan -> height-map BV image -> MIM -> FAST
keypoints -> BVFT descriptors.  Across vehicles: descriptor matching ->
RANSAC -> the coarse transform ``T_bv`` (other -> ego) in world
coordinates, plus the inlier count ``Inliers_bv`` used by the success
criterion.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, ContextManager

import numpy as np

from repro.bev.mim import MIMResult, compute_mim, compute_mim_batch
from repro.bev.projection import BVImage, density_map, height_map
from repro.bev.roi import RoiWindow, roi_window
from repro.core.config import BBAlignConfig
from repro.features.descriptors import BvftDescriptorExtractor, DescriptorSet
from repro.features.fast import Keypoints, detect_fast
from repro.features.harris import detect_harris
from repro.features.matching import MatchResult, match_descriptors
from repro.features.pc_keypoints import PcKeypointConfig, detect_pc_keypoints
from repro.geometry.ransac import RansacResult, ransac_rigid_2d
from repro.geometry.se2 import SE2
from repro.obs.metrics import counter, histogram
from repro.pointcloud.cloud import PointCloud

__all__ = ["BVFeatures", "BVMatch", "BVMatcher"]

# A stage timer is a factory of context managers keyed by stage name (see
# repro.runtime.timings.stage); None disables instrumentation.  Stage-1
# records per-kernel detail stages ("bv_extract/mim", "stage1_match/nn",
# ...) that the timings report nests under their top-level stage.
StageTimer = Callable[[str], ContextManager]


def _no_timing(_stage: str) -> ContextManager:
    return contextlib.nullcontext()


@dataclass(frozen=True)
class BVFeatures:
    """Everything stage 1 extracts from one vehicle's scan.

    When overlap-ROI culling was applied, ``roi`` records the crop
    window: ``mim`` then covers only that window of ``bv_image`` (its
    arrays are ``(roi.size, roi.size)``), while keypoint and descriptor
    coordinates are always expressed in the **full** image frame so the
    downstream matching/RANSAC/stage-2 geometry is unchanged.
    """

    bv_image: BVImage
    mim: MIMResult
    keypoints: Keypoints
    descriptors: DescriptorSet
    roi: RoiWindow | None = None

    def flipped(self) -> "BVFeatures":
        """The same features under an exact 180-degree image rotation.

        A 180-degree rotation permutes pixels without resampling, leaves
        Log-Gabor amplitudes (and hence MIM values — orientations are
        mod pi) in place, and maps a keypoint at (c, r) to
        (H-1-c, H-1-r).  Descriptors are *not* carried over (the patch
        content flips), so the returned object has an empty descriptor
        set; callers re-extract.

        The flipped arrays are reversed *views* of the originals (no
        copies): consumers treat features as read-only, and the derived
        flip-descriptor path never touches the flipped image or MIM.
        """
        image = self.bv_image
        size = image.size
        flipped_image = BVImage(image.image[::-1, ::-1],
                                image.cell_size, image.lidar_range)
        flipped_mim = MIMResult(
            mim=self.mim.mim[::-1, ::-1],
            max_amplitude=self.mim.max_amplitude[::-1, ::-1],
            total_amplitude=self.mim.total_amplitude[::-1, ::-1],
            num_orientations=self.mim.num_orientations,
        )
        flipped_xy = (size - 1) - self.keypoints.xy
        flipped_kp = Keypoints(flipped_xy, self.keypoints.scores)
        empty = DescriptorSet.empty(
            self.descriptors.descriptors.shape[1]
            if len(self.descriptors) else 0)
        return BVFeatures(flipped_image, flipped_mim, flipped_kp, empty)


@dataclass(frozen=True)
class BVMatch:
    """Stage-1 output.

    Attributes:
        transform: ``T_bv`` — maps points from the other car's frame into
            the ego frame (world meters).  Identity when matching failed.
        inliers_bv: RANSAC inlier count (the paper's ``Inliers_bv``).
        num_matches: descriptor matches fed to RANSAC.
        success: RANSAC found a consensus model at all (distinct from the
            paper's success criterion, which also thresholds the count).
        pixel_transform: the raw pixel-frame transform (diagnostics).
        ransac: full RANSAC diagnostics.
        matches: the descriptor match set (for plotting/analysis).
    """

    transform: SE2
    inliers_bv: int
    num_matches: int
    success: bool
    pixel_transform: SE2
    ransac: RansacResult
    matches: MatchResult
    used_flip: bool = False

    @staticmethod
    def failed(matches: MatchResult, ransac: RansacResult) -> "BVMatch":
        return BVMatch(SE2.identity(), 0, len(matches), False,
                       SE2.identity(), ransac, matches)


class BVMatcher:
    """Runs stage 1 of BB-Align.

    Stateless apart from configuration and cached extractors, so one
    instance can serve a whole dataset sweep.
    """

    def __init__(self, config: BBAlignConfig | None = None) -> None:
        self.config = config or BBAlignConfig()
        self._extractor = BvftDescriptorExtractor(self.config.descriptor)

    # ------------------------------------------------------------------
    # Per-vehicle feature extraction
    # ------------------------------------------------------------------
    def make_bv_image(self, cloud: PointCloud) -> BVImage:
        """Project a scan to a BV image (height map per Eq. 4 by default;
        density map when configured, for the ablation)."""
        cfg = self.config.bv_image
        if cfg.projection == "density":
            return density_map(cloud, cell_size=cfg.cell_size,
                               lidar_range=cfg.lidar_range)
        return height_map(cloud, cell_size=cfg.cell_size,
                          lidar_range=cfg.lidar_range,
                          min_height=cfg.min_height,
                          max_height=cfg.max_height)

    def _detect_keypoints(self, bv_image: BVImage) -> Keypoints:
        """Run the configured keypoint detector."""
        detector = self.config.keypoint_detector
        if detector == "harris":
            return detect_harris(bv_image.image)
        if detector == "phase_congruency":
            return detect_pc_keypoints(
                bv_image.image,
                PcKeypointConfig(log_gabor=self.config.log_gabor))
        return detect_fast(bv_image.image, self.config.fast)

    def _roi_window(self, bv_image: BVImage, prior) -> RoiWindow | None:
        """The overlap crop window for one image, or None (no culling).

        Culling requires the feature to be enabled, a prior, and the
        FAST detector: FAST keypoints are integral, which keeps the
        π-flip disambiguation on the exact permutation path that never
        touches the (cropped) MIM of the flipped hypothesis.
        """
        cfg = self.config
        if prior is None or not cfg.roi.enabled:
            return None
        if cfg.keypoint_detector != "fast":
            return None
        return roi_window(prior, cell_size=bv_image.cell_size,
                          lidar_range=bv_image.lidar_range,
                          image_size=bv_image.size, config=cfg.roi)

    @staticmethod
    def _roi_crop(bv_image: BVImage, window: RoiWindow | None) -> np.ndarray:
        """The (contiguous) image region extraction runs on."""
        if window is None:
            return bv_image.image
        r0, c0, s = window.row0, window.col0, window.size
        return np.ascontiguousarray(bv_image.image[r0:r0 + s, c0:c0 + s])

    def _finish_extract(self, bv_image: BVImage, image: np.ndarray,
                        mim: MIMResult, window: RoiWindow | None,
                        timer: StageTimer) -> BVFeatures:
        """Keypoints + descriptors on an (optionally cropped) MIM.

        Shared verbatim by the single and pair extraction paths, so the
        two produce identical features for identical inputs.
        """
        with timer("bv_extract/keypoints"):
            if window is None:
                keypoints = self._detect_keypoints(bv_image)
            else:
                # _roi_window gates culling to the FAST detector.
                keypoints = detect_fast(image, self.config.fast)
        with timer("bv_extract/descriptors"):
            descriptors = self._extractor.compute(mim, keypoints)
        if window is not None:
            # Map window-local coordinates back to the full image frame;
            # downstream matching/RANSAC/stage-2 never see the crop.
            offset = window.offset_xy
            keypoints = Keypoints(keypoints.xy + offset, keypoints.scores)
            descriptors = DescriptorSet(
                descriptors.descriptors,
                descriptors.keypoint_xy + offset,
                descriptors.keypoint_indices,
                descriptors.dominant_bins)
        return BVFeatures(bv_image, mim, keypoints, descriptors, roi=window)

    def extract(self, bv_image: BVImage,
                timer: StageTimer | None = None,
                prior=None) -> BVFeatures:
        """Compute MIM, keypoints and descriptors for one BV image.

        ``prior`` is an optional coarse (x, y) translation of the other
        sensor in this image's frame (meters); with ROI culling enabled
        it crops extraction to the predicted overlap window (see
        :mod:`repro.bev.roi`).
        """
        timer = timer or _no_timing
        window = self._roi_window(bv_image, prior)
        image = self._roi_crop(bv_image, window)
        with timer("bv_extract/mim"):
            mim = compute_mim(image, self.config.log_gabor)
        return self._finish_extract(bv_image, image, mim, window, timer)

    def extract_pair(self, bv_a: BVImage, bv_b: BVImage,
                     timer: StageTimer | None = None,
                     priors=(None, None)) -> tuple[BVFeatures, BVFeatures]:
        """Extract both cars of a pair through the bank in one pass.

        The two (optionally ROI-cropped) images go through the Log-Gabor
        bank as one ``(2, S, S)`` batch, touching windows and scratch
        once per pair.  Results are bitwise-identical to two
        :meth:`extract` calls (batched transforms match per-image
        transforms bit-for-bit, and the symmetric ROI sizing guarantees
        both crops share one size); when the sizes *cannot* be batched
        (mixed crop fallbacks or differing image sizes), the pair is
        extracted separately, same results either way.
        """
        timer = timer or _no_timing
        window_a = self._roi_window(bv_a, priors[0])
        window_b = self._roi_window(bv_b, priors[1])
        size_a = window_a.size if window_a is not None else bv_a.size
        size_b = window_b.size if window_b is not None else bv_b.size
        if size_a != size_b:
            return (self.extract(bv_a, timer=timer, prior=priors[0]),
                    self.extract(bv_b, timer=timer, prior=priors[1]))
        image_a = self._roi_crop(bv_a, window_a)
        image_b = self._roi_crop(bv_b, window_b)
        with timer("bv_extract/mim"):
            mims = compute_mim_batch((image_a, image_b),
                                     self.config.log_gabor)
        return (self._finish_extract(bv_a, image_a, mims[0], window_a, timer),
                self._finish_extract(bv_b, image_b, mims[1], window_b, timer))

    def extract_from_cloud(self, cloud: PointCloud,
                           timer: StageTimer | None = None,
                           prior=None) -> BVFeatures:
        """Convenience: projection + extraction in one call."""
        return self.extract(self.make_bv_image(cloud), timer=timer,
                            prior=prior)

    # ------------------------------------------------------------------
    # Cross-vehicle matching
    # ------------------------------------------------------------------
    def match(self, other: BVFeatures, ego: BVFeatures,
              rng: np.random.Generator | int | None = None,
              timer: StageTimer | None = None) -> BVMatch:
        """Match the other car's features against the ego car's.

        Args:
            other: features from the received BV image (source).
            ego: features from the ego car's BV image (destination).
            rng: RANSAC randomness; defaults to the config seed.
            timer: optional stage-timer factory recording the
                ``stage1_match/*`` detail stages.

        Returns:
            A :class:`BVMatch` whose ``transform`` maps other-frame world
            coordinates into the ego frame.
        """
        cfg = self.config.bv_ransac
        timer = timer or _no_timing
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(
                self.config.random_seed if rng is None else rng)

        direct = self._match_one(other, ego, rng, timer)
        if not cfg.disambiguate_pi:
            self._record_match(direct)
            return direct

        # Second hypothesis: the other image rotated 180 degrees, which
        # folds relative yaws in (90, 270) back into the descriptor's
        # unambiguous range.  The winner is whichever consensus is larger.
        with timer("stage1_match/flip"):
            flipped = other.flipped()
            flipped = BVFeatures(flipped.bv_image, flipped.mim,
                                 flipped.keypoints,
                                 self._flipped_descriptors(other, flipped))
        mirrored = self._match_one(flipped, ego, rng, timer)
        if mirrored.inliers_bv <= direct.inliers_bv:
            self._record_match(direct)
            return direct
        # Compose out the flip: p_flipped = (H-1) - p = SE2(pi, H-1, H-1) p.
        size = other.bv_image.size
        flip = SE2(np.pi, float(size - 1), float(size - 1))
        pixel_transform = mirrored.pixel_transform @ flip
        world = ego.bv_image.pixel_transform_to_world(pixel_transform)
        result = BVMatch(transform=world,
                         inliers_bv=mirrored.inliers_bv,
                         num_matches=mirrored.num_matches,
                         success=mirrored.success,
                         pixel_transform=pixel_transform,
                         ransac=mirrored.ransac,
                         matches=mirrored.matches,
                         used_flip=True)
        self._record_match(result)
        return result

    @staticmethod
    def _record_match(match: "BVMatch") -> None:
        """Observability: per-match counts into the active registry.

        A no-op unless a registry is installed; reads results only, so
        traced and untraced matching stay byte-identical.
        """
        counter("stage1/matches").inc()
        if match.success:
            counter("stage1/consensus").inc()
        if match.used_flip:
            counter("stage1/flip_wins").inc()
        histogram("stage1/num_matches").observe(float(match.num_matches))
        histogram("stage1/inliers_bv").observe(float(match.inliers_bv))

    def _flipped_descriptors(self, other: BVFeatures,
                             flipped: BVFeatures) -> DescriptorSet:
        """Descriptors for the 180-degree flip hypothesis.

        Integral keypoints (FAST) let the flipped descriptors be derived
        as an exact cell permutation of the originals; subpixel
        detectors fall back to a full recompute on the flipped MIM.
        """
        xy = other.keypoints.xy
        if np.array_equal(xy, np.rint(xy)):
            return self._extractor.flipped_set(other.descriptors,
                                               other.bv_image.size)
        return self._extractor.compute(flipped.mim, flipped.keypoints)

    def _match_one(self, other: BVFeatures, ego: BVFeatures,
                   rng: np.random.Generator,
                   timer: StageTimer | None = None) -> BVMatch:
        """Single-hypothesis matching (no pi disambiguation)."""
        cfg = self.config.bv_ransac
        timer = timer or _no_timing
        with timer("stage1_match/nn"):
            matches = match_descriptors(other.descriptors, ego.descriptors,
                                        ratio=cfg.ratio_test,
                                        mutual=cfg.mutual_check)
        if len(matches) < 2:
            empty = ransac_rigid_2d(np.empty((0, 2)), np.empty((0, 2)),
                                    threshold=cfg.threshold_pixels, rng=rng)
            return BVMatch.failed(matches, empty)

        with timer("stage1_match/ransac"):
            ransac = ransac_rigid_2d(matches.src_xy, matches.dst_xy,
                                     threshold=cfg.threshold_pixels,
                                     max_iterations=cfg.max_iterations,
                                     rng=rng)
        if not ransac.success:
            return BVMatch.failed(matches, ransac)

        # Both images share one configuration, so either can convert the
        # pixel-frame transform back to meters.
        world = ego.bv_image.pixel_transform_to_world(ransac.transform)
        return BVMatch(transform=world,
                       inliers_bv=ransac.num_inliers,
                       num_matches=len(matches),
                       success=True,
                       pixel_transform=ransac.transform,
                       ransac=ransac,
                       matches=matches)

    def match_clouds(self, other_cloud: PointCloud, ego_cloud: PointCloud,
                     rng: np.random.Generator | int | None = None) -> BVMatch:
        """End-to-end stage 1 from raw scans."""
        return self.match(self.extract_from_cloud(other_cloud),
                          self.extract_from_cloud(ego_cloud), rng=rng)
