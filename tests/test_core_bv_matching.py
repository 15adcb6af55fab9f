"""Tests for repro.core.bv_matching (stage 1)."""

import numpy as np
import pytest

from repro.bev.mim import compute_mim
from repro.bev.roi import RoiCullConfig
from repro.core.bv_matching import BVMatcher
from repro.core.config import BBAlignConfig, BVMatchRansacConfig
from repro.experiments.common import default_dataset
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud


def structured_world(rng):
    """Random walls + blobs (world frame), rich enough to match on."""
    parts = []
    for _ in range(12):
        x0, y0 = rng.uniform(-45, 45, 2)
        ang = rng.uniform(0, np.pi)
        n = 120
        t = np.linspace(0, rng.uniform(10, 25), n)
        xs, ys = x0 + np.cos(ang) * t, y0 + np.sin(ang) * t
        for f in np.linspace(0.3, 1.0, 5):
            parts.append(np.stack([xs, ys, np.full(n, 9 * f)], 1))
    for _ in range(20):
        cx, cy = rng.uniform(-45, 45, 2)
        n = 25
        parts.append(np.stack([cx + rng.normal(0, .7, n),
                               cy + rng.normal(0, .7, n),
                               rng.uniform(2, 5, n)], 1))
    return np.vstack(parts)


@pytest.fixture(scope="module")
def world_points():
    return structured_world(np.random.default_rng(0))


@pytest.fixture(scope="module")
def sample_pair():
    return default_dataset(1, 2024)[0].pair


def clouds_for(world, relative: SE2):
    ego = PointCloud(world)
    xy = relative.inverse().apply(world[:, :2])
    other = PointCloud(np.column_stack([xy, world[:, 2]]))
    return ego, other


class TestStage1:
    @pytest.mark.parametrize("theta_deg,tx,ty", [
        (0.0, 10.0, -5.0),
        (30.0, 5.0, 5.0),
        (90.0, -10.0, 3.0),
        (180.0, 0.0, 8.0),
        (-120.0, 6.0, -6.0),
    ])
    def test_recovers_known_transform(self, world_points, theta_deg, tx, ty):
        gt = SE2(np.deg2rad(theta_deg), tx, ty)
        ego, other = clouds_for(world_points, gt)
        matcher = BVMatcher(BBAlignConfig())
        result = matcher.match_clouds(other, ego, rng=0)
        assert result.success
        assert result.transform.translation_distance(gt) < 1.5
        assert np.degrees(result.transform.rotation_distance(gt)) < 1.5

    def test_empty_clouds_fail_gracefully(self):
        matcher = BVMatcher(BBAlignConfig())
        result = matcher.match_clouds(PointCloud.empty(),
                                      PointCloud.empty(), rng=0)
        assert not result.success
        assert result.inliers_bv == 0

    def test_flip_disambiguation_needed_beyond_90_degrees(self, world_points):
        """With pi disambiguation off, a near-180-degree pair must not
        out-perform the disambiguated matcher — demonstrating why the
        second hypothesis exists."""
        gt = SE2(np.deg2rad(175.0), 3.0, -2.0)
        ego, other = clouds_for(world_points, gt)
        on = BVMatcher(BBAlignConfig())
        off = BVMatcher(BBAlignConfig(
            bv_ransac=BVMatchRansacConfig(disambiguate_pi=False)))
        res_on = on.match_clouds(other, ego, rng=0)
        res_off = off.match_clouds(other, ego, rng=0)
        assert res_on.transform.translation_distance(gt) < 1.5
        assert res_on.inliers_bv >= res_off.inliers_bv

    def test_used_flip_flag(self, world_points):
        gt = SE2(np.deg2rad(178.0), 1.0, 1.0)
        ego, other = clouds_for(world_points, gt)
        result = BVMatcher(BBAlignConfig()).match_clouds(other, ego, rng=0)
        assert result.used_flip

    def test_deterministic_given_seed(self, world_points):
        gt = SE2(0.4, 5.0, 2.0)
        ego, other = clouds_for(world_points, gt)
        matcher = BVMatcher(BBAlignConfig())
        r1 = matcher.match_clouds(other, ego, rng=3)
        r2 = matcher.match_clouds(other, ego, rng=3)
        assert r1.transform.is_close(r2.transform)
        assert r1.inliers_bv == r2.inliers_bv


class TestBVFeaturesFlip:
    def test_flip_is_involution_on_positions(self, world_points):
        matcher = BVMatcher(BBAlignConfig())
        features = matcher.extract_from_cloud(PointCloud(world_points))
        flipped = features.flipped()
        twice = flipped.flipped()
        np.testing.assert_allclose(twice.keypoints.xy, features.keypoints.xy)
        np.testing.assert_array_equal(twice.mim.mim, features.mim.mim)

    def test_flip_preserves_mim_values(self, world_points):
        matcher = BVMatcher(BBAlignConfig())
        features = matcher.extract_from_cloud(PointCloud(world_points))
        flipped = features.flipped()
        # Exact pixel permutation: same multiset of values.
        assert (np.sort(flipped.mim.mim.ravel())
                == np.sort(features.mim.mim.ravel())).all()


class TestExtractionDtypes:
    def test_mim_and_descriptors_are_float64(self, sample_pair):
        matcher = BVMatcher(BBAlignConfig())
        bv = matcher.make_bv_image(sample_pair.ego_cloud)
        assert compute_mim(bv).max_amplitude.dtype == np.float64
        features = matcher.extract(bv)
        assert features.descriptors.descriptors.dtype == np.float64


class TestPairSingleIdentity:
    @pytest.mark.parametrize("roi", [False, True])
    def test_extract_pair_matches_two_singles(self, sample_pair, roi):
        matcher = BVMatcher(BBAlignConfig(roi=RoiCullConfig(enabled=roi)))
        bv_a = matcher.make_bv_image(sample_pair.ego_cloud)
        bv_b = matcher.make_bv_image(sample_pair.other_cloud)
        gt = sample_pair.gt_relative
        priors = (gt.translation, gt.inverse().translation)
        fa, fb = matcher.extract_pair(bv_a, bv_b, priors=priors)
        sa = matcher.extract(bv_a, prior=priors[0])
        sb = matcher.extract(bv_b, prior=priors[1])
        for pair_f, single_f in ((fa, sa), (fb, sb)):
            assert np.array_equal(pair_f.keypoints.xy, single_f.keypoints.xy)
            assert np.array_equal(pair_f.descriptors.descriptors,
                                  single_f.descriptors.descriptors)
            assert np.array_equal(pair_f.descriptors.keypoint_indices,
                                  single_f.descriptors.keypoint_indices)
