"""Tests for repro.geometry.ransac."""

import numpy as np
import pytest

from repro.geometry import ransac as ransac_module
from repro.geometry.ransac import _bulk_pairs, _draw_pairs, ransac_rigid_2d
from repro.geometry.se2 import SE2


def make_correspondences(rng, gt, n_inliers=30, n_outliers=0, noise=0.0):
    src = rng.uniform(-30, 30, (n_inliers + n_outliers, 2))
    dst = gt.apply(src)
    if noise:
        dst += rng.normal(0, noise, dst.shape)
    if n_outliers:
        dst[n_inliers:] = rng.uniform(-30, 30, (n_outliers, 2))
    return src, dst


class TestRansacCleanData:
    def test_exact_recovery(self, rng):
        gt = SE2(0.6, 4.0, -1.0)
        src, dst = make_correspondences(rng, gt)
        result = ransac_rigid_2d(src, dst, threshold=0.5, rng=rng)
        assert result.success
        assert result.num_inliers == 30
        assert result.transform.is_close(gt, atol_translation=1e-6,
                                         atol_rotation=1e-8)

    def test_rmse_reported(self, rng):
        gt = SE2(0.1, 1.0, 1.0)
        src, dst = make_correspondences(rng, gt, noise=0.05)
        result = ransac_rigid_2d(src, dst, threshold=0.5, rng=rng)
        assert result.success
        assert 0.0 < result.rmse < 0.15


class TestRansacOutliers:
    @pytest.mark.parametrize("n_outliers", [10, 30, 60])
    def test_robust_to_outliers(self, rng, n_outliers):
        gt = SE2(-0.9, 2.0, 7.0)
        src, dst = make_correspondences(rng, gt, n_inliers=30,
                                        n_outliers=n_outliers, noise=0.02)
        result = ransac_rigid_2d(src, dst, threshold=0.3, rng=rng)
        assert result.success
        assert result.transform.translation_distance(gt) < 0.1
        # Inlier mask should capture (at least most of) the true inliers.
        assert result.inlier_mask[:30].sum() >= 25

    def test_inlier_mask_aligned_with_inputs(self, rng):
        gt = SE2(0.0, 5.0, 0.0)
        src, dst = make_correspondences(rng, gt, n_inliers=20,
                                        n_outliers=5)
        result = ransac_rigid_2d(src, dst, threshold=0.2, rng=rng)
        assert result.inlier_mask.shape == (25,)
        assert result.num_inliers == int(result.inlier_mask.sum())


class TestRansacEdgeCases:
    def test_too_few_points_fails_gracefully(self, rng):
        result = ransac_rigid_2d(np.zeros((1, 2)), np.zeros((1, 2)),
                                 threshold=1.0, rng=rng)
        assert not result.success
        assert result.num_inliers == 0

    def test_empty_input(self, rng):
        result = ransac_rigid_2d(np.empty((0, 2)), np.empty((0, 2)),
                                 threshold=1.0, rng=rng)
        assert not result.success

    def test_all_outliers_fails(self, rng):
        src = rng.uniform(-10, 10, (20, 2))
        dst = rng.uniform(-10, 10, (20, 2))
        result = ransac_rigid_2d(src, dst, threshold=0.01,
                                 min_inliers=5, rng=rng)
        # Random pairings should not yield 5 points agreeing to 1 cm.
        assert not result.success or result.num_inliers < 8

    def test_coincident_points_skipped(self, rng):
        # Degenerate samples (duplicate source points) must not crash.
        src = np.zeros((10, 2))
        src[5:] = [[1, 1]] * 5
        dst = src + [2.0, 0.0]
        result = ransac_rigid_2d(src, dst, threshold=0.5, rng=rng)
        assert result.success
        assert result.transform.translation_distance(SE2(0, 2, 0)) < 1e-6

    def test_rejects_bad_threshold(self, rng):
        with pytest.raises(ValueError):
            ransac_rigid_2d(np.zeros((5, 2)), np.zeros((5, 2)),
                            threshold=0.0, rng=rng)

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValueError):
            ransac_rigid_2d(np.zeros((5, 2)), np.zeros((4, 2)), rng=rng)

    def test_rejects_min_inliers_below_two(self, rng):
        with pytest.raises(ValueError):
            ransac_rigid_2d(np.zeros((5, 2)), np.zeros((5, 2)),
                            min_inliers=1, rng=rng)

    def test_deterministic_with_seed(self):
        rng_data = np.random.default_rng(0)
        gt = SE2(0.5, 1.0, 1.0)
        src, dst = make_correspondences(rng_data, gt, n_inliers=15,
                                        n_outliers=15)
        r1 = ransac_rigid_2d(src, dst, threshold=0.3, rng=42)
        r2 = ransac_rigid_2d(src, dst, threshold=0.3, rng=42)
        assert r1.transform.is_close(r2.transform)
        assert r1.num_inliers == r2.num_inliers


def _sequential_pairs(rng, n, count):
    return np.array([rng.choice(n, size=2, replace=False)
                     for _ in range(count)]).reshape(count, 2)


def _generator_pair(bit_generator, seed, buffered):
    """Two identically seeded generators; ``buffered`` leaves a pending
    32-bit half in the bit generator first (a uint32 draw)."""
    rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if buffered:
        for rng in rngs:
            rng.integers(0, 2, dtype=np.uint32)
    return rngs


def _same_state(a, b):
    """Bit-generator state equality (MT19937/Philox hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k])
                                            for k in a)
    return np.array_equal(a, b)


def assert_same_stream(bulk_rng, loop_rng, n, count):
    pairs = _draw_pairs(bulk_rng, n, count)
    expected = _sequential_pairs(loop_rng, n, count)
    assert pairs.shape == (count, 2)
    assert np.array_equal(pairs, expected)
    assert _same_state(bulk_rng.bit_generator.state,
                       loop_rng.bit_generator.state)
    assert np.array_equal(bulk_rng.random(5), loop_rng.random(5))


class TestSamplerIdentity:
    """``_draw_pairs`` must reproduce sequential ``rng.choice(n, 2,
    replace=False)`` calls draw for draw: pairs, state, follow-on draws."""

    @pytest.fixture()
    def bulk_only(self, monkeypatch):
        """Fail on any per-call fallback: a silent fallback would hide a
        performance regression (and a bulk-pass defect the probe
        catches).  The probe runs first, against the real loop."""
        assert ransac_module._bulk_matches_numpy()

        def per_call(*args):
            raise AssertionError("per-call sampling path taken")

        monkeypatch.setattr(ransac_module, "_choice_pairs", per_call)

    @pytest.mark.parametrize("buffered", [0, 1])
    @pytest.mark.parametrize("count", [1, 127, 128, 129, 2000])
    @pytest.mark.parametrize("n", [3, 4, 62, 9999, 10001])
    def test_pcg64_matches_choice_loop(self, bulk_only, n, count, buffered):
        bulk_rng, loop_rng = _generator_pair(np.random.PCG64, 11, buffered)
        assert bulk_rng.bit_generator.state["has_uint32"] == buffered
        assert_same_stream(bulk_rng, loop_rng, n, count)

    def test_bulk_path_taken_on_installed_numpy(self, bulk_only):
        _draw_pairs(np.random.default_rng(3), 62, 128)
        rng = np.random.default_rng(3)
        src = rng.uniform(-30, 30, (40, 2))
        ransac_rigid_2d(src, src + 1.0, threshold=0.5, rng=rng)

    def test_probe_rejects_a_numpy_whose_choice_differs(self, monkeypatch):
        """Stand in for a numpy whose ``choice`` orders each pair the
        other way: the probe must fail, disabling the bulk pass."""
        monkeypatch.setattr(
            ransac_module, "_choice_pairs",
            lambda rng, n, count: _sequential_pairs(rng, n, count)[:, ::-1])
        ransac_module._bulk_matches_numpy.cache_clear()
        try:
            assert not ransac_module._bulk_matches_numpy()
        finally:
            ransac_module._bulk_matches_numpy.cache_clear()

    @pytest.mark.parametrize("bit_generator,n", [
        (np.random.PCG64, 2),
        (np.random.MT19937, 62),
        (np.random.Philox, 62),
    ])
    @pytest.mark.parametrize("buffered", [0, 1])
    def test_unsupported_cases_take_per_call_path(self, monkeypatch,
                                                  bit_generator, n,
                                                  buffered):
        def bulk(*args):
            raise AssertionError("bulk sampling path taken")

        monkeypatch.setattr(ransac_module, "_bulk_pairs", bulk)
        bulk_rng, loop_rng = _generator_pair(bit_generator, 5, buffered)
        assert_same_stream(bulk_rng, loop_rng, n, 129)

    @pytest.mark.parametrize("buffered", [0, 1])
    def test_lemire_rejection_stays_exact(self, buffered):
        """At n = 3 * 2**30 + 1 about a quarter of the first draws
        reject; the bulk pass must decline and leave the state alone."""
        n = 3 * 2 ** 30 + 1
        bulk_rng, loop_rng = _generator_pair(np.random.PCG64, 9, buffered)
        before = bulk_rng.bit_generator.state
        assert _bulk_pairs(bulk_rng.bit_generator, n, 128) is None
        assert bulk_rng.bit_generator.state == before
        assert_same_stream(bulk_rng, loop_rng, n, 128)
