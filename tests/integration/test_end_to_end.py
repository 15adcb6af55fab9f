"""End-to-end integration: simulator -> detectors -> BB-Align -> metrics.

These are the paper's headline behaviours exercised across module
boundaries on deterministic small datasets.
"""

import numpy as np
import pytest

from repro.baselines.vips import vips_graph_matching
from repro.core.config import BBAlignConfig
from repro.core.pipeline import BBAlign
from repro.detection.simulated import COBEVT_PROFILE, SimulatedDetector
from repro.metrics.pose_error import pose_errors
from repro.noise.pose_noise import PoseNoiseModel
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim
from repro.simulation.scenario import ScenarioConfig, make_frame_pair
from repro.simulation.world import ScenarioKind, WorldConfig


@pytest.fixture(scope="module")
def sweep_outcomes():
    from repro.experiments.common import run_pose_recovery_sweep
    dataset = V2VDatasetSim(DatasetConfig(num_pairs=20, seed=2024))
    return run_pose_recovery_sweep(dataset, include_vips=True)


class TestHeadlineAccuracy:
    def test_majority_of_successes_under_1m_1deg(self, sweep_outcomes):
        """Paper: < 1 m and < 1 deg in ~80 % of (close-range, successful)
        cases."""
        successes = [o for o in sweep_outcomes
                     if o.success and o.distance < 70.0]
        assert len(successes) >= 3
        good = [o for o in successes
                if o.errors.translation < 1.0 and o.errors.rotation_deg < 1.0]
        assert len(good) / len(successes) >= 0.6

    def test_beats_vips_baseline(self, sweep_outcomes):
        """Paper Fig. 7: BB-Align dominates graph matching on translation."""
        n = len(sweep_outcomes)
        bb_good = sum(o.success and o.errors.translation < 1.0
                      for o in sweep_outcomes)
        vips_good = sum(o.vips_errors is not None
                        and o.vips_errors.translation < 1.0
                        for o in sweep_outcomes)
        assert bb_good > vips_good

    def test_success_criterion_filters_bad_estimates(self, sweep_outcomes):
        """Flagged-successful recoveries must be much better on average
        than flagged-failed ones (the point of the inlier thresholds)."""
        good = [o.errors.translation for o in sweep_outcomes if o.success]
        bad = [o.errors.translation for o in sweep_outcomes if not o.success]
        if good and bad:
            assert np.median(good) <= np.median(bad) + 0.1

    def test_stage2_improves_median_translation(self, sweep_outcomes):
        """Paper Fig. 14 direction: box alignment reduces translation
        error of successful recoveries."""
        successes = [o for o in sweep_outcomes if o.success]
        assert successes
        with_box = np.median([o.errors.translation for o in successes])
        without = np.median([o.stage1_errors.translation
                             for o in successes])
        assert with_box <= without + 0.05


class TestPoseErrorSeverityIndependence:
    def test_recovery_without_prior_pose(self):
        """BB-Align uses no prior pose, so its output is identical no
        matter how corrupted the GPS pose was — the paper's 'any
        severity' claim."""
        pair = make_frame_pair(ScenarioConfig(distance=20.0), rng=21)
        detector = SimulatedDetector(COBEVT_PROFILE)
        ego_dets = detector.detect(pair.ego_visible, 1)
        other_dets = detector.detect(pair.other_visible, 2)
        aligner = BBAlign()
        result = aligner.recover(pair.ego_cloud, pair.other_cloud,
                                 [d.box for d in ego_dets],
                                 [d.box for d in other_dets], rng=0)
        # The recovery never saw the corrupted pose; verify it is close
        # to truth regardless of what the noise model would have done.
        noise = PoseNoiseModel(sigma_translation=50.0,
                               sigma_rotation_deg=180.0)
        _ = noise.corrupt(pair.gt_relative, rng=0)  # arbitrarily severe
        errors = pose_errors(result.transform, pair.gt_relative)
        assert errors.translation < 1.5


class TestScenarioDifficulty:
    def test_open_scenes_fail_more(self):
        """Paper: unsuccessful recoveries concentrate where landmarks are
        scarce."""
        def success_of(kind, seed):
            pair = make_frame_pair(ScenarioConfig(
                world=WorldConfig(kind=kind), distance=30.0), rng=seed)
            detector = SimulatedDetector()
            ego_dets = detector.detect(pair.ego_visible, seed)
            other_dets = detector.detect(pair.other_visible, seed + 1)
            result = BBAlign().recover(pair.ego_cloud, pair.other_cloud,
                                       [d.box for d in ego_dets],
                                       [d.box for d in other_dets], rng=0)
            return result.stage1.inliers_bv

        urban = [success_of(ScenarioKind.URBAN, s) for s in (1, 2, 3)]
        openk = [success_of(ScenarioKind.OPEN, s) for s in (1, 2, 3)]
        assert np.median(urban) > np.median(openk)


class TestBandwidth:
    def test_message_size_much_smaller_than_raw(self, sweep_outcomes):
        ratios = [o.raw_cloud_bytes / o.message_bytes
                  for o in sweep_outcomes]
        assert np.median(ratios) > 3.0


# (index, success, inliers_bv, inliers_box, num_matches, num_matched_boxes,
#  failure_reason, degradation) of each pair of the seeded 12-pair sweep.
_PINNED_SWEEP = [
    (0, True, 21, 8, 37, 2, None, "full"),
    (1, True, 72, 20, 86, 5, None, "full"),
    (2, True, 30, 8, 52, 2, None, "full"),
    (3, True, 35, 16, 67, 4, None, "full"),
    (4, True, 73, 12, 75, 3, None, "full"),
    (5, True, 76, 8, 91, 2, None, "full"),
    (6, True, 59, 8, 68, 2, None, "full"),
    (7, False, 41, 4, 48, 1, "below-success-threshold", "full"),
    (8, False, 19, 4, 41, 1, "below-success-threshold", "full"),
    (9, True, 67, 8, 78, 2, None, "full"),
    (10, False, 5, 0, 31, 0, "below-success-threshold", "full"),
    (11, True, 73, 16, 75, 4, None, "full"),
]


class TestSeededSweepPin:
    def test_outcome_counts_unchanged(self):
        """Stage-1 and stage-2 integer results of a seeded sweep are
        byte-stable: any drift in the numeric chain (bank, MIM, FAST,
        descriptors, matching, RANSAC, box alignment) shows up here."""
        from repro.experiments.common import (default_dataset,
                                              run_pose_recovery_sweep)
        outcomes = run_pose_recovery_sweep(
            default_dataset(12, 2024), include_vips=False, workers=1,
            cache=False)
        assert [(o.index, o.success, o.inliers_bv, o.inliers_box,
                 o.num_matches, o.num_matched_boxes, o.failure_reason,
                 o.degradation) for o in outcomes] == _PINNED_SWEEP
