"""Tests for repro.core.multi (pose-graph alignment)."""

import numpy as np
import pytest

from repro.core.multi import MultiVehicleAligner
from repro.core.pose_graph import PoseGraphConfig, PoseGraphEdge, cycle_gate
from repro.geometry.se2 import SE2


def exact_edges(poses, pairs, weight=10.0, perturb=None):
    """Build edges with ground-truth transforms (optionally perturbed)."""
    edges = []
    for index, (i, j) in enumerate(pairs):
        transform = poses[i].inverse() @ poses[j]
        if perturb and index in perturb:
            d = perturb[index]
            transform = SE2(transform.theta + d[0],
                            transform.tx + d[1], transform.ty + d[2])
        edges.append(PoseGraphEdge(i, j, transform, weight))
    return edges


GT_POSES = [SE2(0.0, 0.0, 0.0), SE2(0.1, 20.0, 2.0),
            SE2(-0.2, 45.0, -1.0), SE2(3.0, 70.0, 3.0)]


class TestFusion:
    def test_full_graph_exact(self):
        aligner = MultiVehicleAligner()
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        poses, gate, solution = aligner.fuse(
            4, exact_edges(GT_POSES, pairs))
        assert gate.rejected == ()
        assert solution.converged
        for estimate, truth in zip(poses, GT_POSES):
            expected = GT_POSES[0].inverse() @ truth
            assert estimate.is_close(expected, atol_translation=1e-6,
                                     atol_rotation=1e-7)

    def test_relay_through_intermediate(self):
        """No direct ego<->3 edge: vehicle 3 resolves via the chain."""
        aligner = MultiVehicleAligner()
        pairs = [(0, 1), (1, 2), (2, 3)]
        poses, _, _ = aligner.fuse(4, exact_edges(GT_POSES, pairs))
        assert poses[3] is not None
        expected = GT_POSES[0].inverse() @ GT_POSES[3]
        assert poses[3].is_close(expected, atol_translation=1e-6,
                                 atol_rotation=1e-7)

    def test_unreachable_vehicle_unresolved(self):
        aligner = MultiVehicleAligner()
        pairs = [(0, 1)]  # vehicles 2, 3 isolated
        poses, _, _ = aligner.fuse(4, exact_edges(GT_POSES, pairs))
        assert poses[2] is None and poses[3] is None
        assert poses[1] is not None

    def test_component_without_ego_unresolved(self):
        """Vehicles 2<->3 connect to each other but not to the ego:
        their mutual pose exists only in their own gauge, so neither
        can be re-based into the ego frame."""
        aligner = MultiVehicleAligner()
        pairs = [(0, 1), (2, 3)]
        poses, _, solution = aligner.fuse(
            4, exact_edges(GT_POSES, pairs))
        assert poses[2] is None and poses[3] is None
        # ... but the solver did resolve their component internally.
        assert solution.poses[2] is not None
        assert solution.poses[3] is not None

    def test_planted_bad_edge_rejected_and_accurate(self):
        """Cycle gating: a corrupted pairwise estimate disputed by two
        triangles is rejected, and the fused poses stay on truth."""
        aligner = MultiVehicleAligner()
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        # Edge (0, 2) direct is off by 8 m in x.
        edges = exact_edges(GT_POSES, pairs,
                            perturb={1: (0.0, 8.0, 0.0)})
        poses, gate, _ = aligner.fuse(4, edges)
        assert {e.key for e in gate.rejected} == {(0, 2)}
        for index in range(1, 4):
            truth = GT_POSES[0].inverse() @ GT_POSES[index]
            assert poses[index].translation_distance(truth) < 1e-6

    def test_weights_prefer_confident_edges(self):
        aligner = MultiVehicleAligner()
        good = exact_edges(GT_POSES[:3], [(0, 1), (1, 2)], weight=100.0)
        bad = exact_edges(GT_POSES[:3], [(0, 2)], weight=1.0,
                          perturb={0: (0.0, 3.0, 0.0)})
        poses, gate, _ = aligner.fuse(3, good + bad)
        # One triangle, no witness: the gate must keep the bad edge...
        assert gate.rejected == ()
        # ... and weighting + Huber keep the fused pose near truth.
        truth = GT_POSES[0].inverse() @ GT_POSES[2]
        assert poses[2].translation_distance(truth) < 0.5

    def test_incremental_fuse_reuses_unchanged_graph(self):
        aligner = MultiVehicleAligner()
        pairs = [(0, 1), (0, 2), (1, 2)]
        edges = exact_edges(GT_POSES[:3], pairs)
        first, _, _ = aligner.fuse(3, edges)
        again, _, solution = aligner.fuse(3, edges, incremental=True)
        assert again == first
        assert solution.reused_components == 1
        assert solution.iterations == 0
        aligner.reset()
        assert aligner.previous_solution is None


class TestCycleResiduals:
    def test_exact_cycle_zero_residual(self):
        pairs = [(0, 1), (1, 2), (0, 2)]
        gate = cycle_gate(exact_edges(GT_POSES[:3], pairs))
        assert len(gate.cycle_residuals) == 1
        assert gate.cycle_residuals[0][0] < 1e-9
        assert gate.cycle_residuals[0][1] < 1e-9

    def test_perturbed_cycle_nonzero(self):
        pairs = [(0, 1), (1, 2), (0, 2)]
        edges = exact_edges(GT_POSES[:3], pairs,
                            perturb={0: (0.0, 1.0, 0.0)})
        gate = cycle_gate(edges)
        assert gate.cycle_residuals[0][0] > 0.5

    def test_incomplete_cycle_skipped(self):
        pairs = [(0, 1), (1, 2)]
        gate = cycle_gate(exact_edges(GT_POSES[:3], pairs))
        assert gate.cycle_residuals == ()


class TestPairNormalization:
    def test_invalid_pairs_rejected(self):
        normalize = MultiVehicleAligner._normalize_pairs
        with pytest.raises(ValueError):
            normalize(3, [(0, 3)])
        with pytest.raises(ValueError):
            normalize(3, [(1, 1)])

    def test_default_is_all_pairs(self):
        assert MultiVehicleAligner._normalize_pairs(3, None) == [
            (0, 1), (0, 2), (1, 2)]

    def test_dedup_and_orientation(self):
        assert MultiVehicleAligner._normalize_pairs(
            4, [(2, 0), (0, 2), (3, 1)]) == [(0, 2), (1, 3)]


class TestEndToEndMulti:
    @pytest.fixture(scope="class")
    def multi_frame(self):
        from repro.simulation.multi import (
            MultiScenarioConfig,
            make_multi_frame,
        )
        from repro.simulation.scenario import ScenarioConfig
        return make_multi_frame(MultiScenarioConfig(
            scenario=ScenarioConfig(distance=20.0),
            num_vehicles=3, spacing=18.0, same_direction_prob=1.0), rng=4)

    @pytest.fixture(scope="class")
    def boxes(self, multi_frame):
        from repro.detection.simulated import SimulatedDetector
        detector = SimulatedDetector()
        return [[d.box for d in detector.detect(v, rng=i)]
                for i, v in enumerate(multi_frame.visible)]

    def test_alignment_resolves_vehicles(self, multi_frame, boxes):
        aligner = MultiVehicleAligner()
        result = aligner.align(list(multi_frame.clouds), boxes, rng=0)
        assert result.num_resolved >= 2
        for index, pose in enumerate(result.poses):
            if pose is None or index == 0:
                continue
            truth = multi_frame.gt_relative(0, index)
            assert pose.translation_distance(truth) < 2.0

    def test_incremental_align_is_identical(self, multi_frame, boxes):
        """Same clouds, same rng: the warm-started re-align must return
        bit-identical poses without re-solving anything."""
        aligner = MultiVehicleAligner()
        first = aligner.align(list(multi_frame.clouds), boxes, rng=0)
        second = aligner.align(list(multi_frame.clouds), boxes, rng=0,
                               incremental=True)
        assert second.poses == first.poses
        assert second.solution.reused_components >= 1

    def test_feature_cache_shares_extractions(self, multi_frame, boxes):
        from repro.runtime.cache import FeatureCache
        cache = FeatureCache(max_entries=16)
        aligner = MultiVehicleAligner()
        a = aligner.align(list(multi_frame.clouds), boxes, rng=0,
                          cache=cache, scene_key="scene-a")
        misses_after_first = cache.misses
        b = aligner.align(list(multi_frame.clouds), boxes, rng=0,
                          cache=cache, scene_key="scene-a")
        # One extraction per vehicle on the first pass, all hits after.
        assert misses_after_first == multi_frame.num_vehicles
        assert cache.misses == misses_after_first
        assert cache.hits == multi_frame.num_vehicles
        assert b.poses == a.poses

    def test_input_validation(self):
        aligner = MultiVehicleAligner()
        with pytest.raises(ValueError):
            aligner.align([], [], rng=0)
        from repro.pointcloud.cloud import PointCloud
        with pytest.raises(ValueError):
            aligner.align([PointCloud.empty()] * 2, [[]], rng=0)

    def test_graph_config_is_wired(self):
        config = PoseGraphConfig(cycle_translation_tol=0.5)
        aligner = MultiVehicleAligner(graph=config)
        assert aligner.graph_config.cycle_translation_tol == 0.5
