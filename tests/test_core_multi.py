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


# ----------------------------------------------------------------------
# The helper thread: align on two threads must equal align on one.
# ----------------------------------------------------------------------
def _fleet_frame(seed):
    from repro.detection.simulated import SimulatedDetector
    from repro.simulation.multi import MultiScenarioConfig, make_multi_frame
    from repro.simulation.scenario import ScenarioConfig
    frame = make_multi_frame(MultiScenarioConfig(
        scenario=ScenarioConfig(same_direction_prob=1.0), num_vehicles=4,
        spacing=22.0, density=2.5, degradation=1),
        rng=np.random.default_rng([seed, 0]))
    detector = SimulatedDetector()
    boxes = [[d.box for d in detector.detect(
        visible, np.random.default_rng([seed, 0, i]))]
        for i, visible in enumerate(frame.visible)]
    return list(frame.clouds), boxes, frame.candidate_pairs()


@pytest.fixture(scope="module")
def fleet():
    return _fleet_frame(3)


@pytest.fixture
def threads(monkeypatch):
    """``threads(helper)`` forces the helper on (even on a one-CPU host)
    or off, and reports which threads ran extraction and edges."""
    import sys
    import threading

    from repro.core.pipeline import BBAlign
    from repro.runtime import helper as helper_module

    seen: set[str] = set()
    recover = BBAlign.recover

    def spy(self, *args, **kwargs):
        seen.add(threading.current_thread().name)
        return recover(self, *args, **kwargs)

    monkeypatch.setattr(BBAlign, "recover", spy)
    interval = sys.getswitchinterval()
    # Switch threads as often as possible to force interleavings.
    sys.setswitchinterval(1e-6)

    def force(helper: bool) -> set[str]:
        monkeypatch.setattr(helper_module, "usable_cpus",
                            lambda: 2 if helper else 1)
        seen.clear()
        return seen

    yield force
    sys.setswitchinterval(interval)


def _state(aligner, *alignments):
    """Everything align produces, as bytes: poses, edges, recoveries,
    residuals, solutions and the aligner's fallback memory."""
    import pickle
    return pickle.dumps((alignments, aligner.aligner.last_good_transform))


def _both(threads, run):
    """``run(aligner)`` serially, then with the helper; both states."""
    from repro.runtime.helper import HELPER_THREAD_NAME
    threads(helper=False)
    serial = MultiVehicleAligner()
    serial_state = _state(serial, *run(serial))
    seen = threads(helper=True)
    shared = MultiVehicleAligner()
    shared_state = _state(shared, *run(shared))
    assert HELPER_THREAD_NAME in seen, seen
    return serial_state, shared_state


class TestHelperEquivalence:
    def test_all_pairs(self, fleet, threads):
        clouds, boxes, _ = fleet
        serial, shared = _both(threads, lambda a: [
            a.align(clouds, boxes, rng=5)])
        assert shared == serial

    def test_candidate_pairs(self, fleet, threads):
        clouds, boxes, pairs = fleet
        serial, shared = _both(threads, lambda a: [
            a.align(clouds, boxes, rng=5, pairs=pairs)])
        assert shared == serial

    def test_cache_path(self, fleet, threads):
        """Misses extract on both threads, hits come back from the
        cache, and the cache sees the same lookups either way."""
        from repro.runtime.cache import FeatureCache
        clouds, boxes, pairs = fleet
        caches = []

        def run(aligner):
            cache = FeatureCache(max_entries=6)
            caches.append(cache)
            out = [aligner.align(clouds, boxes, rng=5, pairs=pairs,
                                 cache=cache, scene_key=key)
                   for key in ("a", "b", "a")]
            return out

        serial, shared = _both(threads, run)
        assert shared == serial
        first, second = caches
        assert (first.hits, first.misses, first.evictions) \
            == (second.hits, second.misses, second.evictions)
        assert first.hits > 0
        assert list(first._entries) == list(second._entries)

    def test_incremental(self, fleet, threads):
        clouds, boxes, pairs = fleet
        serial, shared = _both(threads, lambda a: [
            a.align(clouds, boxes, rng=5, pairs=pairs),
            a.align(clouds, boxes, rng=5, pairs=pairs, incremental=True)])
        assert shared == serial

    def test_degraded_edges_fall_back_in_candidate_order(
            self, fleet, threads, monkeypatch):
        """Stage 1 raises, after a pause, on the first and the third
        candidate edge.  Their fallbacks must be what a serial loop
        gives: identity for the first, the pose of the edge that
        succeeded last before it for the third — not a pose that the
        other thread recovered for a later edge during the pause."""
        import time

        from repro.core.bv_matching import BVMatcher
        from repro.core.degradation import DegradationLevel
        clouds, boxes, pairs = fleet
        extract = MultiVehicleAligner().aligner.extract_features
        keypoints = [extract(cloud).keypoints.xy for cloud in clouds]
        failing = [pairs[0], pairs[2]]
        match = BVMatcher.match

        def flaky(self, other, ego, *args, **kwargs):
            for i, j in failing:
                if np.array_equal(ego.keypoints.xy, keypoints[i]) \
                        and np.array_equal(other.keypoints.xy,
                                           keypoints[j]):
                    time.sleep(0.3)
                    raise RuntimeError(f"stage 1 broke on ({i}, {j})")
            return match(self, other, ego, *args, **kwargs)

        monkeypatch.setattr(BVMatcher, "match", flaky)
        results = []

        def run(aligner):
            result = aligner.align(clouds, boxes, rng=5, pairs=pairs)
            results.append(result)
            return [result]

        serial, shared = _both(threads, run)
        assert shared == serial
        recoveries = [results[1].recoveries[pair] for pair in pairs]
        succeeded = [r.success for r in recoveries]
        # The frame has a success between and after the failing edges,
        # so a fallback read at the wrong moment would show.
        assert succeeded[1] and any(succeeded[3:])
        assert recoveries[0].degradation is DegradationLevel.IDENTITY
        assert recoveries[2].degradation is DegradationLevel.TEMPORAL
        assert recoveries[2].transform == recoveries[1].transform


class TestHelperTelemetry:
    def test_metrics_and_spans_match_serial(self, fleet, threads):
        from repro.obs.spans import collect_spans, span
        from repro.runtime.timings import SweepTimings, use_timings
        clouds, boxes, pairs = fleet

        def run(aligner):
            timings = SweepTimings()
            with use_timings(timings), collect_spans() as trace:
                with span("test/root") as root:
                    aligner.align(clouds, boxes, rng=5, pairs=pairs)
            registry = timings.registry
            counters = registry.counter_values("stage1/")
            counters.update(registry.counter_values("pipeline/"))
            counts = {name: h.count for name, h
                      in registry.histograms.items()
                      if name.startswith(("stage1/", "span/multi/"))}
            spans = [e for e in trace.events if e["name"] != "test/root"]
            return counters, counts, spans, root.span_id

        threads(helper=False)
        serial = run(MultiVehicleAligner())
        threads(helper=True)
        shared = run(MultiVehicleAligner())
        assert shared[0] == serial[0] and serial[0]["stage1/matches"] > 0
        assert shared[1] == serial[1]
        assert shared[1]["span/multi/edge/seconds"] == len(pairs)

        def items(spans):
            return sorted((e["name"], sorted(e["attrs"].items()))
                          for e in spans)

        spans, root = shared[2], shared[3]
        assert items(spans) == items(serial[2])
        assert {e["parent_id"] for e in spans} == {root}
        assert len({e["span_id"] for e in spans}) == len(spans)


def _scene_in_worker(payload):
    """Evaluate one multi-grid scene; report the worker's threads."""
    import threading

    from repro.experiments.multi_study import _evaluate_scene
    from repro.runtime.pool import in_pool_worker
    outcome = _evaluate_scene(payload)
    return (in_pool_worker(), outcome,
            sorted(t.name for t in threading.enumerate()))


class TestPoolWorkerRule:
    def test_pool_workers_start_no_helper(self, monkeypatch):
        """Engine workers already own the cores: multi-grid scenes run
        there without a helper thread, and the grid's output matches
        an in-process run that may use one."""
        from repro.experiments.multi_study import (
            _ScenePayload,
            run_multi_grid,
        )
        from repro.runtime import helper as helper_module
        from repro.runtime.engine import run_tasks_parallel
        from repro.runtime.helper import HELPER_THREAD_NAME
        monkeypatch.setattr(helper_module, "usable_cpus", lambda: 2)
        payloads = [_ScenePayload(2024, scene, 3, 22.0, 1.0, 1)
                    for scene in range(2)]
        reports = run_tasks_parallel(_scene_in_worker, payloads, workers=2)
        for in_worker, _, names in reports:
            assert in_worker
            assert HELPER_THREAD_NAME not in names
        grid = dict(num_pairs=1, fleet_sizes=(3,), densities=(1.0,),
                    degradations=(0, 1))
        assert repr(run_multi_grid(workers=2, **grid)) \
            == repr(run_multi_grid(workers=1, **grid))
