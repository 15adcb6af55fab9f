"""The ``fleet`` workload: in-process multi-vehicle pose graphs.

Set-up generates ``SCENES`` five-vehicle frames (spacing 22 m, density
2.5, degradation 1, all vehicles driving one way; frame ``i`` from
``[seed, i]``) with their detections and candidate edges.  Each timed
operation is one ``MultiVehicleAligner.align(..., pairs=
frame.candidate_pairs())`` with no feature cache.  A run cycles over the
frames until ``--seconds`` have passed and every frame was aligned at
least once; a repeated frame must reproduce its first alignment, and
the digest of all first alignments must match earlier runs of the same
program sources.

Coverage and accuracy are scored once per frame against ground truth.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.common import (
    WorkloadResult,
    digest,
    make_scene,
    median,
    percentile,
)
from perfbench.ledger import format_table, layer_metrics

SCENES = 20
WARMUPS = 3

# Ledger rows in pipeline order; every wrapped layer that runs in
# ``align`` appears here.
_ROWS = ("bev.projection", "bev.mim", "features.fast",
         "features.descriptors", "features.extract", "features.nn",
         "geometry.ransac", "features.match", "core.box_alignment",
         "core.recover", "core.pose_graph", "core.multi")


def _align(aligner, scene, seed: int):
    return aligner.align(
        list(scene.frame.clouds), list(scene.boxes),
        rng=np.random.default_rng([seed, scene.index, 99]),
        pairs=scene.pairs)


def _signature(alignment) -> tuple:
    poses = tuple(None if pose is None else (pose.theta, pose.tx, pose.ty)
                  for pose in alignment.poses)
    edges = tuple(sorted((key, r.success, r.inliers_bv, r.inliers_box)
                         for key, r in alignment.recoveries.items()))
    return poses, edges


def _traced_align(aligner, scene, seed: int, ledger):
    """One alignment with the layer wrappers installed; returns (wall
    including installation, alignment)."""
    began = time.perf_counter()
    ledger.install()
    try:
        alignment = _align(aligner, scene, seed)
    except Exception:  # the untraced alignment reports the error
        alignment = None
    finally:
        ledger.uninstall()
    return time.perf_counter() - began, alignment


def run(seed: int, seconds: float, trace: bool, ledger, store,
        calibrator) -> WorkloadResult:
    from repro.core.multi import MultiVehicleAligner
    from repro.detection.simulated import SimulatedDetector
    from repro.metrics.pose_error import pose_errors

    result = WorkloadResult("fleet")
    if trace:
        ledger.install()
    start = time.perf_counter()
    detector = SimulatedDetector()
    scenes = [make_scene(seed, index, detector) for index in range(SCENES)]
    warm_scene = make_scene(seed, SCENES, detector)
    generation_s = time.perf_counter() - start
    result.setup_samples.append(calibrator.sample())
    aligner = MultiVehicleAligner()
    warm_s = []
    for _ in range(WARMUPS):
        start = time.perf_counter()
        _align(aligner, warm_scene, seed)
        warm_s.append(time.perf_counter() - start)
        result.setup_samples.append(calibrator.sample())
    result.setup_s = generation_s + median(warm_s)
    setup_ledger = ledger.snapshot()
    ledger.uninstall()
    ledger.reset()

    walls: list[float] = []
    scaled: list[float] = []
    traced_walls: list[float] = []
    first: dict[int, tuple] = {}
    targets = direct = graph = accurate = 0
    start = time.perf_counter()
    op = 0
    while op < SCENES or time.perf_counter() - start < seconds:
        scene = scenes[op % SCENES]
        # Traced and untraced alignments of a frame alternate in order.
        traced_first = trace and op % 2 == 1
        if traced_first:
            traced = _traced_align(aligner, scene, seed, ledger)
        result.attempted += 1
        if trace or not walls:
            # The kernel ran right after the previous untraced alignment
            # unless a traced one ran since.
            after = calibrator.sample()
        before = after
        began = time.perf_counter()
        try:
            alignment = _align(aligner, scene, seed)
        except Exception as error:  # counted and reported, never fatal
            alignment = None
            result.failed += 1
            result.report.append(f"fleet: frame {scene.index} raised "
                                 f"{type(error).__name__}: {error}")
        walls.append(time.perf_counter() - began)
        after = calibrator.sample()
        scaled.append(walls[-1] * calibrator.factor(before, after))
        if trace and not traced_first:
            traced = _traced_align(aligner, scene, seed, ledger)
        if alignment is None:
            op += 1
            continue
        signature = _signature(alignment)
        if scene.index in first:
            result.check(f"repeat frame {scene.index} (op {op})",
                         signature == first[scene.index])
        else:
            first[scene.index] = signature
            frame = scene.frame
            for vehicle in range(1, frame.num_vehicles):
                targets += 1
                edge = alignment.recoveries.get((0, vehicle))
                direct += int(edge is not None and edge.success)
                pose = alignment.poses[vehicle]
                if pose is not None:
                    graph += 1
                    accurate += int(pose_errors(
                        pose, frame.gt_relative(0, vehicle)).within())
        if trace:
            traced_walls.append(traced[0])
            result.check(f"traced frame {scene.index} (op {op})",
                         traced[1] is not None
                         and _signature(traced[1]) == signature)
        op += 1

    store.check(result, f"fleet-{seed}",
                digest(first[index] for index in sorted(first)))
    coverage = graph / targets if targets else 0.0
    direct_coverage = direct / targets if targets else 0.0
    result.check("graph coverage >= direct coverage", graph >= direct,
                 f"graph {graph}/{targets}, direct {direct}/{targets}")
    frames_per_s = len(scaled) / sum(scaled)
    p50_ms = median(scaled) * 1000.0
    p90_ms = percentile(scaled, 0.9) * 1000.0
    result.end_to_end = {
        "throughput_per_s": frames_per_s,
        "latency_p50_ms": p50_ms,
        "latency_p90_ms": p90_ms,
    }
    result.named = [
        ("fleet.frames_per_s", frames_per_s, "1/s"),
        ("fleet.frame_p90_ms", p90_ms, "ms"),
        ("fleet.coverage", coverage, "share"),
        ("fleet.frame_p50_ms", p50_ms, "ms"),
        ("fleet.direct_coverage", direct_coverage, "share"),
        ("fleet.accurate_rate", accurate / targets if targets else 0.0,
         "share"),
    ]
    result.report.append(
        f"fleet: {len(walls)} frame alignments over {SCENES} frames "
        f"({sum(len(s.pairs) for s in scenes)} candidate edges), measured "
        f"{len(walls) / sum(walls):.3f} frames/s, p90 "
        f"{percentile(walls, 0.9) * 1000.0:.1f} ms")
    if trace:
        _ledger(result, ledger.snapshot(), setup_ledger, traced_walls,
                walls)
    return result


def _ledger(result: WorkloadResult, traced: dict, setup: dict,
            traced_walls: list[float], walls: list[float]) -> None:
    self_s, calls = traced["self_s"], traced["calls"]
    rows = [(row, self_s.get(row, 0.0), calls.get(row, 0))
            for row in _ROWS]
    rows.extend((row, seconds, calls[row]) for row, seconds
                in sorted(self_s.items()) if row not in _ROWS)
    ledger_wall = sum(traced_walls)
    unattributed = ledger_wall - sum(row[1] for row in rows)
    result.per_layer.update(layer_metrics(traced))
    result.per_layer.update({
        "simulation.busy_s": setup["self_s"].get("simulation", 0.0),
        "detection.busy_s": setup["self_s"].get("detection", 0.0),
        "unattributed_s": unattributed,
        "trace_overhead_s": sum(traced_walls) - sum(walls),
    })
    result.report.extend(format_table(
        "fleet", rows, ledger_wall, unattributed,
        note=f"{len(traced_walls)} traced frame alignments"))
    result.report.append(
        f"  set-up (not in wall): simulation "
        f"{setup['self_s'].get('simulation', 0.0):.3f} s, detection "
        f"{setup['self_s'].get('detection', 0.0):.3f} s")
    result.report.append(
        f"  tracing overhead: traced {sum(traced_walls):.3f} s - "
        f"untraced {sum(walls):.3f} s = "
        f"{sum(traced_walls) - sum(walls):+.3f} s")
