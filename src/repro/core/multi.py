"""Multi-vehicle pose recovery: pairwise BB-Align + robust pose graph.

BB-Align is pairwise; with K cooperating vehicles the pairwise
recoveries form a *pose graph* whose redundancy buys three things the
paper's two-vehicle setting cannot have:

* **relay** — if the direct recovery ego<->k fails (little overlap), k
  is still reachable through an intermediate vehicle;
* **adjudication** — cycles in the graph measure recovery error without
  ground truth (a loop composition should be the identity), and
  triangle voting rejects a corrupted pairwise estimate a third car
  disputes (:func:`repro.core.pose_graph.cycle_gate`);
* **fusion** — the surviving edges are fused by inlier-weighted robust
  least squares (Gauss-Newton with Huber weights,
  :func:`repro.core.pose_graph.optimize_pose_graph`), so every edge's
  evidence sharpens every pose instead of one spanning-tree path
  deciding each.

:class:`MultiVehicleAligner` extracts each vehicle's stage-1 features
exactly once (optionally through a :class:`~repro.runtime.cache.\
FeatureCache`, so consecutive frames or repeated scenes skip
re-extraction), runs pairwise :meth:`~repro.core.pipeline.BBAlign.\
recover` over a caller-supplied connectivity graph (all pairs by
default), and fuses the successful edges.  An *incremental* mode
(``incremental=True``) warm-starts from the previous call's graph and
only re-solves connected components whose edges changed — on an
unchanged graph the fused poses are returned without running a single
Gauss-Newton iteration, bit-identical to a full solve.

**Two threads.**  Extraction and the edge recoveries are independent
items whose kernels run mostly with the GIL released, so both phases go
through :func:`repro.runtime.helper.shared_map`: the calling thread plus
one helper thread where the process has a spare core.  The output is
byte-identical to a serial run.  Extraction is a pure function and
every edge draws its own RANSAC stream; the feature cache is read and
written on the calling thread only; and the one order-dependent piece
of state, the aligner's last-good fallback pose, is settled on the
calling thread in candidate order after the edges return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from repro.core.bv_matching import BVFeatures
from repro.core.config import BBAlignConfig
from repro.core.degradation import FailureReason, StageDiagnostics
from repro.core.pipeline import BBAlign
from repro.core.pose_graph import (
    CycleGateResult,
    PoseGraphConfig,
    PoseGraphEdge,
    PoseGraphSolution,
    connected_components,
    cycle_gate,
    solve_incremental,
)
from repro.core.result import PoseRecoveryResult
from repro.geometry.se2 import SE2
from repro.obs.spans import span
from repro.pointcloud.cloud import PointCloud
from repro.runtime.cache import FeatureCache, extraction_fingerprint
from repro.runtime.helper import shared_map

__all__ = ["MultiAlignment", "MultiVehicleAligner"]


@dataclass(frozen=True)
class MultiAlignment:
    """K-vehicle alignment result.

    Attributes:
        poses: per-vehicle pose in the ego (vehicle-0) frame; ``None``
            where the vehicle is unreachable from the ego through
            surviving edges.
        edges: edges that survived cycle gating and fed the solve.
        rejected_edges: edges cycle gating threw out.
        recoveries: every attempted pairwise result, keyed ``(target,
            source)``, for diagnostics.
        cycle_residuals: per-3-cycle loop errors *before* gating
            (translation meters, rotation degrees) — a ground-truth-free
            health metric.
        edge_residuals: per undirected pair, the post-optimization
            scaled residual norm.
        solution: the raw :class:`~repro.core.pose_graph.\
PoseGraphSolution` (component gauges; feed it back for incremental
            re-solves).
    """

    poses: tuple[SE2 | None, ...]
    edges: tuple[PoseGraphEdge, ...]
    recoveries: dict[tuple[int, int], PoseRecoveryResult]
    cycle_residuals: tuple[tuple[float, float], ...]
    rejected_edges: tuple[PoseGraphEdge, ...] = ()
    edge_residuals: dict[tuple[int, int], float] = field(
        default_factory=dict)
    solution: PoseGraphSolution | None = None

    @property
    def num_resolved(self) -> int:
        return sum(p is not None for p in self.poses)


class _DeferredFallback(Exception):
    """An edge that fell to the ladder's bottom rungs, unresolved.

    Carries :meth:`BBAlign._degraded_result`'s arguments: its fallback
    pose is the last one that succeeded *before it in candidate order*,
    which only the calling thread knows once every edge has returned.
    """


class _EdgeAligner(BBAlign):
    """The fleet's aligner as seen by edges running on two threads.

    Shares the wrapped aligner's configuration and matchers.  Degraded
    results raise :class:`_DeferredFallback` instead of reading the
    fallback memory, and the ``_last_good`` this view writes on success
    is never read; :meth:`MultiVehicleAligner.align` settles both on
    the real aligner in candidate order.
    """

    def __init__(self, aligner: BBAlign) -> None:
        self.__dict__.update(vars(aligner))

    def _degraded_result(self, reason: FailureReason,
                         diagnostics: StageDiagnostics,
                         message_bytes: int = 0) -> NoReturn:
        raise _DeferredFallback(reason, diagnostics, message_bytes)


class MultiVehicleAligner:
    """Pairwise BB-Align + cycle-gated robust pose-graph fusion.

    :meth:`align` may run its extractions and edges on a helper thread
    as well as the calling thread (see the module docstring); one
    instance must not be used by two calling threads at once.
    """

    def __init__(self, config: BBAlignConfig | None = None,
                 graph: PoseGraphConfig | None = None) -> None:
        self.aligner = BBAlign(config)
        self.graph_config = graph or PoseGraphConfig()
        self._previous: PoseGraphSolution | None = None

    # ------------------------------------------------------------------
    @property
    def previous_solution(self) -> PoseGraphSolution | None:
        """The last fused graph (incremental-mode warm-start memory)."""
        return self._previous

    def reset(self) -> None:
        """Forget the previous graph (e.g. when the fleet changes)."""
        self._previous = None

    # ------------------------------------------------------------------
    def _features(self, clouds, cache: FeatureCache | None,
                  scene_key) -> list[BVFeatures]:
        """Stage-1 features, one extraction per vehicle.

        With a cache and a scene key, each vehicle's features are keyed
        ``(scene_key, index, "multi", extraction fingerprint)`` — the
        incident edges of a vehicle share one extraction, and repeated
        scenes (worker processes revisiting a frame, incremental
        re-alignment of an unchanged fleet) skip extraction entirely.
        The cache is read and written on the calling thread, in vehicle
        order; only the misses are extracted, on both threads.
        """
        vehicles = list(enumerate(clouds))
        if cache is None or scene_key is None:
            return shared_map(self._extract, vehicles)
        extraction_fp = extraction_fingerprint(self.aligner.config)
        keys = [(scene_key, index, "multi", extraction_fp)
                for index, _ in vehicles]
        hits = [cache.get(key) for key in keys]
        extracted = iter(shared_map(self._extract, [
            vehicle for vehicle, hit in zip(vehicles, hits) if hit is None]))
        features: list[BVFeatures] = []
        for key, hit in zip(keys, hits):
            if hit is None:
                hit = next(extracted)
                cache.put(key, hit)
            features.append(hit)
        return features

    def _extract(self, vehicle: tuple[int, PointCloud]) -> BVFeatures:
        index, cloud = vehicle
        with span("multi/extract", vehicle=index):
            return self.aligner.extract_features(cloud)

    @staticmethod
    def _normalize_pairs(k: int, pairs) -> list[tuple[int, int]]:
        if pairs is None:
            return [(i, j) for i in range(k) for j in range(i + 1, k)]
        normalized: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for i, j in pairs:
            if not (0 <= i < k and 0 <= j < k) or i == j:
                raise ValueError(f"invalid pair ({i}, {j}) for {k} "
                                 "vehicles")
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                normalized.append(key)
        return normalized

    # ------------------------------------------------------------------
    def align(self, clouds, boxes_per_vehicle,
              rng: np.random.Generator | int | None = None, *,
              pairs=None, cache: FeatureCache | None = None,
              scene_key=None,
              incremental: bool = False) -> MultiAlignment:
        """Align K vehicles into the ego (index 0) frame.

        Args:
            clouds: K point clouds, each in its vehicle's own frame.
            boxes_per_vehicle: K lists of detected boxes (own frames).
            rng: randomness for the RANSAC stages.  Per-pair streams
                spawn as ``[root, i, j]`` from one root draw, so which
                *subset* of pairs runs does not perturb any pair's
                stream.
            pairs: candidate connectivity — iterable of ``(i, j)``
                vehicle index pairs to attempt (e.g. from
                :meth:`repro.simulation.multi.MultiFrame.\
candidate_pairs`).  ``None`` attempts every pair.
            cache: optional feature cache; see :meth:`_features`.
            scene_key: hashable identity of this frame for the cache.
            incremental: warm-start from the previous call's solved
                graph, re-solving only components whose edge sets
                changed (see :func:`~repro.core.pose_graph.\
solve_incremental`).

        Returns:
            A :class:`MultiAlignment`.
        """
        k = len(clouds)
        if len(boxes_per_vehicle) != k:
            raise ValueError("need one box list per vehicle")
        if k < 2:
            raise ValueError("need at least two vehicles")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        candidate_pairs = self._normalize_pairs(k, pairs)

        features = self._features(clouds, cache, scene_key)

        # One root draw keeps per-pair streams subset-stable: a sparser
        # connectivity graph replays the exact streams the full graph
        # would hand the same pairs.
        root = int(rng.integers(0, 2 ** 31))
        edge_aligner = _EdgeAligner(self.aligner)

        def recover(pair: tuple[int, int]
                    ) -> PoseRecoveryResult | Exception:
            i, j = pair
            with span("multi/edge", target=i, source=j):
                try:
                    return edge_aligner.recover(
                        features[i], features[j],
                        boxes_per_vehicle[i], boxes_per_vehicle[j],
                        rng=np.random.default_rng([root, i, j]))
                except Exception as error:  # settled in candidate order
                    return error

        outcomes = shared_map(recover, candidate_pairs)
        recoveries: dict[tuple[int, int], PoseRecoveryResult] = {}
        measured: list[PoseGraphEdge] = []
        for (i, j), result in zip(candidate_pairs, outcomes):
            # What a serial loop does to the fallback memory, in order.
            if isinstance(result, _DeferredFallback):
                result = self.aligner._degraded_result(*result.args)
            elif isinstance(result, Exception):
                raise result
            elif result.success:
                self.aligner._last_good = result.transform
            recoveries[(i, j)] = result
            if result.success:
                weight = float(result.inliers_bv + result.inliers_box)
                measured.append(PoseGraphEdge(i, j, result.transform,
                                              weight))

        poses, gate, solution = self.fuse(k, measured,
                                          incremental=incremental)
        return MultiAlignment(poses=poses, edges=gate.kept,
                              recoveries=recoveries,
                              cycle_residuals=gate.cycle_residuals,
                              rejected_edges=gate.rejected,
                              edge_residuals=dict(
                                  solution.edge_residuals),
                              solution=solution)

    # ------------------------------------------------------------------
    def fuse(self, num_vehicles: int, edges, *,
             incremental: bool = False,
             ) -> tuple[tuple[SE2 | None, ...], CycleGateResult,
                        PoseGraphSolution]:
        """Gate, solve and re-base measured edges into the ego frame.

        The three-step pipeline behind :meth:`align`, exposed for
        callers that already hold pairwise measurements: triangle-vote
        gating, robust per-component Gauss-Newton, then re-basing the
        ego's component so vehicle 0 is the identity.  Vehicles outside
        the ego's component have a pose only in their own component's
        gauge — unrecoverable into the ego frame, so they map to
        ``None``.

        Updates (and in incremental mode consumes) the aligner's
        previous-solution memory.
        """
        gate = cycle_gate(edges, self.graph_config)
        previous = self._previous if incremental else None
        solution = solve_incremental(num_vehicles, gate.kept, previous,
                                     self.graph_config)
        self._previous = solution

        ego_component: set[int] = {0}
        for component in connected_components(num_vehicles, gate.kept):
            if 0 in component:
                ego_component = set(component)
                break
        ego_pose = solution.poses[0]
        poses: list[SE2 | None] = [None] * num_vehicles
        poses[0] = SE2.identity()
        if ego_pose is not None:
            base = ego_pose.inverse()
            for node in ego_component:
                node_pose = solution.poses[node]
                if node != 0 and node_pose is not None:
                    poses[node] = base @ node_pose
        return tuple(poses), gate, solution
