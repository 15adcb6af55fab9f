"""Robust SE(2) pose-graph optimization for N-vehicle recovery.

Pairwise BB-Align produces relative-pose *measurements*; with N
cooperating vehicles those measurements form a pose graph whose
redundancy this module exploits in three steps:

1. **Cycle gating** (:func:`cycle_gate`) — every 3-cycle of edges
   composes to (near) identity when its edges are consistent.  Each
   triangle votes on its three edges; an edge whose inconsistent votes
   decisively outnumber its consistent ones is rejected *before*
   optimization.  This is the "third car adjudicates a disputed pair"
   mechanism: a corrupted pairwise estimate trips every triangle it
   participates in, while the good edges it implicates are vindicated by
   their other triangles.  A lone inconsistent triangle (no witness) is
   left alone — with no adjudicator the blame cannot be pinned, and the
   robust optimizer's Huber weights absorb the error instead.
2. **Robust fusion** (:func:`optimize_pose_graph`) — Gauss-Newton over
   all vehicle poses, minimizing inlier-weighted edge residuals under a
   Huber loss.  Gauge freedom is fixed by anchoring one node per
   connected component (the lowest index; the caller re-bases to the
   ego afterwards, see DESIGN.md).  Graphs are small (N <= 8), so the
   normal equations are solved densely.
3. **Incremental re-solve** (:func:`solve_incremental`) — frame t+1
   usually repeats most of frame t's graph.  Connected components whose
   node and edge sets are unchanged reuse the previous solution's poses
   verbatim; only *dirty* components re-solve.  Because a full solve is
   independent per component, the incremental result is exactly the
   full-solve result — on a completely unchanged graph, no optimization
   runs at all.

All inputs are :class:`~repro.geometry.se2.SE2`; edges are directed
``target <- source`` (``transform`` maps source-frame coordinates into
the target frame), as :class:`repro.core.multi.MultiVehicleAligner`
measures them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.se2 import SE2

__all__ = [
    "PoseGraphEdge",
    "PoseGraphConfig",
    "CycleGateResult",
    "PoseGraphSolution",
    "cycle_gate",
    "connected_components",
    "spanning_tree_init",
    "optimize_pose_graph",
    "solve_incremental",
]


@dataclass(frozen=True)
class PoseGraphEdge:
    """One relative-pose measurement ``target <- source``.

    Attributes:
        target / source: node (vehicle) indices.
        transform: maps source-frame coordinates into the target frame.
        weight: measurement confidence (inlier-derived); scales the
            edge's information in the least squares.
    """

    target: int
    source: int
    transform: SE2
    weight: float = 1.0

    @property
    def key(self) -> tuple[int, int]:
        """Undirected identity of the pair, ``(min, max)``."""
        return (min(self.target, self.source),
                max(self.target, self.source))


@dataclass(frozen=True)
class PoseGraphConfig:
    """Gating and optimization knobs.

    Attributes:
        cycle_translation_tol: loop translation (m) above which a
            triangle votes its edges inconsistent.
        cycle_rotation_tol_deg: loop rotation (deg) above which a
            triangle votes inconsistent.
        min_inconsistent_votes: rejection needs at least this many
            inconsistent triangles — a lone bad triangle has no witness
            to adjudicate blame, so nothing is rejected from it.
        huber_delta: residual norm (in scaled units, see
            ``rotation_scale``) beyond which the Huber loss goes linear.
        rotation_scale: meters-per-radian conversion folding the angular
            residual into the same norm as translation.
        max_iterations / tolerance: Gauss-Newton stopping criteria
            (update norm below ``tolerance`` counts as converged).
    """

    cycle_translation_tol: float = 1.5
    cycle_rotation_tol_deg: float = 6.0
    min_inconsistent_votes: int = 2
    huber_delta: float = 1.0
    rotation_scale: float = 5.0
    max_iterations: int = 25
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.cycle_translation_tol <= 0:
            raise ValueError("cycle_translation_tol must be positive")
        if self.huber_delta <= 0:
            raise ValueError("huber_delta must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class CycleGateResult:
    """Outcome of triangle-consistency gating.

    Attributes:
        kept / rejected: the partitioned edges.
        votes: per undirected pair, ``(consistent, inconsistent)``
            triangle counts.
        cycle_residuals: per evaluated triangle, ``(translation_m,
            rotation_deg)`` loop error — the ground-truth-free health
            metric.
    """

    kept: tuple[PoseGraphEdge, ...]
    rejected: tuple[PoseGraphEdge, ...]
    votes: dict[tuple[int, int], tuple[int, int]]
    cycle_residuals: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class PoseGraphSolution:
    """Optimized poses plus enough structure to re-solve incrementally.

    Attributes:
        poses: per-node pose, gauge-fixed at each connected component's
            lowest-index node (identity there); ``None`` for isolated
            nodes (no incident edge).
        edges: the edges the solve consumed (post-gating).
        edge_residuals: per undirected pair, the post-optimization
            scaled residual norm.
        iterations: Gauss-Newton iterations spent (summed over
            re-solved components).
        converged: every re-solved component met the update tolerance.
        reused_components: components copied verbatim from a previous
            solution (incremental mode; 0 for a full solve).
    """

    poses: tuple[SE2 | None, ...]
    edges: tuple[PoseGraphEdge, ...]
    edge_residuals: dict[tuple[int, int], float] = field(
        default_factory=dict)
    iterations: int = 0
    converged: bool = True
    reused_components: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.poses)


# ----------------------------------------------------------------------
# Cycle gating
# ----------------------------------------------------------------------
def _edge_lookup(edges: tuple[PoseGraphEdge, ...] | list[PoseGraphEdge]):
    """Map undirected pair -> canonical transform ``min <- max``."""
    lookup: dict[tuple[int, int], SE2] = {}
    for edge in edges:
        if edge.target <= edge.source:
            lookup[edge.key] = edge.transform
        else:
            lookup[edge.key] = edge.transform.inverse()
    return lookup


def cycle_residual(t_ab: SE2, t_bc: SE2, t_ca: SE2) -> tuple[float, float]:
    """Loop error of one triangle: ``(translation_m, rotation_deg)``.

    Arguments are the canonically oriented edges ``a <- b``, ``b <- c``,
    ``c <- a``; a consistent triple composes to the identity.
    """
    loop = t_ab @ t_bc @ t_ca
    return (float(np.hypot(loop.tx, loop.ty)),
            float(abs(np.degrees(wrap_to_pi(loop.theta)))))


def cycle_gate(edges, config: PoseGraphConfig | None = None,
               ) -> CycleGateResult:
    """Reject edges that triangles decisively vote inconsistent.

    Every 3-cycle with all three edges present is composed; within
    tolerance it casts a *consistent* vote on each edge, otherwise an
    *inconsistent* one.  An edge is rejected when its inconsistent
    votes strictly outnumber its consistent votes **and** reach
    ``min_inconsistent_votes`` — the second condition keeps a lone bad
    triangle (one cycle, no witness) from nuking all three of its
    edges.

    Duplicate measurements of the same pair vote (and are kept or
    rejected) together under their undirected key.
    """
    config = config or PoseGraphConfig()
    edges = list(edges)
    lookup = _edge_lookup(edges)
    nodes = sorted({n for key in lookup for n in key})

    consistent: dict[tuple[int, int], int] = {k: 0 for k in lookup}
    inconsistent: dict[tuple[int, int], int] = {k: 0 for k in lookup}
    residuals: list[tuple[float, float]] = []
    for a, b, c in combinations(nodes, 3):
        keys = ((a, b), (b, c), (a, c))
        if any(k not in lookup for k in keys):
            continue
        residual = cycle_residual(lookup[(a, b)], lookup[(b, c)],
                                  lookup[(a, c)].inverse())
        residuals.append(residual)
        ok = (residual[0] <= config.cycle_translation_tol
              and residual[1] <= config.cycle_rotation_tol_deg)
        for key in keys:
            if ok:
                consistent[key] += 1
            else:
                inconsistent[key] += 1

    rejected_keys = {
        key for key in lookup
        if inconsistent[key] > consistent[key]
        and inconsistent[key] >= config.min_inconsistent_votes}
    kept = tuple(e for e in edges if e.key not in rejected_keys)
    rejected = tuple(e for e in edges if e.key in rejected_keys)
    votes = {key: (consistent[key], inconsistent[key]) for key in lookup}
    return CycleGateResult(kept=kept, rejected=rejected, votes=votes,
                           cycle_residuals=tuple(residuals))


# ----------------------------------------------------------------------
# Connectivity
# ----------------------------------------------------------------------
def connected_components(num_nodes: int, edges) -> list[tuple[int, ...]]:
    """Connected components over nodes ``0..num_nodes-1`` (sorted;
    isolated nodes form singleton components)."""
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        a, b = find(edge.target), find(edge.source)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for node in range(num_nodes):
        groups.setdefault(find(node), []).append(node)
    return [tuple(sorted(members))
            for _, members in sorted(groups.items())]


def spanning_tree_init(edges, anchor: int) -> dict[int, SE2]:
    """Best-first (max weight) spanning-tree poses from ``anchor``.

    Returns poses (anchor frame) for every node reachable from the
    anchor; the Gauss-Newton solve starts here so the linearization is
    already near the basin.
    """
    adjacency: dict[int, list[tuple[float, int, SE2]]] = {}
    for edge in edges:
        adjacency.setdefault(edge.target, []).append(
            (edge.weight, edge.source, edge.transform))
        adjacency.setdefault(edge.source, []).append(
            (edge.weight, edge.target, edge.transform.inverse()))

    poses: dict[int, SE2] = {anchor: SE2.identity()}
    frontier = [(weight, anchor, node, transform)
                for weight, node, transform in adjacency.get(anchor, [])]
    while frontier:
        frontier.sort(key=lambda item: (-item[0], item[2]))
        weight, parent, node, transform = frontier.pop(0)
        if node in poses:
            continue
        # pose_node (anchor frame) = pose_parent @ T(parent <- node)
        poses[node] = poses[parent] @ transform
        for w_next, neighbor, t_next in adjacency.get(node, []):
            if neighbor not in poses:
                frontier.append((w_next, node, neighbor, t_next))
    return poses


# ----------------------------------------------------------------------
# Gauss-Newton with Huber weights
# ----------------------------------------------------------------------
def _edge_residual_vector(edge: PoseGraphEdge, pose_t: SE2,
                          pose_s: SE2, rotation_scale: float,
                          ) -> np.ndarray:
    """Scaled residual of one edge at the current estimate.

    The prediction is ``pose_target^-1 @ pose_source`` (what the edge
    *should* measure); the residual is expressed in the measurement
    frame and the angle folded into meters via ``rotation_scale``.
    """
    predicted = pose_t.inverse() @ pose_s
    error = edge.transform.inverse() @ predicted
    return np.array([error.tx, error.ty,
                     rotation_scale * error.theta])


def _solve_component(nodes: tuple[int, ...], edges: list[PoseGraphEdge],
                     anchor: int, config: PoseGraphConfig,
                     ) -> tuple[dict[int, SE2],
                                dict[tuple[int, int], float], int, bool]:
    """Gauss-Newton over one connected component.

    Returns (poses in anchor frame, per-pair residual norms,
    iterations, converged).
    """
    poses = spanning_tree_init(edges, anchor)
    # Column layout: 3 unknowns (x, y, theta) per non-anchor node.
    free = [n for n in nodes if n != anchor]
    index = {node: 3 * k for k, node in enumerate(free)}
    state = {node: poses.get(node, SE2.identity()) for node in nodes}

    iterations = 0
    converged = not free
    scale = config.rotation_scale
    for _ in range(config.max_iterations if free else 0):
        iterations += 1
        dim = 3 * len(free)
        hessian = np.zeros((dim, dim))
        gradient = np.zeros(dim)
        for edge in edges:
            pose_t, pose_s = state[edge.target], state[edge.source]
            residual = _edge_residual_vector(edge, pose_t, pose_s, scale)
            norm = float(np.linalg.norm(residual))
            # Huber: quadratic inside delta, linear outside — the
            # familiar IRLS weight min(1, delta/|r|).
            robust = (1.0 if norm <= config.huber_delta
                      else config.huber_delta / norm)
            weight = edge.weight * robust

            # Jacobians of the scaled residual wrt (x, y, theta) of the
            # target and source nodes.  With R_z the measurement
            # rotation and R_t the target rotation:
            #   e_t = R_z^T (R_t^T (t_s - t_t) - t_z)
            #   e_theta = wrap(theta_s - theta_t - theta_z)
            r_z = edge.transform.rotation
            r_t = pose_t.rotation
            diff = pose_s.translation - pose_t.translation
            # d(R_t^T)/dtheta = (dR_t/dtheta)^T
            c, s = np.cos(pose_t.theta), np.sin(pose_t.theta)
            dr_t = np.array([[-s, c], [-c, -s]])  # d(R^T)/dtheta
            j_t = np.zeros((3, 3))
            j_t[:2, :2] = -r_z.T @ r_t.T
            j_t[:2, 2] = r_z.T @ (dr_t @ diff)
            j_t[2, 2] = -scale
            j_s = np.zeros((3, 3))
            j_s[:2, :2] = r_z.T @ r_t.T
            j_s[2, 2] = scale
            # The angle column differentiates wrt theta (radians); the
            # residual's angle row is scaled, handled via j[2, 2].

            blocks = []
            if edge.target != anchor:
                blocks.append((index[edge.target], j_t))
            if edge.source != anchor:
                blocks.append((index[edge.source], j_s))
            for col_a, jac_a in blocks:
                gradient[col_a:col_a + 3] += weight * (jac_a.T @ residual)
                for col_b, jac_b in blocks:
                    hessian[col_a:col_a + 3, col_b:col_b + 3] += \
                        weight * (jac_a.T @ jac_b)

        # Tiny Levenberg damping keeps a rank-deficient linearization
        # (collinear translations) solvable without changing the
        # converged optimum.
        hessian[np.diag_indices(dim)] += 1e-9
        try:
            delta = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError:
            break
        for node in free:
            k = index[node]
            current = state[node]
            state[node] = SE2(current.theta + delta[k + 2],
                              current.tx + delta[k],
                              current.ty + delta[k + 1])
        if float(np.linalg.norm(delta)) < config.tolerance:
            converged = True
            break

    residual_norms: dict[tuple[int, int], float] = {}
    for edge in edges:
        residual = _edge_residual_vector(
            edge, state[edge.target], state[edge.source], scale)
        key = edge.key
        norm = float(np.linalg.norm(residual))
        residual_norms[key] = max(norm, residual_norms.get(key, 0.0))
    return state, residual_norms, iterations, converged


def optimize_pose_graph(num_nodes: int, edges,
                        config: PoseGraphConfig | None = None,
                        ) -> PoseGraphSolution:
    """Robust least-squares solve of the whole graph.

    Every connected component is solved independently, anchored (gauge
    fixed to identity) at its lowest-index node; nodes with no incident
    edge stay ``None``.  Callers wanting ego-frame poses re-base with
    ``poses[ego].inverse() @ poses[k]`` for nodes sharing the ego's
    component (see :class:`repro.core.multi.MultiVehicleAligner`).
    """
    config = config or PoseGraphConfig()
    edges = list(edges)
    for edge in edges:
        if not (0 <= edge.target < num_nodes
                and 0 <= edge.source < num_nodes):
            raise ValueError(f"edge {edge.target}<-{edge.source} outside "
                             f"0..{num_nodes - 1}")
        if edge.target == edge.source:
            raise ValueError("self-loop edges are not allowed")

    poses: list[SE2 | None] = [None] * num_nodes
    residuals: dict[tuple[int, int], float] = {}
    iterations = 0
    converged = True
    for component in connected_components(num_nodes, edges):
        if len(component) == 1:
            continue  # isolated node: unresolvable, stays None
        members = set(component)
        component_edges = [e for e in edges if e.target in members]
        state, norms, spent, ok = _solve_component(
            component, component_edges, anchor=component[0],
            config=config)
        for node in component:
            poses[node] = state[node]
        residuals.update(norms)
        iterations += spent
        converged = converged and ok
    return PoseGraphSolution(poses=tuple(poses), edges=tuple(edges),
                             edge_residuals=residuals,
                             iterations=iterations, converged=converged)


# ----------------------------------------------------------------------
# Incremental mode
# ----------------------------------------------------------------------
def _edge_signature(edges) -> frozenset:
    """Order-independent identity of an edge set (exact transforms)."""
    return frozenset(
        (e.target, e.source, e.transform.theta, e.transform.tx,
         e.transform.ty, e.weight) for e in edges)


def solve_incremental(num_nodes: int, edges,
                      previous: PoseGraphSolution | None,
                      config: PoseGraphConfig | None = None,
                      ) -> PoseGraphSolution:
    """Re-solve only the components the new edge set dirtied.

    A component of the *new* graph is clean when some component of the
    previous solution has exactly the same node set and exactly the
    same incident edges (transforms included); its poses are then
    copied verbatim.  Everything else re-solves through
    :func:`optimize_pose_graph` on its own edges.  Because a full solve
    is per-component independent and clean components reproduce their
    previous (full-solve) poses bit-for-bit, the incremental result is
    identical to a fresh full solve of the same graph.

    With ``previous=None`` this is exactly a full solve.
    """
    config = config or PoseGraphConfig()
    edges = list(edges)
    if previous is None:
        return optimize_pose_graph(num_nodes, edges, config)

    prev_components = {}
    if previous.num_nodes:
        prev_edges = list(previous.edges)
        for component in connected_components(previous.num_nodes, prev_edges):
            members = set(component)
            prev_components[component] = _edge_signature(
                e for e in prev_edges if e.target in members)

    poses: list[SE2 | None] = [None] * num_nodes
    residuals: dict[tuple[int, int], float] = {}
    iterations = 0
    converged = True
    reused = 0
    for component in connected_components(num_nodes, edges):
        members = set(component)
        component_edges = [e for e in edges if e.target in members]
        signature = _edge_signature(component_edges)
        previous_signature = prev_components.get(component)
        if (previous_signature is not None
                and previous_signature == signature
                and len(component) > 1):
            # Clean: copy the previous component's poses and residuals.
            for node in component:
                poses[node] = previous.poses[node]
            for edge in component_edges:
                key = edge.key
                if key in previous.edge_residuals:
                    residuals[key] = previous.edge_residuals[key]
            reused += 1
            continue
        if len(component) == 1:
            continue
        state, norms, spent, ok = _solve_component(
            component, component_edges, anchor=component[0],
            config=config)
        for node in component:
            poses[node] = state[node]
        residuals.update(norms)
        iterations += spent
        converged = converged and ok
    return PoseGraphSolution(poses=tuple(poses), edges=tuple(edges),
                             edge_residuals=residuals,
                             iterations=iterations, converged=converged,
                             reused_components=reused)
