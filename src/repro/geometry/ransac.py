"""RANSAC estimation of a planar rigid transform from noisy correspondences.

Both matching stages of BB-Align end in the same operation: given matched
source/destination 2-D points (keypoint matches in stage 1, box-corner
pairs in stage 2), robustly estimate the rigid transform and report the
inlier count.  The paper uses the inlier count as the confidence signal
that drives the success criterion (``Inliers_bv > 25 and Inliers_box > 6``)
and the Fig. 9 analysis, so the result type carries full diagnostics.

Hypotheses are evaluated in chunks.  The minimal samples of a chunk are
drawn in one vectorised pass (:func:`_draw_pairs`) that reproduces a
sequence of ``rng.choice(n, 2, replace=False)`` calls exactly — the same
index pairs and the same generator state afterwards.  That draw sequence
is the determinism contract: the same generator feeds stage 2
downstream, so consuming the stream differently would change pipeline
outputs.  Where the bulk pass cannot guarantee this (another bit
generator, ``n == 2``, a Lemire rejection in the chunk, or a numpy whose
``choice`` fails the one-time probe) it falls back to the per-call loop;
DESIGN.md ("RANSAC sampling contract") lists the numpy internals it
mirrors.  The closed-form 2-point solve and the residual test run as
``(chunk, N)`` array ops over the chunk.  The adaptive stopping rule is
replayed sequentially over the chunk's inlier counts; when it fires
mid-chunk, the generator state is rewound to the chunk start and exactly
the consumed draws are re-taken, so the stream position on exit matches
the sequential loop draw-for-draw.  The pre-vectorization loop is
preserved as :func:`_reference_ransac_rigid_2d` for the equivalence tests
and the stage-1 micro-benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.rigid import kabsch_2d
from repro.geometry.se2 import SE2

__all__ = ["RansacResult", "ransac_rigid_2d"]

# Hypotheses solved/evaluated per batch.  The residual matrix is
# (chunk, N) floats — small enough to stay cache-friendly at the
# few-hundred-match scale of BV images, large enough to amortize the
# per-chunk fixed cost on long adaptive runs (128 measures fastest on
# the 320-pixel end-to-end path; 64 and 256 are both a few ms slower).
_HYPOTHESIS_CHUNK = 128


# Largest population the bulk sampler handles: numpy's bounded draw on
# bound ``n - 1`` is a Lemire 32-bit draw only while that bound is below
# 2**32 - 1 (at 2**32 - 1 it takes a raw 32-bit word, above it 64 bits).
_BULK_MAX_N = 2 ** 32 - 1


def _choice_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` sequential ``rng.choice(n, 2, replace=False)`` calls."""
    idx = np.empty((count, 2), dtype=np.intp)
    for t in range(count):
        idx[t] = rng.choice(n, size=2, replace=False)
    return idx


def _bulk_pairs(bitgen: np.random.PCG64, n: int,
                count: int) -> np.ndarray | None:
    """Vectorised twin of :func:`_choice_pairs` for PCG64 and ``3 <= n <
    2**32 - 1``.

    numpy's ``choice(n, 2, replace=False)`` runs Floyd's algorithm — a
    Lemire-bounded draw on ``n - 2``, then one on ``n - 1`` that becomes
    ``n - 1`` if it repeats the first — and then a two-element shuffle
    (a Lemire draw on ``1``; ``0`` swaps the pair).  Each draw takes one
    32-bit word from PCG64's buffered stream: the low half of a 64-bit
    output first, the high half on the next draw.  Three words per
    trial are therefore taken from ``random_raw`` at once, and the
    32-bit buffer is set to what the sequential calls would have left.

    Returns None, with the generator state untouched, when any word of
    the chunk would hit a Lemire rejection (which re-draws and shifts
    the stream); the caller then takes the per-call path.
    """
    state = bitgen.state
    buffered = state["has_uint32"]
    num_raw = (3 * count - buffered + 1) // 2
    raw = bitgen.random_raw(num_raw)
    words = np.empty(2 * num_raw + buffered, dtype=np.uint64)
    if buffered:
        words[0] = state["uinteger"]
    words[buffered::2] = raw & 0xFFFFFFFF
    words[buffered + 1::2] = raw >> 32
    bound_excl = np.array([n - 1, n, 2], dtype=np.uint64)
    scaled = words[:3 * count].reshape(count, 3) * bound_excl
    # Lemire rejects while the low half is below 2**32 mod the bound.
    if ((scaled & 0xFFFFFFFF) < (2 ** 32) % bound_excl).any():
        bitgen.state = state
        return None
    draws = (scaled >> 32).astype(np.intp)
    first = draws[:, 0]
    second = np.where(draws[:, 1] == first, n - 1, draws[:, 1])
    swap = draws[:, 2] == 0
    pairs = np.empty((count, 2), dtype=np.intp)
    pairs[:, 0] = np.where(swap, second, first)
    pairs[:, 1] = np.where(swap, first, second)
    # random_raw leaves the 32-bit buffer alone; place it as the
    # sequential draws would: the last output's high half, pending iff
    # one word of it is left over.
    after = bitgen.state
    after["has_uint32"] = 2 * num_raw + buffered - 3 * count
    after["uinteger"] = int(raw[-1] >> 32)
    bitgen.state = after
    return pairs


@lru_cache(maxsize=1)
def _bulk_matches_numpy() -> bool:
    """One-time probe: does :func:`_bulk_pairs` reproduce this numpy's
    ``Generator.choice`` (pairs and final state) on a fixed seed?  A numpy
    whose ``choice`` consumes the stream differently fails it, and every
    draw then takes the per-call path."""
    for n, count, buffered in ((3, 5, 0), (62, 129, 1), (10001, 7, 0)):
        bulk = np.random.Generator(np.random.PCG64(20240501))
        loop = np.random.Generator(np.random.PCG64(20240501))
        if buffered:
            bulk.integers(0, 2, dtype=np.uint32)
            loop.integers(0, 2, dtype=np.uint32)
        pairs = _bulk_pairs(bulk.bit_generator, n, count)
        if (pairs is None
                or not np.array_equal(pairs, _choice_pairs(loop, n, count))
                or bulk.bit_generator.state != loop.bit_generator.state):
            return False
    return True


def _draw_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``(count, 2)`` minimal samples, identical to ``count`` sequential
    ``rng.choice(n, 2, replace=False)`` calls and leaving ``rng`` where
    they would: bulk for PCG64 where exact, per call otherwise."""
    bitgen = rng.bit_generator
    if (type(bitgen) is np.random.PCG64 and 3 <= n < _BULK_MAX_N
            and _bulk_matches_numpy()):
        pairs = _bulk_pairs(bitgen, n, count)
        if pairs is not None:
            return pairs
    return _choice_pairs(rng, n, count)


@dataclass(frozen=True)
class RansacResult:
    """Outcome of a RANSAC run.

    Attributes:
        transform: the refined rigid transform (identity when no model was
            found).
        inlier_mask: boolean array over the input correspondences.
        num_inliers: convenience count of ``inlier_mask``.
        iterations: number of hypothesis samples actually drawn.
        success: whether any model with >= ``min_samples`` inliers was found.
        rmse: root-mean-square residual of the inliers under ``transform``
            (NaN when unsuccessful).
    """

    transform: SE2
    inlier_mask: np.ndarray
    num_inliers: int
    iterations: int
    success: bool
    rmse: float


def _adaptive_trials(inlier_ratio: float, sample_size: int,
                     confidence: float, current_max: int) -> int:
    """Classic adaptive stopping rule: trials needed to hit an
    uncontaminated sample with the given confidence."""
    inlier_ratio = min(max(inlier_ratio, 1e-9), 1.0 - 1e-12)
    prob_good = inlier_ratio ** sample_size
    if prob_good <= 1e-12:
        return current_max
    trials = int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - prob_good)))
    return max(1, min(current_max, trials))


def _validate(src: np.ndarray, dst: np.ndarray, threshold: float,
              min_inliers: int) -> tuple[np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError(
            f"expected matching (N, 2) arrays, got {src.shape} and {dst.shape}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if min_inliers < 2:
        raise ValueError("min_inliers must be >= 2")
    return src, dst


def _refine(src: np.ndarray, dst: np.ndarray, threshold: float,
            best_mask: np.ndarray, best_count: int,
            iteration: int) -> RansacResult:
    """Shared tail: refit on the inlier set, then recompute the consensus
    once — a cheap local-optimization step that tightens the estimate."""
    refined = kabsch_2d(src[best_mask], dst[best_mask])
    residuals = np.linalg.norm(refined.apply(src) - dst, axis=1)
    final_mask = residuals <= threshold
    if int(final_mask.sum()) >= best_count:
        best_mask = final_mask
        refined = kabsch_2d(src[best_mask], dst[best_mask])
        residuals = np.linalg.norm(refined.apply(src) - dst, axis=1)

    inlier_res = residuals[best_mask]
    rmse = float(np.sqrt(np.mean(inlier_res ** 2))) if inlier_res.size else float("nan")
    return RansacResult(refined, best_mask, int(best_mask.sum()), iteration,
                        True, rmse)


def _solve_and_score(src: np.ndarray, dst: np.ndarray,
                     idx: np.ndarray, threshold: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form 2-point rigid solve + residual test for a whole chunk.

    Replicates :func:`kabsch_2d` (uniform weights, 2 points) and
    ``SE2.apply`` arithmetic operation-for-operation so each trial's
    inlier mask matches the sequential per-trial path.

    Returns:
        ``(degenerate, masks, counts)`` — a (C,) bool array flagging
        coincident samples, the (C, N) inlier masks and their (C,) counts
        (both zeroed on degenerate rows, which the caller must skip).
    """
    a, b = src[idx[:, 0]], src[idx[:, 1]]
    diff = a - b
    # Degenerate sample: coincident points give no rotation constraint.
    degenerate = np.hypot(diff[:, 0], diff[:, 1]) < 1e-9

    da, db = dst[idx[:, 0]], dst[idx[:, 1]]
    # kabsch_2d with w = [0.5, 0.5]: means, centering, atan2 rotation.
    src_mean = 0.5 * a + 0.5 * b
    dst_mean = 0.5 * da + 0.5 * db
    sa, sb = a - src_mean, b - src_mean
    ta, tb = da - dst_mean, db - dst_mean
    cross = (0.5 * (sa[:, 0] * ta[:, 1] - sa[:, 1] * ta[:, 0])
             + 0.5 * (sb[:, 0] * tb[:, 1] - sb[:, 1] * tb[:, 0]))
    dot = (0.5 * (sa[:, 0] * ta[:, 0] + sa[:, 1] * ta[:, 1])
           + 0.5 * (sb[:, 0] * tb[:, 0] + sb[:, 1] * tb[:, 1]))
    with np.errstate(invalid="ignore"):
        theta = np.where((cross == 0.0) & (dot == 0.0), 0.0,
                         np.arctan2(cross, dot))
    # Translation uses the *unwrapped* angle (kabsch_2d builds the
    # rotation before SE2 wraps theta); the residual rotation uses the
    # wrapped angle (SE2.apply rebuilds it from the stored theta).
    c_r, s_r = np.cos(theta), np.sin(theta)
    tx = dst_mean[:, 0] - (c_r * src_mean[:, 0] + (-s_r) * src_mean[:, 1])
    ty = dst_mean[:, 1] - (s_r * src_mean[:, 0] + c_r * src_mean[:, 1])
    theta_w = wrap_to_pi(theta)
    cw, sw = np.cos(theta_w), np.sin(theta_w)

    # Residuals for every (trial, point) pair at once.
    x, y = src[:, 0], src[:, 1]
    rx = (cw[:, None] * x - sw[:, None] * y + tx[:, None]) - dst[:, 0]
    ry = (sw[:, None] * x + cw[:, None] * y + ty[:, None]) - dst[:, 1]
    masks = np.sqrt(rx * rx + ry * ry) <= threshold
    masks[degenerate] = False
    return degenerate, masks, masks.sum(axis=1)


def ransac_rigid_2d(src: np.ndarray, dst: np.ndarray,
                    threshold: float = 1.0,
                    max_iterations: int = 2000,
                    confidence: float = 0.999,
                    min_inliers: int = 2,
                    rng: np.random.Generator | int | None = None) -> RansacResult:
    """Estimate a rigid SE(2) transform from matched points with RANSAC.

    Args:
        src: (N, 2) source points.
        dst: (N, 2) destination points (``dst[i]`` matches ``src[i]``).
        threshold: inlier residual threshold in the destination frame
            (same unit as the points — meters for BEV coordinates, pixels
            for image coordinates).
        max_iterations: upper bound on hypothesis samples.
        confidence: adaptive-termination confidence.
        min_inliers: a model needs at least this many inliers to count as a
            success (>= 2; two points determine a rigid 2-D transform).
        rng: a :class:`numpy.random.Generator`, a seed, or None for a fresh
            default generator.

    Returns:
        A :class:`RansacResult`.  On failure the transform is identity, the
        mask all-false.
    """
    src, dst = _validate(src, dst, threshold, min_inliers)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n = len(src)
    if n < 2:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0, 0,
                            False, float("nan"))

    sample_size = 2
    best_mask = None
    best_count = 0
    trials_needed = max_iterations
    iteration = 0
    while iteration < min(trials_needed, max_iterations):
        chunk = min(_HYPOTHESIS_CHUNK,
                    min(trials_needed, max_iterations) - iteration)
        state = rng.bit_generator.state
        idx = _draw_pairs(rng, n, chunk)

        degenerate, masks, counts = _solve_and_score(src, dst, idx, threshold)

        # Replay the sequential adaptive-stopping logic over the chunk.
        # Fast path: no trial beats the current best, so trials_needed is
        # unchanged and (the while-condition already capped the chunk at
        # the stopping bound) no mid-chunk stop can fire.
        if int(counts.max(initial=0)) <= best_count:
            iteration += chunk
            continue
        consumed = chunk
        for t in range(chunk):
            iteration += 1
            if not degenerate[t]:
                count = int(counts[t])
                if count > best_count:
                    best_count = count
                    best_mask = masks[t]
                    trials_needed = _adaptive_trials(
                        count / n, sample_size, confidence, max_iterations)
            if iteration >= min(trials_needed, max_iterations):
                consumed = t + 1
                break
        if consumed < chunk:
            # Stopping fired mid-chunk: rewind and re-take exactly the
            # draws the sequential loop would have consumed.
            rng.bit_generator.state = state
            _draw_pairs(rng, n, consumed)
            break

    if best_mask is None or best_count < min_inliers:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0,
                            iteration, False, float("nan"))
    return _refine(src, dst, threshold, best_mask, best_count, iteration)


def _reference_ransac_rigid_2d(src: np.ndarray, dst: np.ndarray,
                               threshold: float = 1.0,
                               max_iterations: int = 2000,
                               confidence: float = 0.999,
                               min_inliers: int = 2,
                               rng: np.random.Generator | int | None = None
                               ) -> RansacResult:
    """Pre-vectorization sequential loop (equivalence/benchmark twin)."""
    src, dst = _validate(src, dst, threshold, min_inliers)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n = len(src)
    if n < 2:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0, 0,
                            False, float("nan"))

    sample_size = 2
    best_mask = None
    best_count = 0
    trials_needed = max_iterations
    iteration = 0
    while iteration < min(trials_needed, max_iterations):
        iteration += 1
        idx = rng.choice(n, size=sample_size, replace=False)
        a, b = src[idx]
        # Degenerate sample: coincident points give no rotation constraint.
        if np.hypot(*(a - b)) < 1e-9:
            continue
        model = kabsch_2d(src[idx], dst[idx])
        residuals = np.linalg.norm(model.apply(src) - dst, axis=1)
        mask = residuals <= threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            trials_needed = _adaptive_trials(count / n, sample_size,
                                             confidence, max_iterations)

    if best_mask is None or best_count < min_inliers:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0,
                            iteration, False, float("nan"))
    return _refine(src, dst, threshold, best_mask, best_count, iteration)
