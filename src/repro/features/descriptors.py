"""BVFT-style descriptors computed from the Maximum Index Map.

For each keypoint the paper (following BVMatch [27] / RIFT [25]):

1. takes a ``J x J`` patch of the MIM centered on the keypoint,
2. estimates the patch's *dominant orientation* from the amplitude-weighted
   histogram of MIM values and rotates the patch so the dominant
   orientation lands on a fixed reference (the ORB trick, giving rotation
   invariance),
3. splits the patch into ``l x l`` grid cells and builds one ``N_o``-bin
   orientation histogram per cell (Eq. in Sec. IV-A), yielding an
   ``l * l * N_o`` vector, which is L2-normalized.

Rotating an orientation *map* needs two coupled actions: resampling pixel
positions by the rotation, and shifting the orientation *values* by the
same angle (an orientation index is itself a direction).  MIM orientations
live on ``[0, pi)`` in steps of ``pi / N_o``, so rotation by a dominant-bin
angle is an exact circular shift of the value space.

The extractor is loop-free over keypoints: patches for a whole block of
keypoints are gathered with one fancy index, dominant-orientation voting
and the final ``l*l*N_o`` histograms are each a single offset-flattened
``np.bincount`` (each keypoint owns a disjoint bin range, so one call
accumulates every histogram at once, in the same per-bin order as the
per-keypoint loop — sums are bit-identical), and normalize/clip/drop run
vectorized over rows.  The pre-vectorization per-keypoint loop is kept as
:meth:`BvftDescriptorExtractor._reference_compute` for equivalence tests
and the stage-1 micro-benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bev.mim import MIMResult
from repro.features.fast import Keypoints

__all__ = ["BvftConfig", "DescriptorSet", "BvftDescriptorExtractor"]

_INVALID = -1  # marker for out-of-image / zero-energy pixels in patches

# Keypoints are processed in blocks of this size: large enough to amortize
# the bincount calls, small enough that the (block, J, J) gather tensors
# (~1.2 MB at J=48) stay cache-resident — 64 measures ~2x faster than 512
# on both the 192- and 320-pixel configurations.
_KEYPOINT_BLOCK = 64


@dataclass(frozen=True)
class BvftConfig:
    """Descriptor hyperparameters (paper: J = 96, l = 6; the default
    J = 48 is the simulated-substrate calibration, see DESIGN.md).

    Attributes:
        patch_size: side length ``J`` of the square descriptor patch, in
            pixels.
        grid_size: ``l``; the patch is divided into ``l x l`` cells.
        rotation_invariant: when False, skips the dominant-orientation
            normalization (useful for ablations; the paper notes MIM alone
            is not rotation invariant).
        clip_value: SIFT-style histogram clipping fraction applied after
            the first normalization (0 disables).
        amplitude_weighting: weight histogram votes by Log-Gabor amplitude
            rather than counting pixels.
    """

    patch_size: int = 48
    grid_size: int = 6
    rotation_invariant: bool = True
    clip_value: float = 0.25
    amplitude_weighting: bool = True

    def __post_init__(self) -> None:
        if self.patch_size < 4:
            raise ValueError("patch_size must be >= 4")
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.patch_size % self.grid_size != 0:
            raise ValueError("patch_size must be divisible by grid_size")
        if not (0 <= self.clip_value <= 1):
            raise ValueError("clip_value must be in [0, 1]")

    def descriptor_length(self, num_orientations: int) -> int:
        return self.grid_size * self.grid_size * num_orientations


@dataclass(frozen=True)
class DescriptorSet:
    """Descriptors for the keypoints that could be described.

    Attributes:
        descriptors: (M, D) float array, rows L2-normalized.
        keypoint_xy: (M, 2) pixel (col, row) positions, aligned with rows.
        keypoint_indices: (M,) indices into the original keypoint list.
        dominant_bins: (M,) dominant-orientation bin used for rotation
            normalization (0 when rotation invariance is off).
    """

    descriptors: np.ndarray
    keypoint_xy: np.ndarray
    keypoint_indices: np.ndarray
    dominant_bins: np.ndarray

    def __len__(self) -> int:
        return len(self.descriptors)

    @staticmethod
    def empty(dim: int) -> "DescriptorSet":
        return DescriptorSet(np.empty((0, dim)), np.empty((0, 2)),
                             np.empty(0, dtype=int), np.empty(0, dtype=int))


class BvftDescriptorExtractor:
    """Computes BVFT descriptors for FAST keypoints on a MIM.

    The rotation resampling grids are precomputed once per dominant bin
    (there are only ``N_o`` possible rotation angles), so per-block work
    is two fancy-indexing gathers and two bincounts.
    """

    def __init__(self, config: BvftConfig | None = None) -> None:
        self.config = config or BvftConfig()
        self._rotation_grids: dict[tuple[int, int], np.ndarray] = {}
        self._linear_grids: dict[tuple[int, int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _rotation_grid(self, num_orientations: int, bin_index: int,
                       patch: int) -> np.ndarray:
        """(2, J, J) integer source offsets implementing rotation by the
        bin's angle about the patch center (inverse mapping, nearest
        neighbor)."""
        key = (num_orientations, bin_index)
        grid = self._rotation_grids.get(key)
        if grid is not None:
            return grid
        angle = bin_index * np.pi / num_orientations
        half = (patch - 1) / 2.0
        out = np.arange(patch) - half
        oc, orr = np.meshgrid(out, out)  # output col/row offsets
        # Inverse map: source = R(+angle) @ output (rotating the patch
        # content by -angle aligns the dominant orientation to bin 0).
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        src_c = cos_a * oc - sin_a * orr
        src_r = sin_a * oc + cos_a * orr
        grid = np.stack([np.rint(src_r).astype(np.int64),
                         np.rint(src_c).astype(np.int64)])
        self._rotation_grids[key] = grid
        return grid

    def _linear_grid_stack(self, num_orientations: int, patch: int,
                           stride: int) -> np.ndarray:
        """(N_o, J, J) intp stack of *flattened* rotation grids for a
        padded image of row stride ``stride``: entry ``[b, i, j]`` is the
        linear offset ``row * stride + col`` of the source pixel, so one
        ``take`` plus a per-keypoint base offset gathers a whole block."""
        key = (num_orientations, patch, stride)
        stack = self._linear_grids.get(key)
        if stack is not None:
            return stack
        grids = [self._rotation_grid(num_orientations, b, patch)
                 for b in range(num_orientations)]
        # int32 offsets halve the index-tensor traffic; linear indices are
        # bounded by the padded image size, so this is safe below 2**31
        # pixels (a guard in compute() falls back to intp above that).
        stack = np.stack([g[0] * stride + g[1] for g in grids]).astype(np.int32)
        self._linear_grids[key] = stack
        return stack

    # ------------------------------------------------------------------
    def compute(self, mim_result: MIMResult,
                keypoints: Keypoints) -> DescriptorSet:
        """Describe every keypoint far enough from the border.

        Keypoints whose (rotated) patch would leave the image are padded
        with invalid pixels, which simply contribute no histogram votes;
        keypoints with an entirely invalid patch are dropped.
        """
        cfg = self.config
        n_orient = mim_result.num_orientations
        dim = cfg.descriptor_length(n_orient)
        if len(keypoints) == 0:
            return DescriptorSet.empty(dim)

        patch = cfg.patch_size
        # Pad by the patch diagonal so any rotation stays in bounds.
        pad = int(np.ceil(patch * np.sqrt(2) / 2)) + 2
        mim = np.pad(mim_result.mim, pad, mode="constant",
                     constant_values=_INVALID)
        valid = mim_result.valid_mask()
        if cfg.amplitude_weighting:
            weights_img = mim_result.max_amplitude * valid
        else:
            weights_img = valid.astype(np.float64)
        weights = np.pad(weights_img, pad, mode="constant",
                         constant_values=0.0)

        grid_cells = cfg.grid_size
        cell = patch // grid_cells
        # Per-patch-pixel cell base bin (row-major over the l x l grid).
        out_idx = np.arange(patch) // cell
        cell_index = (out_idx[:, None] * grid_cells + out_idx[None, :])
        # Histogram bins fit comfortably in int32 (< block * dim); the
        # narrower dtype halves memory traffic on the (block, J, J)
        # arithmetic passes and matches the int32 MIM patch values, so no
        # pass upcasts to int64.
        cell_bins = (cell_index * n_orient).astype(np.int32)[None]

        # Flattened views + linear indices: one `take` per gather, and mim
        # and weights share each index tensor.  Invalid (padding) pixels
        # need no masking at all — their weight is exactly 0.0, so letting
        # them vote changes no histogram sum bit (x + 0.0 == x for the
        # non-negative partial sums here); `% n_orient` just keeps their
        # bins in range.
        stride = mim.shape[1]
        mim_flat = mim.ravel()
        weights_flat = weights.ravel()
        index_dtype = np.int32 if mim.size < 2 ** 31 else np.intp
        rows_all = np.rint(keypoints.xy[:, 1]).astype(index_dtype) + pad
        cols_all = np.rint(keypoints.xy[:, 0]).astype(index_dtype) + pad
        base_all = rows_all * index_dtype(stride) + cols_all
        lin_grids = self._linear_grid_stack(n_orient, patch, stride)
        if index_dtype is np.intp:  # pathological image sizes only
            lin_grids = lin_grids.astype(np.intp)

        n_kp = len(keypoints)
        block = min(n_kp, _KEYPOINT_BLOCK)
        offsets = np.arange(block, dtype=np.int32)[:, None, None]
        # Per-keypoint histogram base bins, hoisted out of the block loop
        # (integer division/modulo have no SIMD path, so every arithmetic
        # pass over the (block, J, J) tensors is precious).
        vote_base = offsets * n_orient
        hist_base = cell_bins + offsets * dim

        desc_blocks: list[np.ndarray] = []
        kept_blocks: list[np.ndarray] = []
        dom_blocks: list[np.ndarray] = []
        for start in range(0, n_kp, _KEYPOINT_BLOCK):
            stop = min(n_kp, start + _KEYPOINT_BLOCK)
            nb = stop - start
            base = base_all[start:stop, None, None]

            if cfg.rotation_invariant:
                # Dominant orientation from the *unrotated* patches.
                lin0 = lin_grids[0] + base
                vals0 = mim_flat.take(lin0)
                w0 = weights_flat.take(lin0)
                # Valid values already lie in [0, n_orient); maximum() only
                # lifts the weight-0 padding pixels out of bin -1.
                flat0 = np.maximum(vals0, 0) + vote_base[:nb]
                votes = np.bincount(flat0.ravel(), weights=w0.ravel(),
                                    minlength=nb * n_orient
                                    ).reshape(nb, n_orient)
                keep = votes.sum(axis=1) > 0
                dom = np.argmax(votes, axis=1)
            else:
                keep = np.ones(nb, dtype=bool)
                dom = np.zeros(nb, dtype=np.intp)

            # Rotated gather: each keypoint picks the grid of its bin.
            # Bin 0 is the identity rotation, so those rows reuse the
            # vote-stage gather already in hand (~20% of keypoints on
            # typical BV images) and only the rest re-gather.
            if cfg.rotation_invariant:
                nz = np.nonzero(dom)[0]
                vals, w = vals0, w0
                if nz.size:
                    lin_nz = lin_grids.take(dom[nz], axis=0) + base[nz]
                    vals[nz] = mim_flat.take(lin_nz)
                    w[nz] = weights_flat.take(lin_nz)
            else:
                lin = lin_grids.take(dom, axis=0) + base
                vals = mim_flat.take(lin)
                w = weights_flat.take(lin)
            # Rotating content by -angle shifts orientation values by -dom:
            # shifted = (vals - dom) % n_orient, computed branch-free —
            # y is in [-n_orient, n_orient), so folding adds n_orient
            # exactly when y < 0 (arithmetic shift gives the sign mask).
            y = vals - dom.astype(vals.dtype)[:, None, None]
            sign_shift = 8 * y.dtype.itemsize - 1
            y += np.right_shift(y, sign_shift) & y.dtype.type(n_orient)
            flat_bins = hist_base[:nb] + y
            hist = np.bincount(flat_bins.ravel(), weights=w.ravel(),
                               minlength=nb * dim).reshape(nb, dim)

            norms = np.linalg.norm(hist, axis=1)
            keep &= norms > 0
            hist /= np.where(norms > 0, norms, 1.0)[:, None]
            if cfg.clip_value > 0:
                np.minimum(hist, cfg.clip_value, out=hist)
                norms = np.linalg.norm(hist, axis=1)
                keep &= norms > 0
                hist /= np.where(norms > 0, norms, 1.0)[:, None]

            desc_blocks.append(hist[keep])
            kept_blocks.append(np.arange(start, stop)[keep])
            dom_blocks.append(dom[keep])

        kept_idx = np.concatenate(kept_blocks)
        if kept_idx.size == 0:
            return DescriptorSet.empty(dim)
        return DescriptorSet(
            descriptors=np.concatenate(desc_blocks),
            keypoint_xy=np.asarray(keypoints.xy[kept_idx], dtype=float),
            keypoint_indices=kept_idx.astype(int),
            dominant_bins=np.concatenate(dom_blocks).astype(int),
        )

    # ------------------------------------------------------------------
    def flipped_set(self, descriptors: DescriptorSet,
                    image_size: int) -> DescriptorSet:
        """Descriptors of the 180-degree-rotated MIM, without recompute.

        A 180-degree rotation maps the patch around keypoint ``p`` onto
        the patch around ``(H - 1) - p`` with every sample offset
        negated.  The rotation-grid offset set is symmetric under
        negation, MIM values and amplitudes travel with their pixels
        (orientations are mod pi, so the values themselves are
        unchanged), and histogram votes are position-free within a cell —
        so the dominant orientation is preserved and grid cell
        ``(i, j)`` of the flipped patch receives exactly the votes cell
        ``(l-1-i, l-1-j)`` received in the original.  The flipped
        descriptor is therefore the original with its cell blocks
        reversed, and the keep/drop decisions are identical.

        Only valid when the keypoint coordinates are integral (true for
        FAST): rounding commutes with the mirror ``p -> (H-1) - p`` for
        integers, but not for exact .5 fractions.  Callers with subpixel
        detectors must recompute instead.
        """
        cells = self.config.grid_size ** 2
        d = descriptors.descriptors
        n_orient = d.shape[1] // cells
        flipped = np.ascontiguousarray(
            d.reshape(len(d), cells, n_orient)[:, ::-1, :]
        ).reshape(len(d), cells * n_orient)
        return DescriptorSet(
            descriptors=flipped,
            keypoint_xy=(image_size - 1) - descriptors.keypoint_xy,
            keypoint_indices=descriptors.keypoint_indices.copy(),
            dominant_bins=descriptors.dominant_bins.copy(),
        )

    # ------------------------------------------------------------------
    # Reference (pre-vectorization) implementation: the original
    # per-keypoint loop, kept verbatim for the equivalence tests and the
    # stage-1 micro-benchmark.
    # ------------------------------------------------------------------
    def _reference_compute(self, mim_result: MIMResult,
                           keypoints: Keypoints) -> DescriptorSet:
        cfg = self.config
        n_orient = mim_result.num_orientations
        dim = cfg.descriptor_length(n_orient)
        if len(keypoints) == 0:
            return DescriptorSet.empty(dim)

        patch = cfg.patch_size
        pad = int(np.ceil(patch * np.sqrt(2) / 2)) + 2
        mim = np.pad(mim_result.mim, pad, mode="constant",
                     constant_values=_INVALID)
        valid = mim_result.valid_mask()
        if cfg.amplitude_weighting:
            weights_img = mim_result.max_amplitude * valid
        else:
            weights_img = valid.astype(float)
        weights = np.pad(weights_img, pad, mode="constant",
                         constant_values=0.0)

        grid_cells = cfg.grid_size
        cell = patch // grid_cells
        out_idx = np.arange(patch) // cell
        cell_index = (out_idx[:, None] * grid_cells + out_idx[None, :])

        descriptors = []
        kept_xy = []
        kept_idx = []
        kept_bins = []
        rows_all = np.rint(keypoints.xy[:, 1]).astype(np.int64) + pad
        cols_all = np.rint(keypoints.xy[:, 0]).astype(np.int64) + pad
        identity_grid = self._rotation_grid(n_orient, 0, patch)

        for i in range(len(keypoints)):
            r0, c0 = rows_all[i], cols_all[i]
            if cfg.rotation_invariant:
                patch_vals = mim[identity_grid[0] + r0, identity_grid[1] + c0]
                patch_w = weights[identity_grid[0] + r0,
                                  identity_grid[1] + c0]
                votes = np.bincount(
                    patch_vals[patch_vals >= 0],
                    weights=patch_w[patch_vals >= 0],
                    minlength=n_orient)
                if votes.sum() <= 0:
                    continue
                dom = int(np.argmax(votes))
            else:
                dom = 0
            grid = self._rotation_grid(n_orient, dom, patch)
            vals = mim[grid[0] + r0, grid[1] + c0]
            w = weights[grid[0] + r0, grid[1] + c0]
            valid_mask = vals >= 0
            if not valid_mask.any():
                continue
            shifted = np.where(valid_mask, (vals - dom) % n_orient, 0)
            flat_bins = cell_index * n_orient + shifted
            hist = np.bincount(flat_bins[valid_mask],
                               weights=w[valid_mask],
                               minlength=dim).astype(float)
            norm = np.linalg.norm(hist)
            if norm <= 0:
                continue
            hist /= norm
            if cfg.clip_value > 0:
                np.minimum(hist, cfg.clip_value, out=hist)
                norm = np.linalg.norm(hist)
                if norm <= 0:
                    continue
                hist /= norm
            descriptors.append(hist)
            kept_xy.append(keypoints.xy[i])
            kept_idx.append(i)
            kept_bins.append(dom)

        if not descriptors:
            return DescriptorSet.empty(dim)
        return DescriptorSet(
            descriptors=np.asarray(descriptors),
            keypoint_xy=np.asarray(kept_xy, dtype=float),
            keypoint_indices=np.asarray(kept_idx, dtype=int),
            dominant_bins=np.asarray(kept_bins, dtype=int),
        )
