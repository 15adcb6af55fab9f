"""Per-layer self-time ledger, recorded from outside the program.

The benchmark wraps the public entry points of each layer (and the
module-level kernel names the stage-1 matcher calls through) with a
timer that keeps a stack of open calls.  A layer's *self time* is its
call's duration minus the time its wrapped children took, so the self
times of nested layers add up to the wall time of the outermost call.

Two sinks receive every record:

* the :class:`Ledger` itself, for work that runs in the benchmark's own
  process (the ``fleet`` workload);
* the program's active metrics registry when one is installed, as the
  histogram ``perfbench/<layer>`` and counters ``perfbench/<count>``.
  Pool workers install a chunk- or batch-local registry around their
  work and ship its snapshot home, so on a fork-started pool the
  wrappers inherited by workers report through telemetry the program
  already returns (``SweepTimings`` for the sweep engine,
  ``PoseService.timings`` for the service).

Wrappers are installed only in traced runs; untraced runs execute the
program unmodified.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable

from repro.obs.metrics import active_registry

__all__ = ["Ledger", "REGISTRY_PREFIX", "format_table", "layer_metrics",
           "layer_patches", "ratio", "registry_ledger"]

#: Name prefix of everything the wrappers record into program registries.
REGISTRY_PREFIX = "perfbench/"


def _count_extraction(ledger: "Ledger", features) -> None:
    ledger.count("extractions", 1)
    ledger.count("keypoints", len(features.keypoints.xy))


def _count_extraction_pair(ledger: "Ledger", pair) -> None:
    for features in pair:
        _count_extraction(ledger, features)


def _count_match(ledger: "Ledger", match) -> None:
    ledger.count("match_calls", 1)
    ledger.count("match_consensus", int(match.success))
    ledger.count("matches", int(match.num_matches))


def _count_recover(ledger: "Ledger", result) -> None:
    ledger.count("recovers", 1)
    ledger.count("recover_successes", int(result.success))


def layer_patches() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, layer, observe)`` for every wrapped entry.

    ``observe(ledger, result)`` turns a call's result into counts.
    Module-level names are patched in the module that *calls* them
    (``repro.core.bv_matching`` imports its kernels by name, and
    ``repro.core.multi`` its pose-graph functions), so the wrapper sees
    exactly the calls the layer above makes.
    """
    from repro.core import bv_matching
    from repro.core import multi as core_multi
    from repro.core.box_alignment import BoxAligner
    from repro.core.bv_matching import BVMatcher
    from repro.core.multi import MultiVehicleAligner
    from repro.core.pipeline import BBAlign
    from repro.detection.simulated import SimulatedDetector
    from repro.experiments import common as experiments_common
    from repro.features.descriptors import BvftDescriptorExtractor
    from repro.simulation import multi as simulation_multi

    return [
        (BVMatcher, "make_bv_image", "bev.projection", None),
        (bv_matching, "compute_mim", "bev.mim", None),
        (bv_matching, "compute_mim_batch", "bev.mim", None),
        (bv_matching, "detect_fast", "features.fast", None),
        (BvftDescriptorExtractor, "compute", "features.descriptors", None),
        (BvftDescriptorExtractor, "flipped_set", "features.descriptors",
         None),
        (BBAlign, "extract_features", "features.extract",
         _count_extraction),
        (BBAlign, "extract_features_pair", "features.extract",
         _count_extraction_pair),
        (bv_matching, "match_descriptors", "features.nn", None),
        (bv_matching, "ransac_rigid_2d", "geometry.ransac", None),
        (BVMatcher, "match", "features.match", _count_match),
        (BoxAligner, "align", "core.box_alignment", None),
        (BBAlign, "recover", "core.recover", _count_recover),
        (core_multi, "cycle_gate", "core.pose_graph", None),
        (core_multi, "solve_incremental", "core.pose_graph", None),
        (MultiVehicleAligner, "align", "core.multi", None),
        (SimulatedDetector, "detect", "detection", None),
        (simulation_multi, "make_multi_frame", "simulation", None),
        (experiments_common, "vips_graph_matching", "baselines.vips", None),
    ]


class Ledger:
    """Self seconds and call counts per layer, plus named counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._originals: list[tuple[object, str, object]] = []
        # A worker forked while a wrapped call is open in this process
        # must not charge its own calls to that frame.
        os.register_at_fork(after_in_child=self._stack.clear)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry of :func:`layer_patches`.  Idempotent."""
        if self._originals:
            return
        for owner, attribute, layer, observe in layer_patches():
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, observe))

    def uninstall(self) -> None:
        """Restore the program's own entry points."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str, observe):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(layer, elapsed - children)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _record(self, layer: str, seconds: float) -> None:
        self.self_s[layer] += seconds
        self.calls[layer] += 1
        registry = active_registry()
        if registry is not None:
            registry.histogram(REGISTRY_PREFIX + layer).observe(seconds)

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount
        registry = active_registry()
        if registry is not None:
            registry.counter(REGISTRY_PREFIX + name).inc(amount)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: dict) -> dict[str, float]:
    """The per-layer metrics that wrapper records (a
    :meth:`Ledger.snapshot` or :func:`registry_ledger`) determine."""
    self_s, counts = records["self_s"], records["counts"]
    metrics = {f"{layer}_s": self_s.get(layer, 0.0) for layer in (
        "bev.projection", "bev.mim", "features.fast", "features.descriptors",
        "features.nn", "geometry.ransac", "core.box_alignment",
        "core.pose_graph", "baselines.vips")}
    metrics.update({
        "features.keypoints_per_image": ratio(
            counts.get("keypoints", 0), counts.get("extractions", 0)),
        "features.matches_per_pair": ratio(
            counts.get("matches", 0), counts.get("match_calls", 0)),
        "geometry.consensus_ratio": ratio(
            counts.get("match_consensus", 0), counts.get("match_calls", 0)),
        "core.extractions_per_recover": ratio(
            counts.get("extractions", 0), counts.get("recovers", 0)),
        "core.edge_yield": ratio(counts.get("recover_successes", 0),
                                 counts.get("recovers", 0)),
    })
    return metrics


def registry_ledger(registry) -> dict:
    """Wrapper records that a program registry carried home from pool
    workers, in :meth:`Ledger.snapshot` form (empty when the workers ran
    unwrapped)."""
    prefix = len(REGISTRY_PREFIX)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, histogram in registry.histograms.items():
        if name.startswith(REGISTRY_PREFIX):
            self_s[name[prefix:]] = histogram.total
            calls[name[prefix:]] = histogram.count
    counts = {name[prefix:]: value for name, value
              in registry.counter_values(REGISTRY_PREFIX).items()}
    return {"self_s": self_s, "calls": calls, "counts": counts}


def format_table(title: str, rows: list[tuple[str, float, int]],
                 wall_s: float, unattributed_s: float,
                 note: str = "") -> list[str]:
    """Render ``(layer, self seconds, calls)`` rows as a ledger table."""
    lines = [f"ledger {title}: wall {wall_s:.3f} s" + (f" ({note})"
                                                        if note else "")]
    lines.append(f"  {'layer':<24} {'self_s':>10} {'share':>7} {'calls':>8}")
    for layer, seconds, calls in rows:
        lines.append(f"  {layer:<24} {seconds:10.4f} "
                     f"{ratio(seconds, wall_s) * 100:6.1f}% {calls:8d}")
    lines.append(f"  {'unattributed_s':<24} {unattributed_s:10.4f} "
                 f"{ratio(unattributed_s, wall_s) * 100:6.1f}%")
    return lines
