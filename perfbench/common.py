"""Shared pieces of the benchmark: statistics, results, fleet scenes."""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Check", "DigestStore", "Scene", "WorkloadResult",
           "derived_seed", "digest",
           "make_scene", "median", "peak_rss_mb", "percentile",
           "PER_LAYER"]

#: Every per-layer metric and its unit.  Each traced run reports all of
#: them; a layer that does not run on a workload reads 0.
PER_LAYER: dict[str, str] = {
    "simulation.busy_s": "s",
    "detection.busy_s": "s",
    "bev.projection_s": "s",
    "bev.mim_s": "s",
    "features.fast_s": "s",
    "features.descriptors_s": "s",
    "features.nn_s": "s",
    "features.keypoints_per_image": "count",
    "features.matches_per_pair": "count",
    "geometry.ransac_s": "s",
    "geometry.consensus_ratio": "share",
    "core.box_alignment_s": "s",
    "core.extractions_per_recover": "count",
    "core.pose_graph_s": "s",
    "core.edge_yield": "share",
    "baselines.vips_s": "s",
    "runtime.engine.pool_s": "s",
    "runtime.engine.chunk_retries": "count",
    "runtime.cache.hit_ratio": "share",
    "runtime.cache.evictions": "count",
    "runtime.shm.bytes_per_request": "B",
    "service.worker_busy_s": "s",
    "service.wait_ms_mean": "ms",
    "service.batch_size_mean": "count",
    "service.queue_depth_max": "count",
    "service.generator_lateness_ms_max": "ms",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

# The fleet scene every fleet and service input is drawn from.
FLEET_VEHICLES = 5
FLEET_SPACING = 22.0
FLEET_DENSITY = 2.5
FLEET_DEGRADATION = 1


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: at least ``1 - fraction`` of the sample
    lies at or above it (p90 of 100 values leaves ten beyond it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    terminated child (pool workers count once they are joined)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def derived_seed(seed: int, *stream: int) -> int:
    """An integer seed for sub-stream ``stream`` of the workload seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def digest(records) -> str:
    """Order-sensitive SHA-256 over the ``repr`` of each record."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """What one workload measured.

    ``setup_s`` is the measured set-up time and ``setup_samples`` the
    calibration samples taken during set-up; the runner adds imports and
    scales the sum to the reference host.  ``end_to_end`` holds the
    end-to-end metrics other than ``setup_s`` and ``peak_rss_mb`` (the
    runner adds those); ``named`` the workload-specific metrics, with
    units, for the report.
    """

    name: str
    setup_s: float = 0.0
    setup_samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    named: list[tuple[str, float, str]] = field(default_factory=list)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


class DigestStore:
    """Output digests remembered across runs of the same program sources.

    The first run of a (workload, seed) records its digest under
    ``<root>/.perfbench_state/<sources fingerprint>/``; every later run
    with byte-identical program and benchmark sources must reproduce it.
    Keying by the sources keeps a deliberate change of the outputs (or of
    the benchmark's inputs) from reading as a failure.
    """

    def __init__(self, root: Path) -> None:
        h = hashlib.sha256()
        for directory in ("src", "perfbench"):
            for path in sorted((root / directory).rglob("*.py")):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        self.directory = root / ".perfbench_state" / h.hexdigest()[:16]

    def check(self, result: "WorkloadResult", key: str, value: str) -> None:
        path = self.directory / f"{key}.txt"
        if path.is_file():
            recorded = path.read_text().strip()
            result.check(f"digest {key} matches earlier runs",
                         recorded == value, f"{value[:16]} vs {recorded[:16]}")
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path.write_text(value + "\n")


@dataclass(frozen=True)
class Scene:
    """One fleet frame with its detections and candidate edges."""

    index: int
    frame: object
    boxes: tuple
    pairs: tuple[tuple[int, int], ...]


def make_scene(seed: int, index: int, detector) -> Scene:
    """Fleet frame ``index`` of workload seed ``seed``.

    The frame draws from ``[seed, index]`` and vehicle ``i``'s boxes from
    ``[seed, index, i]``.  The generator is looked up on its module at
    call time so a traced run's wrapper sees it.
    """
    from repro.simulation import multi as simulation_multi
    from repro.simulation.scenario import ScenarioConfig

    config = simulation_multi.MultiScenarioConfig(
        scenario=ScenarioConfig(same_direction_prob=1.0),
        num_vehicles=FLEET_VEHICLES, spacing=FLEET_SPACING,
        density=FLEET_DENSITY, degradation=FLEET_DEGRADATION)
    frame = simulation_multi.make_multi_frame(
        config, rng=np.random.default_rng([seed, index]))
    boxes = tuple(
        [d.box for d in detector.detect(
            visible, np.random.default_rng([seed, index, vehicle]))]
        for vehicle, visible in enumerate(frame.visible))
    return Scene(index, frame, boxes, frame.candidate_pairs())
