"""The ``service`` workload: open-loop scan-pair requests to a pose service.

Each request is one ego-centred star edge of a fleet frame: vehicle 0
paired with one in-range partner, both as FULL_SCAN messages carrying
their detections.  The stream cycles over the edges of ``SCENES``
frames; a repeated scan comes back more than fifty requests later,
after the workers' 64 MB feature caches have evicted it, so the cache
hits measured here come from the ego scan shared by one frame's edges.

Independent vehicles send at their frame rate whatever the service is
doing, so the load is an open loop: request ``k`` of a step is due at
``k / rate`` seconds and its latency is timed from that due time.  Each
rate step runs on a fresh ``PoseService(ServiceConfig(workers=2))``
(shared-memory data plane and worker cache at their defaults), warmed
up with a frame that is not in the timed stream, and offers
``max(100, rate * seconds)`` requests, so a p90 has ten requests beyond
it.  A request that fails, is shed or is refused counts as missing the
latency limit.

The end-to-end latencies pool the timed requests of all three steps;
throughput is the workers' capacity, two workers over the mean worker
seconds of one request, because the highest step rate that meets the
limit is a whole number that only moves when a change crosses a step.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

import numpy as np

from perfbench.common import (
    WorkloadResult,
    derived_seed,
    digest,
    make_scene,
    median,
    percentile,
)
from perfbench.ledger import (
    format_table,
    layer_metrics,
    ratio,
    registry_ledger,
)

RATES = (3.0, 5.0, 7.0)
REFERENCE_RATE = 5.0
MIN_REQUESTS = 100
SCENES = 16
LIMIT_S = 0.5
SAMPLE = 4
OVERHEAD_REQUESTS = 16
WARM_ID = 0x7F000000
WORKERS = 2

_WORKER_ROWS = ("bev.projection", "bev.mim", "features.fast",
                "features.descriptors", "features.extract", "features.nn",
                "geometry.ransac", "features.match", "core.box_alignment",
                "core.recover")


@dataclass(frozen=True)
class Edge:
    """One star edge: the messages of ego vehicle 0 and partner ``j``."""

    ego: object
    other: object
    truth: object


@dataclass
class Step:
    """One open-loop rate step and what it measured."""

    rate: float
    start_s: float = 0.0
    host_factor: float = 1.0
    latencies: list | None = None
    responses: dict | None = None
    failures: int = 0
    lateness_s: float = 0.0
    registry: object = None

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.5)

    @property
    def p90(self) -> float:
        return percentile(self.latencies, 0.9)

    def backlog_growing(self) -> bool:
        """Latency of the last quarter exceeds the first quarter's by
        more than half the limit: the queue is not draining."""
        quarter = max(1, len(self.latencies) // 4)
        head = self.latencies[:quarter]
        tail = self.latencies[-quarter:]
        if math.inf in tail:
            return True
        return sum(tail) / quarter - sum(head) / quarter > LIMIT_S / 2

    def meets_limit(self) -> bool:
        return (self.failures == 0 and self.p90 <= LIMIT_S
                and not self.backlog_growing())


def _edges(scenes) -> list[Edge]:
    from repro.comms.tiers import Tier, build_message

    edges = []
    for scene in scenes:
        frame = scene.frame
        messages = [build_message(Tier.FULL_SCAN, list(boxes), cloud=cloud)
                    for boxes, cloud in zip(scene.boxes, frame.clouds)]
        for i, j in scene.pairs:
            if i == 0:
                edges.append(Edge(messages[0], messages[j],
                                  frame.gt_relative(0, j)))
    return edges


def _request(request_id: int, edge: Edge):
    from repro.comms.envelope import ServiceRequest
    return ServiceRequest(request_id=request_id, ego=edge.ego,
                          other=edge.other)


async def _started_service(seed: int, warm_edges: list[Edge]):
    """A fresh, warmed-up service and the seconds that took."""
    from repro.service.config import ServiceConfig
    from repro.service.core import PoseService

    began = time.perf_counter()
    service = PoseService(ServiceConfig(workers=WORKERS, seed=seed))
    await service.start()
    # Spaced past the batching window so both workers get work.
    warm = []
    for k, edge in enumerate(warm_edges):
        warm.append(asyncio.ensure_future(
            service.submit(_request(WARM_ID + k, edge))))
        await asyncio.sleep(0.02)
    await asyncio.gather(*warm)
    return service, time.perf_counter() - began


async def _timed(service, request, due: float, loop):
    from repro.service.config import ServiceError

    try:
        response = await service.submit(request)
    except ServiceError as error:
        return None, type(error).__name__, loop.time() - due
    except Exception as error:  # an unhandled error is a failure
        return None, repr(error), loop.time() - due
    return response, response.status, loop.time() - due


async def _run_step(step: Step, service, count: int,
                    edges: list[Edge]) -> None:
    from repro.obs.metrics import MetricsRegistry

    before = service.registry.snapshot()
    loop = asyncio.get_running_loop()
    tasks = []
    began = loop.time() + 0.05
    for k in range(count):
        due = began + k / step.rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        step.lateness_s = max(step.lateness_s, loop.time() - due)
        tasks.append(asyncio.ensure_future(_timed(
            service, _request(k + 1, edges[k % len(edges)]), due, loop)))
    outcomes = await asyncio.gather(*tasks)
    step.latencies = []
    step.responses = {}
    for k, (response, status, latency) in enumerate(outcomes):
        ok = response is not None and status == "ok"
        step.failures += int(not ok)
        step.latencies.append(latency if ok else math.inf)
        if ok:
            step.responses[k + 1] = response
    await service.stop()
    step.registry = MetricsRegistry()
    step.registry.merge_snapshot(service.registry.snapshot())
    step.registry.merge_snapshot(before, sign=-1)


async def _closed_batch(edges: list[Edge], warm_edges: list[Edge],
                        seed: int) -> float:
    """Wall seconds of a fresh service answering a burst of requests."""
    service, _ = await _started_service(seed, warm_edges)
    began = time.perf_counter()
    await asyncio.gather(*(service.submit(_request(k + 1, edge))
                           for k, edge in enumerate(edges)))
    wall = time.perf_counter() - began
    await service.stop()
    return wall


def _capacity(steps: list[Step]) -> float:
    """Requests per second the workers' measured compute sustains:
    ``WORKERS`` divided by the mean worker seconds of one request
    (stage ``scan_pair``), over every timed request of every step."""
    seconds = count = 0.0
    for step in steps:
        scan = step.registry.histograms.get("stage/scan_pair")
        if scan is not None:
            seconds += scan.total
            count += scan.count
    return WORKERS * count / seconds


def _in_process(edge: Edge, request_id: int, seed: int):
    """The response the worker should have sent, computed here."""
    from repro.comms.envelope import ServiceResponse
    from repro.core.pipeline import BBAlign

    result = BBAlign().recover(
        edge.ego.cloud, edge.other, ego_boxes=edge.ego.boxes,
        rng=np.random.default_rng([seed, request_id, 2]))
    return ServiceResponse(
        request_id=request_id, status="ok", success=result.success,
        failure_reason=(result.failure_reason.value
                        if result.failure_reason is not None else None),
        degradation=result.degradation.value,
        inliers_bv=result.inliers_bv, inliers_box=result.inliers_box,
        tx=result.transform.tx, ty=result.transform.ty,
        theta=result.transform.theta)


def run(seed: int, seconds: float, trace: bool, ledger, store,
        calibrator) -> WorkloadResult:
    return asyncio.run(_run(seed, seconds, trace, ledger, store,
                            calibrator))


async def _run(seed: int, seconds: float, trace: bool, ledger, store,
               calibrator) -> WorkloadResult:
    from repro.detection.simulated import SimulatedDetector
    from repro.geometry.se2 import SE2
    from repro.metrics.pose_error import pose_errors

    result = WorkloadResult("service")
    if trace:
        ledger.install()
    began = time.perf_counter()
    detector = SimulatedDetector()
    edges = _edges([make_scene(seed, index, detector)
                    for index in range(SCENES)])
    warm_edges = _edges([make_scene(seed, SCENES, detector)])
    generation_s = time.perf_counter() - began
    result.setup_samples.append(calibrator.sample())
    setup_ledger = ledger.snapshot()

    steps = []
    for rate in RATES:
        step = Step(rate)
        before = calibrator.sample()
        service, step.start_s = await _started_service(seed, warm_edges)
        result.setup_samples.extend((before, calibrator.sample()))
        await _run_step(step, service,
                        max(MIN_REQUESTS, math.ceil(rate * seconds)), edges)
        step.host_factor = calibrator.factor(before, calibrator.sample())
        steps.append(step)
    result.setup_s = generation_s + median(s.start_s for s in steps)
    overhead_s = 0.0
    if trace:
        burst = edges[:OVERHEAD_REQUESTS]
        ledger.uninstall()
        untraced = await _closed_batch(burst, warm_edges, seed)
        ledger.install()
        traced = await _closed_batch(burst, warm_edges, seed)
        ledger.uninstall()
        overhead = (f"  tracing overhead: {len(burst)}-request burst traced "
                    f"{traced:.3f} s - untraced {untraced:.3f} s = "
                    f"{traced - untraced:+.3f} s")
        overhead_s = traced - untraced

    for step in steps:
        result.attempted += len(step.latencies)
        result.failed += step.failures
        leaked = step.registry.gauges.get("service/shm/segments_leaked")
        result.check(f"no leaked shm segments (r{step.rate:g})",
                     leaked is None or leaked.value == 0)
    reference = next(s for s in steps if s.rate == REFERENCE_RATE)
    common = set.intersection(*(set(s.responses) for s in steps))
    result.check("responses identical across rate steps",
                 all(s.responses[i] == reference.responses[i]
                     for s in steps for i in common),
                 f"{len(common)} request ids compared")
    store.check(result, f"service-{seed}", digest(
        reference.responses[i] for i in sorted(reference.responses)))
    rng = np.random.default_rng(derived_seed(seed, 0x5A))
    answered = sorted(reference.responses)
    sample = sorted(int(i) for i in rng.choice(
        answered, size=min(SAMPLE, len(answered)), replace=False))
    for request_id in sample:
        edge = edges[(request_id - 1) % len(edges)]
        result.check(f"response {request_id} equals in-process recover",
                     _in_process(edge, request_id, seed)
                     == reference.responses[request_id])

    met = [s.rate for s in steps if s.meets_limit()]
    max_rate = max(met) if met else 0.0
    capacity = _capacity(steps)
    count = len(reference.latencies)
    successes = accurate = 0
    for request_id, response in reference.responses.items():
        edge = edges[(request_id - 1) % len(edges)]
        successes += int(response.success)
        accurate += int(pose_errors(
            SE2(response.theta, response.tx, response.ty),
            edge.truth).within())
    p50_ms = reference.p50 * 1000.0
    p90_ms = reference.p90 * 1000.0
    # All steps sit below the knee, so their latencies pool into one
    # sample three times the size of a step's, which a host stall
    # during one step cannot move far.
    pooled = [latency for step in steps for latency in step.latencies]
    pooled_p50_ms = percentile(pooled, 0.5) * 1000.0
    pooled_p90_ms = percentile(pooled, 0.9) * 1000.0
    result.end_to_end = {
        "throughput_per_s": capacity,
        "latency_p50_ms": pooled_p50_ms,
        "latency_p90_ms": pooled_p90_ms,
    }
    light = steps[0]
    result.named = [
        (f"service.r{light.rate:g}.p50_ms", light.p50 * 1000.0, "ms"),
        (f"service.r{reference.rate:g}.p50_ms", p50_ms, "ms"),
        (f"service.r{reference.rate:g}.p90_ms", p90_ms, "ms"),
        ("service.p50_ms", pooled_p50_ms, "ms"),
        ("service.p90_ms", pooled_p90_ms, "ms"),
        ("service.max_rate_rps", max_rate, "1/s"),
        ("service.capacity_rps", capacity, "1/s"),
        ("service.success_rate", successes / count, "share"),
        ("service.accurate_rate", accurate / count, "share"),
    ]
    result.report.append(
        f"service: {len(edges)} star edges from {SCENES} frames; "
        f"limit p90 <= {LIMIT_S * 1000:.0f} ms")
    for step in steps:
        result.report.append(
            f"  r{step.rate:g}: {len(step.latencies)} requests, "
            f"failed {step.failures}, p50 {step.p50 * 1000:.1f} ms, "
            f"p90 {step.p90 * 1000:.1f} ms, host factor around the step "
            f"{step.host_factor:.3f}, generator late <= "
            f"{step.lateness_s * 1000:.1f} ms, start+warm-up "
            f"{step.start_s:.2f} s, backlog "
            f"{'growing' if step.backlog_growing() else 'steady'}, "
            f"{'meets' if step.meets_limit() else 'misses'} the limit")
    result.per_layer["service.generator_lateness_ms_max"] = max(
        s.lateness_s for s in steps) * 1000.0
    if trace:
        _ledger(result, steps, reference, setup_ledger, overhead_s)
        result.report.append(overhead)
    return result


def _ledger(result: WorkloadResult, steps: list[Step], reference: Step,
            setup: dict, overhead_s: float) -> None:
    from repro.obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for step in steps:
        merged.merge(step.registry)
    worker = registry_ledger(merged)
    self_s, calls, counts = worker["self_s"], worker["calls"], \
        worker["counts"]
    rows = [(row, self_s.get(row, 0.0), calls.get(row, 0))
            for row in _WORKER_ROWS]
    rows.extend((row, seconds, calls[row]) for row, seconds
                in sorted(self_s.items()) if row not in _WORKER_ROWS)
    scan = merged.histograms.get("stage/scan_pair")
    busy = scan.total if scan is not None else 0.0
    unattributed = busy - sum(row[1] for row in rows)
    counters = merged.counter_values("service/")
    hits = counters.get("service/worker_cache/hits", 0)
    misses = counters.get("service/worker_cache/misses", 0)
    admitted = counters.get("service/admitted", 0)

    ref_scan = reference.registry.histograms.get("stage/scan_pair")
    compute_ms = ratio(ref_scan.total, ref_scan.count) * 1000.0 \
        if ref_scan is not None else 0.0
    answered = [latency for latency in reference.latencies
                if latency != math.inf]
    latency_ms = ratio(sum(answered), len(answered)) * 1000.0
    result.per_layer.update(layer_metrics(worker))
    result.per_layer.update({
        "simulation.busy_s": setup["self_s"].get("simulation", 0.0),
        "detection.busy_s": setup["self_s"].get("detection", 0.0),
        "runtime.engine.chunk_retries": counters.get(
            "service/batch_retries", 0),
        "runtime.cache.hit_ratio": ratio(hits, hits + misses),
        "runtime.cache.evictions": counters.get(
            "service/worker_cache/evictions", 0),
        "runtime.shm.bytes_per_request": ratio(
            counters.get("service/shm/bytes_shared", 0), admitted),
        "service.worker_busy_s": busy,
        "service.wait_ms_mean": latency_ms - compute_ms,
        "service.batch_size_mean": ratio(
            admitted, counters.get("service/batches", 0)),
        "service.queue_depth_max": max(
            (s.registry.gauges["service/queue_depth"].high_water
             for s in steps if "service/queue_depth" in s.registry.gauges),
            default=0.0),
        "unattributed_s": unattributed,
        "trace_overhead_s": overhead_s,
    })
    result.report.extend(format_table(
        "service", rows, busy, unattributed,
        note="worker seconds; the wall is the workers' busy time "
             "(stage scan_pair), not the open loop's schedule"))
    result.report.append(
        f"  set-up (not in wall): simulation "
        f"{setup['self_s'].get('simulation', 0.0):.3f} s, detection "
        f"{setup['self_s'].get('detection', 0.0):.3f} s")
    for step in steps:
        step_scan = step.registry.histograms.get("stage/scan_pair")
        step_compute = ratio(step_scan.total, step_scan.count) * 1000.0 \
            if step_scan is not None else 0.0
        answered = [x for x in step.latencies if x != math.inf]
        mean_ms = ratio(sum(answered), len(answered)) * 1000.0
        step_counters = step.registry.counter_values("service/")
        step_hits = step_counters.get("service/worker_cache/hits", 0)
        step_misses = step_counters.get("service/worker_cache/misses", 0)
        result.report.append(
            f"  r{step.rate:g} per request: latency {mean_ms:.1f} ms = "
            f"wait {mean_ms - step_compute:.1f} ms + worker compute "
            f"{step_compute:.1f} ms; batches "
            f"{step_counters.get('service/batches', 0)}, cache hits "
            f"{step_hits}/{step_hits + step_misses}, evictions "
            f"{step_counters.get('service/worker_cache/evictions', 0)}")
