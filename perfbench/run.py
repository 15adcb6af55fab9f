#!/usr/bin/env python3
"""Benchmark entry point: one seeded workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 2024 --trace 0
    python3 perfbench/run.py --workload all --seed 2024

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` is a separate run that wraps each layer's
entry points and prints the per-layer ledger.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means on
each workload.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Load is the benchmark process plus at most two pool workers, without
# BLAS or OpenMP thread pools competing with them for the two cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep", "fleet", "service")

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_workload(name: str, args, ledger, store, calibrator):
    if name == "sweep":
        from perfbench import sweep as module
    elif name == "fleet":
        from perfbench import fleet as module
    else:
        from perfbench import service as module
    return module.run(args.seed, args.seconds, bool(args.trace), ledger,
                      store, calibrator)


def _print_result(result, trace: bool) -> None:
    for line in result.report:
        print(line)
    for name, value, unit in result.named:
        print(f"{name} = {value:.6g} {unit}")
    if trace:
        from perfbench.common import PER_LAYER
        for name, unit in PER_LAYER.items():
            print(f"{result.name} {name} = "
                  f"{result.per_layer.get(name, 0.0):.6g} {unit}")
    print(f"{result.name}: attempted {result.attempted}, "
          f"failed {result.failed}")
    for check in result.checks:
        if not check.ok:
            print(f"CHECK FAILED {result.name}: {check.name} {check.detail}")
    print(f"{result.name}: {sum(c.ok for c in result.checks)}/"
          f"{len(result.checks)} output checks passed")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        return _main(args)
    finally:
        # Pool workers and the shared-memory resource tracker would
        # otherwise outlive the run; end them all and wait for each.
        from perfbench.processes import stop_children
        stop_children()


def _main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: the program sources (src/repro) are missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import repro.experiments.common  # noqa: F401  (the heavy imports)
    import repro.service.core  # noqa: F401

    from perfbench.calibrate import Calibrator
    from perfbench.common import PER_LAYER, DigestStore, peak_rss_mb
    from perfbench.ledger import Ledger

    import_s = time.perf_counter() - _STARTED
    ledger = Ledger()
    store = DigestStore(ROOT)
    calibrator = Calibrator()
    after_imports = calibrator.sample()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = _run_workload(name, args, ledger, store, calibrator)
        _print_result(result, bool(args.trace))
        results.append(result)
    rss = peak_rss_mb()
    measured_setup_s = import_s + sum(result.setup_s for result in results)
    setup_factor = calibrator.factor(after_imports, *(
        sample for result in results for sample in result.setup_samples))
    setup_s = measured_setup_s * setup_factor
    print(f"setup_s = {setup_s:.6g} s (measured {measured_setup_s:.3f} s, "
          f"imports {import_s:.3f} s, host factor {setup_factor:.3f})")
    print(f"peak_rss_mb = {rss:.6g} MB")

    if args.workload == "all":
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
        for result in results:
            for name, value, unit in result.named:
                metrics[name] = (value, unit)
    elif args.trace:
        metrics = {name: (results[0].per_layer.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(results[0].end_to_end, setup_s=setup_s,
                      peak_rss_mb=rss)
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": all(check.ok for result in results
                       for check in result.checks),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
