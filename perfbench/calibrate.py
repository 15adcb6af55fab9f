"""Host-speed calibration for set-up and for ``sweep`` and ``fleet`` times.

On a shared host the speed available to one process drifts by about a
fifth between windows of a few seconds, more than a run-to-run bound
could absorb.  The two workloads whose operations are back-to-back
batches of work (a cold sweep, a frame alignment) therefore time a fixed
kernel right before and right after each operation and report the
operation's time on a reference host: ``reported = measured *
REFERENCE_S / calibration``, where ``calibration`` is the median kernel
time around it.  The kernel runs no program code (numpy FFTs, a BLAS
product, a sort and a pure-Python loop, the mix the pipeline spends its
time in), so a change to the program moves reported times exactly as it
moves measured ones.  ``setup_s`` is scaled the same way, by the samples
taken during set-up.  Runs print the measured figures next to the
reported ones.

The ``service`` workload reports its latencies and capacity as
measured: its rate steps are continuous open loops, and samples taken
between steps do not track the host during one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["Calibrator", "REFERENCE_S"]

#: Kernel seconds on the reference host; reported times are scaled to it.
REFERENCE_S = 0.06


class Calibrator:
    """Times the calibration kernel and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0xCA11B)
        self._image = rng.standard_normal((256, 256))
        self._matrix = rng.standard_normal((256, 256))
        self._values = rng.standard_normal(150_000)
        self.samples: list[float] = []
        self._kernel()  # first-call costs (FFT plans, page faults)

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(8):
            spectrum = np.fft.fft2(self._image)
            total += float(np.fft.ifft2(spectrum * self._image).real[0, 0])
            total += float((self._matrix @ self._matrix)[0, 0])
            total += float(np.sort(self._values)[0])
            accumulator = 0
            for i in range(15_000):
                accumulator += i * i
            total += accumulator
        return total

    def sample(self) -> float:
        """Time the kernel once; returns its seconds."""
        start = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def factor(self, *samples: float) -> float:
        """Scale from measured to reference seconds for work timed
        between ``samples`` (all of this run's samples when none)."""
        around = samples or tuple(self.samples)
        return REFERENCE_S / statistics.median(around)
