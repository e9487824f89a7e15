"""Speed-normalized timing for a machine shared with other tenants.

On a shared host the same Python code can run twice as slow for seconds
at a time while a neighbour is busy, and a whole run can land in such a
period.  A :class:`Speedometer` therefore times a fixed reference kernel
(exact-rational arithmetic, like sidepad's own work) right before and
after every measured job and, from a ``SIGALRM`` handler, every
``INTERVAL`` seconds during it.  A job's *busy* time is its wall time
minus the kernel runs inside it; its *normalized* time is

    busy * REFERENCE_S / median_kernel_time_around_the_job

that is, the time the job would have taken on a machine running the
kernel in ``REFERENCE_S``: about the kernel's time on an idle core of a
2-vCPU Intel Xeon virtual machine.  Normalized times are
comparable across runs and commits on one machine; raw busy times stay in
each run's results file.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable

INTERVAL = 0.02
REFERENCE_S = 250e-6


def _kernel() -> Fraction:
    total = Fraction(0)
    for k in range(120):
        total += Fraction(1, k % 12 + 1)
    return total


class Speedometer:
    """Reference-kernel samples of one run; use as a context manager to
    sample periodically while jobs run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.kernel_s = 0.0
        self._previous = None

    def sample(self) -> None:
        start = perf_counter()
        _kernel()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.kernel_s += elapsed

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``fn`` and return its result, its busy seconds (kernel runs
        inside it excluded, so measurements nest) and the median kernel
        time around and during it.  An exception from ``fn`` propagates."""
        self.sample()
        first = len(self.samples) - 1
        kernel = self.kernel_s
        start = perf_counter()
        result = fn()
        busy = perf_counter() - start - (self.kernel_s - kernel)
        self.sample()
        return result, busy, statistics.median(self.samples[first:])

    def timed(self, fn: Callable[[], object]) -> tuple[object, float]:
        """Run ``fn`` and return its result and speed-normalized seconds."""
        result, busy, ref = self.measure(fn)
        return result, busy * REFERENCE_S / ref
