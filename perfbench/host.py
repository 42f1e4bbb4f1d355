"""Host-speed sampling, to report times at a fixed reference speed.

The benchmark runs on shared machines whose speed drifts: on a shared
2-vCPU x86-64 container (Python 3.11), the median time of a fixed
pure-Python kernel moved between 22 and 38 ms from one 10-second window to
the next, and repeated runs of one identical workload varied by 9-13%
(coefficient of variation).  While a measurement interpreter runs,
``run.py`` times :func:`kernel` every :data:`SAMPLE_PERIOD_S` on the CPUs
the interpreter runs on.  A measured interval is then divided by the median
kernel time of the samples taken during it (widened by :data:`WINDOW_S`)
over :data:`REFERENCE_KERNEL_S`: "seconds at reference speed".  Rates are
scaled alike.  Serial workloads are
pinned to one CPU and sampled there, which on the repeated run cut the
variation from 12.6% to 4.1% (sampling the other CPU only reached 7.1%).
The kernel and reference are part of the benchmark, not of the program, so
two versions of the program are scaled alike.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from typing import List, Sequence

#: Median :func:`kernel` time on the reference machine, in seconds.
REFERENCE_KERNEL_S = 55e-6

#: Pause between two kernel samples, in seconds.
SAMPLE_PERIOD_S = 0.02

#: Samples this close to a measured interval also count for it, so that a
#: millisecond-long interval still has about 25 samples.
WINDOW_S = 0.25

#: Longest stretch of a measured interval scaled by one factor, in seconds.
PIECE_S = 0.5


def kernel() -> float:
    """Seconds one fixed pure-Python dictionary workload takes now."""
    started = time.perf_counter()
    table = {}
    for number in range(300):
        table[number] = (number * 7) % 13
    sum(value for value in table.values() if value > 3)
    return time.perf_counter() - started


class HostSpeed:
    """Kernel samples taken on ``cpus``, in turn, while a child runs.

    Sampling moves the calling process onto each CPU in turn; use it as a
    context manager so the process's own CPU set is restored afterwards.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.stamps: List[float] = []
        self.samples: List[float] = []
        self._saved = os.sched_getaffinity(0)

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        os.sched_setaffinity(0, self._saved)

    def sample(self) -> None:
        """Time the kernel once, on the next CPU in turn."""
        cpu = self.cpus[len(self.samples) % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        self.stamps.append(time.monotonic())
        self.samples.append(kernel())

    def factor(self, start: float = float("-inf"),
               end: float = float("inf")) -> float:
        """How much slower than the reference the host ran (1.0 = equal).

        Uses the samples from ``start - WINDOW_S`` to ``end + WINDOW_S``
        (``time.monotonic()`` times), or all samples when none fall there.
        """
        low = bisect.bisect_left(self.stamps, start - WINDOW_S)
        high = bisect.bisect_right(self.stamps, end + WINDOW_S)
        local = self.samples[low:high] or self.samples
        return statistics.median(local) / REFERENCE_KERNEL_S

    def seconds(self, interval: Sequence[float]) -> float:
        """Length of a ``[start, end]`` interval at reference speed.

        Long intervals are scaled piece by piece (:data:`PIECE_S` each), so
        a slow stretch of the host is corrected where it happened.
        """
        start, end = interval
        total = 0.0
        while start < end:
            stop = min(end, start + PIECE_S)
            total += (stop - start) / self.factor(start, stop)
            start = stop
        return total
