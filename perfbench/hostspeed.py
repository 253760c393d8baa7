"""Host-speed sampling, so pass times from a shared host can be compared.

On a shared virtual machine the speed of the cores drifts with the load of
other tenants: the same solve can take 20-60% longer from one second to
the next, for CPU-bound and memory-bound code alike.  Raw pass times then
spread more between runs than the changes they are meant to show.

``HostSpeed`` times a fixed reference kernel every ``INTERVAL_S`` seconds
from a SIGALRM handler, which Python runs in the main thread between
bytecodes, so the samples interleave with the workload's own code.  The
kernel is a loop of array operations on 512 elements, which costs mostly
interpreter and call overhead, like the descent on small rasters, and a
loop of the same operations on 8192 elements, which costs mostly memory
traffic within the private caches, like the large p = 2 solves.  Fitted
alone, each tracked one kind of solve with an exponent near 1 and the
other kind poorly; together they take about 1 ms.

``scaled(start, end)`` turns an interval of the workload into
reference-speed seconds: its wall time, minus the time the handler took
inside it, times the mean over the samples taken inside it of
``REF_KERNEL_S / kernel time``.  That is the time the interval would take
on a host where the kernel takes ``REF_KERNEL_S``.  A program change
leaves the kernel alone, so it moves the scaled time as it moves the
wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REF_KERNEL_S = 1e-3
_WARM_ITERS = 5
_SMALL_ITERS = 40
_MID_ITERS = 10


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.uniform(-1.0, 1.0, 512)
        self._mid = rng.uniform(-1.0, 1.0, 8192)
        self.ends = []  # perf_counter at the end of each sample
        self.kernel_s = []  # the timed kernel's duration
        self.handler_s = []  # the whole handler's duration

    @staticmethod
    def _loop(u, iters: int) -> float:
        total = 0.0
        for _ in range(iters):
            a = np.sqrt(u * u + 1e-12)
            total += float(np.sum(a**1.5))
        return total

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._loop(self._small, _WARM_ITERS)  # reload the kernel into the caches
        self._loop(self._mid, 1)
        t1 = time.perf_counter()
        self._loop(self._small, _SMALL_ITERS)
        self._loop(self._mid, _MID_ITERS)
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.kernel_s.append(t2 - t1)
        self.handler_s.append(t2 - t0)

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> tuple:
        """(wall seconds net of sampling, reference-speed seconds) of the
        interval [start, end].  An interval too short to hold a sample
        uses the sample that ended nearest to it."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        net = (end - start) - sum(self.handler_s[lo:hi])
        if hi > lo:
            kernels = self.kernel_s[lo:hi]
        else:
            k = min(range(len(self.ends)), key=lambda i: abs(self.ends[i] - end))
            kernels = [self.kernel_s[k]]
        return net, net * statistics.fmean(REF_KERNEL_S / s for s in kernels)

    def median_kernel_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1e3
