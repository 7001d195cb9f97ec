"""Host-speed calibration for the timed metrics.

The benchmark runs on shared virtual CPUs whose speed drifts: a fixed
pure-Python loop takes 1.5–2x longer for seconds to minutes at a time, and
the slow spells come and go at random. Ten runs of the same code then
spread by more than any useful bound, whatever the run length.

The remedy is a control. A fixed kernel, which uses nothing of curvlab, is
timed right before and right after every timed invocation, and every
``SAMPLE_EVERY_S`` during it (from a ``SIGALRM`` handler, whose own time is
taken out of the invocation's time). The invocation's time is scaled by
``REF_MS`` over the mean kernel time, which gives its time at the reference
speed: the speed at which the kernel takes ``REF_MS``. A change to curvlab
moves the scaled time as it moves the raw time, because the kernel does not
depend on curvlab.

The kernel mixes what curvlab's hot paths do: small numpy arrays behind
Python dispatch (the chart engine's jets), ``Fraction`` arithmetic (the
exact frames) and dict and tuple traffic. The garbage collector is off
while it runs. The kernel makes no reference cycles, so nothing is left
behind, and its time does not depend on the size of the program's heap.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's time at the reference speed. It is set so that the reference
# speed is the usual speed of a quiet 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6), where the kernel takes about 0.5 ms.
REF_MS = 0.56
ENDPOINT_RUNS = 8        # kernel runs right before and right after an invocation
SAMPLE_EVERY_S = 0.1     # one sample per this much time inside an invocation


def _kernel():
    a = np.arange(1.0, 5.0)
    eye = np.eye(4)
    acc = 0.0
    for _ in range(40):
        g = a * 0.5 + a
        h = np.outer(a, g) + eye
        acc += float(h[1, 2]) + float(g @ a)
    f = Fraction(0)
    for i in range(40):
        f += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    d = {}
    for i in range(400):
        key = (i % 37, i % 11)
        d[key] = d.get(key, 0) + i
    return acc, f, len(d)


def kernel_ms() -> float:
    """One timed run of the kernel, in ms, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return 1e3 * (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def endpoint_ms() -> float:
    """Median kernel time of ``ENDPOINT_RUNS`` runs in a row."""
    return statistics.median(kernel_ms() for _ in range(ENDPOINT_RUNS))


class Speed:
    """Kernel samples before, during and after each measured interval.

    ``start()`` and ``stop()`` bracket one interval; ``stop()`` returns the
    seconds its samples took and the interval's scale to the reference speed.
    The kernel time at the end of one interval is also the one at the start
    of the next, as nothing else runs between them that is timed.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.edge_ms = endpoint_ms()
        self.log: list[float] = [self.edge_ms]
        self._samples: list[float] = []
        self._spent = 0.0

    def _on_alarm(self, signum, frame):
        # The first run brings the kernel back into the caches that the
        # invocation has filled; only the second, warm run is a sample.
        t0 = time.perf_counter()
        kernel_ms()
        self._samples.append(kernel_ms())
        self._spent += time.perf_counter() - t0

    def start(self):
        self._samples, self._spent = [], 0.0
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        before, self.edge_ms = self.edge_ms, endpoint_ms()
        self.log.append(self.edge_ms)
        self.log.extend(self._samples)
        mean_ms = statistics.fmean([before, *self._samples, self.edge_ms])
        return self._spent, REF_MS / mean_ms
