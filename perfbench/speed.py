"""Op times expressed at a fixed machine speed.

The machine that defined the benchmark (2 cores of a shared host) switches
between a fast state and one 1.5 to 2 times slower, every few seconds and now
and then for minutes; CPU time slows with wall time, so the slow state is the
core running slower, not the process waiting.  A run therefore times a short
calibration kernel of its own (pure-Python float geometry, dict and heap work
and small numpy calls, the kinds of work `conetrace` does) between ops, and
scales each op's wall time by ``REF_KERNEL_S`` over the kernel's time around
it.  Reported times are the op's wall time at the speed where the kernel
takes ``REF_KERNEL_S``, about the kernel's median on that machine.

The kernel is the benchmark's own code and calls nothing in `conetrace`, so a
change to the program moves the scaled times as much as the wall times.  It
runs with the garbage collector off, so the objects a run keeps alive do not
change its time.
"""
from __future__ import annotations

import gc
import heapq
import math
from time import perf_counter

import numpy as np

# the kernel's median time on the machine that defined the benchmark
REF_KERNEL_S = 0.010


class _Iso:
    __slots__ = ("rot", "tx", "ty")

    def __init__(self, rot, tx, ty):
        self.rot, self.tx, self.ty = rot, tx, ty

    def compose(self, other):
        c, s = math.cos(self.rot), math.sin(self.rot)
        return _Iso(self.rot + other.rot, c * other.tx - s * other.ty + self.tx,
                    s * other.tx + c * other.ty + self.ty)


def _kernel():
    p, q = _Iso(0.1, 0.2, 0.3), _Iso(0.7, -0.1, 0.05)
    bins, heap = {}, []
    for i in range(3000):
        p = q.compose(p)
        key = (int(p.tx * 10.0) & 63, i & 7)
        bins[key] = bins.get(key, 0) + 1
        heapq.heappush(heap, (p.ty, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    a = np.arange(64.0)
    for i in range(400):
        b = np.sin(a * 0.1 + i)
        a = a + b.sum() * 1e-9
        np.flatnonzero(b > 0.5)
    return len(bins)


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Times sections of ops and scales them to the reference speed.

    The kernel runs before a section once ``period`` seconds have passed since
    it last ran.  A section's scale is ``REF_KERNEL_S`` over the mean of the
    kernel times just before and just after it, so sections wait for the next
    calibration (or ``flush``) to get their scaled time.
    """

    def __init__(self, period: float):
        self.period = period
        self.kernels = []
        self.pending = []  # (OpTime, raw seconds) since the last calibration
        self.calibrate()

    def calibrate(self):
        k = kernel_s()
        if self.pending:
            scale = REF_KERNEL_S / ((self.kernels[-1] + k) / 2.0)
            for op, dt in self.pending:
                op.scaled += dt * scale
        self.pending = []
        self.kernels.append(k)
        self.last = perf_counter()

    def flush(self):
        if self.pending:
            self.calibrate()


class OpTime:
    """One op's timed sections: ``with t: <public calls>``, as many as the op has.

    ``raw`` is their summed wall time; ``scaled`` their time at the reference
    speed, complete once the clock has calibrated after the last section.
    """

    def __init__(self, clock: SpeedClock | None):
        self.clock = clock
        self.raw = self.scaled = 0.0

    def __enter__(self):
        if self.clock is not None and perf_counter() - self.clock.last >= self.clock.period:
            self.clock.calibrate()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        dt = perf_counter() - self.t0
        self.raw += dt
        if self.clock is not None:
            self.clock.pending.append((self, dt))
        return False
