"""Host-speed yardstick: a fixed piece of work timed before and after
every operation, so operation times can be given at one reference host
speed.

On a shared host the same code runs at very different speeds from one
minute to the next: on the 2-vCPU x86_64 host where the benchmark was
written (Python 3.11.7, numpy 2.4.6) this yardstick took 5.7-13 ms within
seven minutes, and the 36 s medians of the operations moved with it.
Because the yardstick brackets each operation, a slow spell shows in
both; dividing it out leaves the program's own speed.

The yardstick never calls volterra2d, so a change to the library moves
the operation times and not the yardstick.  It has three parts of about
3 ms each, one for each kind of work the library does: plain float
arithmetic, small method calls through closures on numpy scalars (like
the kernel sums), and column-by-column matrix fills with a dense solve
(like the finite-difference Newton step).  Together they tracked the
operations' slow spells better than any one of them.
"""
from __future__ import annotations

import math
import time
from typing import List, Sequence

import numpy as np

#: Yardstick time that adjusted times are given at: about its median on
#: the host named above.  On a host where the yardstick takes this long,
#: adjusted times are plain wall times.
REFERENCE_S = 0.010

_SIZE = 120
_MATRIX = (np.random.default_rng(0).random((_SIZE, _SIZE))
           + _SIZE * np.eye(_SIZE))
_RHS = np.ones(_SIZE)


class _Weight:
    __slots__ = ("coef", "rate")

    def __init__(self, coef: float, rate: float):
        self.coef = coef
        self.rate = rate

    def at(self, n: int, m: int) -> float:
        return self.coef * math.exp(-self.rate * (n - m))


class _Bounded:
    def __init__(self, amplitude: float):
        self.amplitude = amplitude

    def __call__(self, x):
        x = np.asarray(x)
        if x.ndim == 0:
            return self.amplitude * math.cos(float(x))
        return self.amplitude * np.cos(x)


def _work() -> float:
    total = 0.0
    values = [0.1 * k for k in range(50)]
    for i in range(16000):
        total += math.exp(-values[i % 50]) * (i % 7)
    row = np.arange(32.0)
    for _ in range(400):
        total += float(row @ row)

    weight, bounded = _Weight(0.5, 0.3), _Bounded(1.0)
    xs = [0.01 * i for i in range(300)]
    for n in range(100, 140):
        term = lambda m: bounded(xs[m])  # noqa: E731
        for m in range(n - 90, n + 1):
            w = weight.at(n, m)
            if w != 0.0:
                total += w * term(m)

    for _ in range(6):
        jac = np.empty((_SIZE, _SIZE))
        for k in range(_SIZE):
            jac[:, k] = _MATRIX[:, k] * 1.0001
        total += float(np.linalg.solve(jac, _RHS)[0])
    return total


def measure() -> float:
    """Seconds the yardstick takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def adjust(walls: Sequence[float], yards: Sequence[float]) -> List[float]:
    """Wall times of consecutive operations given at the reference host
    speed.  ``yards`` has one entry more than ``walls``: the yardstick
    timed before each operation and once after the last, so every
    operation is bracketed by two.  Each wall time is scaled by
    REFERENCE_S over the mean of its two."""
    if len(yards) != len(walls) + 1:
        raise ValueError("need one yardstick before each operation and "
                         "one after the last")
    return [wall * 2.0 * REFERENCE_S / (yards[j] + yards[j + 1])
            for j, wall in enumerate(walls)]
