"""Forward iteration of the initial-value problem, and the recurrence
defects of any candidate solution, a simulated trajectory included (the
march records none of its own).  Both work on arrays: f(y) and g(x) are
mapped once per value, and each kernel's drives come from its exact
``drives`` method (one long double recursion step per row for a separable
kernel, one window dot for a finite-lag one), so nothing is truncated."""
from __future__ import annotations

from itertools import count, cycle
from typing import Iterator, Tuple

import numpy as np

from .kernels import TruncationPolicy
from .sequences import History, Trajectory
from .system import SystemSpec


def _drives(spec: SystemSpec, fy: np.ndarray, gx: np.ndarray, start: int,
            rows: int, past: int, policy: TruncationPolicy
            ) -> Tuple[Iterator[float], Iterator[float]]:
    """The x drives (kernel a over f(y)) and y drives (kernel b over g(x))
    at rows n = 0..rows-1, with m = 0 at entry ``start`` and the values
    before entry 0 repeating the first ``past`` entries."""
    return (spec.kernel_a.drives(fy, start, rows, past, spec.f.bound,
                                 policy.tail_tol),
            spec.kernel_b.drives(gx, start, rows, past, spec.g.bound,
                                 policy.tail_tol))


def simulate(spec: SystemSpec, history: History, steps: int,
             policy: TruncationPolicy) -> Trajectory:
    """March the explicit recurrence

        x_{n+1} = (1 + h_n) x_n + sum_{m<=n} a_{n,m} f(y_m)

    (and its y counterpart) for n = 0..steps-1, starting from the history
    at n = 0.  Each infinite sum is exact, the constant history tail in
    closed form, up to a certified round-off of at most the policy's
    tail_tol (TailNotCertified otherwise).  The trajectory records that
    tolerance; its recurrence defects are ``defects`` on its arrays, the
    history from n = -H-1 on.  Identical inputs reproduce
    bitwise-identical trajectories.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    depth = history.depth
    # entry 0 holds the tail value at m = -H-1, which the past repeats
    past_x, past_y = np.array(
        [history.value_at(m) for m in range(-depth - 1, 1)]).T
    f, g = spec.f, spec.g
    # f(y_m) and g(x_m) at entry m + H + 1; past m = 0 the march fills
    # them in, one f and one g call per step
    fy, gx = np.zeros((2, depth + steps + 2))
    fy[:depth + 2], gx[:depth + 2] = f(past_y), g(past_x)
    x, y = float(past_x[-1]), float(past_y[-1])
    traj_x, traj_y = [x], [y]
    gains = zip(cycle([1.0 + h for h in spec.h.values]),
                cycle([1.0 + p for p in spec.p.values]))
    for k, (gain_x, gain_y), drive_x, drive_y in zip(
            count(depth + 2), gains,
            *_drives(spec, fy, gx, depth + 1, steps, 1, policy)):
        x, y = gain_x * x + drive_x, gain_y * y + drive_y
        fy[k], gx[k] = f(y), g(x)
        traj_x.append(x)
        traj_y.append(y)
    return Trajectory(traj_x, traj_y, history, policy.tail_tol)


def defects(spec: SystemSpec, xs: np.ndarray, ys: np.ndarray, rows: int,
            policy: TruncationPolicy, past: int = 1
            ) -> Tuple[Tuple[float, float], ...]:
    """Absolute defects of the recurrence at n = 0..rows-1,

        |x_{n+1} - (1 + h_n) x_n - sum_{m<=n} a_{n,m} f(y_m)|

    and the y counterpart, for x and y given as equal-length arrays whose
    last entry is at m = rows; the values before their first entry repeat
    their first ``past`` entries (1 for a constant or zero history, T for
    the periodic extension).  The sums are exact, up to a certified
    round-off of at most tail_tol, so an exact solution shows a defect of
    at most that plus the round-off of the recurrence itself.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) <= rows:
        raise ValueError(f"x and y must be equal-length arrays on m <= {rows}")
    start = len(xs) - 1 - rows  # entry of m = 0
    n = np.arange(rows)
    drive_x, drive_y = (np.fromiter(drives, float, count=rows) for drives in
                        _drives(spec, spec.f(ys), spec.g(xs), start, rows,
                                past, policy))
    defect_x = np.abs(xs[start + 1:] - (1.0 + spec.h.take(n)) * xs[start:-1]
                      - drive_x)
    defect_y = np.abs(ys[start + 1:] - (1.0 + spec.p.take(n)) * ys[start:-1]
                      - drive_y)
    return tuple(zip(defect_x.tolist(), defect_y.tolist()))
