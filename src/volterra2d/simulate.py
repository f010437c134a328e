"""Forward iteration of the initial-value problem, and the recurrence
defects of any candidate solution, a simulated trajectory included (the
march records none of its own).  Both sum each kernel exactly, nothing
truncated.  The march is sequential: it takes each kernel's drives row by
row from its ``drives`` generator (one long double recursion step per row
for a separable kernel, one window dot for a finite-lag one), maps each
new value by the nonlinearities' ``scalar`` formulas and writes it
through a memoryview into the arrays that the drives read as they
advance; it gives the bits of the dispatching calls.  ``defects`` has
every value in place, so it maps f(y) and g(x) once per array and takes
all of a kernel's drives at once from ``drive_array`` (the long double
first-order filter for a separable kernel)."""
from __future__ import annotations

from itertools import count
from typing import Tuple

import numpy as np

from .kernels import TruncationPolicy
from .sequences import History, Trajectory
from .system import SystemSpec


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
    # f(y_m) and g(x_m) at entry m + H + 1; past m = 0 the march fills
    # them in, one call of each scalar formula per step, written through
    # memoryviews as Python floats
    fy, gx = np.zeros((2, depth + steps + 2))
    fy[:depth + 2], gx[:depth + 2] = spec.f(past_y), spec.g(past_x)
    put_fy, put_gx = memoryview(fy), memoryview(gx)
    f, g = spec.f.scalar, spec.g.scalar
    x, y = float(past_x[-1]), float(past_y[-1])
    traj_x, traj_y = [x], [y]
    # (1 + h_n, 1 + p_n) at slot n mod T, and each equation's drives of
    # its mapped partner values with m = 0 at entry H + 1
    period = spec.period
    gains = [(1.0 + h, 1.0 + p) for h, p in zip(spec.h.values, spec.p.values)]
    drives = [kernel.drives(mapped, depth + 1, steps, 1, nonlin.bound,
                            policy.tail_tol)
              for (_, kernel, nonlin), mapped in zip(spec.equations, (fy, gx))]
    with np.errstate(over="ignore", invalid="ignore"):
        for n, k, drive_x, drive_y in zip(range(steps), count(depth + 2),
                                          *drives):
            gain_x, gain_y = gains[n % period]
            x, y = gain_x * x + drive_x, gain_y * y + drive_y
            put_fy[k], put_gx[k] = f(y), g(x)
            traj_x.append(x)
            traj_y.append(y)
    return Trajectory(traj_x, traj_y, policy.tail_tol)


def defect_columns(spec: SystemSpec, xs: np.ndarray, ys: np.ndarray,
                   rows: int, policy: TruncationPolicy, past: int = 1
                   ) -> np.ndarray:
    """The defects of ``defects`` as a (2, rows) array: the x column, then
    the y column."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) <= rows:
        raise ValueError(f"x and y must be equal-length arrays on m <= {rows}")
    start = len(xs) - 1 - rows  # entry of m = 0
    n = np.arange(rows)
    columns = np.empty((2, rows))
    for (seq, kernel, nonlin), own, partner, column in zip(
            spec.equations, (xs, ys), (ys, xs), columns):
        drive = kernel.drive_array(nonlin(partner), start, rows, past,
                                   nonlin.bound, policy.tail_tol)
        np.abs(own[start + 1:] - (1.0 + seq.take(n)) * own[start:-1] - drive,
               out=column)
    return columns


def defects(spec: SystemSpec, xs: np.ndarray, ys: np.ndarray, rows: int,
            policy: TruncationPolicy, past: int = 1
            ) -> Tuple[Tuple[float, float], ...]:
    """Absolute defects of the recurrence at n = 0..rows-1,

        |x_{n+1} - (1 + h_n) x_n - sum_{m<=n} a_{n,m} f(y_m)|

    and the y counterpart, for x and y given as equal-length arrays whose
    last entry is at m = rows; the values before their first entry repeat
    their first ``past`` entries (1 for a constant or zero history, T for
    the periodic extension).  The sums are exact, up to a certified
    round-off of at most tail_tol (``drive_array``), so an exact solution
    shows a defect of at most that plus the round-off of the recurrence
    itself.
    """
    return tuple(zip(*defect_columns(spec, xs, ys, rows, policy,
                                     past).tolist()))
