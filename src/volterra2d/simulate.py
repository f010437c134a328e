"""Forward iteration of the initial-value problem, and the recurrence
defects of any candidate solution, a simulated trajectory included (the
march records none of its own).  Both sum each kernel exactly, nothing
truncated.  The march is sequential: one loop over the period's gains,
in which each step takes each kernel's next drive from its ``drives``
coroutine (one long double recursion step per row for a separable
kernel, one window dot for a finite-lag one) by sending it the value
that the step before has just mapped by the nonlinearities' ``scalar``
formulas, which give the array formula's bits (sin and cos by ``math``,
the C library's functions that numpy's ufuncs call too, tanh by numpy's
ufunc, whose tanh is not ``math``'s; an overflowed value maps to nan, as
in the array).  ``defects`` has every
value in place, so it maps f(y) and g(x) once per array and takes all of
a kernel's drives at once from ``drive_array`` (the long double
first-order filter for a separable kernel)."""
from __future__ import annotations

from itertools import cycle, islice
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
    past_x, past_y = np.array(
        [history.value_at(m) for m in range(-depth - 1, 1)]).T
    f, g = spec.f.scalar, spec.g.scalar
    x, y = float(past_x[-1]), float(past_y[-1])
    traj_x, traj_y = [x], [y]
    # (1 + h_n, 1 + p_n) in turn, and each equation's drive, primed with
    # the mapped history before m = 0, whose first value is the tail's
    gains = islice(cycle(zip([1.0 + h for h in spec.h.values],
                             [1.0 + p for p in spec.p.values])), steps)
    drives = [kernel.drives(nonlin(partner[:-1]), steps, nonlin.bound,
                            policy.tail_tol)
              for (_, kernel, nonlin), partner
              in zip(spec.equations, (past_y, past_x))]
    for drive in drives:
        next(drive)
    send_x, send_y = (drive.send for drive in drives)
    with np.errstate(over="ignore", invalid="ignore"):
        phi_x, phi_y = f(y), g(x)
        for gain_x, gain_y in gains:
            x, y = gain_x * x + send_x(phi_x), gain_y * y + send_y(phi_y)
            phi_x, phi_y = f(y), g(x)
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
