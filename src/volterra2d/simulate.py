"""Forward iteration of the initial-value problem and recurrence defects of
candidate solutions, both on arrays: f(y) and g(x) are mapped once per
value, each kernel's rows are planned once per call (``drive_plan``: the
certified depth of every row from one array pass, the weights in compact
form), and each drive is one scale * (profile window @ value window)."""
from __future__ import annotations

from itertools import count, cycle
from typing import Tuple

import numpy as np

from .kernels import DrivePlan, TruncationPolicy, drive_plan
from .sequences import History, Trajectory
from .system import SystemSpec


def _plans(spec: SystemSpec, rows: int,
           policy: TruncationPolicy) -> Tuple[DrivePlan, DrivePlan]:
    """Drive plans of the x drive (kernel a over f(y)) and the y drive
    (kernel b over g(x)) at rows n = 0..rows-1."""
    return tuple(drive_plan(kernel, rows, phi.bound, policy.tail_tol,
                            policy.max_terms)
                 for kernel, phi in ((spec.kernel_a, spec.f),
                                     (spec.kernel_b, spec.g)))


def _depth(plans: Tuple[DrivePlan, DrivePlan]) -> int:
    return max(plan.max_depth for plan in plans)


def drive_depth(spec: SystemSpec, rows: int, policy: TruncationPolicy) -> int:
    """How far before m = 0 the drives of steps n = 0..rows-1 reach: the
    deepest window of either kernel's drive plan over those rows."""
    return _depth(_plans(spec, rows, policy))


def simulate(spec: SystemSpec, history: History, steps: int,
             policy: TruncationPolicy) -> Trajectory:
    """March the explicit recurrence

        x_{n+1} = (1 + h_n) x_n + sum_{m<=n} a_{n,m} f(y_m)

    (and its y counterpart) for n = 0..steps-1, starting from the history
    at n = 0.  Each infinite sum is truncated with a certified tail at most
    the policy's tail_tol; the trajectory records that tolerance and, for
    each step, the round-off defect of the recurrence against the drive it
    just summed (what ``defects`` reports for the same values).  Given the
    history, the solution is unique, and identical inputs reproduce
    bitwise-identical trajectories.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    plan_x, plan_y = plans = _plans(spec, steps, policy)
    depth = _depth(plans)
    past_x, past_y = np.array(
        [history.value_at(m) for m in range(-depth, 1)]).T
    f, g = spec.f, spec.g
    # f(y_m) and g(x_m) at entry m + depth; past m = 0 the march fills
    # them in, one f and one g call per step
    fy, gx = np.zeros((2, depth + steps + 1))
    fy[:depth + 1], gx[:depth + 1] = f(past_y), g(past_x)
    x, y = float(past_x[-1]), float(past_y[-1])
    traj_x, traj_y, pairs = [x], [y], []
    gains = zip(cycle([1.0 + h for h in spec.h.values]),
                cycle([1.0 + p for p in spec.p.values]))
    for k, (gain_x, gain_y), drive_x, drive_y in zip(
            count(depth + 1), gains, plan_x.drives(fy, depth),
            plan_y.drives(gx, depth)):
        x_next, y_next = gain_x * x + drive_x, gain_y * y + drive_y
        fy[k], gx[k] = f(y_next), g(x_next)
        pairs.append((abs(x_next - gain_x * x - drive_x),
                      abs(y_next - gain_y * y - drive_y)))
        x, y = x_next, y_next
        traj_x.append(x)
        traj_y.append(y)
    return Trajectory(traj_x, traj_y, history, policy.tail_tol, tuple(pairs))


def defects(spec: SystemSpec, xs: np.ndarray, ys: np.ndarray, rows: int,
            policy: TruncationPolicy) -> Tuple[Tuple[float, float], ...]:
    """Absolute defects of the recurrence at n = 0..rows-1,

        |x_{n+1} - (1 + h_n) x_n - sum_{m<=n} a_{n,m} f(y_m)|

    and the y counterpart, for x and y given as equal-length arrays whose
    last entry is at m = rows and whose entries before m = 0 reach back
    ``drive_depth(spec, rows, policy)`` steps (ValueError otherwise).
    Sums are truncated with certified tail at most tail_tol, so an exact
    solution shows a defect of at most the tail plus accumulated round-off.
    """
    return _planned_defects(spec, xs, ys, _plans(spec, rows, policy))


def _planned_defects(spec: SystemSpec, xs: np.ndarray, ys: np.ndarray,
                     plans: Tuple[DrivePlan, DrivePlan]
                     ) -> Tuple[Tuple[float, float], ...]:
    """``defects`` at the rows of the x and y drive plans ``plans`` (from
    ``_plans``), so that a caller sizing its arrays by them plans once."""
    plan_x, plan_y = plans
    rows = len(plan_x.depth)
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) <= rows:
        raise ValueError(f"x and y must be equal-length arrays on m <= {rows}")
    start = len(xs) - 1 - rows  # entry of m = 0
    depth = _depth(plans)
    if start < depth:
        raise ValueError(f"x and y must reach {depth} steps before m = 0")
    fy, gx = spec.f(ys), spec.g(xs)
    return tuple(
        (float(abs(xs[k + 1] - (1.0 + spec.h.get(n)) * xs[k] - drive_x)),
         float(abs(ys[k + 1] - (1.0 + spec.p.get(n)) * ys[k] - drive_y)))
        for n, k, drive_x, drive_y in zip(range(rows), count(start),
                                          plan_x.drives(fy, start),
                                          plan_y.drives(gx, start)))
