"""Forward iteration of the initial-value problem and residual (defect)
evaluation of candidate solutions."""
from __future__ import annotations

from typing import Callable, Tuple

from .kernels import TruncationPolicy, inner_sum
from .sequences import History, Trajectory
from .system import SystemSpec


def simulate(spec: SystemSpec, history: History, steps: int,
             policy: TruncationPolicy) -> Trajectory:
    """March the explicit recurrence

        x_{n+1} = (1 + h_n) x_n + sum_{m<=n} a_{n,m} f(y_m)

    (and its y counterpart) for n = 0..steps-1, starting from the history
    at n = 0.  Each infinite sum is truncated with a certified tail at most
    the policy's tail_tol; the trajectory records that tolerance and, for
    each step, the round-off defect of the recurrence against the drive it
    just summed (what ``residual`` reports for the same values).  Given
    the history, the solution is unique, and identical inputs reproduce
    bitwise-identical trajectories.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    x0, y0 = history.value_at(0)
    xs = [x0]
    ys = [y0]

    def x_value(m: int) -> float:
        return xs[m] if m >= 0 else history.value_at(m)[0]

    def y_value(m: int) -> float:
        return ys[m] if m >= 0 else history.value_at(m)[1]

    f, g = spec.f, spec.g
    defects = []
    for n in range(steps):
        drive_x, _ = inner_sum(spec.kernel_a, n, lambda m: f(y_value(m)),
                               f.bound, policy)
        drive_y, _ = inner_sum(spec.kernel_b, n, lambda m: g(x_value(m)),
                               g.bound, policy)
        gain_x, gain_y = 1.0 + spec.h.get(n), 1.0 + spec.p.get(n)
        xs.append(gain_x * xs[n] + drive_x)
        ys.append(gain_y * ys[n] + drive_y)
        defects.append((abs(xs[n + 1] - gain_x * xs[n] - drive_x),
                        abs(ys[n + 1] - gain_y * ys[n] - drive_y)))
    return Trajectory(tuple(xs), tuple(ys), history, policy.tail_tol,
                      tuple(defects))


def residual(spec: SystemSpec, values_x: Callable[[int], float],
             values_y: Callable[[int], float], n: int,
             policy: TruncationPolicy) -> Tuple[float, float]:
    """Absolute defects of the recurrence at step n for full-line value
    callbacks (total on m <= n+1):

        |x_{n+1} - (1 + h_n) x_n - sum_{m<=n} a_{n,m} f(y_m)|

    and the y counterpart.  Sums are truncated with certified tail at most
    tail_tol, so an exact solution shows a defect of at most the tail plus
    accumulated round-off.
    """
    f, g = spec.f, spec.g
    drive_x, _ = inner_sum(spec.kernel_a, n, lambda m: f(values_y(m)),
                           f.bound, policy)
    drive_y, _ = inner_sum(spec.kernel_b, n, lambda m: g(values_x(m)),
                           g.bound, policy)
    defect_x = abs(values_x(n + 1) - (1.0 + spec.h.get(n)) * values_x(n)
                   - drive_x)
    defect_y = abs(values_y(n + 1) - (1.0 + spec.p.get(n)) * values_y(n)
                   - drive_y)
    return defect_x, defect_y
