"""Periodic cycle map and its fixed-point solver.

The cycle map sends a pair of period-T sequences to the pair obtained by
propagating the kernel-weighted nonlinear drive once around a period and
scaling by the cycle gains; its fixed points are exactly the T-periodic
solutions of the underlying system.  Existence theory guarantees a fixed
point inside the self-map ball but gives no algorithm, so the solver here
runs Anderson-accelerated iteration with a Newton closer (the shared
driver in ``_iteration``) and gates the result on the exact-memory
recurrence defects (``simulate.defects``) of the periodic
extension over one period.  The closed-form check in the verify module
stays independent of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._iteration import CoupledMap, SolverOptions, solve_fixed_point
from .kernels import TruncationPolicy
from .sequences import PeriodicSequence, cycle_gain, running_products
from .simulate import defect_columns
from .system import SystemSpec

State = Tuple[PeriodicSequence, PeriodicSequence]


@dataclass(frozen=True)
class PeriodicSolveReport:
    solution: State
    gain_x: float
    gain_y: float
    iterations: int
    map_calls: int
    method_used: str
    final_update_norm: float
    residual_max: float
    defects: Tuple[Tuple[float, float], ...]  # (x, y) defect at n = 0..T-1
    converged: bool

    def as_dict(self):
        return {
            "x": list(self.solution[0].values),
            "y": list(self.solution[1].values),
            "gain_x": self.gain_x,
            "gain_y": self.gain_y,
            "iterations": self.iterations,
            "map_calls": self.map_calls,
            "method_used": self.method_used,
            "final_update_norm": self.final_update_norm,
            "residual_max": self.residual_max,
            "converged": self.converged,
        }


def _cycle_map_vec(spec: SystemSpec) -> CoupledMap:
    """Build the cycle map on stacked period vectors [x_0..x_{T-1}, y_0..y_{T-1}]
    as z -> [M_a f(y); M_b g(x)].

    The inner infinite sums are evaluated exactly through the folded lag
    tables (inputs are T-periodic), so the map output is T-periodic by
    construction.  M[n, s] = gain * sum_{i=n}^{n+T-1}
    prod_{l=i+1}^{n+T-1} (1 + seq_l) * table[i mod T, (i - s) mod T].
    """
    T = spec.period
    # both gains first: a unit product raises before a kernel fails to fold
    gains = [cycle_gain(seq) for seq, _, _ in spec.equations]
    idx = np.arange(T)
    lag = (idx[:, None] - idx[None, :]) % T  # lag[k, s] = (k - s) mod T

    def matrix(seq, kernel):
        table = kernel.folded_weights(T)
        # running products [n, (k - n) mod T] weigh the drive at i == k
        # (mod T), and table[k, (k - s) mod T] the value at s in that drive.
        return (running_products(seq)[idx[:, None], lag.T]
                @ table[idx[:, None], lag])

    return CoupledMap(np.zeros(2 * T),
                      *(gain * matrix(seq, kernel) for gain, (seq, kernel, _)
                        in zip(gains, spec.equations)), spec.f, spec.g)


def solve_periodic(spec: SystemSpec,
                   opts: SolverOptions = SolverOptions(),
                   policy: TruncationPolicy = TruncationPolicy(),
                   ) -> PeriodicSolveReport:
    """Seek a fixed point of the cycle map in the 2T-dimensional space of
    period values, then certify it against the recurrence.

    The cycle map is generally not a contraction, so Anderson-accelerated
    steps run until they converge or stall (then once more as damped
    Picard) and Newton finishes; the report's ``map_calls`` counts every
    map evaluation.  ``converged``
    requires both the final update norm below opts.tol and the recurrence
    residual of the periodic extension below opts.residual_tol at
    n = 0..T-1, its inner sums exact over the whole periodic past up to a
    certified round-off of at most policy.tail_tol; under a
    diagonal-periodic kernel the defect is T-periodic, so one period
    covers every n.  Non-convergence is a report state, never an
    exception.  With several fixed points present the result depends on
    the initial guess; no uniqueness is claimed.
    """
    T = spec.period
    cycle_map = _cycle_map_vec(spec)
    if opts.initial_guess is None:
        z0 = np.zeros(2 * T)
    else:
        gx, gy = opts.initial_guess
        if gx.period != T or gy.period != T:
            raise ValueError("initial guess period does not match the system")
        z0 = np.array(gx.values + gy.values)

    result = solve_fixed_point(cycle_map, z0,
                               newton_step=cycle_map.newton_step, opts=opts)
    solution = (PeriodicSequence(T, tuple(result.z[:T])),
                PeriodicSequence(T, tuple(result.z[T:])))
    extension = np.arange(T + 1) % T
    columns = defect_columns(spec, result.z[:T][extension],
                             result.z[T:][extension], T, policy, past=T)
    residual_max = float(columns.max())
    converged = result.converged and residual_max <= opts.residual_tol
    return PeriodicSolveReport(
        solution=solution,
        gain_x=cycle_gain(spec.h),
        gain_y=cycle_gain(spec.p),
        iterations=result.iterations,
        map_calls=result.map_calls,
        method_used=result.method_used,
        final_update_norm=result.final_update_norm,
        residual_max=residual_max,
        defects=tuple(zip(*columns.tolist())),
        converged=converged,
    )


__all__ = [
    "PeriodicSolveReport",
    "solve_periodic",
]
