"""Tail map and asymptotic decomposition solver.

In the regime where the full-period products of (1+h) and (1+p) equal 1
and both kernels are summable, solutions split as x = u + v with u a
periodic free response (u_n = c / r_n for the reciprocal growth r) and v
decaying to zero under a certified geometric envelope.  The tail map
realizes that splitting as a fixed-point equation; here it is reduced to
a finite window with every discarded tail bounded analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._iteration import CoupledMap, SolverOptions, solve_fixed_point
from .kernels import Kernel, TailNotCertified, TruncationPolicy, drive_plan
from .sequences import PeriodicSequence, PeriodProductNotOne, ZeroFactor
from .simulate import _depth, _planned_defects, _plans
from .system import (GrowthProfile, Nonlinearity, SystemSpec,
                     amplitude_warnings, decay_envelope, growth_profile)


@dataclass(frozen=True)
class Decomposition:
    """Asymptotically periodic solution split x = u + v on a finite window.

    u1, u2 are exactly periodic by representation; v carries pointwise
    certified envelopes v*_bound[n] (the growth ratio times the
    nonlinearity bound times the kernel double tail at n), which decrease
    geometrically to zero.
    """

    c1: float
    c2: float
    u1: PeriodicSequence
    u2: PeriodicSequence
    v1: Tuple[float, ...]
    v2: Tuple[float, ...]
    v1_bound: Tuple[float, ...]
    v2_bound: Tuple[float, ...]
    horizon: int
    converged: bool

    def x_at(self, n: int) -> float:
        return self.u1.get(n) + self.v1[n]

    def y_at(self, n: int) -> float:
        return self.u2.get(n) + self.v2[n]


@dataclass(frozen=True)
class AsymptoticSolveReport:
    decomposition: Decomposition
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    iterations: int
    method_used: str
    final_update_norm: float
    residual_max: float
    defects: Tuple[Tuple[float, float], ...]  # (x, y) defect at n < horizon
    truncation_error: float
    closure_error: float
    converged: bool
    warnings: Tuple[str, ...] = ()

    def as_dict(self):
        dec = self.decomposition
        return {
            "c1": dec.c1,
            "c2": dec.c2,
            "horizon": dec.horizon,
            "u1": list(dec.u1.values),
            "u2": list(dec.u2.values),
            "x": list(self.x),
            "y": list(self.y),
            "v1": list(dec.v1),
            "v2": list(dec.v2),
            "v1_bound": list(dec.v1_bound),
            "v2_bound": list(dec.v2_bound),
            "iterations": self.iterations,
            "method_used": self.method_used,
            "final_update_norm": self.final_update_norm,
            "residual_max": self.residual_max,
            "truncation_error": self.truncation_error,
            "closure_error": self.closure_error,
            "converged": self.converged,
            "warnings": list(self.warnings),
        }


def _outer_cut(ratio: float, nonlin: Nonlinearity, kernel: Kernel,
               horizon: int, policy: TruncationPolicy) -> Tuple[int, float]:
    """Smallest N >= horizon whose decay envelope at N+1 is <= tail_tol/2,
    and that envelope."""
    n = horizon
    while ((envelope := decay_envelope(ratio, nonlin, kernel, n + 1))
           > policy.tail_tol / 2.0):
        if math.isinf(envelope):
            raise TailNotCertified("kernel double tail is infinite; the tail "
                                   "map cannot be truncated with a certified "
                                   "error")
        n += 1
        if n > horizon + policy.max_terms:
            raise TailNotCertified(
                f"outer cut exceeded the {policy.max_terms}-term cap")
    return n, envelope


class _TailMapComponent:
    """One tail-map component reduced to the window 0..horizon in the
    coupled form out = c + K @ nonlin(partner window).

    Everything independent of the iterate is built once: the certified
    error budget; K, the growth-weighted suffix sums of the kernel weight
    rows; and c, which folds the drive from outside the window in with the
    amplitude.
    """

    def __init__(self, kernel, nonlin, growth: PeriodicSequence,
                 ratio: float, c_out: float, c_partner: float,
                 partner_growth: PeriodicSequence, horizon: int,
                 policy: TruncationPolicy):
        bound = nonlin.bound
        cut, self.outer_error = _outer_cut(ratio, nonlin, kernel, horizon,
                                           policy)

        # Per-row inner truncation: budget the remaining tail_tol/2 evenly
        # over the rows, deflated by the worst growth ratio.
        inner_tol = (policy.tail_tol / 2.0) / (ratio * (cut + 1))
        min_growth = min(abs(v) for v in growth.values)
        plan = drive_plan(kernel, cut + 1, bound, inner_tol, policy.max_terms)
        ns = np.arange(cut + 1)
        r_next = np.array(growth.values)[(ns + 1) % growth.period]
        self.inner_error = float(np.abs(r_next) @ plan.tail) / min_growth
        m_lo = int(np.min(ns - plan.depth))

        # w[n, m - m_lo] = sum_{i=n}^{cut} r_{i+1} a_{i,m}, built in place:
        # scale the weight rows by the growth, then take suffix sums.
        w = np.zeros((cut + 1, cut + 1 - m_lo))
        plan.fill(w, m_lo)
        w *= r_next[:, None]
        np.cumsum(w[::-1], axis=0, out=w[::-1])
        self.growth_out = np.array([growth.get(n) for n in range(horizon + 1)])
        rows = w[:horizon + 1]
        lo, hi = -m_lo, horizon + 1 - m_lo  # columns of the window 0..horizon
        # Partner values outside the window: zero history before 0, the
        # periodic free response beyond the horizon.
        post = np.array([c_partner / partner_growth.get(m)
                         for m in range(horizon + 1, cut + 1)])
        drive_outside = (rows[:, :lo] @ nonlin(np.zeros(lo))
                         + rows[:, hi:] @ nonlin(post))
        self.c = (c_out - drive_outside) / self.growth_out
        self.k = rows[:, lo:hi]
        self.k /= -self.growth_out[:, None]

    @property
    def certified_error(self) -> float:
        return self.outer_error + self.inner_error


class TailMapOperator:
    """The tail map reduced to windows on 0..horizon for both components.

    x-component: (c1 - sum_{i>=n} r_{i+1} * drive_a(i)) / r_n with r the
    reciprocal growth of h and drive_a(i) the kernel-a weighted f(y) row
    sum; symmetric for y.  Outer sums stop where the analytic envelope
    falls below half the tail tolerance; inner sums are budgeted the other
    half.  Beyond the window the partner is closed with its periodic free
    response; before 0 the history is zero.
    """

    def __init__(self, spec: SystemSpec, c1: float, c2: float, horizon: int,
                 policy: TruncationPolicy):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        self.spec = spec
        self.c1 = c1
        self.c2 = c2
        self.horizon = horizon
        self.policy = policy
        self.profile = prof = growth_profile(spec)
        self.component_x = _TailMapComponent(
            spec.kernel_a, spec.f, prof.x, prof.ratio_x, c1, c2, prof.y,
            horizon, policy)
        self.component_y = _TailMapComponent(
            spec.kernel_b, spec.g, prof.y, prof.ratio_y, c2, c1, prof.x,
            horizon, policy)
        self.map = CoupledMap(
            np.concatenate([self.component_x.c, self.component_y.c]),
            self.component_x.k, self.component_y.k, spec.f, spec.g)
        # Closing the partner with its free response ignores the partner's
        # own decaying part beyond the horizon; first-order bound via the
        # partner envelope and the kernel tail past the horizon.
        env_x = decay_envelope(prof.ratio_x, spec.f, spec.kernel_a, horizon + 1)
        env_y = decay_envelope(prof.ratio_y, spec.g, spec.kernel_b, horizon + 1)
        closure_x = (prof.ratio_x * spec.f.lipschitz * env_y
                     * spec.kernel_a.double_tail(horizon + 1)
                     if spec.f.bound > 0.0 and env_y > 0.0 else 0.0)
        closure_y = (prof.ratio_y * spec.g.lipschitz * env_x
                     * spec.kernel_b.double_tail(horizon + 1)
                     if spec.g.bound > 0.0 and env_x > 0.0 else 0.0)
        self.closure_error = max(closure_x, closure_y)

    @property
    def certified_error(self) -> float:
        return max(self.component_x.certified_error,
                   self.component_y.certified_error)

    def apply(self, x_window: np.ndarray,
              y_window: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        z = self.map(np.concatenate([x_window, y_window]))
        return z[:self.horizon + 1], z[self.horizon + 1:]

    def envelope(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pointwise decay bounds for the deviation from the free response."""
        prof, spec = self.profile, self.spec
        window = range(self.horizon + 1)
        return (np.array([decay_envelope(prof.ratio_x, spec.f, spec.kernel_a, n)
                          for n in window]),
                np.array([decay_envelope(prof.ratio_y, spec.g, spec.kernel_b, n)
                          for n in window]))


def apply_tail_map(spec: SystemSpec, c1: float, c2: float,
                   x_window, y_window,
                   policy: TruncationPolicy) -> Tuple[np.ndarray, np.ndarray, float]:
    """One application of the tail map to window states on 0..horizon
    (horizon is len(window)-1).  Returns the new windows and the aggregate
    certified truncation-error bound, valid for every window entry."""
    x_window = np.asarray(x_window, dtype=float)
    y_window = np.asarray(y_window, dtype=float)
    if x_window.shape != y_window.shape or x_window.ndim != 1 or not len(x_window):
        raise ValueError("x and y windows must be equal-length 1-d arrays")
    op = TailMapOperator(spec, c1, c2, len(x_window) - 1, policy)
    nx, ny = op.apply(x_window, y_window)
    return nx, ny, op.certified_error


def solve_asymptotic(spec: SystemSpec, c1: float, c2: float, horizon: int,
                     opts: SolverOptions = SolverOptions(),
                     policy: TruncationPolicy = TruncationPolicy(),
                     ) -> AsymptoticSolveReport:
    """Drive the tail map to a window fixed point and extract the
    decomposition x = u + v.

    Starts from the free response (v = 0), so opts.initial_guess must be
    unset; damped Picard with a Newton closer, as in the periodic solver.
    ``converged`` requires the update norm below opts.tol, the recurrence
    residual below opts.residual_tol on the whole window, and every |v[n]|
    within its certified envelope plus 10x the tail tolerance.
    Non-convergence is a report state.
    """
    T = spec.period
    if opts.initial_guess is not None:
        raise ValueError("initial_guess: not supported by solve_asymptotic")
    if horizon < 4 * T:
        raise ValueError(f"horizon must be at least 4 periods ({4 * T})")
    op = TailMapOperator(spec, c1, c2, horizon, policy)
    width = horizon + 1
    u1_window = c1 / op.component_x.growth_out
    u2_window = c2 / op.component_y.growth_out
    z0 = np.concatenate([u1_window, u2_window])
    result = solve_fixed_point(op.map, z0, jacobian=op.map.jacobian,
                               opts=opts)
    xw = result.z[:width]
    yw = result.z[width:]

    prof = op.profile
    u1 = PeriodicSequence(T, tuple(c1 / v for v in prof.x.values))
    u2 = PeriodicSequence(T, tuple(c2 / v for v in prof.y.values))
    v1 = xw - u1_window
    v2 = yw - u2_window
    bound_x, bound_y = op.envelope()

    plans = _plans(spec, horizon, policy)
    history = np.zeros(_depth(plans))
    pairs = _planned_defects(spec, np.concatenate([history, xw]),
                             np.concatenate([history, yw]), plans)
    residual_max = max(max(pair) for pair in pairs)

    slack = 10.0 * policy.tail_tol
    envelope_ok = (np.all(np.abs(v1) <= bound_x + slack)
                   and np.all(np.abs(v2) <= bound_y + slack))
    converged = bool(result.converged
                     and residual_max <= opts.residual_tol and envelope_ok)

    decomposition = Decomposition(
        c1=c1, c2=c2, u1=u1, u2=u2,
        v1=tuple(float(v) for v in v1),
        v2=tuple(float(v) for v in v2),
        v1_bound=tuple(float(b) for b in bound_x),
        v2_bound=tuple(float(b) for b in bound_y),
        horizon=horizon, converged=converged)
    return AsymptoticSolveReport(
        decomposition=decomposition,
        x=tuple(float(v) for v in xw),
        y=tuple(float(v) for v in yw),
        iterations=result.iterations,
        method_used=result.method_used,
        final_update_norm=result.final_update_norm,
        residual_max=residual_max,
        defects=pairs,
        truncation_error=op.certified_error,
        closure_error=op.closure_error,
        converged=converged,
        warnings=amplitude_warnings(c1, c2),
    )


__all__ = [
    "AsymptoticSolveReport",
    "Decomposition",
    "GrowthProfile",
    "PeriodProductNotOne",
    "TailMapOperator",
    "ZeroFactor",
    "apply_tail_map",
    "decay_envelope",
    "growth_profile",
    "solve_asymptotic",
]
