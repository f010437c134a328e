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

from ._iteration import SolverOptions, TailMap, solve_fixed_point
from .kernels import FiniteLag, Kernel, TailNotCertified, TruncationPolicy
from .sequences import PeriodicSequence
from .simulate import defects
from .system import (Nonlinearity, SystemSpec, amplitude_warnings,
                     decay_envelope, envelope_cut, growth_profile)


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


@dataclass(frozen=True)
class AsymptoticSolveReport:
    decomposition: Decomposition
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    iterations: int
    map_calls: int
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
            "map_calls": self.map_calls,
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
    end = envelope_cut(ratio, nonlin, kernel, horizon + 1,
                       policy.tail_tol / 2.0, policy.max_terms)
    if end > horizon + 1 + policy.max_terms:
        raise TailNotCertified(
            f"outer cut exceeded the {policy.max_terms}-term cap")
    return end - 1, float(decay_envelope(ratio, nonlin, kernel, end))


def _tail_block(kernel: Kernel, nonlin: Nonlinearity,
                growth: PeriodicSequence, ratio: float, c_out: float,
                c_partner: float, partner_growth: PeriodicSequence,
                horizon: int, policy: TruncationPolicy
                ) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray, float]:
    """One tail-map component reduced to the window 0..horizon in the
    coupled form out = c + K @ nonlin(partner window), as the generators of
    its block K: (U, rate, scale, c, error), with
    K[n, m] = scale[n] U[max(n, m)] e^{-rate max(n - m, 0)} (see
    ``TailMap``).  Each is O(horizon) in memory.

    The error bounds the outer cut.  K holds the suffix sums
    w[n, m] = sum_{i=max(n,m)}^{cut} r_{i+1} a_{i,m} over scale = -1 / r_n,
    and c folds the drive from outside the window in with the amplitude.
    For a separable kernel, with lam = e^{-row_rate},
    w[n, m] = U[max(n, m)] lam^{max(n-m, 0)} by the stable backward
    recursion U[j] = r_{j+1} coef e^{(row_rate-col_rate) j} + lam U[j+1]
    from U[cut+1] = 0, and rate = row_rate.  The zero history before 0
    adds f(0) U[n] lam^{n+1} / (1 - lam) to row n, and each column m past
    the horizon U[m] f(partner_m) to every row: the sums over m are exact,
    and only the outer cut truncates.
    """
    cut, error = _outer_cut(ratio, nonlin, kernel, horizon, policy)
    width = horizon + 1
    growth_out = growth.take(np.arange(width))
    scale = -1.0 / growth_out
    if isinstance(kernel, FiniteLag):
        # A nonzero finite-lag kernel has an infinite double tail, so
        # _outer_cut lets one through only with a zero drive: K = 0.
        return np.zeros(width), 0.0, scale, c_out / growth_out, error
    rate = np.longdouble(kernel.row_rate)  # U is summed in long double
    j = np.arange(cut + 1)
    terms = (kernel.coef * growth.take(j + 1).astype(np.longdouble)
             * np.exp((rate - kernel.col_rate) * j))
    decay, acc, u = np.exp(-rate), np.longdouble(0.0), np.empty(cut + 1)
    for i in range(cut, -1, -1):
        acc = terms[i] + decay * acc
        u[i] = acc
    post = c_partner / partner_growth.take(np.arange(width, cut + 1))
    powers = np.exp(-kernel.row_rate * np.arange(width + 1))  # lam^k
    drive_outside = (nonlin(0.0) * u[:width] * powers[1:]
                     / -math.expm1(-kernel.row_rate)
                     + u[width:] @ nonlin(post))
    c = (c_out - drive_outside) / growth_out
    return u[:width], kernel.row_rate, scale, c, error


class TailMapOperator:
    """The tail map on the windows 0..horizon of both components, as data.

    x-component: (c1 - sum_{i>=n} r_{i+1} * drive_a(i)) / r_n with r the
    reciprocal growth of h and drive_a(i) the kernel-a weighted f(y) row
    sum; symmetric for y.  ``map`` is that ``TailMap``, held as the
    generators of its semiseparable blocks: O(horizon) memory, and
    O(horizon) time per application and per product of its matrix-free
    Newton step.  ``free`` is the free response [u1; u2] and ``envelope``
    the pointwise decay bounds [v1_bound; v2_bound] on the deviation from
    it.  ``truncation_error`` certifies the outer cuts and
    ``closure_error`` the partner closed with its free response beyond the
    window; before 0 the history is zero.
    """

    def __init__(self, spec: SystemSpec, c1: float, c2: float, horizon: int,
                 policy: TruncationPolicy):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        prof = growth_profile(spec)
        sides = tuple(zip(spec.equations, (prof.x, prof.y),
                          (prof.ratio_x, prof.ratio_y), (c1, c2)))
        window = np.arange(horizon + 1)
        parts = []
        for ((_, kernel, nonlin), growth, ratio, c_out), (
                (_, p_kernel, p_nonlin), p_growth, p_ratio, c_partner) in zip(
                    sides, sides[::-1]):
            # Closing the partner with its free response ignores the
            # partner's own decaying part beyond the horizon; first-order
            # bound via the partner envelope and the kernel tail there.
            edge = decay_envelope(p_ratio, p_nonlin, p_kernel, horizon + 1)
            closure = (ratio * nonlin.lipschitz * edge
                       * kernel.double_tail(horizon + 1)
                       if nonlin.bound > 0.0 and edge > 0.0 else 0.0)
            parts.append((*_tail_block(kernel, nonlin, growth, ratio, c_out,
                                       c_partner, p_growth, horizon, policy),
                          c_out / growth.take(window),
                          decay_envelope(ratio, nonlin, kernel, window),
                          closure))
        us, rates, scales, cs, errors, free, envelope, closure = zip(*parts)
        self.map = TailMap(np.concatenate(cs), np.stack(us),
                           np.stack(scales), np.array(rates), spec.f, spec.g)
        self.free = np.concatenate(free)
        self.envelope = np.concatenate(envelope)
        self.truncation_error = max(errors)
        self.closure_error = max(closure)


def solve_asymptotic(spec: SystemSpec, c1: float, c2: float, horizon: int,
                     opts: SolverOptions = SolverOptions(),
                     policy: TruncationPolicy = TruncationPolicy(),
                     ) -> AsymptoticSolveReport:
    """Drive the tail map to a window fixed point and extract the
    decomposition x = u + v.

    Starts from the free response (v = 0), so opts.initial_guess must be
    unset; Anderson-accelerated iteration with a Newton closer, as in the
    periodic solver, its map evaluations counted in ``map_calls``.
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
    result = solve_fixed_point(op.map, op.free,
                               newton_step=op.map.newton_step, opts=opts)
    xw, yw = np.split(result.z, 2)
    free_x, free_y = np.split(op.free, 2)
    v = result.z - op.free
    v1, v2 = np.split(v, 2)
    bound_x, bound_y = np.split(op.envelope, 2)
    u1 = PeriodicSequence(T, tuple(free_x[:T].tolist()))
    u2 = PeriodicSequence(T, tuple(free_y[:T].tolist()))

    pairs = defects(spec, np.concatenate([[0.0], xw]),
                    np.concatenate([[0.0], yw]), horizon, policy)
    residual_max = max(max(pair) for pair in pairs)

    envelope_ok = (np.abs(v) <= op.envelope + 10.0 * policy.tail_tol).all()
    converged = bool(result.converged
                     and residual_max <= opts.residual_tol and envelope_ok)

    decomposition = Decomposition(
        c1=c1, c2=c2, u1=u1, u2=u2,
        v1=tuple(v1.tolist()), v2=tuple(v2.tolist()),
        v1_bound=tuple(bound_x.tolist()), v2_bound=tuple(bound_y.tolist()),
        horizon=horizon, converged=converged)
    return AsymptoticSolveReport(
        decomposition=decomposition,
        x=tuple(xw.tolist()), y=tuple(yw.tolist()),
        iterations=result.iterations,
        map_calls=result.map_calls,
        method_used=result.method_used,
        final_update_norm=result.final_update_norm,
        residual_max=residual_max,
        defects=pairs,
        truncation_error=op.truncation_error,
        closure_error=op.closure_error,
        converged=converged,
        warnings=amplitude_warnings(c1, c2),
    )


__all__ = [
    "AsymptoticSolveReport",
    "Decomposition",
    "TailMapOperator",
    "solve_asymptotic",
]
