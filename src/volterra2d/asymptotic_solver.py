"""Tail map and asymptotic decomposition solver.

In the regime where the full-period products of (1+h) and (1+p) equal 1
and both kernels are summable, solutions split as x = u + v with u a
periodic free response (u_n = c / r_n for the reciprocal growth r) and v
decaying to zero under a certified geometric envelope.  The tail map
realizes that splitting as a fixed-point equation, solved on the window
0..N at whose end the outer cut stops its sums to infinity (the dropped
tail bounded analytically) and reported on the horizon's 0..H, H <= N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._iteration import SolverOptions, TailMap, solve_fixed_point
from .kernels import (FiniteLag, Kernel, TailNotCertified, TruncationPolicy,
                      first_order_filter)
from .sequences import PeriodicSequence
from .simulate import defect_columns
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
                growth: PeriodicSequence, c_out: float, cut: int
                ) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """One tail-map component on the window 0..cut, out = c + K @
    nonlin(partner), as the generators (U, rate, scale, c) of its block
    K[n, m] = scale[n] U[max(n, m)] e^{-rate max(n - m, 0)} (see
    ``TailMap``), each O(cut) in memory.

    K holds w[n, m] = sum_{i=max(n,m)}^{cut} r_{i+1} a_{i,m} over
    scale = -1 / r_n.  For a separable kernel, with lam = e^{-row_rate},
    w[n, m] = U[max(n, m)] lam^{max(n-m, 0)} by the stable backward
    recursion U[j] = r_{j+1} coef e^{(row_rate-col_rate) j} + lam U[j+1]
    from U[cut+1] = 0, run as ``first_order_filter`` on the reversed terms
    in double, the precision of the map that U feeds, and rate = row_rate.
    With u the double unit round-off and d = row_rate - col_rate, U[n]
    errs by at most (filter_error(row_rate, cut + 1, float64)
    + (2 |d| cut + 12) u / (1 - lam)) times max_{i>=n} |term_i|: the
    filter's bound and the rounding of its terms (where they underflow, a
    few least subnormals more).
    c is the amplitude less the zero history's f(0) U[n] lam^{n+1} /
    (1 - lam), over r_n: the sums over m are exact, and only the cut
    truncates the sum over i.
    """
    j = np.arange(cut + 1)
    growth_out = growth.take(j)
    scale = -1.0 / growth_out
    if isinstance(kernel, FiniteLag):
        # A nonzero finite-lag kernel has an infinite double tail, so
        # _outer_cut lets one through only with a zero drive: K = 0.
        return np.zeros(cut + 1), 0.0, scale, c_out / growth_out
    terms = (kernel.coef * growth.take(j + 1)
             * np.exp((kernel.row_rate - kernel.col_rate) * j))
    u = first_order_filter(terms[::-1], kernel.row_rate)[::-1]
    powers = np.exp(-kernel.row_rate * (j + 1))  # lam^{n+1}
    history = nonlin(0.0) * u * powers / -math.expm1(-kernel.row_rate)
    return u, kernel.row_rate, scale, (c_out - history) / growth_out


class TailMapOperator:
    """The tail map of both components on the window 0..N, as data, N >=
    horizon the larger of their outer cuts; before 0 the history is zero.

    x-component: (c1 - sum_{i=n}^{N} r_{i+1} * drive_a(i)) / r_n with r
    the reciprocal growth of h and drive_a(i) the kernel-a weighted f(y)
    row sum; symmetric for y.  ``map`` is that ``TailMap``, held as the
    generators of its semiseparable blocks: O(N) memory and time per
    application and per product of its matrix-free Newton step.  ``free``
    is the free response [u1; u2] and ``envelope`` the pointwise decay
    bounds [v1_bound; v2_bound] on the deviation from it.  The terms
    i > N that the sums drop are bounded by ``truncation_error``, the
    larger decay envelope at N + 1 (at most tail_tol / 2): the whole error.
    """

    def __init__(self, spec: SystemSpec, c1: float, c2: float, horizon: int,
                 policy: TruncationPolicy):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        prof = growth_profile(spec)
        sides = tuple(zip(spec.equations, (prof.x, prof.y),
                          (prof.ratio_x, prof.ratio_y), (c1, c2)))
        cut = max(_outer_cut(ratio, nonlin, kernel, horizon, policy)[0]
                  for (_, kernel, nonlin), _, ratio, _ in sides)
        window = np.arange(cut + 1)
        parts = [(*_tail_block(kernel, nonlin, growth, c_out, cut),
                  c_out / growth.take(window),
                  decay_envelope(ratio, nonlin, kernel, window),
                  decay_envelope(ratio, nonlin, kernel, cut + 1))
                 for (_, kernel, nonlin), growth, ratio, c_out in sides]
        us, rates, scales, cs, free, envelope, errors = zip(*parts)
        self.map = TailMap(np.concatenate(cs), np.stack(us),
                           np.stack(scales), np.array(rates), spec.f, spec.g)
        self.free = np.concatenate(free)
        self.envelope = np.concatenate(envelope)
        self.truncation_error = float(max(errors))


def solve_asymptotic(spec: SystemSpec, c1: float, c2: float, horizon: int,
                     opts: SolverOptions = SolverOptions(),
                     policy: TruncationPolicy = TruncationPolicy(),
                     ) -> AsymptoticSolveReport:
    """Drive the tail map to a fixed point on 0..N, N >= horizon its outer
    cut, and extract the decomposition x = u + v on 0..horizon.

    Starts from the free response (v = 0), so opts.initial_guess must be
    unset; Anderson-accelerated iteration with a Newton closer, as in the
    periodic solver, its map evaluations counted in ``map_calls``.
    ``converged`` requires the update norm below opts.tol, the truncation
    error and the recurrence residual on 0..horizon below
    opts.residual_tol, and every |v[n]| there within its certified
    envelope plus 10x the tail tolerance; non-convergence is reported.
    """
    T = spec.period
    if opts.initial_guess is not None:
        raise ValueError("initial_guess: not supported by solve_asymptotic")
    if horizon < 4 * T:
        raise ValueError(f"horizon must be at least 4 periods ({4 * T})")
    op = TailMapOperator(spec, c1, c2, horizon, policy)
    result = solve_fixed_point(op.map, op.free,
                               newton_step=op.map.newton_step, opts=opts)
    z, free, bound = (a.reshape(2, -1)[:, :horizon + 1]
                      for a in (result.z, op.free, op.envelope))
    v = z - free
    (xw, yw), (v1, v2), (bound_x, bound_y) = z, v, bound
    u1, u2 = (PeriodicSequence(T, tuple(row[:T].tolist())) for row in free)

    columns = defect_columns(spec, np.concatenate([[0.0], xw]),
                             np.concatenate([[0.0], yw]), horizon, policy)
    residual_max = float(columns.max())

    envelope_ok = (np.abs(v) <= bound + 10.0 * policy.tail_tol).all()
    converged = bool(result.converged
                     and residual_max <= opts.residual_tol
                     and op.truncation_error <= opts.residual_tol
                     and envelope_ok)

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
        defects=tuple(zip(*columns.tolist())),
        truncation_error=op.truncation_error,
        converged=converged,
        warnings=amplitude_warnings(c1, c2),
    )


__all__ = [
    "AsymptoticSolveReport",
    "Decomposition",
    "TailMapOperator",
    "solve_asymptotic",
]
