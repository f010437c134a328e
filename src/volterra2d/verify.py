"""Independent certification of candidate solutions.

Residuals here come from the verifier's own closed forms of the kernel
sums, written without the solvers' drive recursions, folded tables or
tail map, so the verifier and the solvers share no nontrivial code path.
Every sum is exact; nothing is truncated.  Under the periodic extension
of a period window, row n's drive is sum_k w[n,k] phi[slot[n,k]] over
one period of mapped values phi: a separable kernel has one column per
r < T that sums its lags r + jT, j >= 0, as a geometric series, and a
finite-lag kernel has one column per lag.  After the zero history of a
decomposition, a separable kernel's row sums are the convolution of phi
with the decay e^{-row_rate lag} plus the history's geometric sum, and a
finite-lag kernel dots its window, padded with phi(0).

A periodic candidate z = [x; y] is certified by a Newton-Kantorovich
existence radius.  Over one period the T-periodic solutions are the zeros
of the 2T equations

    F(x, y)_n = x_{n+1 mod T} - (1 + h_n) x_n - (W_a f(y))_n

and their twins in y, with W the kernel folded onto the period.  With A
the numerical inverse of the closed-form Jacobian DF at z, the max-norm
bounds

    Y0 >= |A F(z)|,  Z1 >= |I - A DF(z)|,  |A (DF(w) - DF(z))| <= Z2 |w - z|

make the smallest root r of Z2 r^2 / 2 - (1 - Z1) r + Y0 a bound on the
distance from z to a true periodic solution.  The bounds are evaluated
in floating point, not interval arithmetic: Y0 adds only an estimate of
the rounding in F, so that a candidate double precision cannot resolve
to the radius tolerance is refused rather than passed.

The solvers gate ``converged`` on their own exact-memory recurrence
defects (``simulate.defects``); this module is the independent check on
top of that.  The decay of an asymptotic deviation is judged over whole
periods, since it may alternate within one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .asymptotic_solver import Decomposition
from .kernels import Kernel, SeparableExponential, TruncationPolicy
from .sequences import PeriodicSequence, product_one_plus
from .system import SystemSpec

#: Estimated floating-point error of F per unit of the magnitudes summed in
#: each of its rows: twice the unit round-off.
ROUNDING = 2.0 ** -52


def _defect(seq: PeriodicSequence, own: np.ndarray,
            drive: np.ndarray) -> np.ndarray:
    """|own_{n+1} - (1 + seq_n) own_n - drive_n| at n = 0..len(own)-2."""
    n = np.arange(len(own) - 1)
    one_plus = 1.0 + np.array(seq.values)[n % seq.period]
    return np.abs(own[1:] - one_plus * own[:-1] - drive[n])


def _period_terms(kernel: Kernel, period: int):
    """(w, slot), both (T, columns): under the periodic extension of one
    period of mapped values phi, the drive of row n < T is exactly
    sum_k w[n, k] * phi[slot[n, k]].  A separable kernel has one column
    per r < T, summing its lags r + jT, j >= 0, in closed form; a
    finite-lag kernel has one column per lag."""
    n = np.arange(period)
    if isinstance(kernel, SeparableExponential):
        rate = kernel.row_rate
        lags = np.arange(period)
        w = ((kernel.coef / -math.expm1(-rate * period))
             * np.exp((rate - kernel.col_rate) * n[:, None] - rate * lags))
    else:
        lags = np.arange(kernel.max_lag + 1)
        w = np.array(kernel.weights)[n % kernel.lag_period]
    return w, (n[:, None] - lags) % period


def _window_sums(kernel: Kernel, mapped: np.ndarray,
                   at_zero: float) -> np.ndarray:
    """The row sums sum_{m<=n} a_{n,m} * phi_m at n = 0..N-1 of the N
    mapped values phi_m = mapped[m] after a zero history, whose mapped
    value phi_m = ``at_zero`` at every m < 0."""
    n = np.arange(len(mapped))
    if isinstance(kernel, SeparableExponential):
        rate = kernel.row_rate
        decay = np.exp(-rate * n)
        memory = (np.convolve(mapped, decay)[:len(n)]
                  + at_zero * math.exp(-rate) / -math.expm1(-rate) * decay)
        return kernel.coef * np.exp((rate - kernel.col_rate) * n) * memory
    lags = kernel.max_lag
    # row n of the windows holds phi_m for m = n-L..n
    windows = sliding_window_view(
        np.concatenate((np.full(lags, at_zero), mapped)), lags + 1)
    table = np.array(kernel.weights)[:, ::-1]
    return np.einsum("nk,nk->n", table[n % kernel.lag_period], windows)


def _norm(matrix: np.ndarray) -> float:
    """Max-norm operator norm: the largest absolute row sum."""
    return float(np.abs(matrix).sum(axis=1).max())


def _one_period_system(spec: SystemSpec, z: np.ndarray):
    """(F, rounding, DF, curvature) of the one-period system at the stacked
    period values z = [x; y]: the residual, an estimate of its
    floating-point error per row, the Jacobian, and the largest
    |W| * phi.curvature, which bounds the Lipschitz constant of DF."""
    T = spec.period
    n = np.arange(T)
    succ = (n + 1) % T
    shift = np.eye(T)[succ]  # (shift @ x)_n = x_{n+1 mod T}
    jac = np.zeros((2 * T, 2 * T))
    residual, rounding = np.empty(2 * T), np.empty(2 * T)
    curvature = 0.0
    halves = (slice(0, T), slice(T, 2 * T))
    for (seq, kernel, phi), rows, cols in zip(spec.equations, halves,
                                              halves[::-1]):
        own, partner = z[rows], z[cols]
        w, slot = _period_terms(kernel, T)
        weights = np.bincount((n[:, None] * T + slot).ravel(),
                              weights=w.ravel(),
                              minlength=T * T).reshape(T, T)
        one_plus = 1.0 + np.array(seq.values)
        mapped = phi(partner)
        residual[rows] = own[succ] - one_plus * own - weights @ mapped
        rounding[rows] = ROUNDING * (np.abs(own[succ]) + np.abs(one_plus * own)
                                     + np.abs(weights) @ np.abs(mapped))
        jac[rows, rows] = shift - np.diag(one_plus)
        jac[rows, cols] = -weights * phi.slope(partner)
        curvature = max(curvature, _norm(weights) * phi.curvature)
    return residual, rounding, jac, curvature


def _existence_radius(residual: np.ndarray, rounding: np.ndarray,
                      jac: np.ndarray, curvature: float):
    """(radius, Y0, Z1, Z2) of the Newton-Kantorovich bound around the
    candidate of a one-period system (``_one_period_system``); the radius
    is inf when the bound proves nothing.  A need only approximate
    inv(DF); Z1 measures how well it does."""
    try:
        inverse = np.linalg.inv(jac)
        norm_inv = _norm(inverse)
    except np.linalg.LinAlgError:
        norm_inv = math.inf
    if not math.isfinite(norm_inv):  # singular, or a non-finite candidate
        return math.inf, math.inf, math.inf, math.inf
    y0 = (float(np.abs(inverse @ residual).max())
          + float((np.abs(inverse) @ rounding).max()))
    z1 = _norm(np.eye(len(jac)) - inverse @ jac)
    z2 = norm_inv * curvature
    gap = 1.0 - z1
    disc = gap * gap - 2.0 * z2 * y0
    # smallest root of z2 r^2 / 2 - gap r + y0, cancellation-free
    radius = (2.0 * y0 / (gap + math.sqrt(disc))
              if gap > 0.0 and disc >= 0.0 else math.inf)
    return radius, y0, z1, z2


@dataclass(frozen=True)
class PeriodicVerification:
    max_defect: float
    radius: float
    y0: float
    z1: float
    z2: float
    defect_tol: float
    radius_tol: float
    passed: bool

    def as_dict(self):
        return dict(vars(self))


def verify_periodic(spec: SystemSpec,
                    solution: Tuple[PeriodicSequence, PeriodicSequence], *,
                    defect_tol: float = 1e-8,
                    radius_tol: float = 1e-8) -> PeriodicVerification:
    """Certify a candidate periodic solution two ways.

    First, the largest defect |F| of the one-period system, the
    recurrence's residual under periodic extension at each row n < T,
    must be at most ``defect_tol``.  Second, the Newton-Kantorovich
    existence radius of the module docstring must be at most
    ``radius_tol``: a true periodic solution lies that close to the
    candidate in the max norm.  The one-period system describes the whole
    recurrence only for diagonal-periodic kernels, whose rows repeat with
    the period; for any other the radius is inf.  A candidate of another
    period raises ValueError.
    """
    T = spec.period
    x, y = solution
    for part in solution:
        if part.period != T:
            raise ValueError(f"solution period {part.period} does not match "
                             f"the system period {T}")
    system = _one_period_system(spec, np.array(x.values + y.values))
    radius, y0, z1, z2 = _existence_radius(*system)
    if not all(kernel.is_diagonal_periodic(T)
               for _, kernel, _ in spec.equations):
        radius = math.inf
    max_defect = float(np.abs(system[0]).max())
    passed = max_defect <= defect_tol and radius <= radius_tol
    return PeriodicVerification(max_defect, radius, y0, z1, z2, defect_tol,
                                radius_tol, passed)


@dataclass(frozen=True)
class DecompositionVerification:
    periodic_part_ok: bool
    envelope_ok: bool
    max_defect: float
    decay_ok: bool
    defect_tol: float
    passed: bool

    def as_dict(self):
        return dict(vars(self))


def _decay_ratio(kernel: Kernel) -> float:
    """Per-step ratio of the decay envelope (1 for finite-lag kernels,
    whose nonzero case never reaches the asymptotic regime)."""
    if isinstance(kernel, SeparableExponential):
        return math.exp(kernel.row_rate - kernel.col_rate)
    return 1.0


def _decay_check(v, bound, ratio: float, period: int) -> bool:
    """Where the (decreasing) envelope is above 1e-12, the peak |v| of each
    whole period must shrink against the period before it at least at the
    envelope's ratio per period, within a factor of 10 (plus a round-off
    floor: v hits the noise floor of its periodic part eventually)."""
    resolvable = int(np.count_nonzero(np.asarray(bound) > 1e-12))
    if resolvable < 2 * period:
        return True
    peaks = sliding_window_view(np.abs(v[:resolvable]), period).max(axis=1)
    return bool((peaks[period:]
                 <= 10.0 * ratio ** period * peaks[:-period] + 1e-15).all())


def verify_decomposition(spec: SystemSpec, dec: Decomposition, *,
                         defect_tol: float = 1e-8,
                         tail_tol: float = TruncationPolicy.tail_tol
                         ) -> DecompositionVerification:
    """Certify an asymptotic decomposition: the periodic part agrees with
    the running-product form of the free response, up to the drift that a
    full-period product within PRODUCT_ONE_TOL of one allows, v sits
    inside its certified envelope, the reconstruction x = u + v satisfies
    the recurrence after a zero history, and the tail of v actually decays
    at the envelope rate."""
    slack = 10.0 * tail_tol
    ms = np.arange(dec.horizon + 1)
    # (c, u, v, v bound) of x, then of y
    parts = [(dec.c1, dec.u1, np.array(dec.v1), np.array(dec.v1_bound)),
             (dec.c2, dec.u2, np.array(dec.v2), np.array(dec.v2_bound))]
    values = [u.take(ms) + v for _, u, v, _ in parts]
    periodic_part_ok = envelope_ok = decay_ok = True
    max_defect = 0.0
    for (seq, kernel, phi), (c, u, v, bound), own, partner in zip(
            spec.equations, parts, values, values[::-1]):
        product = seq.full_period_product_one_plus()
        for n in range(10 * spec.period):
            free = c * product_one_plus(seq, 0, n - 1)
            # the asymptotic check grants a full-period product P within
            # PRODUCT_ONE_TOL of one, so the periodic u drifts from the free
            # response by |free| |P^q - 1| over the q whole periods in n
            drift = abs(free) * abs(product ** (n // spec.period) - 1.0)
            if abs(u.get(n) - free) > 1e-12 * max(1.0, abs(free)) + drift:
                periodic_part_ok = False
                break
        # a NaN in v or in a bound compares false and fails the check
        envelope_ok = envelope_ok and bool((np.abs(v) <= bound + slack).all())
        drive = _window_sums(kernel, phi(partner), phi(0.0))
        max_defect = float(_defect(seq, own, drive).max(initial=max_defect))
        decay_ok = decay_ok and _decay_check(v, bound, _decay_ratio(kernel),
                                             spec.period)

    passed = (periodic_part_ok and envelope_ok and decay_ok
              and max_defect <= defect_tol)
    return DecompositionVerification(periodic_part_ok, envelope_ok,
                                     max_defect, decay_ok, defect_tol, passed)
