"""Independent certification of candidate solutions.

Residuals here are computed by direct fixed-depth kernel summation with an
explicit remainder, written without the folded tables or the adaptive
truncation the solvers use, so the verifier and the solvers share no
nontrivial code path.  The sums are array work: each kernel's weights
a_{n,m} for m = n-depth..n come from the verifier's own formula as one
(rows x depth+1) array, and each drive is its row-wise product with
sliding windows of f or g applied once to the value sequence.

A periodic candidate z = [x; y] is certified by a Newton-Kantorovich
existence radius.  Over one period the T-periodic solutions are the zeros
of the 2T equations

    F(x, y)_n = x_{n+1 mod T} - (1 + h_n) x_n - (W_a f(y))_n

and their twins in y, with W the fixed-depth weights folded onto the
period.  With A the numerical inverse of the closed-form Jacobian DF at
z, the max-norm bounds

    Y0 >= |A F(z)|,  Z1 >= |I - A DF(z)|,  |A (DF(w) - DF(z))| <= Z2 |w - z|

each include the dropped kernel tail, so they hold for the untruncated
system, and the smallest root r of Z2 r^2 / 2 - (1 - Z1) r + Y0 bounds
the distance from z to a true periodic solution.  The bounds are
evaluated in floating point, not interval arithmetic: Y0 adds only an
estimate of the rounding in F, so that a candidate double precision
cannot resolve to the radius tolerance is refused rather than passed.

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
from .kernels import Kernel, SeparableExponential
from .sequences import PeriodicSequence, product_one_plus
from .system import SystemSpec

#: Fixed summation depth; at least the 200 terms the certification calls for.
DIRECT_DEPTH = 256

#: Deepest fixed-depth sum verify_periodic builds.  A kernel too slow to
#: drop its remainder below defect_tol / 10 by then fails on the remainder.
MAX_DEPTH = 100_000

#: Estimated floating-point error of F per unit of the magnitudes summed in
#: each of its rows: twice the unit round-off.
ROUNDING = 2.0 ** -52


def _remainders(kernel: Kernel, rows: np.ndarray, bound: float,
                depth: int) -> np.ndarray:
    """bound * sum_{m < n-depth} |a_{n,m}| for each n in ``rows``: the
    explicit bound on what a depth-``depth`` sum over values bounded by
    ``bound`` discards (depth -1 gives bound times the whole row mass)."""
    if isinstance(kernel, SeparableExponential):
        rate = kernel.row_rate
        row_sums = (abs(kernel.coef)
                    * np.exp((rate - kernel.col_rate) * rows)
                    / (1.0 - math.exp(-rate)))
        return bound * row_sums * math.exp(-rate * (depth + 1))
    tails = np.abs(np.array(kernel.weights))[:, depth + 1:].sum(axis=1)
    return bound * tails[rows % kernel.lag_period]


def _depth_for(kernel: Kernel, rows: np.ndarray, bound: float,
               tol: float) -> int:
    """A depth, at most MAX_DEPTH, whose remainder is <= tol on every row
    of ``rows``: the smallest one from the geometric closed form for a
    separable kernel, the full width (remainder zero) for a finite-lag
    one."""
    if not isinstance(kernel, SeparableExponential):
        return kernel.max_lag
    full = float(_remainders(kernel, rows, bound, -1).max())
    if full <= tol:
        return 0
    estimate = min(math.log(full / tol) / kernel.row_rate, MAX_DEPTH)
    depth = max(0, math.ceil(estimate - 1.0))
    while (depth < MAX_DEPTH  # round-off
           and _remainders(kernel, rows, bound, depth).max() > tol):
        depth += 1
    return depth


def _weights(kernel: Kernel, n_rows: int, depth: int) -> np.ndarray:
    """(n_rows, depth+1) array whose row n holds a_{n,m} for
    m = n-depth..n, i.e. column k holds lag depth-k."""
    n = np.arange(n_rows)
    if isinstance(kernel, SeparableExponential):
        # coef * exp(row_rate * m - col_rate * n), built in one buffer
        w = kernel.row_rate * (n[:, None] - np.arange(depth, -1, -1))
        w -= kernel.col_rate * n[:, None]
        return kernel.coef * np.exp(w, out=w)
    width = min(kernel.max_lag, depth) + 1
    table = np.zeros((kernel.lag_period, depth + 1))
    table[:, depth + 1 - width:] = np.array(kernel.weights)[:, width - 1::-1]
    return table[n % kernel.lag_period]


def _period_weights(kernel: Kernel, period: int, depth: int) -> np.ndarray:
    """(T, T) fold of _weights(kernel, T, depth) onto the period: entry
    [n, s] sums a_{n,m} over the m = n-depth..n with m = s (mod T)."""
    n = np.arange(period)[:, None]
    slots = n * period + (n - np.arange(depth, -1, -1)) % period
    return np.bincount(slots.ravel(),
                       weights=_weights(kernel, period, depth).ravel(),
                       minlength=period * period).reshape(period, period)


def _max_defect(spec: SystemSpec, xs: np.ndarray, ys: np.ndarray,
                depth: int) -> float:
    """Max recurrence defect over n = 0..N-1 of x, y given as arrays on
    m = -depth..N (entry m + depth); each drive sums depth+1 terms."""
    n_rows = len(xs) - depth - 1
    worst = 0.0
    for kernel, phi, seq, own, partner in (
            (spec.kernel_a, spec.f, spec.h, xs, ys),
            (spec.kernel_b, spec.g, spec.p, ys, xs)):
        windows = sliding_window_view(phi(partner), depth + 1)[:n_rows]
        drive = np.einsum("nk,nk->n", _weights(kernel, n_rows, depth), windows)
        one_plus = 1.0 + np.array(seq.values)[np.arange(n_rows) % seq.period]
        defect = np.abs(own[depth + 1:] - one_plus * own[depth:-1] - drive)
        worst = float(np.max(defect, initial=worst))
    return worst


def periodic_residual_max(spec: SystemSpec,
                          solution: Tuple[PeriodicSequence, PeriodicSequence],
                          n_checks: int, depth: int = DIRECT_DEPTH) -> float:
    """Max defect of the recurrence over n = 0..n_checks-1 for the periodic
    extension of a candidate period window."""
    ms = np.arange(-depth, n_checks + 1)
    xs, ys = (np.array(seq.values)[ms % seq.period] for seq in solution)
    return _max_defect(spec, xs, ys, depth)


def _norm(matrix: np.ndarray) -> float:
    """Max-norm operator norm: the largest absolute row sum."""
    return float(np.abs(matrix).sum(axis=1).max())


def _one_period_system(spec: SystemSpec, z: np.ndarray, depth: int):
    """(F, rounding, DF, tail, lipschitz tail, curvature) of the
    one-period system at the stacked period values z = [x; y], its kernels
    summed to ``depth`` terms: the residual, an estimate of its
    floating-point error per row, the Jacobian, and the max-norm bounds on
    what the dropped kernel tail adds to F and to DF, and on the
    Lipschitz constant of DF."""
    T = spec.period
    n = np.arange(T)
    succ = (n + 1) % T
    shift = np.eye(T)[succ]  # (shift @ x)_n = x_{n+1 mod T}
    jac = np.zeros((2 * T, 2 * T))
    residual, rounding = np.empty(2 * T), np.empty(2 * T)
    tail = tail_lipschitz = curvature = 0.0
    for rows, cols, kernel, phi, seq in (
            (slice(0, T), slice(T, 2 * T), spec.kernel_a, spec.f, spec.h),
            (slice(T, 2 * T), slice(0, T), spec.kernel_b, spec.g, spec.p)):
        own, partner = z[rows], z[cols]
        weights = _period_weights(kernel, T, depth)
        one_plus = 1.0 + np.array(seq.values)
        mapped = phi(partner)
        residual[rows] = own[succ] - one_plus * own - weights @ mapped
        rounding[rows] = ROUNDING * (np.abs(own[succ]) + np.abs(one_plus * own)
                                     + np.abs(weights) @ np.abs(mapped))
        jac[rows, rows] = shift - np.diag(one_plus)
        jac[rows, cols] = -weights * phi.derivative(partner)
        dropped = float(_remainders(kernel, n, 1.0, depth).max())
        tail = max(tail, phi.bound * dropped)
        tail_lipschitz = max(tail_lipschitz, phi.lipschitz * dropped)
        curvature = max(curvature, (_norm(weights) + dropped) * phi.curvature)
    return residual, rounding, jac, tail, tail_lipschitz, curvature


def _existence_radius(spec: SystemSpec, z: np.ndarray, depth: int,
                      radius_tol: float):
    """(radius, Y0, Z1, Z2, depth) of the Newton-Kantorovich bound around
    the stacked period values z = [x; y]; the radius is inf when the bound
    proves nothing.  A = inv(DF) comes from the kernels summed to
    ``depth`` terms.  Where |A| times the dropped tail exceeds
    radius_tol / 10 there, F and DF are rebuilt at the depth where it
    does not, and that depth is returned (A need only approximate the
    inverse; Z1 measures how well)."""
    _, _, jac, *_ = system = _one_period_system(spec, z, depth)
    try:
        inverse = np.linalg.inv(jac)
        norm_inv = _norm(inverse)
    except np.linalg.LinAlgError:
        norm_inv = math.inf
    if not math.isfinite(norm_inv):  # singular, or a non-finite candidate
        return math.inf, math.inf, math.inf, math.inf, depth
    rows = np.arange(spec.period)
    deeper = max(_depth_for(kernel, rows, phi.bound,
                            radius_tol / (10.0 * norm_inv))
                 for kernel, phi in ((spec.kernel_a, spec.f),
                                     (spec.kernel_b, spec.g)))
    if deeper > depth:
        depth = deeper
        system = _one_period_system(spec, z, depth)
    residual, rounding, jac, tail, tail_lipschitz, curvature = system
    y0 = (float(np.abs(inverse @ residual).max())
          + float((np.abs(inverse) @ rounding).max()) + norm_inv * tail)
    z1 = _norm(np.eye(len(z)) - inverse @ jac) + norm_inv * tail_lipschitz
    z2 = norm_inv * curvature
    gap = 1.0 - z1
    disc = gap * gap - 2.0 * z2 * y0
    # smallest root of z2 r^2 / 2 - gap r + y0, cancellation-free
    radius = (2.0 * y0 / (gap + math.sqrt(disc))
              if gap > 0.0 and disc >= 0.0 else math.inf)
    return radius, y0, z1, z2, depth


@dataclass(frozen=True)
class PeriodicVerification:
    max_defect: float
    remainder_bound: float
    radius: float
    y0: float
    z1: float
    z2: float
    depth: int
    n_checks: int
    defect_tol: float
    radius_tol: float
    passed: bool

    def as_dict(self):
        return {
            "max_defect": self.max_defect,
            "remainder_bound": self.remainder_bound,
            "radius": self.radius,
            "y0": self.y0,
            "z1": self.z1,
            "z2": self.z2,
            "depth": self.depth,
            "n_checks": self.n_checks,
            "defect_tol": self.defect_tol,
            "radius_tol": self.radius_tol,
            "passed": self.passed,
        }


def verify_periodic(spec: SystemSpec,
                    solution: Tuple[PeriodicSequence, PeriodicSequence],
                    n_checks: int = 21, *, defect_tol: float = 1e-8,
                    radius_tol: float = 1e-8, depth: int = DIRECT_DEPTH,
                    ) -> PeriodicVerification:
    """Certify a candidate periodic solution two ways.

    First, the brute-force residual of the recurrence at n = 0..n_checks-1
    under periodic extension: it plus the remainder bound must be at most
    ``defect_tol``.  Second, the Newton-Kantorovich existence radius of
    the module docstring must be at most ``radius_tol``: a true periodic
    solution lies that close to the candidate in the max norm.  Both sum
    the kernels to ``depth`` terms or, for a kernel that needs more to
    drop a remainder of at most defect_tol / 10, or to keep |A| times the
    dropped tail at most radius_tol / 10, to that many.  The
    one-period system describes the recurrence only for diagonal-periodic
    kernels; for any other the radius is inf.
    """
    T = spec.period
    x, y = solution
    rows = np.arange(max(n_checks, T))
    pairs = ((spec.kernel_a, spec.f), (spec.kernel_b, spec.g))
    depth = max(depth, *(_depth_for(kernel, rows, phi.bound, defect_tol / 10.0)
                         for kernel, phi in pairs))
    radius, y0, z1, z2, depth = _existence_radius(
        spec, np.array(x.values + y.values), depth, radius_tol)
    max_defect = periodic_residual_max(spec, solution, n_checks, depth)
    remainder = max(float(_remainders(kernel, rows, phi.bound, depth).max())
                    for kernel, phi in pairs)
    if not all(kernel.is_diagonal_periodic(T) for kernel, _ in pairs):
        radius = math.inf
    passed = max_defect + remainder <= defect_tol and radius <= radius_tol
    return PeriodicVerification(max_defect, remainder, radius, y0, z1, z2,
                                depth, n_checks, defect_tol, radius_tol,
                                passed)


@dataclass(frozen=True)
class DecompositionVerification:
    periodic_part_ok: bool
    envelope_ok: bool
    max_defect: float
    remainder_bound: float
    decay_ok: bool
    defect_tol: float
    passed: bool

    def as_dict(self):
        return {
            "periodic_part_ok": self.periodic_part_ok,
            "envelope_ok": self.envelope_ok,
            "max_defect": self.max_defect,
            "remainder_bound": self.remainder_bound,
            "decay_ok": self.decay_ok,
            "defect_tol": self.defect_tol,
            "passed": self.passed,
        }


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
    return bool(np.all(peaks[period:]
                       <= 10.0 * ratio ** period * peaks[:-period] + 1e-15))


def verify_decomposition(spec: SystemSpec, dec: Decomposition, *,
                         defect_tol: float = 1e-8,
                         tail_tol: float = 1e-10,
                         depth: int = DIRECT_DEPTH) -> DecompositionVerification:
    """Certify an asymptotic decomposition: the periodic part agrees with
    the running-product form of the free response, v sits inside its
    certified envelope, the reconstruction x = u + v satisfies the
    recurrence (zero history), and the tail of v actually decays at the
    envelope rate."""
    periodic_part_ok = True
    for n in range(10 * spec.period):
        free_x = dec.c1 * product_one_plus(spec.h, 0, n - 1)
        free_y = dec.c2 * product_one_plus(spec.p, 0, n - 1)
        tol_x = 1e-12 * max(1.0, abs(free_x))
        tol_y = 1e-12 * max(1.0, abs(free_y))
        if (abs(dec.u1.get(n) - free_x) > tol_x
                or abs(dec.u2.get(n) - free_y) > tol_y):
            periodic_part_ok = False
            break

    slack = 10.0 * tail_tol
    envelope_ok = all(
        abs(v) <= b + slack for v, b in zip(dec.v1, dec.v1_bound)) and all(
        abs(v) <= b + slack for v, b in zip(dec.v2, dec.v2_bound))

    ms = np.arange(dec.horizon + 1)
    xs, ys = (np.concatenate((np.zeros(depth), u.take(ms) + np.array(v)))
              for u, v in ((dec.u1, dec.v1), (dec.u2, dec.v2)))
    max_defect = _max_defect(spec, xs, ys, depth)
    # Reported, not gated: at the fixed depth a slow kernel's remainder
    # exceeds defect_tol even for a correct decomposition.
    rows = np.arange(max(dec.horizon, 1))
    remainder = max(float(_remainders(kernel, rows, phi.bound, depth).max())
                    for kernel, phi in ((spec.kernel_a, spec.f),
                                        (spec.kernel_b, spec.g)))

    decay_ok = (_decay_check(dec.v1, dec.v1_bound, _decay_ratio(spec.kernel_a),
                             spec.period)
                and _decay_check(dec.v2, dec.v2_bound,
                                 _decay_ratio(spec.kernel_b), spec.period))

    passed = (periodic_part_ok and envelope_ok and decay_ok
              and max_defect <= defect_tol)
    return DecompositionVerification(periodic_part_ok, envelope_ok,
                                     max_defect, remainder, decay_ok,
                                     defect_tol, passed)
