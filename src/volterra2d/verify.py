"""Independent certification of candidate solutions.

Residuals here are computed by direct fixed-depth kernel summation with an
explicit geometric remainder, written without the folded tables or the
adaptive truncation the solvers use, so the verifier and the solvers share
no nontrivial code path.  The sums are array work: each kernel's weights
a_{n,m} for m = n-depth..n come from the verifier's own formula as one
(rows x depth+1) array, and each drive is its row-wise product with
sliding windows of f or g applied once to the value sequence.  The
solvers gate ``converged`` on their own certified-tail recurrence defects
(``simulate.defects``; the periodic one over one period); this module is
the independent fixed-depth check on top of that.  The decay of an
asymptotic deviation is judged over whole periods, since it may
alternate within one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .asymptotic_solver import Decomposition
from .kernels import Kernel, SeparableExponential, TruncationPolicy
from .sequences import History, PeriodicSequence, product_one_plus
from .simulate import simulate
from .system import SystemSpec

#: Fixed summation depth; at least the 200 terms the certification calls for.
DIRECT_DEPTH = 256


def _remainder(kernel: Kernel, i: int, bound: float, depth: int) -> float:
    """Explicit bound on the discarded |sum_{m < i-depth} a_{i,m} * values|."""
    if isinstance(kernel, SeparableExponential):
        rate = kernel.row_rate
        row_sum = (abs(kernel.coef)
                   * math.exp((rate - kernel.col_rate) * i)
                   / (1.0 - math.exp(-rate)))
        return bound * row_sum * math.exp(-rate * (depth + 1))
    row = kernel.weights[i % kernel.lag_period]
    return bound * sum(abs(w) for w in row[depth + 1:])


def _remainder_bound(spec: SystemSpec, n_rows: int, depth: int) -> float:
    """Largest _remainder of either kernel over rows n = 0..n_rows-1."""
    return max(max(_remainder(spec.kernel_a, i, spec.f.bound, depth),
                   _remainder(spec.kernel_b, i, spec.g.bound, depth))
               for i in range(max(n_rows, 1)))


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
        one_plus = 1.0 + np.array([seq.get(n) for n in range(n_rows)])
        defect = np.abs(own[depth + 1:] - one_plus * own[depth:-1] - drive)
        worst = float(np.max(defect, initial=worst))
    return worst


def periodic_residual_max(spec: SystemSpec,
                          solution: Tuple[PeriodicSequence, PeriodicSequence],
                          n_checks: int, depth: int = DIRECT_DEPTH) -> float:
    """Max defect of the recurrence over n = 0..n_checks-1 for the periodic
    extension of a candidate period window."""
    ms = range(-depth, n_checks + 1)
    xs, ys = (np.array([seq.get(m) for m in ms]) for seq in solution)
    return _max_defect(spec, xs, ys, depth)


@dataclass(frozen=True)
class PeriodicVerification:
    max_defect: float
    drift: float
    remainder_bound: float
    n_checks: int
    defect_tol: float
    drift_tol: float
    passed: bool

    def as_dict(self):
        return {
            "max_defect": self.max_defect,
            "drift": self.drift,
            "remainder_bound": self.remainder_bound,
            "n_checks": self.n_checks,
            "defect_tol": self.defect_tol,
            "drift_tol": self.drift_tol,
            "passed": self.passed,
        }


def verify_periodic(spec: SystemSpec,
                    solution: Tuple[PeriodicSequence, PeriodicSequence],
                    n_checks: int = 21, *, defect_tol: float = 1e-8,
                    drift_tol: float = 1e-6, depth: int = DIRECT_DEPTH,
                    policy: TruncationPolicy = TruncationPolicy(1e-14),
                    ) -> PeriodicVerification:
    """Certify a candidate periodic solution two independent ways.

    First, the brute-force residual of the recurrence at n = 0..n_checks-1
    under periodic extension.  Second, a round trip through the simulator:
    the history window is filled with the exact periodic values to ``depth``
    entries (tail zero beyond, which the remainder bound absorbs), the
    system is marched 10 periods forward, and the worst deviation from the
    candidate is reported as drift.  Unstable orbits amplify per-step
    truncation error geometrically, hence the tight default policy here.
    """
    sol_x, sol_y = solution
    T = spec.period
    max_defect = periodic_residual_max(spec, solution, n_checks, depth)
    remainder = _remainder_bound(spec, n_checks, depth)

    window_len = max(depth, 4 * T)
    window = tuple((sol_x.get(n), sol_y.get(n))
                   for n in range(-window_len, 1))
    trajectory = simulate(spec, History(window), 10 * T, policy)
    drift = max(
        max(abs(trajectory.x[n] - sol_x.get(n)) for n in range(len(trajectory))),
        max(abs(trajectory.y[n] - sol_y.get(n)) for n in range(len(trajectory))))

    passed = max_defect <= defect_tol and drift <= drift_tol
    return PeriodicVerification(max_defect, drift, remainder, n_checks,
                                defect_tol, drift_tol, passed)


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

    ms = range(dec.horizon + 1)
    xs, ys = (np.concatenate((np.zeros(depth), [at(m) for m in ms]))
              for at in (dec.x_at, dec.y_at))
    max_defect = _max_defect(spec, xs, ys, depth)
    # Reported, not gated: at the fixed depth a slow kernel's remainder
    # exceeds defect_tol even for a correct decomposition.
    remainder = _remainder_bound(spec, dec.horizon, depth)

    decay_ok = (_decay_check(dec.v1, dec.v1_bound, _decay_ratio(spec.kernel_a),
                             spec.period)
                and _decay_check(dec.v2, dec.v2_bound,
                                 _decay_ratio(spec.kernel_b), spec.period))

    passed = (periodic_part_ok and envelope_ok and decay_ok
              and max_defect <= defect_tol)
    return DecompositionVerification(periodic_part_ok, envelope_ok,
                                     max_defect, remainder, decay_ok,
                                     defect_tol, passed)
