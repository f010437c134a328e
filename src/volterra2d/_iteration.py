"""Shared fixed-point driver for maps of one shape, z = c + K phi(z):
Anderson-accelerated iteration (one plain damped step, then type-II
mixing of the last ANDERSON_DEPTH differences) with stall detection and a
single restart as damped Picard, falling back to Newton on
F(z) = z - map(z), whose steps eliminate one component of the map's
closed-form Jacobian.  It counts every map evaluation, never writes into
an array the map returns, and never mutates a formed iterate."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .sequences import PeriodicSequence

#: The mixing phase stalls after this many steps without a new best update
#: norm.
STALL_PATIENCE = 10
#: How many past differences each accelerated (Anderson) step mixes.
ANDERSON_DEPTH = 3
#: An accelerated step below tol is accepted only if one more Picard step
#: from it shrinks its residual |map(z) - z| by at least this factor.
CONTRACTION_FACTOR = 0.5


@dataclass(frozen=True)
class SolverOptions:
    """Driver settings.  ``damping`` weighs map(z) in the plain steps
    z <- (1 - damping) z + damping map(z): the first step of the mixing
    phase and every step after a restart.  Accelerated steps are not
    damped."""

    tol: float = 1e-12
    residual_tol: float = 1e-8
    max_iter: int = 200
    damping: float = 0.5
    initial_guess: Optional[Tuple[PeriodicSequence, PeriodicSequence]] = None

    def __post_init__(self):
        if not (self.tol > 0.0 and self.residual_tol > 0.0):
            raise ValueError("tol and residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class CoupledMap:
    """z = [x; y] -> c + [K_x f(y); K_y g(x)] with a fixed vector c, fixed
    square blocks K_x, K_y and nonlinearities f, g applied entry by entry
    by their bound array formulas (``apply``, and ``slope`` for the
    Jacobian): the form of both the periodic cycle map and the asymptotic
    tail map.  Every slice of z is a float64 array."""

    c: np.ndarray
    k_x: np.ndarray
    k_y: np.ndarray
    f: Any
    g: Any

    def __call__(self, z: np.ndarray) -> np.ndarray:
        n = len(self.k_x)
        out = np.empty(2 * n)
        np.matmul(self.k_x, self.f.apply(z[n:]), out=out[:n])
        np.matmul(self.k_y, self.g.apply(z[:n]), out=out[n:])
        out += self.c
        return out

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """I - K diag(phi'(z)): the Jacobian of F(z) = z - map(z)."""
        n = len(self.k_x)
        jac = np.eye(2 * n)
        # The identity's off-diagonal blocks are zero: write -K diag(phi') in.
        np.multiply(self.k_x, -self.f.slope(z[n:]), out=jac[:n, n:])
        np.multiply(self.k_y, -self.g.slope(z[:n]), out=jac[n:, :n])
        return jac

    def newton_step(self, z: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """The delta with jacobian(z) @ delta = -residual, by eliminating
        the y block: with A = K_x diag(f'(y)) and B = K_y diag(g'(x)), one
        n x n solve of (I - A B) dx = -r_x - A r_y, then dy = B dx - r_y.
        A singular Schur complement falls back to least squares on the
        dense Jacobian."""
        n = len(self.k_x)
        a = self.k_x * self.f.slope(z[n:])
        b = self.k_y * self.g.slope(z[:n])
        r_x, r_y = residual[:n], residual[n:]
        try:
            dx = np.linalg.solve(np.eye(n) - a @ b, -r_x - a @ r_y)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(self.jacobian(z), -residual, rcond=None)[0]
        return np.concatenate([dx, b @ dx - r_y])


@dataclass(frozen=True)
class IterationResult:
    z: np.ndarray
    iterations: int
    method_used: str
    final_update_norm: float
    converged: bool
    map_calls: int


#: (z, residual) -> the Newton correction delta, J(z) delta = -residual.
NewtonStep = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sup_norm(v: np.ndarray) -> float:
    """max |v| (no np.max wrapper): finite exactly when every entry is."""
    return float(np.maximum.reduce(np.abs(v)))


def _newton(apply_map: Callable[[np.ndarray], np.ndarray],
            newton_step: NewtonStep, z: np.ndarray, tol: float,
            budget: int, mapped: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, int, float, bool, int]:
    """(z, steps taken, last update, converged, map evaluations).
    ``mapped`` is apply_map(z) at the starting z, when the caller has it."""
    update = math.inf
    used = calls = 0
    for _ in range(budget):
        if mapped is None:
            mapped = apply_map(z)
            calls += 1
        residual = z - mapped
        if not math.isfinite(_sup_norm(residual)):
            break
        delta = newton_step(z, residual)
        stepped = z + delta  # z is finite, so a non-finite delta shows here
        if not math.isfinite(_sup_norm(stepped)):
            break
        z, mapped = stepped, None
        used += 1
        update = _sup_norm(delta)
        if update < tol:
            return z, used, update, True, calls
    return z, used, update, False, calls


def _mix(g: np.ndarray, f: np.ndarray, d_f: np.ndarray,
         d_g: np.ndarray) -> Optional[np.ndarray]:
    """The type-II Anderson iterate g - d_g^T gamma, where gamma fits f by
    the rows of d_f in least squares: the Gram system
    (d_f d_f^T) gamma = d_f f, or ``lstsq`` on d_f^T if it is singular.
    None when d_f f is not finite, which it is not whenever f is not."""
    rhs = d_f @ f
    if not math.isfinite(_sup_norm(rhs)):
        return None
    try:
        gamma = np.linalg.solve(d_f @ d_f.T, rhs)
    except np.linalg.LinAlgError:
        gamma = np.linalg.lstsq(d_f.T, f, rcond=None)[0]
    return g - gamma @ d_g


def solve_fixed_point(apply_map: Callable[[np.ndarray], np.ndarray],
                      z0: np.ndarray, *,
                      newton_step: NewtonStep,
                      opts: SolverOptions) -> IterationResult:
    """Find z with z = apply_map(z).

    Mixing phase, with f = map(z) - z: the first step is the plain one
    z <- z + damping * f.  Each later step is type-II Anderson mixing of
    depth ANDERSON_DEPTH, z <- map(z) - dG gamma, where the rows of dF and
    dG are the last differences of f and of map(z) and gamma fits f by dF
    in least squares (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  The
    phase ends when the update norm drops below opts.tol (converged), a
    step is non-finite, the updates stall (no new minimum for
    STALL_PATIENCE steps, which also catches sustained oscillation) or
    opts.max_iter runs out.  A stall or a non-finite step after
    accelerated steps restarts the phase once from z0 at depth 0, where
    every step is the plain one (damped Picard), if budget remains;
    otherwise it goes back to the best iterate seen.  An accelerated step
    below opts.tol leaves an iterate z that is accepted only if its
    residual |map(z) - z| is below opts.tol as well (a small step can
    hide a large residual when the mixing stagnates) and one more Picard
    step from z shrinks that residual by CONTRACTION_FACTOR; if not,
    Newton takes over from z, reusing the map(z) of that check.

    Newton runs on the remaining budget, its corrections
    ``newton_step(z, residual)`` solving against the Jacobian of
    z - apply_map(z) (``CoupledMap.newton_step``); if it takes no step,
    the result is the mixing phase's.  ``method_used`` names the kind of
    the last step taken: ``picard`` (``damped_picard`` below damping 1),
    ``anderson`` or ``newton``.  Non-convergence is reported, not
    raised.  Every map evaluation, counted in ``map_calls``, goes through
    ``apply_map``.  The driver writes only into arrays it allocated,
    never into one that ``apply_map`` returns, and never mutates an
    iterate once formed.
    """
    z0 = np.asarray(z0, dtype=float).copy()
    plain = "picard" if opts.damping == 1.0 else "damped_picard"
    depth = ANDERSON_DEPTH
    # Step k >= 1 writes its differences of f and map(z) to row
    # (k - 1) % depth, over the oldest once the ring is full.
    d_f = np.empty((depth, len(z0)))
    d_g = np.empty_like(d_f)
    z, method = z0, plain
    iterations = map_calls = steps = since_best = 0
    update = best_update = math.inf
    best_z = z
    mapped = None  # map(z) at the z that Newton starts from, if known
    while iterations < opts.max_iter:
        g = apply_map(z)
        map_calls += 1
        iterations += 1
        if depth and steps:
            f = g - z
            row = (steps - 1) % depth
            np.subtract(f, f_prev, out=d_f[row])
            np.subtract(g, g_prev, out=d_g[row])
            rows = min(steps, depth)
            z_next = _mix(g, f, d_f[:rows], d_g[:rows])
            f_prev, g_prev, method = f, g, "anderson"
        else:
            # (1 - damping) z + damping map(z), summed into the fresh product
            z_next = g * opts.damping
            z_next += z * (1.0 - opts.damping)
            if depth:
                f_prev, g_prev = g - z, g
        steps += 1
        # z is finite, so a NaN or inf in z_next shows up in the max
        update = math.inf if z_next is None else _sup_norm(z_next - z)
        if math.isfinite(update):
            z = z_next
            if update < opts.tol:
                if method != "anderson":
                    return IterationResult(z, iterations, method, update,
                                           True, map_calls)
                g = apply_map(z)
                map_calls += 1
                residual = _sup_norm(g - z)
                if residual < opts.tol:
                    map_calls += 1
                    if (_sup_norm(apply_map(g) - g)
                            <= CONTRACTION_FACTOR * residual):
                        return IterationResult(z, iterations, method, update,
                                               True, map_calls)
                mapped = g
                break
            if update < best_update:
                best_update, best_z, since_best = update, z, 0
                continue
            since_best += 1
            if since_best < STALL_PATIENCE:
                continue
        # a non-finite step or a stall
        if method == "anderson" and iterations < opts.max_iter:
            z, method, depth = z0, plain, 0
            steps = since_best = 0
            best_update, best_z = math.inf, z0
            continue
        z = best_z
        break

    z_newton, used, update_newton, converged, calls = _newton(
        apply_map, newton_step, z, opts.tol, opts.max_iter - iterations,
        mapped)
    map_calls += calls
    if used:  # with no Newton step, converged is False and mixing's stands
        z, method, update = z_newton, "newton", update_newton
    return IterationResult(z, iterations + used, method, update, converged,
                           map_calls)
