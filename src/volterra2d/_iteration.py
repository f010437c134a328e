"""Shared fixed-point driver for maps of one shape, z = c + K phi(z): damped
Picard with stall detection, falling back to Newton on F(z) = z - map(z),
whose steps eliminate one component of the map's closed-form Jacobian.  It
never writes into an array the map returns, nor mutates a formed iterate."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .sequences import PeriodicSequence

#: Picard stalls after this many iterations without a new best update norm.
STALL_PATIENCE = 10


@dataclass(frozen=True)
class SolverOptions:
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


#: (z, residual) -> the Newton correction delta, J(z) delta = -residual.
NewtonStep = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _sup_norm(v: np.ndarray) -> float:
    """max |v| (no np.max wrapper): finite exactly when every entry is."""
    return float(np.maximum.reduce(np.abs(v)))


def _newton(apply_map: Callable[[np.ndarray], np.ndarray],
            newton_step: NewtonStep, z: np.ndarray, tol: float,
            budget: int) -> Tuple[np.ndarray, int, float, bool]:
    update = math.inf
    used = 0
    for _ in range(budget):
        residual = z - apply_map(z)
        if not math.isfinite(_sup_norm(residual)):
            break
        delta = newton_step(z, residual)
        stepped = z + delta  # z is finite, so a non-finite delta shows here
        if not math.isfinite(_sup_norm(stepped)):
            break
        z = stepped
        used += 1
        update = _sup_norm(delta)
        if update < tol:
            return z, used, update, True
    return z, used, update, False


def solve_fixed_point(apply_map: Callable[[np.ndarray], np.ndarray],
                      z0: np.ndarray, *,
                      newton_step: NewtonStep,
                      opts: SolverOptions) -> IterationResult:
    """Find z with z = apply_map(z).

    Picard phase: z <- (1-damping) z + damping * map(z) until the update
    norm drops below opts.tol (converged), a step is non-finite, Picard
    stalls (no new minimum update norm for STALL_PATIENCE iterations,
    which also catches sustained oscillation) or opts.max_iter runs out.
    A non-finite step or a stall goes back to the best iterate seen.
    Newton then runs on the remaining budget, its corrections
    ``newton_step(z, residual)`` solving against the Jacobian of
    z - apply_map(z) (``CoupledMap.newton_step``); if it takes no step,
    the result is Picard's.  Non-convergence is reported, not raised.
    The driver writes only into arrays it allocated, never into one that
    ``apply_map`` returns, and never mutates an iterate once formed.
    """
    z = np.asarray(z0, dtype=float).copy()
    method = "picard" if opts.damping == 1.0 else "damped_picard"
    iterations = 0
    update = math.inf
    best_update = math.inf
    best_z = z
    since_best = 0
    while iterations < opts.max_iter:
        # (1 - damping) z + damping map(z), summed into the fresh product
        z_next = apply_map(z) * opts.damping
        z_next += z * (1.0 - opts.damping)
        iterations += 1
        # z is finite, so a NaN or inf in z_next shows up in the max
        update = _sup_norm(z_next - z)
        if not math.isfinite(update):
            z = best_z
            break
        z = z_next
        if update < opts.tol:
            return IterationResult(z, iterations, method, update, True)
        if update < best_update:
            best_update = update
            best_z = z
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_PATIENCE:
                z = best_z
                break

    z_newton, used, update_newton, converged = _newton(
        apply_map, newton_step, z, opts.tol, opts.max_iter - iterations)
    if used:  # with no Newton step, converged is False and Picard's stands
        z, method, update = z_newton, "newton", update_newton
    return IterationResult(z, iterations + used, method, update, converged)
