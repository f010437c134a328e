"""Shared fixed-point driver for maps of one shape, z = c + K phi(z): damped
Picard with stall detection, falling back to Newton on F(z) = z - map(z)
with the map's closed-form Jacobian."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .sequences import PeriodicSequence

STRATEGIES = ("picard_then_newton", "picard_only", "newton_only")

#: Picard stalls after this many iterations without a new best update norm.
STALL_PATIENCE = 10


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    residual_tol: float = 1e-8
    max_iter: int = 200
    damping: float = 0.5
    strategy: str = "picard_then_newton"
    initial_guess: Optional[Tuple[PeriodicSequence, PeriodicSequence]] = None

    def __post_init__(self):
        if not (self.tol > 0.0 and self.residual_tol > 0.0):
            raise ValueError("tol and residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True, eq=False)
class CoupledMap:
    """z = [x; y] -> c + [K_x f(y); K_y g(x)] with a fixed vector c, fixed
    square blocks K_x, K_y and nonlinearities f, g (each with a
    ``derivative``) applied entry by entry: the form of both the periodic
    cycle map and the asymptotic tail map."""

    c: np.ndarray
    k_x: np.ndarray
    k_y: np.ndarray
    f: Any
    g: Any

    def __call__(self, z: np.ndarray) -> np.ndarray:
        n = len(self.k_x)
        return self.c + np.concatenate([self.k_x @ self.f(z[n:]),
                                        self.k_y @ self.g(z[:n])])

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """I - K diag(phi'(z)): the Jacobian of F(z) = z - map(z)."""
        n = len(self.k_x)
        jac = np.eye(2 * n)
        # The identity's off-diagonal blocks are zero: write -K diag(phi') in.
        np.multiply(self.k_x, -self.f.derivative(z[n:]), out=jac[:n, n:])
        np.multiply(self.k_y, -self.g.derivative(z[:n]), out=jac[n:, :n])
        return jac


@dataclass(frozen=True)
class IterationResult:
    z: np.ndarray
    iterations: int
    method_used: str
    final_update_norm: float
    converged: bool


def _newton(apply_map: Callable[[np.ndarray], np.ndarray],
            jacobian: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
            tol: float, budget: int) -> Tuple[np.ndarray, int, float, bool]:
    update = math.inf
    used = 0
    for _ in range(budget):
        residual = z - apply_map(z)
        if not np.all(np.isfinite(residual)):
            break
        jac = jacobian(z)
        try:
            delta = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        if not np.all(np.isfinite(delta)):
            break
        stepped = z + delta
        if not np.all(np.isfinite(stepped)):
            break
        z = stepped
        used += 1
        update = float(np.max(np.abs(delta)))
        if update < tol:
            return z, used, update, True
    return z, used, update, False


def solve_fixed_point(apply_map: Callable[[np.ndarray], np.ndarray],
                      z0: np.ndarray, *,
                      jacobian: Callable[[np.ndarray], np.ndarray],
                      opts: SolverOptions) -> IterationResult:
    """Find z with z = apply_map(z).

    Picard phase: z <- (1-damping) z + damping * map(z) until the update
    norm drops below opts.tol, stalling (no new minimum update norm for
    STALL_PATIENCE iterations, which also catches sustained oscillation)
    or exhausting opts.max_iter.  On stall the best iterate seen seeds
    Newton, whose linear systems use ``jacobian(z)``, the Jacobian of
    z - apply_map(z).  Non-convergence is reported, not raised.
    """
    z = np.asarray(z0, dtype=float).copy()
    iterations = 0
    update = math.inf
    method = "newton"

    if opts.strategy != "newton_only":
        method = "picard" if opts.damping == 1.0 else "damped_picard"
        best_update = math.inf
        best_z = z.copy()
        since_best = 0
        while iterations < opts.max_iter:
            mapped = apply_map(z)
            z_next = (1.0 - opts.damping) * z + opts.damping * mapped
            iterations += 1
            # z is finite, so a NaN or inf in z_next shows up in the max
            update = float(np.max(np.abs(z_next - z)))
            if not math.isfinite(update):
                z = best_z
                break
            z = z_next
            if update < opts.tol:
                return IterationResult(z, iterations, method, update, True)
            if update < best_update:
                best_update = update
                best_z = z.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best >= STALL_PATIENCE:
                    z = best_z
                    break
        if opts.strategy == "picard_only":
            return IterationResult(z, iterations, method, update, False)

    budget = (opts.max_iter - iterations
              if opts.strategy == "picard_then_newton" else opts.max_iter)
    z_newton, used, update_newton, converged = _newton(apply_map, jacobian, z,
                                                       opts.tol, budget)
    iterations += used
    if used > 0 or opts.strategy == "newton_only":
        z = z_newton
        update = update_newton
        method = "newton"
    return IterationResult(z, iterations, method, update, converged)
