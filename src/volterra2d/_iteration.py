"""Shared fixed-point driver for maps of one shape, z = c + K phi(z):
Anderson-accelerated iteration (one plain damped step, then type-II
mixing of the last ANDERSON_DEPTH differences) with stall detection and a
single restart as damped Picard, falling back to Newton on
F(z) = z - map(z), whose steps eliminate one component of the map's
closed-form Jacobian.  It counts every map evaluation, never writes into
an array the map returns, and never mutates a formed iterate.

K comes in two forms.  ``CoupledMap`` holds dense blocks (the periodic
cycle map, of size T) and solves its Newton steps by LU.  ``TailMap``
holds the generators of semiseparable blocks (the asymptotic tail map,
of size H + 1): it needs O(H) memory, applies K in O(H) time and solves
its Newton steps by restarted GMRES, one O(H) product with each block
per Krylov step."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .kernels import check_settings, filter_factors, scaled_prefix_sum
from .sequences import PeriodicSequence

#: The mixing phase stalls after this many steps without a new best update
#: norm.
STALL_PATIENCE = 10
#: How many past differences each accelerated (Anderson) step mixes.
ANDERSON_DEPTH = 3
#: An accelerated step below tol is accepted only if one more Picard step
#: from it shrinks its residual |map(z) - z| by at least this factor.
CONTRACTION_FACTOR = 0.5
#: GMRES restarts after this many Krylov vectors, so that a Newton step
#: of a tail map holds O(KRYLOV_DIM * H) memory.
KRYLOV_DIM = 32
#: GMRES stops once its residual is at most this fraction of the
#: right-hand side's.
KRYLOV_RTOL = 1e-14


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
        check_settings(self, ("tol", "residual_tol"), ("max_iter",))
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class CoupledMap:
    """z = [x; y] -> c + [K_x f(y); K_y g(x)] with a fixed vector c, fixed
    dense square blocks K_x, K_y and nonlinearities f, g applied entry by
    entry by their bound array formulas (``apply``, and ``slope`` for the
    Jacobian): the form of the periodic cycle map.  Every slice of z is a
    float64 array."""

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


def _gmres(matvec: Callable[[np.ndarray], np.ndarray],
           rhs: np.ndarray) -> Optional[np.ndarray]:
    """x with |rhs - matvec(x)| <= KRYLOV_RTOL |rhs| (2-norms), by GMRES
    from x = 0 restarted every KRYLOV_DIM steps (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986).  Each new basis vector is orthogonalized
    twice by classical Gram-Schmidt, and Givens rotations keep the
    Hessenberg matrix triangular and the residual norm current; a cycle
    that reaches the tolerance by that norm ends the solve, and one that
    does not is restarted from the residual computed anew.  None when a
    value is not finite, the Krylov space holds no better solution (a
    singular matrix), or a restart cycle fails to halve the residual."""
    x = np.zeros_like(rhs)
    beta = math.sqrt(rhs @ rhs)
    if not math.isfinite(beta):
        return None
    target = KRYLOV_RTOL * beta
    basis = np.empty((KRYLOV_DIM + 1, len(rhs)))
    tri = np.zeros((KRYLOV_DIM, KRYLOV_DIM))  # R of the Hessenberg's QR
    residual = rhs
    while beta > target:
        basis[0] = residual / beta
        rotations, g = [], [beta]  # g: Q^T (beta e_1)
        for k in range(KRYLOV_DIM):
            w = matvec(basis[k])
            column = np.zeros(k + 1)
            for _ in range(2):
                h = basis[:k + 1] @ w
                w -= h @ basis[:k + 1]
                column += h
            norm = math.sqrt(w @ w)
            col = column.tolist() + [norm]
            for i, (cos, sin) in enumerate(rotations):
                col[i], col[i + 1] = (cos * col[i] + sin * col[i + 1],
                                      cos * col[i + 1] - sin * col[i])
            rho = math.hypot(col[k], norm)
            if not 0.0 < rho < math.inf:
                return None
            cos, sin = col[k] / rho, norm / rho
            rotations.append((cos, sin))
            col[k] = rho
            tri[:k + 1, k] = col[:k + 1]
            g.append(-sin * g[k])
            g[k] *= cos
            if abs(g[k + 1]) <= target:
                break
            basis[k + 1] = w / norm
        steps = len(rotations)
        x = x + np.linalg.solve(tri[:steps, :steps], g[:steps]) \
            @ basis[:steps]
        if abs(g[steps]) <= target:
            return x
        residual = rhs - matvec(x)
        last, beta = beta, math.sqrt(residual @ residual)
        if not beta <= last / 2.0:
            return None
    return x


class TailMap:
    """z = [x; y] -> c + [K_x f(y); K_y g(x)] with semiseparable blocks of
    width W, the form of the asymptotic tail map:

        K_i[n, m] = scale_i[n] U_i[max(n, m)] lam_i^{max(n - m, 0)},
        lam_i = e^{-rate_i},

    held as its generators: ``c`` (2W entries), ``u`` and ``scale``
    (2 x W) and ``rate`` (2), row 0 for K_x, which maps f(y), and row 1
    for K_y, which maps g(x).  Entry n of K_i phi is scale_i[n] times
    U_i[n] S[n] + P[n], with the first-order filter
    S[n] = sum_{m<=n} lam_i^{n-m} phi_m and the suffix sum
    P[n] = sum_{m>n} U_i[m] phi_m (Vandebril, Van Barel & Mastronardi,
    Matrix Computations and Semiseparable Matrices, 2008), so the map
    takes O(W) memory and O(W) time per application.  The filter is
    ``kernels.first_order_filter`` taken apart: its factors
    (``filter_factors``, segments of at most 1 + SEGMENT_EXPONENT /
    max(rate) entries) are fixed with the map, lam^j folded into
    scale U, and each application runs only ``scaled_prefix_sum``.  A
    zero block is U = 0, at any rate.  Newton steps are matrix-free
    (``newton_step``); ``dense`` builds the blocks, for the least-squares
    fallback and for tests."""

    def __init__(self, c: np.ndarray, u: np.ndarray, scale: np.ndarray,
                 rate: np.ndarray, f: Any, g: Any):
        self.c, self.u, self.scale, self.f, self.g = c, u, scale, f, g
        self.rate = rate = np.asarray(rate, dtype=float)
        self._width = width = u.shape[1]
        self._segment, grow, shrink, carry = filter_factors(rate, width)
        grow = grow.ravel()  # lam^{-j}
        # scale U lam^j: where it underflows, |scale U| is below
        # e^SEGMENT_EXPONENT times the least normal double, so that
        # |scale U S| < 1e-85 max |phi| / (1 - lam)
        gain = (scale * u * shrink).ravel()
        # scale[n] beside U[n + 1] phi_{n+1}, 0 at each block's last row
        next_scale = np.concatenate([scale[:, :-1], np.zeros((2, 1))],
                                    axis=1).ravel()
        flat_u = u.ravel()

        def views(first, stop):
            flat = slice(first * width, stop * width)
            return (grow[flat], gain[flat], flat_u[flat],
                    next_scale[flat][:-1], carry[first:stop])

        self._both, self._x, self._y = views(0, 2), views(0, 1), views(1, 2)

    def _product(self, blocks: tuple, phi: np.ndarray) -> np.ndarray:
        """K phi for the blocks whose generators ``blocks`` holds
        (``_both``, ``_x`` or ``_y``), with phi and the result holding W
        entries per block, one block after the other."""
        grow, gain, u, next_scale, carry = blocks
        width = self._width
        s = phi * grow
        scaled_prefix_sum(s.reshape(-1, width), self._segment, carry)
        s *= gain
        # the suffix sums sum_{m>=n} U[m] phi_m, accumulated from the end
        suffix = phi * u
        backward = suffix.reshape(-1, width)[:, ::-1]
        np.add.accumulate(backward, axis=1, out=backward)
        tail = suffix[1:]
        tail *= next_scale
        s[:-1] += tail
        return s

    def __call__(self, z: np.ndarray) -> np.ndarray:
        width = self._width
        out = self._product(self._both, np.concatenate(
            (self.f.apply(z[width:]), self.g.apply(z[:width]))))
        out += self.c
        return out

    def dense(self) -> CoupledMap:
        """The same map with its blocks built as dense W x W arrays."""
        n = np.arange(self._width)
        k = (self.u[:, np.maximum(n[:, None], n)]
             * np.exp(-self.rate[:, None, None]
                      * np.maximum(n[:, None] - n, 0)))
        k *= self.scale[:, :, None]
        return CoupledMap(self.c, k[0], k[1], self.f, self.g)

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """I - K diag(phi'(z)): the Jacobian of F(z) = z - map(z), dense."""
        return self.dense().jacobian(z)

    def newton_step(self, z: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """The delta with jacobian(z) @ delta = -residual, by eliminating
        the y block as ``CoupledMap.newton_step`` does, but matrix-free:
        with A v = K_x (f'(y) v) and B v = K_y (g'(x) v), GMRES solves
        (I - A B) dx = -r_x - A r_y by products with the blocks alone
        (Knoll & Keyes, J. Comput. Phys. 193, 2004), then dy = B dx - r_y.
        Where GMRES fails, least squares on the dense Jacobian gives the
        step."""
        width = self._width
        f_slope = self.f.slope(z[width:])
        g_slope = self.g.slope(z[:width])

        def a(v):
            return self._product(self._x, f_slope * v)

        def b(v):
            return self._product(self._y, g_slope * v)

        r_x, r_y = residual[:width], residual[width:]
        dx = _gmres(lambda v: v - a(b(v)), -r_x - a(r_y))
        if dx is None:
            return np.linalg.lstsq(self.jacobian(z), -residual,
                                   rcond=None)[0]
        return np.concatenate([dx, b(dx) - r_y])


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
    z - apply_map(z) (``CoupledMap.newton_step``,
    ``TailMap.newton_step``); if it takes no step,
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
