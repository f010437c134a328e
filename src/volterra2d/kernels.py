"""Two-index kernel weight families a_{n,i} (defined for i <= n) with exact
absolute row sums, exact double-tail sums, diagonal-periodic folding, and
drive plans: the certified window depth of many truncated row sums
sum_{m<=n} a_{n,m} * values_m from one array rule, with their weights in a
compact form that each row dots with already-mapped values.

Two variants are supported:

* ``SeparableExponential``: a_{n,i} = coef * exp(row_rate*i - col_rate*n).
  Row sums and tails are geometric series with closed forms.  In compact
  form a_{n,n-k} = a_{n,n} * e^{-row_rate*k}: one lag profile serves every
  row, scaled by the diagonal weight.
* ``FiniteLag``: a_{n,i} = weights[n mod P][n - i] for lags 0..L, else 0.
  All sums are finite, so tails are exactly zero.  In compact form each
  lag phase n mod P has its weight row as its profile, with scale 1.

Anything else would lack computable tail bounds, which every certified
number in this library relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Tuple, Union

import numpy as np


class NotDiagonalPeriodic(ValueError):
    """Kernel does not satisfy a_{n+T,i+T} = a_{n,i} for the requested T."""


class TailNotCertified(RuntimeError):
    """The term cap was reached before the tail bound dropped below the
    requested tolerance."""


def _constant(n, value: float):
    """``value`` in the shape of ``n``: a scalar for one index, an array
    for an array of them."""
    return np.full(np.shape(n), value)[()]


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite sums are cut off: certified tail at most ``tail_tol``,
    never more than ``max_terms`` terms."""

    tail_tol: float = 1e-10
    max_terms: int = 100_000

    def __post_init__(self):
        if not (self.tail_tol > 0.0 and math.isfinite(self.tail_tol)):
            raise ValueError("tail_tol must be positive and finite")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


@dataclass(frozen=True)
class SeparableExponential:
    """a_{n,i} = coef * exp(row_rate * i - col_rate * n) on i <= n.

    row_rate > 0 is required so every row sum over m <= i converges.
    The kernel is diagonal-periodic exactly when row_rate == col_rate.
    """

    coef: float
    row_rate: float
    col_rate: float

    def __post_init__(self):
        for name in ("coef", "row_rate", "col_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.row_rate <= 0.0:
            raise ValueError("row_rate must be positive")

    def _unit(self, n, m):
        """exp(row_rate * m - col_rate * n), elementwise: the weight formula
        without its coefficient."""
        return np.exp(self.row_rate * m - self.col_rate * n)

    def weight(self, n: int, i: int) -> float:
        """Kernel value at (n, i); i > n is rejected (never evaluated)."""
        if i > n:
            raise ValueError(f"kernel defined for i <= n only, got i={i} > n={n}")
        return float(self.coef * self._unit(n, i))

    def weight_row(self, i: int, depth: int) -> np.ndarray:
        """a_{i,m} for m = i-depth..i as an array."""
        return self.coef * self._unit(i, np.arange(i - depth, i + 1))

    def compact(self, rows: np.ndarray, width: int):
        """(scale, phase, profiles) with a_{n,n-k} = scale * profiles[phase,
        width - k] for each n in ``rows`` and k <= width: the diagonal weight
        times the one profile e^{-row_rate*k}."""
        return (self.coef * self._unit(rows, rows),
                np.zeros(len(rows), dtype=np.int64),
                self._unit(0, np.arange(-width, 1))[None, :])

    def abs_row_sum(self, i):
        """sum_{m<=i} |a_{i,m}| = |coef| e^{(row-col) i} / (1 - e^{-row}),
        for one row or an array of rows."""
        return (abs(self.coef) * np.exp((self.row_rate - self.col_rate) * i)
                / -math.expm1(-self.row_rate))

    def double_tail(self, n):
        """sum_{i>=n} abs_row_sum(i), for one n or an array of them; +inf
        unless col_rate > row_rate."""
        gap = self.row_rate - self.col_rate
        if self.coef == 0.0 or gap >= 0.0:
            return _constant(n, 0.0 if self.coef == 0.0 else math.inf)
        return (abs(self.coef) * np.exp(gap * np.asarray(n))
                / (-math.expm1(-self.row_rate) * -math.expm1(gap)))

    def tail_beyond(self, i, depth):
        """sum_{m <= i-depth-1} |a_{i,m}|: the geometric remainder left after
        keeping the depth+1 terms m = i-depth..i (elementwise on arrays)."""
        return self.abs_row_sum(i) * np.exp(-self.row_rate * (depth + 1))

    def depths(self, rows: np.ndarray, bound: float, tol: float,
               cap: int) -> Tuple[np.ndarray, np.ndarray]:
        """The depth rule for every row in ``rows``: the smallest depth <= cap
        with bound * tail_beyond <= tol (cap when there is none), and that
        tail.  The closed-form estimate is clipped to cap while still a
        float, so a vanishing rate cannot overflow the integer conversion
        or stall the round-off fix-up."""
        with np.errstate(over="ignore", divide="ignore"):
            full = bound * self.abs_row_sum(rows)
            estimate = np.log(full / tol) / self.row_rate - 1.0
            depth = np.where(full > tol, np.ceil(np.clip(estimate, 0.0, cap)),
                             0.0).astype(np.int64)
            tail = bound * self.tail_beyond(rows, depth)
            while (short := (tail > tol) & (depth < cap)).any():  # round-off
                depth[short] += 1
                tail[short] = bound * self.tail_beyond(rows[short],
                                                       depth[short])
        return depth, tail

    def truncation_depth(self, i: int, bound: float, tol: float,
                         max_terms: int = TruncationPolicy.max_terms) -> int:
        """Smallest depth with bound * tail_beyond(i, depth) <= tol, at most
        max_terms - 1: the one-row form of ``depths``."""
        return int(self.depths(np.array([i]), bound, tol, max_terms - 1)[0][0])

    def is_diagonal_periodic(self, period: int) -> bool:
        return self.row_rate == self.col_rate

    def folded_weights(self, period: int) -> np.ndarray:
        """Lag table A[k][r] = sum_{j>=0} a_{i, i-r-jT} for any i == k (mod T);
        valid only for diagonal-periodic kernels, where each geometric
        subseries is independent of k."""
        if not self.is_diagonal_periodic(period):
            raise NotDiagonalPeriodic(
                f"row_rate {self.row_rate!r} != col_rate {self.col_rate!r}")
        rate = self.row_rate
        row = [self.coef * math.exp(-rate * r) / -math.expm1(-rate * period)
               for r in range(period)]
        return np.array([row] * period)


@dataclass(frozen=True)
class FiniteLag:
    """a_{n,i} = weights[n mod P][n - i] for 0 <= n - i <= L, else 0.

    P is the number of weight rows and L+1 the row length.
    """

    weights: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(w) for w in row) for row in self.weights)
        if not rows:
            raise ValueError("weights must have at least one row")
        width = len(rows[0])
        if width < 1 or any(len(row) != width for row in rows):
            raise ValueError("weight rows must be nonempty and equal length")
        for row in rows:
            if not all(math.isfinite(w) for w in row):
                raise ValueError("weights must all be finite")
        object.__setattr__(self, "weights", rows)

    @property
    def lag_period(self) -> int:
        return len(self.weights)

    @property
    def max_lag(self) -> int:
        return len(self.weights[0]) - 1

    def weight(self, n: int, i: int) -> float:
        if i > n:
            raise ValueError(f"kernel defined for i <= n only, got i={i} > n={n}")
        lag = n - i
        if lag > self.max_lag:
            return 0.0
        return self.weights[n % self.lag_period][lag]

    def _profiles(self, width: int) -> np.ndarray:
        """The weight rows cut or zero-padded to lags 0..width, reversed:
        column width - k of row p holds weights[p][k]."""
        lags = min(width, self.max_lag)
        profiles = np.zeros((self.lag_period, width + 1))
        profiles[:, width - lags:] = np.array(self.weights)[:, lags::-1]
        return profiles

    def weight_row(self, i: int, depth: int) -> np.ndarray:
        """a_{i,m} for m = i-depth..i as an array (zero past max_lag)."""
        return self._profiles(depth)[i % self.lag_period]

    def compact(self, rows: np.ndarray, width: int):
        """(scale, phase, profiles) with a_{n,n-k} = scale * profiles[phase,
        width - k] for each n in ``rows`` and k <= width: scale 1 and the
        weight row of the lag phase n mod P."""
        return (np.ones(len(rows)), rows % self.lag_period,
                self._profiles(width))

    def abs_row_sum(self, i: int) -> float:
        return sum(abs(w) for w in self.weights[i % self.lag_period])

    def double_tail(self, n):
        """0 for an all-zero kernel, else +inf, for one n or an array."""
        zero = all(w == 0.0 for row in self.weights for w in row)
        return _constant(n, 0.0 if zero else math.inf)

    def depths(self, rows: np.ndarray, bound: float, tol: float,
               cap: int) -> Tuple[np.ndarray, np.ndarray]:
        """The depth rule for every row in ``rows``, decided once per lag
        phase: the smallest depth <= cap whose dropped weights (lags past
        it) sum to a tail bound * sum|w| <= tol, and that tail."""
        lags = np.abs(np.array(self.weights))
        suffix = np.zeros_like(lags)  # suffix[p, d] = sum_{k>d} |w[p][k]|
        suffix[:, :-1] = np.cumsum(lags[:, :0:-1], axis=1)[:, ::-1]
        depth = np.minimum(np.count_nonzero(bound * suffix > tol, axis=1), cap)
        tail = bound * suffix[np.arange(self.lag_period), depth]
        phase = rows % self.lag_period
        return depth[phase], tail[phase]

    def truncation_depth(self, i: int, bound: float, tol: float,
                         max_terms: int = TruncationPolicy.max_terms) -> int:
        """Smallest depth whose dropped tail times bound is <= tol, at most
        max_terms - 1: the one-row form of ``depths``."""
        return int(self.depths(np.array([i]), bound, tol, max_terms - 1)[0][0])

    def is_diagonal_periodic(self, period: int) -> bool:
        shift = period % self.lag_period
        return all(self.weights[(k + shift) % self.lag_period] == self.weights[k]
                   for k in range(self.lag_period))

    def folded_weights(self, period: int) -> np.ndarray:
        if not self.is_diagonal_periodic(period):
            raise NotDiagonalPeriodic(
                f"weight rows are not invariant under a shift of {period}")
        # lag j*period + r of row k lands in column r
        width = (self.max_lag // period + 1) * period
        return np.array([self.weight_row(k, width - 1)[::-1]
                         .reshape(-1, period).sum(axis=0)
                         for k in range(period)])


Kernel = Union[SeparableExponential, FiniteLag]


@dataclass(frozen=True, eq=False)
class DrivePlan:
    """The truncated row sums sum_{m<=n} a_{n,m} * values_m of the rows
    n = first..first+R-1, planned once: each row's certified window depth
    and tail bound, and its weights in compact form

        a_{n,n-k} = scale[r] * profiles[phase[r], max_depth - k]

    for k <= depth[r], with r = n - first.  Storage is O(R + P * max_depth)
    for P profiles, never O(R * max_depth).
    """

    first: int
    depth: np.ndarray
    tail: np.ndarray
    scale: np.ndarray
    phase: np.ndarray
    profiles: np.ndarray

    @property
    def max_depth(self) -> int:
        return self.profiles.shape[1] - 1

    def drives(self, values: np.ndarray, start: int) -> Iterator[float]:
        """Each row's truncated sum in turn, scale * (profile window @ value
        window), over ``values`` whose entry start + r is at m = first + r.
        Entries are read as the iterator advances, so a march may fill in
        values[start + r] before asking for row r."""
        profiles, width = self.profiles, self.max_depth
        for k, scale, phase, depth in zip(count(start), self.scale.tolist(),
                                          self.phase.tolist(),
                                          self.depth.tolist()):
            yield scale * float(profiles[phase, width - depth:]
                                @ values[k - depth:k + 1])

    def fill(self, block: np.ndarray, m_lo: int) -> None:
        """Write every planned weight a_{n,m} to block[n - first, m - m_lo]
        in one scatter."""
        counts = self.depth + 1
        r = np.repeat(np.arange(len(counts)), counts)
        lag = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
        block[r, self.first + r - lag - m_lo] = (
            self.scale[r] * self.profiles[self.phase[r], self.max_depth - lag])


def drive_plan(kernel: Kernel, rows: int, bound: float, tol: float,
               max_terms: int, first: int = 0) -> DrivePlan:
    """Plan the row sums at n = first..first+rows-1 over values bounded by
    ``bound``: each row's window depth is the smallest making bound *
    (absolute kernel tail) <= tol, capped at max_terms terms;
    TailNotCertified names the first row whose cap is hit first."""
    if bound < 0.0 or not math.isfinite(bound):
        raise ValueError("bound must be finite and nonnegative")
    n = np.arange(first, first + rows)
    depth, tail = kernel.depths(n, bound, tol, max_terms - 1)
    uncertified = np.flatnonzero(tail > tol)
    if len(uncertified):
        raise TailNotCertified(f"tail bound {tail[uncertified[0]]:.3e} > "
                               f"{tol:.3e} at the {max_terms}-term cap")
    return DrivePlan(first, depth, tail,
                     *kernel.compact(n, int(depth.max(initial=0))))


def certified_depth(kernel: Kernel, i: int, bound: float, tol: float,
                    max_terms: int) -> Tuple[int, float]:
    """(depth, certified tail bound) of the row sum at i: the one-row form
    of ``drive_plan``."""
    plan = drive_plan(kernel, 1, bound, tol, max_terms, first=i)
    return int(plan.depth[0]), float(plan.tail[0])


def inner_sum(kernel: Kernel, i: int, values: np.ndarray,
              bound: float, policy: TruncationPolicy) -> Tuple[float, float]:
    """Truncated sum_{m<=i} a_{i,m} * values_m with a certified tail: the
    one-row form of ``drive_plan`` at policy.tail_tol.

    ``values`` holds already-mapped values whose last entry is at m = i,
    and ``bound`` is the caller's declared bound on their magnitude; the
    window is the last depth+1 entries.  A shorter array raises
    ValueError.  Returns (sum, certified tail bound).
    """
    plan = drive_plan(kernel, 1, bound, policy.tail_tol, policy.max_terms,
                      first=i)
    depth = plan.max_depth
    if len(values) < depth + 1:
        raise ValueError(f"inner sum at {i} needs {depth + 1} values")
    return next(plan.drives(values, len(values) - 1)), float(plan.tail[0])
