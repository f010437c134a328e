"""Two-index kernel weight families a_{n,i} (defined for i <= n) with exact
absolute row sums, exact double-tail sums, diagonal-periodic folding, and
bound-driven truncated inner sums that carry a certified tail error, each
one weight row dotted with already-mapped values.

Two variants are supported:

* ``SeparableExponential``: a_{n,i} = coef * exp(row_rate*i - col_rate*n).
  Row sums and tails are geometric series with closed forms.
* ``FiniteLag``: a_{n,i} = weights[n mod P][n - i] for lags 0..L, else 0.
  All sums are finite, so tails are exactly zero.

Anything else would lack computable tail bounds, which every certified
number in this library relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np


class NotDiagonalPeriodic(ValueError):
    """Kernel does not satisfy a_{n+T,i+T} = a_{n,i} for the requested T."""


class TailNotCertified(RuntimeError):
    """The term cap was reached before the tail bound dropped below the
    requested tolerance."""


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

    def weight(self, n: int, i: int) -> float:
        """Kernel value at (n, i); i > n is rejected (never evaluated)."""
        if i > n:
            raise ValueError(f"kernel defined for i <= n only, got i={i} > n={n}")
        return self.coef * math.exp(self.row_rate * i - self.col_rate * n)

    def weight_row(self, i: int, depth: int) -> np.ndarray:
        """a_{i,m} for m = i-depth..i as an array."""
        m = np.arange(i - depth, i + 1)
        return self.coef * np.exp(self.row_rate * m - self.col_rate * i)

    def abs_row_sum(self, i: int) -> float:
        """sum_{m<=i} |a_{i,m}| = |coef| e^{(row-col) i} / (1 - e^{-row})."""
        return (abs(self.coef) * math.exp((self.row_rate - self.col_rate) * i)
                / -math.expm1(-self.row_rate))

    def double_tail(self, n: int) -> float:
        """sum_{i>=n} abs_row_sum(i); +inf unless col_rate > row_rate."""
        if self.coef == 0.0:
            return 0.0
        gap = self.row_rate - self.col_rate
        if gap >= 0.0:
            return math.inf
        return (abs(self.coef) * math.exp(gap * n)
                / (-math.expm1(-self.row_rate) * -math.expm1(gap)))

    def tail_beyond(self, i: int, depth: int) -> float:
        """sum_{m <= i-depth-1} |a_{i,m}|: the geometric remainder left after
        keeping the depth+1 terms m = i-depth..i."""
        return self.abs_row_sum(i) * math.exp(-self.row_rate * (depth + 1))

    def truncation_depth(self, i: int, bound: float, tol: float) -> int:
        """Smallest depth with bound * tail_beyond(i, depth) <= tol."""
        full = bound * self.abs_row_sum(i)
        if full <= tol:
            return 0
        depth = max(0, math.ceil(math.log(full / tol) / self.row_rate - 1.0))
        while bound * self.tail_beyond(i, depth) > tol:  # round-off safety
            depth += 1
        return depth

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

    def weight_row(self, i: int, depth: int) -> np.ndarray:
        """a_{i,m} for m = i-depth..i as an array (zero past max_lag)."""
        lags = self.weights[i % self.lag_period][depth::-1]
        return np.pad(lags, (depth + 1 - len(lags), 0))

    def abs_row_sum(self, i: int) -> float:
        return sum(abs(w) for w in self.weights[i % self.lag_period])

    def double_tail(self, n: int) -> float:
        if all(w == 0.0 for row in self.weights for w in row):
            return 0.0
        return math.inf

    def tail_beyond(self, i: int, depth: int) -> float:
        row = self.weights[i % self.lag_period]
        return sum(abs(w) for w in row[depth + 1:])

    def truncation_depth(self, i: int, bound: float, tol: float) -> int:
        depth = self.max_lag
        while depth > 0 and bound * self.tail_beyond(i, depth - 1) <= tol:
            depth -= 1
        return depth

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


def certified_depth(kernel: Kernel, i: int, bound: float, tol: float,
                    max_terms: int) -> Tuple[int, float]:
    """Window depth of the row sum at i over values bounded by ``bound``:
    the smallest depth making bound * (absolute kernel tail) <= tol, capped
    at max_terms terms (TailNotCertified if the cap is hit first).
    Returns (depth, certified tail bound)."""
    if bound < 0.0 or not math.isfinite(bound):
        raise ValueError("bound must be finite and nonnegative")
    depth = min(kernel.truncation_depth(i, bound, tol), max_terms - 1)
    tail = bound * kernel.tail_beyond(i, depth)
    if tail > tol:
        raise TailNotCertified(f"tail bound {tail:.3e} > {tol:.3e} "
                               f"at the {max_terms}-term cap")
    return depth, tail


def inner_sum(kernel: Kernel, i: int, values: np.ndarray,
              bound: float, policy: TruncationPolicy) -> Tuple[float, float]:
    """Truncated sum_{m<=i} a_{i,m} * values_m with a certified tail.

    ``values`` holds already-mapped values whose last entry is at m = i,
    and ``bound`` is the caller's declared bound on their magnitude; the
    window is the last depth+1 entries, with the depth from
    ``certified_depth`` at policy.tail_tol.  A shorter array raises
    ValueError.  Returns (sum, certified tail bound).
    """
    depth, tail = certified_depth(kernel, i, bound, policy.tail_tol,
                                  policy.max_terms)
    if len(values) < depth + 1:
        raise ValueError(f"inner sum at {i} needs {depth + 1} values")
    return float(kernel.weight_row(i, depth) @ values[-(depth + 1):]), tail
