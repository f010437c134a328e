"""Two-index kernel weight families a_{n,i} (defined for i <= n) with exact
absolute row sums, exact double-tail sums, diagonal-periodic folding, and
exact drives: the row sums sum_{m<=n} a_{n,m} * phi_m of mapped values,
where the values before the given array repeat its first ``past``
entries (a constant history tail for past = 1, the periodic extension for
past = T).  Two variants are supported:

* ``SeparableExponential``: a_{n,i} = coef * exp(row_rate*i - col_rate*n).
  Row sums and tails are geometric series with closed forms, and the drive
  is coef * e^{(row_rate-col_rate) n} s_n with the one-state recursion
  s_n = e^{-row_rate} s_{n-1} + phi_n (the discrete linear chain trick),
  seeded in closed form and run in long double under a certified
  round-off bound, reading the values as Python floats through a
  memoryview.
* ``FiniteLag``: a_{n,i} = weights[n mod P][n - i] for lags 0..L, else 0.
  All sums are finite, so tails are exactly zero and each drive is the dot
  product (``ndarray.dot``) of its weight row with its L+1 values.

Anything else would lack computable tail bounds, which every certified
number in this library relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, cycle
from typing import Iterator, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Unit round-off of the long double the separable recursion runs in.
LONG_DOUBLE_UNIT = float(np.finfo(np.longdouble).eps) / 2.0


class NotDiagonalPeriodic(ValueError):
    """Kernel does not satisfy a_{n+T,i+T} = a_{n,i} for the requested T."""


class TailNotCertified(RuntimeError):
    """A kernel sum cannot be certified to the requested tolerance: the
    outer cut's term cap was reached first, or a separable recursion's
    round-off bound exceeds it."""


def _constant(n, value: float):
    """``value`` in the shape of ``n``: a scalar for one index, an array
    for an array of them."""
    return np.full(np.shape(n), value)[()]


def _check_window(values: np.ndarray, start: int, rows: int, past: int):
    """Reject a drive request the value array cannot serve."""
    need = max(start + rows, past)
    if past < 1 or start < 0 or len(values) < need:
        raise ValueError(f"drives of {rows} rows from entry {start}, the "
                         f"past repeating {past}, need {need} values")


def check_settings(obj, positive=(), counts=()) -> None:
    """Refuse, naming it, a field of ``obj`` in ``positive`` that is not
    finite and positive, or in ``counts`` that is not an integer >= 1."""
    for name in positive + counts:
        value = getattr(obj, name)
        if name in positive and not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")
        if name in counts and (isinstance(value, bool) or not (
                isinstance(value, (int, np.integer)) and value >= 1)):
            raise ValueError(f"{name} must be an integer >= 1")


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite sums are certified: every kernel drive to within
    ``tail_tol``, and the tail map's outer sum cut where its certified
    tail is at most tail_tol / 2, never past ``max_terms`` terms."""

    tail_tol: float = 1e-10
    max_terms: int = 100_000

    def __post_init__(self):
        check_settings(self, ("tail_tol",), ("max_terms",))


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
        return float(self.coef * np.exp(self.row_rate * i - self.col_rate * n))

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

    def drive_error(self, n, bound: float):
        """Round-off bound of ``drives`` at row n (one row or an array of
        them) over values bounded by ``bound``, before the rounding of the
        result to double.

        With u the long double unit round-off, lam = e^{-row_rate} and
        S = bound / (1 - lam) the bound on |s|, each recursion step errs by
        at most 4u S (lam carries 2u, the product and the sum u each), and
        the error decays by lam per step: 4u S / (1 - lam) in all.  The
        closed-form seed adds as much again plus 4u S, and the scale
        coef e^{d n}, d = row_rate - col_rate, with its product
        (2 |d| n + 4) u relative.  With one more u per term for the
        second-order terms, the bound is |coef| e^{d n} S u
        (9 / (1 - lam) + 2 |d| n + 9): it grows as 1 / (1 - lam)^2.
        """
        if not (bound >= 0.0 and math.isfinite(bound)):
            raise ValueError("bound must be finite and nonnegative")
        if self.coef == 0.0 or bound == 0.0:
            return _constant(n, 0.0)
        gap = -math.expm1(-self.row_rate)
        spread = abs(self.row_rate - self.col_rate)
        with np.errstate(over="ignore"):
            return (LONG_DOUBLE_UNIT * bound * self.abs_row_sum(n)
                    * (9.0 / gap + 2.0 * spread * np.asarray(n) + 9.0))

    def drives(self, values: np.ndarray, start: int, rows: int, past: int,
               bound: float, tol: float) -> Iterator[float]:
        """The row sums sum_{m<=n} a_{n,m} * phi_m at n = 0..rows-1, in turn,
        as Python floats.

        ``values[k]`` holds phi at m = k - start, and the values before
        values[0] repeat values[:past].  Entries are read, through a
        memoryview of the array, as the iterator advances, so a march may
        fill in values[start + n] before asking for row n; only
        values[:max(past, start)] must be in place at the first step.
        ``bound`` bounds every |phi|.  The first step raises, before any
        row is summed, TailNotCertified where ``drive_error`` exceeds
        ``tol`` and ValueError where the values are too few.
        """
        _check_window(values, start, rows, past)
        error = self.drive_error(np.arange(rows), bound)
        over = np.flatnonzero(error > tol)
        if len(over):
            raise TailNotCertified(
                f"round-off bound {error[over[0]]:.3e} of the kernel "
                f"recursion > {tol:.3e} at row {over[0]}")
        rate = np.longdouble(self.row_rate)
        # A memoryview reads each entry as a Python float, which a long
        # double sum takes exactly as it takes a float64, and reads it when
        # indexed, so the march's later writes are seen.
        read = memoryview(values)
        # The state just before values[0]: sum_{r<past} decay^(past-1-r)
        # values[r] / (1 - decay^past), the closed-form periodic past.
        decay, s = np.exp(-rate), np.longdouble(0.0)
        for value in read[:past]:
            s = decay * s + value
        s /= -np.expm1(-rate * past)
        for value in read[:start]:
            s = decay * s + value
        scales = self.coef * np.exp((rate - self.col_rate)
                                    * np.arange(rows, dtype=np.longdouble))
        for k, scale in zip(count(start), scales):
            s = decay * s + read[k]
            yield float(scale * s)

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

    def abs_row_sum(self, i):
        """sum_{m<=i} |a_{i,m}|, for one row or an array of rows."""
        sums = [sum(abs(w) for w in row) for row in self.weights]
        return np.array(sums)[np.asarray(i) % self.lag_period]

    def double_tail(self, n):
        """0 for an all-zero kernel, else +inf, for one n or an array."""
        zero = all(w == 0.0 for row in self.weights for w in row)
        return _constant(n, 0.0 if zero else math.inf)

    def drives(self, values: np.ndarray, start: int, rows: int, past: int,
               bound: float, tol: float) -> Iterator[float]:
        """The row sums sum_{m<=n} a_{n,m} * phi_m at n = 0..rows-1 as by
        ``SeparableExponential.drives``, each the dot product
        (``ndarray.dot``, the BLAS ddot of ``@`` without its dispatch) of
        its weight row with its L+1 values, read when the row is summed:
        with no memory and no tail, ``bound`` and ``tol`` certify nothing
        here."""
        _check_window(values, start, rows, past)
        lags = self.max_lag
        weight_rows = cycle(list(
            np.ascontiguousarray(np.array(self.weights)[:, ::-1])))
        before = values[np.arange(-lags, 0) % past]  # entries -L..-1
        for k, weights in zip(range(start, min(start + rows, lags)),
                              weight_rows):
            yield float(weights.dot(np.concatenate([before[k:],
                                                     values[:k + 1]])))
        if start + rows > lags:
            # views: each window reads values[k - L..k] when its row is summed
            windows = sliding_window_view(values, lags + 1)
            for window, weights in zip(
                    windows[max(start - lags, 0):start + rows - lags],
                    weight_rows):
                yield float(weights.dot(window))

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
        lags = np.zeros((self.lag_period, width))
        lags[:, :self.max_lag + 1] = self.weights
        folded = lags.reshape(self.lag_period, -1, period).sum(axis=1)
        return folded[np.arange(period) % self.lag_period]


Kernel = Union[SeparableExponential, FiniteLag]
