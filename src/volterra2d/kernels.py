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
  round-off bound: row by row by ``drives``, for a march, and all rows at
  once by ``drive_array``, through ``first_order_filter``, for given
  values.  Where row_rate == col_rate every scale is coef.
* ``FiniteLag``: a_{n,i} = weights[n mod P][n - i] for lags 0..L, else 0.
  All sums are finite, so tails are exactly zero and each drive is the dot
  product (``ndarray.dot``) of its weight row with its L+1 values.

Anything else would lack computable tail bounds, which every certified
number in this library relies on.

A march primes each kernel's ``drives`` coroutine with the values before
row 0 and sends it each row's phi_n; ``drive_array`` takes them all.

``first_order_filter`` is the one vectorised form of the recursion
S[n] = lam S[n-1] + phi_n: the separable drives of ``drive_array``, the
tail map's filter and its backward U recursion all run through it, or
through its two parts, ``filter_factors`` and ``scaled_prefix_sum``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from typing import Generator, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Unit round-off of the long double the separable recursion runs in.
LONG_DOUBLE_UNIT = float(np.finfo(np.longdouble).eps) / 2.0
#: Each segment of a first-order filter spans at most this much decay,
#: rate * (length - 1): the factors e^{rate j} it scales by stay below
#: e^512 ~ 1e222, and their reciprocals stay normal.
SEGMENT_EXPONENT = 512.0


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


def _check_history(values: np.ndarray):
    """Reject a march's drive that has no value before row 0."""
    if not len(values):
        raise ValueError("a march's drives need a value before row 0")


def _spare_bits(dtype) -> int:
    """How many significand bits ``dtype`` holds beyond a double's."""
    return int(np.finfo(dtype).nmant) - 52


def _segment(top: float, width: int, spare: int = 0) -> int:
    """The segment length of a filter of ``width`` entries whose fastest
    rate is ``top``: all of them, or as many as span SEGMENT_EXPONENT;
    and in a dtype of ``spare`` > 0 more significand bits than a double,
    at most 2^spare, so that each offset rate * j of a double rate is
    exact."""
    span = (max(width, 1) if top * (width - 1) <= SEGMENT_EXPONENT
            else int(SEGMENT_EXPONENT // top) + 1)
    return min(span, 2 ** spare) if spare > 0 else span


def filter_factors(rate, width: int):
    """(segment, grow, shrink, carry) of the first-order filter over
    ``width`` entries at ``rate`` (a scalar, or one rate per row), in the
    dtype of ``rate``: the segment length (the fastest rate's), lam^{-j}
    and lam^j with j each entry's offset in its segment, and
    lam^segment, with lam = e^{-rate}."""
    rate = np.asarray(rate)
    segment = _segment(float(rate.max() if rate.ndim else rate), width,
                       _spare_bits(rate.dtype))
    j = np.arange(width)
    if segment < width:
        j %= segment
    offset = rate[..., None] * j
    return (segment, np.exp(offset), np.exp(-offset),
            np.exp(-rate * segment)[..., None])


def scaled_prefix_sum(scaled: np.ndarray, segment: int,
                      carry: np.ndarray) -> None:
    """In place along the last axis: turn lam^{-j} phi_n (j the offset of
    entry n in its segment, as ``filter_factors`` gives it) into
    lam^{-j} S[n] with S[n] = lam S[n-1] + phi_n.  Each segment is one
    cumulative sum, and S is carried across each segment's end: lam
    S[start - 1] is ``carry`` times the last entry before it."""
    width = scaled.shape[-1]
    for start in range(0, width, segment):
        part = scaled[..., start:start + segment]
        np.add.accumulate(part, axis=-1, out=part)
        if start:  # lam S[start - 1], at a full segment's last entry
            part += carry * scaled[..., start - 1:start]


def first_order_filter(terms: np.ndarray, rate: float,
                       seed: float = 0.0) -> np.ndarray:
    """S[n] = lam S[n-1] + terms[n] at n = 0..len-1 from S[-1] = ``seed``,
    lam = e^{-rate} > 0, in the dtype of ``terms``: the segmented scaled
    prefix sum of ``scaled_prefix_sum``, in O(len) time.  Its round-off
    is bounded by ``filter_error``."""
    rate = np.asarray(rate, dtype=terms.dtype)
    segment, grow, shrink, carry = filter_factors(rate, len(terms))
    s = terms * grow
    if len(s):
        s[0] += np.exp(-rate) * seed  # lam^{-0} lam^{0+1} seed
    scaled_prefix_sum(s, segment, carry)
    s *= shrink
    return s


def filter_error(rate: float, length: int, dtype) -> float:
    """A bound on the round-off of ``first_order_filter`` in ``dtype`` over
    ``length`` entries at a double ``rate``, per unit of a bound B on
    every |terms[m]| that reaches S[n], the seed counting as the terms
    before entry 0 that it sums (|seed| <= B / (1 - lam)):
    |S^[n] - S[n]| <= filter_error * B.  With u the unit round-off, every
    |S[k]| is at most B / (1 - lam), and:

    * Summation.  A recursive sum errs by at most u times the sum of its
      partial sums (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 2002, sec. 4.2).  Each scaled partial sum
      lam^{-j} S[k] is rounded once by the cumulative sum, and once more
      where a carry is added, and its error reaches S[n] times
      lam^{n-k}: at most (1 or 2) u nu B / (1 - lam), nu = min(length,
      1 / (1 - lam)), over 1 - 2 nu u for the higher orders.
    * Factors.  A term meets lam^{-j} and lam^j, each an exp of the
      offset rate * j, and a product with each: 2 e + 2 u of its weight,
      exp taken as correct to e = 1 ulp (2 u) in a dtype wider than a
      double (long double, where numpy calls the C library's expl) and to
      4 ulps otherwise (double, where numpy may use its own vectorised
      exp); the seed's lam as much.  Where ``dtype`` has no spare bits
      (``_segment``), the offsets of a segment of l entries are rounded:
      2 rate l u more.
    * Carries.  Each segment end a term crosses adds the carry factor's
      exp and product, e + u (plus rate l u for a rounded offset), to its
      weight; a term n - m entries back crosses at most (n - m) / l + 1
      ends, which weigh (1 + 1 / (l (1 - lam))) B / (1 - lam) in all.
    """
    unit, spare = float(np.finfo(dtype).eps) / 2.0, _spare_bits(dtype)
    exp_units = 2.0 if spare > 0 else 8.0
    gap = -math.expm1(-rate)
    span = _segment(rate, length, spare)
    segmented = span < length
    rounded = 0.0 if spare > 0 else rate * span
    nu = min(length, 1.0 / gap)
    summed = (2.0 if segmented else 1.0) * nu / (1.0 - 2.0 * nu * unit)
    carries = ((exp_units + 1.0 + rounded) * (1.0 + 1.0 / (span * gap))
               if segmented else 0.0)
    return unit / gap * (summed + 2.0 * exp_units + 2.0 + 2.0 * rounded
                         + carries)


def is_finite(value) -> bool:
    """math.isfinite, and False for an integer beyond double range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _exp_positive(x: float) -> float:
    """e^max(x, 0), inf where that overflows a double."""
    return math.exp(max(x, 0.0)) if x < 709.0 else math.inf


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
            if not is_finite(getattr(self, name)):
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

        It covers the march's stepwise recursion, row by row, so a refusal
        names the row; ``drive_array_error`` covers the segmented filter,
        and neither is proved to cover the other's evaluation order.
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

    def drives(self, values: np.ndarray, rows: int, bound: float,
               tol: float) -> Generator[float, float, None]:
        """The row sums sum_{m<=n} a_{n,m} * phi_m at n = 0..rows-1, in turn,
        as Python floats, for a march.

        ``values`` holds phi before row 0, in order, and values[0] stands
        for every value before them.  ``next`` primes the coroutine; each
        ``send(phi_n)`` then returns row n's drive, so a march sends each
        value it has just mapped.  ``bound`` bounds every |phi|.  Priming
        raises, before any row is summed, TailNotCertified where
        ``drive_error`` exceeds ``tol`` at some row (naming the first) and
        ValueError where ``values`` is empty.
        """
        _check_history(values)
        error = self.drive_error(np.arange(rows), bound)
        over = np.flatnonzero(error > tol)
        if len(over):
            raise TailNotCertified(
                f"round-off bound {error[over[0]]:.3e} of the kernel "
                f"recursion > {tol:.3e} at row {over[0]}")
        rate = np.longdouble(self.row_rate)
        # The state just before values[0]: values[0] / (1 - decay), the
        # closed-form constant past summed from zero as the rest are, each
        # read as a Python float, which a long double sum takes exactly.
        decay, s = np.exp(-rate), np.longdouble(0.0)
        s = (decay * s + values[0]) / -np.expm1(-rate)
        for value in values.tolist():
            s = decay * s + value
        if self.row_rate == self.col_rate:
            # e^{0 n} = 1: every scale is coef, exactly
            scales = repeat(np.longdouble(self.coef), rows)
        else:
            scales = self.coef * np.exp(
                (rate - self.col_rate) * np.arange(rows, dtype=np.longdouble))
        phi = yield
        for scale in scales:
            s = decay * s + phi
            phi = yield float(scale * s)

    def drive_array_error(self, start: int, rows: int, past: int,
                          bound: float) -> float:
        """Round-off bound of ``drive_array`` over ``rows`` rows from entry
        ``start`` on, its filter running over the start + rows values after
        a past repeating ``past`` of them, each bounded by ``bound``, before
        the rounding of the result to double: the largest over the rows,
        one scalar.

        With u the long double unit round-off, lam = e^{-row_rate} and
        d = row_rate - col_rate, row n is coef e^{d n} S[n] with every
        |S| at most bound / (1 - lam).  Three parts err, each at its own
        largest row:

        * the filter, by ``filter_error`` times bound, under the largest
          scale |coef| e^{d n};
        * the closed-form seed, ``past`` terms each weighed by an exp and a
          product, summed and divided by an expm1, by (past + 6) u
          bound / (1 - lam); it reaches row n times e^{d n} lam^{n+1},
          which is largest at n = 0 or n = rows - 1;
        * the scale e^{d n} and its two products, by (2 |d| n + 4) u
          relative (d and d n rounded, exp correct to 1 ulp): where d <= 0
          e^{d n} (2 |d| n + 4) is at most 2 / e + 4.

        4 u more cover the higher orders.  It covers the filter, with a
        periodic past and a ``start``, and not the march's recursion,
        which ``drive_error`` covers: neither is proved to cover the other's
        evaluation order."""
        if not (bound >= 0.0 and math.isfinite(bound)):
            raise ValueError("bound must be finite and nonnegative")
        if self.coef == 0.0 or bound == 0.0:
            return 0.0
        spread = self.row_rate - self.col_rate
        last = max(rows - 1, 0)
        peak = _exp_positive(spread * last)  # the largest e^{d n}
        if spread > 0.0:
            scale = peak * (2.0 * spread * last + 8.0)
        else:
            scale = 2.0 / math.e + 8.0
        seed = (math.exp(-self.row_rate) * (past + 6.0)
                * _exp_positive(-self.col_rate * last))
        return abs(self.coef) * bound * (
            peak * filter_error(self.row_rate, start + rows, np.longdouble)
            + (seed + scale) * LONG_DOUBLE_UNIT
            / -math.expm1(-self.row_rate))

    def drive_array(self, values: np.ndarray, start: int, rows: int,
                    past: int, bound: float, tol: float) -> np.ndarray:
        """The row sums sum_{m<=n} a_{n,m} * phi_m at n = 0..rows-1 as one
        float64 array, for values that are all in place: values[k] holds
        phi at m = k - start, and the values before values[0] repeat
        values[:past].  ``first_order_filter`` in long double over
        values[:start + rows], seeded with the closed-form periodic past.
        Raises TailNotCertified where ``drive_array_error`` exceeds
        ``tol`` and ValueError where the values are too few."""
        _check_window(values, start, rows, past)
        length = start + rows
        error = self.drive_array_error(start, rows, past, bound)
        if error > tol:
            raise TailNotCertified(
                f"round-off bound {error:.3e} of the kernel filter > "
                f"{tol:.3e}")
        rate = np.longdouble(self.row_rate)
        terms = values[:max(length, past)].astype(np.longdouble)
        # the state just before values[0]: the closed-form periodic past
        seed = (terms[:past]
                @ np.exp(rate * np.arange(1 - past, 1, dtype=np.longdouble))
                / -np.expm1(-rate * past))
        s = first_order_filter(terms[:length], rate, seed)[start:]
        spread = rate - self.col_rate
        if spread:
            s *= np.exp(spread * np.arange(rows, dtype=np.longdouble))
        s *= self.coef
        return s.astype(float)

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
        try:
            rows = tuple(tuple(map(float, row)) for row in self.weights)
        except OverflowError:  # an integer beyond double range
            raise ValueError("weights must all be finite") from None
        if not rows:
            raise ValueError("weights must have at least one row")
        width = len(rows[0])
        if width < 1 or set(map(len, rows)) != {width}:
            raise ValueError("weight rows must be nonempty and equal length")
        if not all(map(math.isfinite, chain.from_iterable(rows))):
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

    def _reversed_rows(self):
        """Row n mod P of the weights in turn, reversed to dot with the
        window of entries n - L..n, and contiguous."""
        return cycle(list(
            np.ascontiguousarray(np.array(self.weights)[:, ::-1])))

    def drives(self, values: np.ndarray, rows: int, bound: float,
               tol: float) -> Generator[float, float, None]:
        """The drives of a march as ``SeparableExponential.drives`` gives
        them, each the dot product (``ndarray.dot``, the BLAS ddot of ``@``
        without its dispatch) of its weight row with its L+1 values, kept
        in a window array of the coroutine's own: values[0] L times, then
        ``values`` and each sent value.  With no memory and no tail,
        ``bound`` and ``tol`` certify nothing here."""
        _check_history(values)
        lags, given = self.max_lag, len(values)
        own = np.concatenate((np.full(lags, values[0]), values,
                              np.empty(rows)))
        put = memoryview(own)
        # row n's window is entries n - L..n, the last at own[lags + given + n]
        windows = sliding_window_view(own, lags + 1)[given:]
        phi = yield
        for k, window, weights in zip(range(lags + given, len(own)), windows,
                                      self._reversed_rows()):
            put[k] = phi
            phi = yield float(weights.dot(window))

    def drive_array(self, values: np.ndarray, start: int, rows: int,
                    past: int, bound: float, tol: float) -> np.ndarray:
        """The drives of ``drives`` as one float64 array, for values all in
        place as ``SeparableExponential.drive_array`` takes them: each row
        the same dot with its window of the values after the past's last
        L."""
        _check_window(values, start, rows, past)
        lags = self.max_lag
        padded = np.concatenate((values[np.arange(-lags, 0) % past], values))
        windows = sliding_window_view(padded, lags + 1)[start:start + rows]
        return np.array([weights.dot(window) for window, weights
                         in zip(windows, self._reversed_rows())], dtype=float)

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
