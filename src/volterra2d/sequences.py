"""Integer-indexed sequence primitives: periodic sequences, initial histories,
and the running-product conventions the rest of the library is built on."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Tuple

import numpy as np


class PeriodProductIsOne(ValueError):
    """Full-period product of (1 + values) is 1; the cycle gain is undefined."""


class PeriodProductNotOne(ValueError):
    """Full-period product of (1 + values) differs from 1; the reciprocal
    running products are not periodic."""


class ZeroFactor(ValueError):
    """Some factor 1 + value is exactly zero; reciprocals are undefined."""


#: |product - 1| at or below this counts as "product equals one".
PRODUCT_ONE_TOL = 1e-9


@dataclass(frozen=True)
class PeriodicSequence:
    """A period-T real sequence extended to all integers by wraparound.

    Slot k of ``values`` holds the value taken at every integer n with
    n mod T == k; the modulus is mathematical, so negative indices wrap
    the same way (get(-1) reads slot T-1).
    """

    period: int
    values: Tuple[float, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        try:
            vals = tuple(map(float, self.values))
        except OverflowError:  # an integer beyond double range
            raise ValueError("values must all be finite") from None
        if len(vals) != self.period:
            raise ValueError(
                f"expected {self.period} values, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            raise ValueError("values must all be finite")
        object.__setattr__(self, "values", vals)

    def get(self, n: int) -> float:
        return self.values[n % self.period]

    def take(self, n: np.ndarray) -> np.ndarray:
        """``get`` at every integer of the array ``n``."""
        return np.array(self.values)[n % self.period]

    def full_period_product_one_plus(self) -> float:
        """prod over one period of (1 + value)."""
        return math.prod(1.0 + v for v in self.values)


def running_products(seq: PeriodicSequence) -> np.ndarray:
    """T x T table prods[n, j] = prod_{l=n+j+1}^{n+T-1} (1 + seq_l): the
    product carried from step n + j to the end of the period starting at n
    (1 in the last column).  Each row is a reversed cumulative product of
    factors gathered by one index table, so zero factors stay exact zeros."""
    T = seq.period
    factors = 1.0 + np.array((*seq.values, 0.0))  # the empty product at T
    lag = np.arange(T)
    windows = np.where(lag, (lag[:, None] - lag) % T, T)  # factor n - j
    return np.multiply.accumulate(factors[windows], axis=1)[:, ::-1]


def cycle_gain(seq: PeriodicSequence) -> float:
    """1 / (1 - prod(1 + seq_l)); the factor that turns one-period weighted
    sums into fixed-point values of the periodic cycle map.

    Raises PeriodProductIsOne when the full-period product is within
    PRODUCT_ONE_TOL of 1 (the asymptotic regime).
    """
    prod = seq.full_period_product_one_plus()
    if abs(prod - 1.0) <= PRODUCT_ONE_TOL:
        raise PeriodProductIsOne(
            f"full-period product {prod!r} is 1 within {PRODUCT_ONE_TOL}")
    return 1.0 / (1.0 - prod)


def reciprocal_growth(seq: PeriodicSequence) -> PeriodicSequence:
    """Reciprocal running products r_n = prod_{j=0}^{n-1} 1/(1 + seq_j),
    returned as a PeriodicSequence.

    Periodicity needs the full-period product of (1 + seq_j) to equal 1;
    otherwise PeriodProductNotOne is raised.  A factor 1 + seq_j == 0
    raises ZeroFactor.  Slot n mod T holds r_n, so slot 0 carries
    r_0 = r_T = 1.
    """
    for v in seq.values:
        if 1.0 + v == 0.0:
            raise ZeroFactor("1 + value is zero; reciprocal undefined")
    prod = seq.full_period_product_one_plus()
    if abs(prod - 1.0) > PRODUCT_ONE_TOL:
        raise PeriodProductNotOne(
            f"full-period product {prod!r} differs from 1 "
            f"by more than {PRODUCT_ONE_TOL}")
    out = [1.0] * seq.period  # slot 0 is r_0 = r_T = 1
    running = 1.0
    for n in range(1, seq.period):
        running /= 1.0 + seq.get(n - 1)
        out[n] = running
    return PeriodicSequence(seq.period, tuple(out))


@dataclass(frozen=True)
class History:
    """Initial data on the nonpositive integers: an explicit window of
    (x, y) pairs for n = -H..0 plus a tail rule for n < -H.

    ``window[j]`` holds the pair at n = j - H (the last entry is n = 0).
    ``tail`` is None for the zero tail or a constant (x, y) pair.  Both
    tail rules keep the history bounded, as the solution theory requires.
    """

    window: Tuple[Tuple[float, float], ...]
    tail: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        try:
            win = tuple((float(a), float(b)) for a, b in self.window)
        except OverflowError:  # an integer beyond double range
            raise ValueError("history window values must be finite") from None
        if not win:
            raise ValueError("history window must contain the value at n = 0")
        if not all(map(math.isfinite, chain.from_iterable(win))):
            raise ValueError("history window values must be finite")
        if self.tail is not None:
            try:
                t = (float(self.tail[0]), float(self.tail[1]))
            except OverflowError:
                raise ValueError("constant tail values must be finite"
                                 ) from None
            if not all(map(math.isfinite, t)):
                raise ValueError("constant tail values must be finite")
            object.__setattr__(self, "tail", t)
        object.__setattr__(self, "window", win)

    @classmethod
    def zero(cls) -> "History":
        return cls(((0.0, 0.0),), None)

    @property
    def depth(self) -> int:
        """H: the window covers n = -H..0."""
        return len(self.window) - 1

    @property
    def is_zero(self) -> bool:
        """Every value on n <= 0 is zero, the tail's included."""
        return not any(v for pair in (*self.window, self.tail or (0.0, 0.0))
                       for v in pair)

    def value_at(self, n: int) -> Tuple[float, float]:
        if n > 0:
            raise ValueError(f"history is defined for n <= 0 only, got {n}")
        if n >= -self.depth:
            return self.window[n + self.depth]
        return self.tail if self.tail is not None else (0.0, 0.0)


@dataclass(frozen=True)
class Trajectory:
    """Forward solution values on n = 0..len-1, marched from a history
    that the caller keeps.  ``tail_tolerance_used`` is the tolerance every
    infinite sum is certified to (its round-off bound).  The recurrence
    defects of its steps are ``simulate.defects`` on its values, preceded
    by the history's from n = -H-1 on."""

    x: Tuple[float, ...]
    y: Tuple[float, ...]
    tail_tolerance_used: float

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        object.__setattr__(self, "x", tuple(map(float, self.x)))
        object.__setattr__(self, "y", tuple(map(float, self.y)))

    def __len__(self) -> int:
        return len(self.x)
