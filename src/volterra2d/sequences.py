"""Integer-indexed sequence primitives: periodic sequences, initial histories,
and the running-product conventions the rest of the library is built on;
and the rules every value object checks its fields by, each refusal a
ConfigError that names the field."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np


class ConfigError(ValueError):
    """A value that breaks the rule of its field.  ``field`` names it,
    relative to the value object that refused it (``coef``, ``[1]``,
    ``window[0]``, ``tail.y``), or under its path in a config document
    (``kernel_a.coef``, ``h[1]``); ``rule`` says what it breaks.  The
    message is "field: rule"."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field}: {rule}" if field else rule)
        self.field, self.rule = field, rule


class PeriodProductIsOne(ValueError):
    """Full-period product of (1 + values) is 1; the cycle gain is undefined."""


class PeriodProductNotOne(ValueError):
    """Full-period product of (1 + values) differs from 1; the reciprocal
    running products are not periodic."""


class ZeroFactor(ValueError):
    """Some factor 1 + value is exactly zero; reciprocals are undefined."""


#: |product - 1| at or below this counts as "product equals one".
PRODUCT_ONE_TOL = 1e-9

#: What a field of numbers may be given as.
_SEQUENCES = (list, tuple, np.ndarray)
#: The types a list of numbers converts in C with no check of each entry.
_PLAIN_NUMBERS = frozenset({float, int, np.float64})


def _finite(value: Any, field: str) -> float:
    """``value`` as a finite float.  A bool or a string is not a number,
    and an integer beyond double range is refused as not finite, without
    its digits."""
    if value.__class__ is float and value - value == 0.0:
        return value
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(field, "must be finite, got an integer beyond "
                                 "double range") from None
    if not math.isfinite(out):
        raise ConfigError(field, f"must be finite, got {value!r}")
    return out


def _integer(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(field, "expected an integer")
    return int(value)


def _refuse_unless(ok: bool, out: Any, field: str, rule: str) -> Any:
    """``out``, or a refusal of it as not ``rule``."""
    if not ok:
        raise ConfigError(field, f"must be {rule}, got {out!r}")
    return out


def _above_zero(value: Any, field: str) -> float:
    out = _finite(value, field)
    return _refuse_unless(out > 0.0, out, field, "positive")


def _at_least_one(value: Any, field: str) -> int:
    if value.__class__ is int and value >= 1:
        return value
    out = _integer(value, field)
    return _refuse_unless(out >= 1, out, field, "at least 1")


def _unit_fraction(value: Any, field: str) -> float:
    out = _finite(value, field)
    return _refuse_unless(0.0 < out <= 1.0, out, field, "in (0, 1]")


def _finite_list(values: Any, field: str = "") -> Tuple[float, ...]:
    """The entries of the list ``values`` as finite floats: one C-level
    pass each for their types, their conversion and their finiteness, or,
    where those refuse, ``_finite`` on each entry in turn, which refuses
    the first bad one as ``field[j]``."""
    if set(map(type, values)) <= _PLAIN_NUMBERS:
        try:
            out = tuple(map(float, values))
        except OverflowError:  # an integer beyond double range, named below
            pass
        else:
            if all(map(math.isfinite, out)):
                return out
    return tuple(_finite(v, f"{field}[{j}]") for j, v in enumerate(values))


def _pair(value: Any, field: str, rule: str) -> Any:
    """``value``, a list of two entries, or a refusal of it as not one."""
    if not isinstance(value, _SEQUENCES) or len(value) != 2:
        raise ConfigError(field, rule)
    return value


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
        period = _at_least_one(self.period, "period")
        if not isinstance(self.values, _SEQUENCES):
            raise ConfigError("", "expected a list of numbers")
        vals = _finite_list(self.values)
        if len(vals) != period:
            raise ConfigError("", f"expected {period} entries to match "
                                  f"period, got {len(vals)}")
        object.__setattr__(self, "period", period)
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
        window = self.window
        if not isinstance(window, _SEQUENCES) or not len(window):
            raise ConfigError("window", "expected a nonempty list of pairs")
        object.__setattr__(self, "window", tuple(
            _finite_list(_pair(pair, f"window[{j}]", "expected a pair [x, y]"),
                         f"window[{j}]") for j, pair in enumerate(window)))
        if self.tail is not None:
            x, y = _pair(self.tail, "tail", "expected None or a pair (x, y)")
            object.__setattr__(self, "tail", (_finite(x, "tail.x"),
                                              _finite(y, "tail.y")))

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
