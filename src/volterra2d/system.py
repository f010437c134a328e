"""The full problem statement: coefficient sequences, kernels, a closed
family of nonlinearities with certified bounds, the hypothesis checkers
that route a system to the periodic or asymptotic solver, and the one
config layer that turns a scenario document into values.  The layer checks
only the document's shape (objects, required and unknown keys, the kernel
type); each value object refuses its own bad fields, and the layer puts
the section path in front of the field a refusal names."""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from ._iteration import SolverOptions
from .kernels import (
    FiniteLag,
    Kernel,
    SeparableExponential,
    TailNotCertified,
    TruncationPolicy,
)
from .sequences import (
    PRODUCT_ONE_TOL,
    ConfigError,
    History,
    PeriodicSequence,
    _at_least_one,
    _finite,
    _integer,
    _refuse_unless,
    cycle_gain,
    reciprocal_growth,
    running_products,
)


NONLINEARITY_KINDS = ("sin", "cos", "tanh", "rational_bounded")

#: Cycle gains 1/(1 - product) larger than this in magnitude pass the
#: periodic check with a conditioning warning: the product is so close to
#: 1 that the cycle map amplifies every error by the gain.
ILL_CONDITIONED_GAIN = 1e6


def _sin(a: float, k: float, x: float) -> float:
    u = k * x
    if math.isfinite(u):
        return a * math.sin(u)
    return a * float(np.sin(u))  # nan at +-inf, where math.sin raises


def _cos(a: float, k: float, x: float) -> float:
    u = k * x
    if math.isfinite(u):
        return a * math.cos(u)
    return a * float(np.cos(u))  # nan at +-inf, where math.cos raises


def _tanh(a: float, k: float, x: float) -> float:
    return a * float(np.tanh(k * x))


def _rational_bounded(a: float, k: float, x):
    u = x * k
    return u * a / (u * u + 1.0)


def _rational_slope(ak: float, k: float, x: np.ndarray) -> np.ndarray:
    # (1 - u^2) / (1 + u^2)^2, written so that huge |u| gives 0
    u = x * k
    w = 1.0 / (u * u + 1.0)
    return (w * 2.0 * w - w) * ak


#: Per kind: A * shape(k*x) for a Python number x, as a Python float,
#: bit for bit the array path's value; the same on a float64 array; and
#: A*k * shape'(k*x) on one.  Each is bound at construction to (A, k), the
#: slope to (A*k, k).  The scalar sin and cos call ``math``: numpy's
#: float64 sin and cos are the C library's (a test checks it bit for
#: bit), which ``math`` calls without the ufunc's dispatch.  ``math``
#: raises at +-inf, so a k*x that is not finite (an overflowed march, or
#: a finite x whose product with k overflows) takes the ufunc and gives
#: its nan, as the array does, though sin and cos are bounded at every
#: finite x.  tanh stays on the ufunc, since ``math.tanh`` differs from
#: numpy's in the last bit; the rational kind is IEEE arithmetic in the
#: array's order.
_FORMULAS = {
    "sin": (_sin, lambda a, k, x: np.sin(x * k) * a,
            lambda ak, k, x: np.cos(x * k) * ak),
    "cos": (_cos, lambda a, k, x: np.cos(x * k) * a,
            lambda ak, k, x: -np.sin(x * k) * ak),
    "tanh": (_tanh, lambda a, k, x: np.tanh(x * k) * a,
             lambda ak, k, x: (1.0 - np.tanh(x * k) ** 2) * ak),
    "rational_bounded": (_rational_bounded, _rational_bounded,
                         _rational_slope)}


@dataclass(frozen=True)
class Nonlinearity:
    """One of a closed family of bounded nonlinearities with analytically
    known bounds, Lipschitz constants and curvatures:

    * sin:               A * sin(k*x)
    * cos:               A * cos(k*x)
    * tanh:              A * tanh(k*x)
    * rational_bounded:  A * k*x / (1 + (k*x)^2)

    A general expression parser could not certify the bound, so the family
    is deliberately closed.

    Calling the nonlinearity takes any number or array, through the array
    formula.  Its bound formulas skip that conversion: ``scalar`` takes a
    Python number and gives a Python float, ``apply`` takes a float64
    array and gives its values, bit for bit those of ``scalar``, and
    ``slope`` the derivative on one (at most ``lipschitz`` in size).
    ``scalar`` takes sin and cos from ``math``, the C library's functions
    that numpy's float64 ufuncs call too, and tanh from numpy, whose tanh
    is not ``math``'s.  Where k*x is not finite (an overflowing k*x of a
    finite x included), sin and cos give the array's nan.
    """

    kind: str
    amplitude: float
    frequency: float

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ConfigError("kind", f"unknown kind {self.kind!r}")
        scalar, array, slope = _FORMULAS[self.kind]
        a = _finite(self.amplitude, "amplitude")
        k = _finite(self.frequency, "frequency")
        object.__setattr__(self, "_a", a)  # the bounds read the floats, so
        object.__setattr__(self, "_k", k)  # an integer field cannot overflow
        object.__setattr__(self, "scalar", functools.partial(scalar, a, k))
        object.__setattr__(self, "apply", functools.partial(array, a, k))
        object.__setattr__(self, "slope", functools.partial(slope, a * k, k))

    def __reduce__(self):  # rebuilt, so the bound formulas never pickle
        return Nonlinearity, (self.kind, self.amplitude, self.frequency)

    def __call__(self, x):
        out = self.apply(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    @property
    def bound(self) -> float:
        """Certified sup of |value| over the reals."""
        if self.kind == "rational_bounded":
            return abs(self._a) / 2.0
        return abs(self._a)

    @property
    def lipschitz(self) -> float:
        """Certified Lipschitz constant (sup of |derivative|)."""
        return abs(self._a * self._k)

    @property
    def curvature(self) -> float:
        """Certified sup of |second derivative|: |A| k^2 times the sup over
        u of |d^2/du^2| of the shape, 1 for sin and cos, 4/(3 sqrt 3) for
        tanh (at tanh u = 1/sqrt 3) and (3 + 2 sqrt 2)/4 for the rational
        kind (at |u| = sqrt 2 - 1)."""
        shape = {"tanh": 4.0 / (3.0 * math.sqrt(3.0)),
                 "rational_bounded": (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
                 }.get(self.kind, 1.0)
        return abs(self._a) * (self._k * self._k) * shape

    @property
    def monotone(self) -> bool:
        """Non-decreasing on all of R with |value(x)| <= value(|x|).

        Only tanh with positive amplitude*frequency qualifies; the rational
        kind satisfies the absolute-value inequality but decreases beyond
        |k*x| = 1, so it cannot be routed through the monotone theorems.
        """
        return self.kind == "tanh" and self._a * self._k > 0.0


@dataclass(frozen=True)
class SystemSpec:
    """Period, coefficient sequences h and p, kernels, and nonlinearities:
    the coupled pair of delay recurrences

        x_{n+1} = (1 + h_n) x_n + sum_{m<=n} a_{n,m} f(y_m)
        y_{n+1} = (1 + p_n) y_n + sum_{m<=n} b_{n,m} g(x_m)
    """

    period: int
    h: PeriodicSequence
    p: PeriodicSequence
    kernel_a: Kernel
    kernel_b: Kernel
    f: Nonlinearity
    g: Nonlinearity

    def __post_init__(self):
        _at_least_one(self.period, "period")
        if self.h.period != self.period or self.p.period != self.period:
            raise ValueError(
                f"h and p must have period {self.period}, got "
                f"{self.h.period} and {self.p.period}")

    @property
    def equations(self) -> Tuple[Tuple[PeriodicSequence, Kernel,
                                       Nonlinearity], ...]:
        """(sequence, kernel, nonlinearity) of each equation: the x
        equation (h, kernel_a, f), whose drive maps y, then the y equation
        (p, kernel_b, g), whose drive maps x."""
        return ((self.h, self.kernel_a, self.f),
                (self.p, self.kernel_b, self.g))


@dataclass(frozen=True)
class GrowthProfile:
    """Reciprocal running products of (1+h) and (1+p) over one period,
    with the extremes of their absolute values (all positive, so the tail
    map's growth factors are bounded both ways)."""

    x: PeriodicSequence
    y: PeriodicSequence
    min_x: float
    max_x: float
    min_y: float
    max_y: float

    @property
    def ratio_x(self) -> float:
        return self.max_x / self.min_x

    @property
    def ratio_y(self) -> float:
        return self.max_y / self.min_y


def decay_envelope(ratio: float, nonlin: Nonlinearity, kernel: Kernel, n):
    """ratio * bound * double_tail(n): the certified bound at n (one index
    or an array of them) on the deviation from the free response of the
    component driven through ``kernel`` and ``nonlin``, with ``ratio`` its
    growth ratio max/min.  A zero nonlinearity bound kills the whole drive,
    so the infinite double tail of a non-summable kernel never multiplies a
    nonzero factor."""
    bound = nonlin.bound
    if bound > 0.0:
        return ratio * bound * kernel.double_tail(n)
    return np.zeros(np.shape(n))[()]


def envelope_cut(ratio: float, nonlin: Nonlinearity, kernel: Kernel,
                 start: int, tol: float, cap: int) -> int:
    """Smallest n in start..start+cap with decay_envelope(n) <= tol, or
    start+cap+1 when there is none.  The envelope is geometric in n, so the
    estimate is the log of tol against its ratio from start to start+1; a
    fix-up through decay_envelope itself then makes it exact despite
    round-off.  An infinite envelope raises TailNotCertified."""
    envelope = functools.partial(decay_envelope, ratio, nonlin, kernel)
    first = envelope(start)
    if not first > tol:
        return start
    if math.isinf(first):
        raise TailNotCertified("decay envelope is infinite: the kernel "
                               "double tail diverges, so no truncation of "
                               "the tail map is certified")
    stop = start + cap + 1
    with np.errstate(divide="ignore"):  # a step ratio of 1 or of inf
        rate = np.log(np.divide(first, envelope(start + 1)))
        steps = np.log(first / tol) / rate
    n = start + int(np.ceil(np.clip(steps, 1.0, cap + 1.0)))
    while n < stop and envelope(n) > tol:  # round-off fix-up, both ways
        n += 1
    while n - 1 > start and not envelope(n - 1) > tol:
        n -= 1
    return n


def default_horizon(spec: SystemSpec, floor: float = 1e-12) -> int:
    """Smallest horizon whose decay envelope is below ``floor``; at least
    four periods.  Raises PeriodProductNotOne outside the unit-product
    regime."""
    prof = growth_profile(spec)
    start, cap = 4 * spec.period, 99_999
    horizon = max(
        envelope_cut(ratio, nonlin, kernel, start, floor, cap)
        for ratio, (_, kernel, nonlin) in zip((prof.ratio_x, prof.ratio_y),
                                              spec.equations))
    if horizon > start + cap:
        raise TailNotCertified("no horizon with envelope below the floor")
    return horizon


def growth_profile(spec: SystemSpec) -> GrowthProfile:
    """Compute the reciprocal growth sequences for both components.

    Raises PeriodProductNotOne outside the unit-product regime and
    ZeroFactor when some 1+h_n or 1+p_n vanishes.
    """
    rx = reciprocal_growth(spec.h)
    ry = reciprocal_growth(spec.p)
    return GrowthProfile(
        rx, ry,
        min(abs(v) for v in rx.values), max(abs(v) for v in rx.values),
        min(abs(v) for v in ry.values), max(abs(v) for v in ry.values))


def amplitude_warnings(c1: float, c2: float) -> Tuple[str, ...]:
    """One warning per asymptote amplitude outside the theory's c > 0."""
    return tuple(f"{name} <= 0: the existence theory assumes positive "
                 "asymptote amplitudes"
                 for name, c in (("c1", c1), ("c2", c2)) if c <= 0.0)


@dataclass(frozen=True)
class CheckItem:
    key: str
    passed: bool
    detail: str
    values: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "passed": self.passed, "detail": self.detail,
                "values": dict(self.values)}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a hypothesis check: per-item pass/fail plus the computed
    quantities (gains, weight bounds, tail masses, self-map radius)."""

    mode: str
    passed: bool
    items: Tuple[CheckItem, ...]
    quantities: Dict[str, float]
    route: Optional[str] = None
    warnings: Tuple[str, ...] = ()

    def item(self, key: str) -> CheckItem:
        for it in self.items:
            if it.key == key:
                return it
        raise KeyError(key)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "items": [it.as_dict() for it in self.items],
            "quantities": dict(self.quantities),
            "route": self.route,
            "warnings": list(self.warnings),
        }


def _weight_bound(gain: float, seq: PeriodicSequence, kernel: Kernel) -> float:
    """max over n of |gain| * sum_{i=n}^{n+T-1} |prod_{l=i+1}^{n+T-1}(1+seq_l)|
    * (absolute row sum of the kernel at i): the constant bounding the
    periodic cycle map componentwise."""
    lag = np.arange(seq.period)
    windows = lag[:, None] + lag  # row n holds row sums n..n+T-1
    totals = (np.abs(running_products(seq))
              * kernel.abs_row_sum(windows)).sum(axis=1)
    return abs(gain) * float(totals.max())


def _nonzero_factors(spec: SystemSpec) -> CheckItem:
    """The item that no factor 1+h_n or 1+p_n vanishes."""
    min_h, min_p = (min(abs(1.0 + v) for v in seq.values)
                    for seq, _, _ in spec.equations)
    return CheckItem(
        "nonzero_factors", min_h > 0.0 and min_p > 0.0,
        "no factor 1+h_n or 1+p_n may vanish",
        {"min_abs_one_plus_h": min_h, "min_abs_one_plus_p": min_p})


def check_periodic_hypotheses(spec: SystemSpec) -> CheckReport:
    """Evaluate every hypothesis of the periodic existence theory and
    compute the constants the solver relies on.

    Items, in order: kernel diagonal-periodicity; no factor 1+h_n or 1+p_n
    vanishes; full-period products separated from 1; the cycle gains; the
    weight bounds; and the self-map radius with the theorem route
    (both_bounded, monotone_g, or monotone_f).  Failures are report items,
    never exceptions.  A cycle gain above ILL_CONDITIONED_GAIN in magnitude
    passes with a warning that names it.
    """
    T = spec.period
    items = []
    quantities: Dict[str, float] = {}

    diag_a = spec.kernel_a.is_diagonal_periodic(T)
    diag_b = spec.kernel_b.is_diagonal_periodic(T)
    items.append(CheckItem(
        "diagonal_periodic_kernels", diag_a and diag_b,
        "kernels must satisfy a_{n+T,i+T} = a_{n,i}",
        {"kernel_a": float(diag_a), "kernel_b": float(diag_b)}))

    items.append(_nonzero_factors(spec))

    prod_h = spec.h.full_period_product_one_plus()
    prod_p = spec.p.full_period_product_one_plus()
    sep = (abs(prod_h - 1.0) > PRODUCT_ONE_TOL
           and abs(prod_p - 1.0) > PRODUCT_ONE_TOL)
    items.append(CheckItem(
        "products_separated_from_one", sep,
        f"|full-period product - 1| must exceed {PRODUCT_ONE_TOL}",
        {"product_h": prod_h, "product_p": prod_p}))
    quantities["product_h"] = prod_h
    quantities["product_p"] = prod_p

    route = None
    warnings: Tuple[str, ...] = ()
    if sep:
        # separated products: cycle_gain cannot raise PeriodProductIsOne
        gain_x, gain_y = (cycle_gain(seq) for seq, _, _ in spec.equations)
        quantities["gain_x"] = gain_x
        quantities["gain_y"] = gain_y
        warnings = tuple(
            f"{name} = {gain:.3g}: the full-period product of 1+{seq} is "
            f"{prod!r}, so the cycle map is ill-conditioned"
            for name, seq, gain, prod in (("gain_x", "h", gain_x, prod_h),
                                          ("gain_y", "p", gain_y, prod_p))
            if abs(gain) > ILL_CONDITIONED_GAIN)
        items.append(CheckItem(
            "gains", math.isfinite(gain_x) and math.isfinite(gain_y),
            "cycle gains 1/(1 - product)",
            {"gain_x": gain_x, "gain_y": gain_y}))

        bound_x, bound_y = (
            _weight_bound(gain, seq, kernel) for gain, (seq, kernel, _)
            in zip((gain_x, gain_y), spec.equations))
        quantities["bound_x"] = bound_x
        quantities["bound_y"] = bound_y
        items.append(CheckItem(
            "weight_bounds", math.isfinite(bound_x) and math.isfinite(bound_y),
            "absolute mass of the cycle map",
            {"bound_x": bound_x, "bound_y": bound_y}))

        w1, w2 = spec.f.bound, spec.g.bound
        if spec.g.monotone:
            route = "monotone_g"
            radius = max(w1 * bound_x, bound_y * spec.g(w1 * bound_x))
        elif spec.f.monotone:
            route = "monotone_f"
            radius = max(w2 * bound_y, bound_x * spec.f(w2 * bound_y))
        else:
            route = "both_bounded"
            radius = max(w1 * bound_x, w2 * bound_y)
        quantities["radius"] = radius
        items.append(CheckItem(
            "self_map_radius", math.isfinite(radius),
            f"route {route}; the cycle map sends the radius ball into itself",
            {"radius": radius}))
    else:
        items.append(CheckItem(
            "gains", False, "requires products separated from one", {}))
        items.append(CheckItem(
            "weight_bounds", False, "requires products separated from one", {}))
        items.append(CheckItem(
            "self_map_radius", False, "requires products separated from one", {}))

    passed = all(it.passed for it in items)
    return CheckReport("periodic", passed, tuple(items), quantities, route,
                       warnings)


def check_asymptotic_hypotheses(spec: SystemSpec, c1: float = 1.0,
                                c2: float = 1.0) -> CheckReport:
    """Evaluate the hypotheses of the asymptotically periodic existence
    theory: full-period products equal to 1, no vanishing factors, finite
    kernel double tails, the reciprocal-growth extremes, and the self-map
    radius.  c1, c2 are the asymptote amplitudes; values <= 0 produce a
    warning (the existence theory assumes positive constants)."""
    items = []
    quantities: Dict[str, float] = {}

    prod_h = spec.h.full_period_product_one_plus()
    prod_p = spec.p.full_period_product_one_plus()
    eq = (abs(prod_h - 1.0) <= PRODUCT_ONE_TOL
          and abs(prod_p - 1.0) <= PRODUCT_ONE_TOL)
    items.append(CheckItem(
        "products_equal_one", eq,
        f"full-period products must equal 1 within {PRODUCT_ONE_TOL}",
        {"product_h": prod_h, "product_p": prod_p}))
    quantities["product_h"] = prod_h
    quantities["product_p"] = prod_p

    factors = _nonzero_factors(spec)
    items.append(factors)

    tail_a = spec.kernel_a.double_tail(0)
    tail_b = spec.kernel_b.double_tail(0)
    quantities["tail_mass_a"] = tail_a
    quantities["tail_mass_b"] = tail_b
    items.append(CheckItem(
        "summable_kernels", math.isfinite(tail_a) and math.isfinite(tail_b),
        "double tail sums of both kernels must be finite",
        {"tail_mass_a": tail_a, "tail_mass_b": tail_b}))

    growth_ok = False
    if eq and factors.passed:
        prof = growth_profile(spec)
        growth_ok = prof.min_x > 0.0 and prof.min_y > 0.0
        extremes = {"min_x": prof.min_x, "max_x": prof.max_x,
                    "min_y": prof.min_y, "max_y": prof.max_y}
        quantities.update({"recip_growth_" + k: v for k, v in extremes.items()})
        items.append(CheckItem(
            "growth_extremes", growth_ok,
            "min/max over a period of the absolute reciprocal growth",
            extremes))
    else:
        items.append(CheckItem(
            "growth_extremes", False,
            "requires unit products and nonvanishing factors", {}))

    if growth_ok and math.isfinite(tail_a) and math.isfinite(tail_b):
        radius = max(
            decay_envelope(ratio, nonlin, kernel, 0) + abs(c) / least
            for (_, kernel, nonlin), ratio, least, c in zip(
                spec.equations, (prof.ratio_x, prof.ratio_y),
                (prof.min_x, prof.min_y), (c1, c2)))
        quantities["radius"] = radius
        items.append(CheckItem(
            "self_map_radius", math.isfinite(radius),
            "the tail map sends the radius ball into itself",
            {"radius": radius}))
    else:
        items.append(CheckItem(
            "self_map_radius", False,
            "requires growth extremes and summable kernels", {}))

    passed = all(it.passed for it in items)
    return CheckReport("asymptotic", passed, tuple(items), quantities,
                       None, amplitude_warnings(c1, c2))


# ---------------------------------------------------------------------------
# config parsing


def _require(obj: Dict[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{path}{key}", "missing required field")
    return obj[key]


def _known(obj: Dict[str, Any], path: str, *keys: str) -> Dict[str, Any]:
    """``obj``, once no key of it lies outside ``keys``; the first that does
    is refused under its field path (``path`` ends in a dot or is empty)."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}{key}", "unknown field")
    return obj


def _section(config: Dict[str, Any], key: str, *keys: str) -> Dict[str, Any]:
    """The optional object ``config[key]``, with no key but ``keys``;
    absent or null reads as {}."""
    obj = config.get(key)
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(key, "expected an object")
    return _known(obj, f"{key}.", *keys)


def _build(path: str, make: Callable[..., Any], *args: Any,
           **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``: a value object read from the section at
    ``path``, whose refusal of a field is named under that path."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        where = exc.field
        if where and not where.startswith("["):
            where = "." + where
        raise ConfigError(path + where, exc.rule) from None


def _fields(obj: Any, path: str, keys: Tuple[str, ...],
            *extra: str) -> Tuple[Any, ...]:
    """The values of the required ``keys`` of the object ``obj`` at
    ``path``, which has no key but those and ``extra``."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    _known(obj, path + ".", *extra, *keys)
    return tuple(_require(obj, key, path + ".") for key in keys)


def _parse_kernel(obj: Any, path: str) -> Kernel:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    kind = _require(obj, "type", path + ".")
    if kind == "separable_exponential":
        make, keys = SeparableExponential, ("coef", "row_rate", "col_rate")
    elif kind == "finite_lag":
        make, keys = FiniteLag, ("weights",)
    else:
        raise ConfigError(f"{path}.type", f"unknown kernel type {kind!r}")
    return _build(path, make, *_fields(obj, path, keys, "type"))


def _document(config: Union[str, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level", "expected an object")
    return config


def parse_system(config: Union[str, Dict[str, Any]]) -> SystemSpec:
    """Build a validated SystemSpec from a config document (JSON text or an
    already-decoded object).  Violations raise ConfigError naming the
    offending field path."""
    config = _document(config)
    period = _at_least_one(_require(config, "period", ""), "period")
    h, p = (_build(key, PeriodicSequence, period, _require(config, key, ""))
            for key in ("h", "p"))
    kernel_a, kernel_b = (_parse_kernel(_require(config, key, ""), key)
                          for key in ("kernel_a", "kernel_b"))
    f, g = (_build(key, Nonlinearity, *_fields(
        _require(config, key, ""), key, ("kind", "amplitude", "frequency")))
        for key in ("f", "g"))
    return SystemSpec(period, h, p, kernel_a, kernel_b, f, g)


@dataclass(frozen=True)
class Scenario:
    """A whole config document, validated: the system, the simulation
    history, the truncation policy, the solver options, the asymptote
    amplitudes and the horizon (None when unset; asymptotic runs then use
    ``default_horizon``)."""

    spec: SystemSpec
    history: History
    policy: TruncationPolicy
    solver: SolverOptions
    c1: float
    c2: float
    horizon: Optional[int]


def _parse_history(obj: Dict[str, Any]) -> History:
    if not obj:  # no section, or an empty one
        return History.zero()
    tail = obj.get("tail")
    if tail == "zero":
        tail = None
    elif tail is not None:
        if not (isinstance(tail, dict) and _known(
                tail, "history.tail.", "x", "y").keys() == {"x", "y"}):
            raise ConfigError(
                "history.tail", 'expected null, "zero", or {"x": .., "y": ..}')
        tail = (tail["x"], tail["y"])
    return _build("history", History, obj.get("window", [[0.0, 0.0]]), tail)


def _parse_solver(obj: Dict[str, Any], period: int) -> SolverOptions:
    settings = dict(obj)
    guess = settings.pop("initial_guess", None)
    if guess == "zero":
        guess = None
    elif guess is not None:
        if not (isinstance(guess, dict) and _known(
                guess, "solver.initial_guess.", "x", "y").keys() == {"x", "y"}):
            raise ConfigError("solver.initial_guess",
                              'expected "zero" or {"x": [..], "y": [..]}')
        guess = tuple(_build(f"solver.initial_guess.{key}", PeriodicSequence,
                             period, guess[key]) for key in ("x", "y"))
    return _build("solver", SolverOptions, initial_guess=guess, **settings)


def max_horizon(policy: TruncationPolicy) -> int:
    """The largest horizon H whose window numpy can size: the tail map
    holds both components of its window 0..N, N <= H + max_terms, as one
    float64 array of 2 (N + 1) entries, and numpy sizes no array of more
    bytes than the largest intp (2^63 - 1 on a 64-bit machine)."""
    return np.iinfo(np.intp).max // 16 - 1 - policy.max_terms


def parse_scenario(config: Union[str, Dict[str, Any]]) -> Scenario:
    """Validate a whole config document at once: the system, then the
    optional ``history``, ``truncation`` and ``solver`` sections, ``c1``,
    ``c2`` (default 1) and ``horizon``.  Violations, unknown keys among
    them, raise ConfigError naming the field path."""
    config = _known(_document(config), "", "period", "h", "p", "kernel_a",
                    "kernel_b", "f", "g", "c1", "c2", "horizon", "history",
                    "solver", "truncation")
    spec = parse_system(config)
    history = _parse_history(_section(config, "history", "window", "tail"))
    policy = _build("truncation", TruncationPolicy, **_section(
        config, "truncation", "tail_tol", "max_terms"))
    solver = _parse_solver(_section(
        config, "solver", "initial_guess", "tol", "residual_tol", "max_iter",
        "damping"), spec.period)
    c1, c2 = (_finite(config.get(key, 1.0), key) for key in ("c1", "c2"))
    horizon = config.get("horizon")
    if horizon is not None:
        # an integer beyond double range is refused as not finite
        horizon = _integer(horizon, "horizon")
        _finite(horizon, "horizon")
        least, most = 4 * spec.period, max_horizon(policy)
        _refuse_unless(horizon >= least, horizon, "horizon",
                       f"at least 4 periods ({least})")
        _refuse_unless(horizon <= most, horizon, "horizon",
                       f"at most {most}, the largest window numpy can size")
    return Scenario(spec, history, policy, solver, c1, c2, horizon)


def _kernel_to_config(kernel: Kernel) -> Dict[str, Any]:
    if isinstance(kernel, SeparableExponential):
        return {"type": "separable_exponential", "coef": kernel.coef,
                "row_rate": kernel.row_rate, "col_rate": kernel.col_rate}
    return {"type": "finite_lag",
            "weights": [list(row) for row in kernel.weights]}


def spec_to_config(spec: SystemSpec) -> Dict[str, Any]:
    """Canonical config echo of a SystemSpec; parse_system inverts it."""
    return {
        "period": spec.period,
        "h": list(spec.h.values),
        "p": list(spec.p.values),
        "kernel_a": _kernel_to_config(spec.kernel_a),
        "kernel_b": _kernel_to_config(spec.kernel_b),
        # a nonlinearity keeps its numbers as given: echo them as floats
        **{key: {"kind": nonlin.kind, "amplitude": float(nonlin.amplitude),
                 "frequency": float(nonlin.frequency)}
           for key, nonlin in (("f", spec.f), ("g", spec.g))},
    }
