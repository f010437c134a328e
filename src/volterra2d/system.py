"""The full problem statement: coefficient sequences, kernels, a closed
family of nonlinearities with certified bounds, the hypothesis checkers
that route a system to the periodic or asymptotic solver, and the one
config layer that turns a scenario document into validated values."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    History,
    PeriodicSequence,
    reciprocal_growth,
    running_products,
)


class ConfigError(ValueError):
    """Config document violates the schema; the message carries the field path."""


NONLINEARITY_KINDS = ("sin", "cos", "tanh", "rational_bounded")

#: Cycle gains 1/(1 - product) larger than this in magnitude pass the
#: periodic check with a conditioning warning: the product is so close to
#: 1 that the cycle map amplifies every error by the gain.
ILL_CONDITIONED_GAIN = 1e6


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
    """

    kind: str
    amplitude: float
    frequency: float

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.frequency)):
            raise ValueError("amplitude and frequency must be finite")

    def __call__(self, x):
        # A Python number stays a float: the same ufunc or IEEE arithmetic
        # as on an array entry, without the cost of a 0-d array.
        scalar = isinstance(x, (float, int))
        u = self.frequency * (float(x) if scalar
                              else np.asarray(x, dtype=float))
        if self.kind == "sin":
            out = self.amplitude * np.sin(u)
        elif self.kind == "cos":
            out = self.amplitude * np.cos(u)
        elif self.kind == "tanh":
            out = self.amplitude * np.tanh(u)
        else:
            out = self.amplitude * u / (1.0 + u * u)
        return float(out) if scalar or np.ndim(out) == 0 else out

    def derivative(self, x):
        """d/dx of the value, entry by entry; |derivative| <= lipschitz."""
        u = self.frequency * np.asarray(x, dtype=float)
        if self.kind == "sin":
            slope = np.cos(u)
        elif self.kind == "cos":
            slope = -np.sin(u)
        elif self.kind == "tanh":
            slope = 1.0 - np.tanh(u) ** 2
        else:
            # (1 - u^2) / (1 + u^2)^2, written so that huge |u| gives 0
            w = 1.0 / (1.0 + u * u)
            slope = 2.0 * w * w - w
        out = self.amplitude * self.frequency * slope
        return float(out) if np.ndim(out) == 0 else out

    @property
    def bound(self) -> float:
        """Certified sup of |value| over the reals."""
        if self.kind == "rational_bounded":
            return abs(self.amplitude) / 2.0
        return abs(self.amplitude)

    @property
    def lipschitz(self) -> float:
        """Certified Lipschitz constant (sup of |derivative|)."""
        return abs(self.amplitude * self.frequency)

    @property
    def curvature(self) -> float:
        """Certified sup of |second derivative|: |A| k^2 times the sup over
        u of |d^2/du^2| of the shape, 1 for sin and cos, 4/(3 sqrt 3) for
        tanh (at tanh u = 1/sqrt 3) and (3 + 2 sqrt 2)/4 for the rational
        kind (at |u| = sqrt 2 - 1)."""
        shape = {"tanh": 4.0 / (3.0 * math.sqrt(3.0)),
                 "rational_bounded": (3.0 + 2.0 * math.sqrt(2.0)) / 4.0
                 }.get(self.kind, 1.0)
        return abs(self.amplitude) * self.frequency ** 2 * shape

    @property
    def monotone(self) -> bool:
        """Non-decreasing on all of R with |value(x)| <= value(|x|).

        Only tanh with positive amplitude*frequency qualifies; the rational
        kind satisfies the absolute-value inequality but decreases beyond
        |k*x| = 1, so it cannot be routed through the monotone theorems.
        """
        return self.kind == "tanh" and self.amplitude * self.frequency > 0.0


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
        if self.period < 1:
            raise ValueError("period must be a positive integer")
        if self.h.period != self.period or self.p.period != self.period:
            raise ValueError(
                f"h and p must have period {self.period}, got "
                f"{self.h.period} and {self.p.period}")


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


def decay_envelope(ratio: float, nonlin: Nonlinearity, kernel: Kernel,
                   n: int) -> float:
    """ratio * bound * double_tail(n): the certified bound at n on the
    deviation from the free response of the component driven through
    ``kernel`` and ``nonlin``, with ``ratio`` its growth ratio max/min.  A
    zero nonlinearity bound kills the whole drive, so the infinite double
    tail of a non-summable kernel never multiplies a nonzero factor."""
    bound = nonlin.bound
    return ratio * bound * kernel.double_tail(n) if bound > 0.0 else 0.0


def default_horizon(spec: SystemSpec, floor: float = 1e-12) -> int:
    """Smallest horizon whose decay envelope is below ``floor``; at least
    four periods.  Raises PeriodProductNotOne outside the unit-product
    regime."""
    prof = growth_profile(spec)
    n = 4 * spec.period
    limit = n + 100_000
    while n < limit:
        env_x = decay_envelope(prof.ratio_x, spec.f, spec.kernel_a, n)
        env_y = decay_envelope(prof.ratio_y, spec.g, spec.kernel_b, n)
        if env_x <= floor and env_y <= floor:
            return n
        if math.isinf(env_x) or math.isinf(env_y):
            raise TailNotCertified(
                "decay envelope is infinite; pick the horizon explicitly")
        n += 1
    raise TailNotCertified("no horizon with envelope below the floor")


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
    T = seq.period
    row_sums = np.array([kernel.abs_row_sum(i) for i in range(2 * T - 1)])
    totals = np.sum(np.abs(running_products(seq))
                    * sliding_window_view(row_sums, T), axis=1)
    return abs(gain) * float(np.max(totals))


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

    min_h = min(abs(1.0 + v) for v in spec.h.values)
    min_p = min(abs(1.0 + v) for v in spec.p.values)
    items.append(CheckItem(
        "nonzero_factors", min_h > 0.0 and min_p > 0.0,
        "no factor 1+h_n or 1+p_n may vanish",
        {"min_abs_one_plus_h": min_h, "min_abs_one_plus_p": min_p}))

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
        gain_x = 1.0 / (1.0 - prod_h)
        gain_y = 1.0 / (1.0 - prod_p)
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

        bound_x = _weight_bound(gain_x, spec.h, spec.kernel_a)
        bound_y = _weight_bound(gain_y, spec.p, spec.kernel_b)
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

    min_h = min(abs(1.0 + v) for v in spec.h.values)
    min_p = min(abs(1.0 + v) for v in spec.p.values)
    items.append(CheckItem(
        "nonzero_factors", min_h > 0.0 and min_p > 0.0,
        "no factor 1+h_n or 1+p_n may vanish",
        {"min_abs_one_plus_h": min_h, "min_abs_one_plus_p": min_p}))

    tail_a = spec.kernel_a.double_tail(0)
    tail_b = spec.kernel_b.double_tail(0)
    quantities["tail_mass_a"] = tail_a
    quantities["tail_mass_b"] = tail_b
    items.append(CheckItem(
        "summable_kernels", math.isfinite(tail_a) and math.isfinite(tail_b),
        "double tail sums of both kernels must be finite",
        {"tail_mass_a": tail_a, "tail_mass_b": tail_b}))

    growth_ok = False
    if eq and min_h > 0.0 and min_p > 0.0:
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
            decay_envelope(prof.ratio_x, spec.f, spec.kernel_a, 0)
            + abs(c1) / prof.min_x,
            decay_envelope(prof.ratio_y, spec.g, spec.kernel_b, 0)
            + abs(c2) / prof.min_y)
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
        raise ConfigError(f"{path}{key}: missing required field")
    return obj[key]


def _section(config: Dict[str, Any], key: str) -> Dict[str, Any]:
    """The optional object ``config[key]``; absent or null reads as {}."""
    obj = config.get(key)
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{key}: expected an object")
    return obj


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _as_finite_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return out


def _override(value: Any, flag: Any, check: Callable[[Any, str], Any],
              name: str) -> Any:
    """A command-line ``flag``, checked under its own ``name``, in place of
    the already validated config ``value``; the value when no flag is set."""
    return value if flag is None else check(flag, name)


def _period_values(raw: Any, path: str, period: int) -> PeriodicSequence:
    """One value per slot of the period, from a list of finite numbers."""
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    vals = tuple(_as_finite_float(v, f"{path}[{j}]") for j, v in enumerate(raw))
    if len(vals) != period:
        raise ConfigError(
            f"{path}: expected {period} entries to match period, "
            f"got {len(vals)}")
    return PeriodicSequence(period, vals)


def _parse_kernel(obj: Any, path: str) -> Kernel:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _require(obj, "type", f"{path}.")
    if kind == "separable_exponential":
        coef = _as_finite_float(_require(obj, "coef", f"{path}."), f"{path}.coef")
        row = _as_finite_float(_require(obj, "row_rate", f"{path}."),
                               f"{path}.row_rate")
        col = _as_finite_float(_require(obj, "col_rate", f"{path}."),
                               f"{path}.col_rate")
        if row <= 0.0:
            raise ConfigError(f"{path}.row_rate: must be positive")
        return SeparableExponential(coef, row, col)
    if kind == "finite_lag":
        rows = _require(obj, "weights", f"{path}.")
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(r, list) and r for r in rows)):
            raise ConfigError(
                f"{path}.weights: expected a nonempty list of nonempty rows")
        parsed = tuple(
            tuple(_as_finite_float(w, f"{path}.weights[{k}][{r}]")
                  for r, w in enumerate(row))
            for k, row in enumerate(rows))
        width = len(parsed[0])
        if any(len(row) != width for row in parsed):
            raise ConfigError(f"{path}.weights: rows must have equal length")
        return FiniteLag(parsed)
    raise ConfigError(f"{path}.type: unknown kernel type {kind!r}")


def _parse_nonlinearity(obj: Any, path: str) -> Nonlinearity:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = _require(obj, "kind", f"{path}.")
    if kind not in NONLINEARITY_KINDS:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    amp = _as_finite_float(_require(obj, "amplitude", f"{path}."),
                           f"{path}.amplitude")
    freq = _as_finite_float(_require(obj, "frequency", f"{path}."),
                            f"{path}.frequency")
    return Nonlinearity(kind, amp, freq)


def _document(config: Union[str, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level: expected an object")
    return config


def parse_system(config: Union[str, Dict[str, Any]]) -> SystemSpec:
    """Build a validated SystemSpec from a config document (JSON text or an
    already-decoded object).  Violations raise ConfigError naming the
    offending field path."""
    config = _document(config)
    period = _as_int(_require(config, "period", ""), "period")
    if period < 1:
        raise ConfigError(f"period: expected a positive integer, got {period!r}")
    return SystemSpec(
        period=period,
        h=_period_values(_require(config, "h", ""), "h", period),
        p=_period_values(_require(config, "p", ""), "p", period),
        kernel_a=_parse_kernel(_require(config, "kernel_a", ""), "kernel_a"),
        kernel_b=_parse_kernel(_require(config, "kernel_b", ""), "kernel_b"),
        f=_parse_nonlinearity(_require(config, "f", ""), "f"),
        g=_parse_nonlinearity(_require(config, "g", ""), "g"),
    )


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
    raw_window = obj.get("window", [[0.0, 0.0]])
    if not isinstance(raw_window, list) or not raw_window:
        raise ConfigError("history.window: expected a nonempty list of pairs")
    window = []
    for j, pair in enumerate(raw_window):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"history.window[{j}]: expected a pair [x, y]")
        window.append((_as_finite_float(pair[0], f"history.window[{j}][0]"),
                       _as_finite_float(pair[1], f"history.window[{j}][1]")))
    tail = obj.get("tail")
    if tail in (None, "zero"):
        parsed_tail = None
    elif isinstance(tail, dict) and "x" in tail and "y" in tail:
        parsed_tail = (_as_finite_float(tail["x"], "history.tail.x"),
                       _as_finite_float(tail["y"], "history.tail.y"))
    else:
        raise ConfigError(
            'history.tail: expected null, "zero", or {"x": .., "y": ..}')
    try:
        return History(tuple(window), parsed_tail)
    except ValueError as exc:
        raise ConfigError(f"history: {exc}") from exc


def _parse_solver(obj: Dict[str, Any], period: int,
                  tol: Optional[float]) -> SolverOptions:
    guess = obj.get("initial_guess")
    parsed_guess = None
    if guess is not None and guess != "zero":
        if (not isinstance(guess, dict)
                or "x" not in guess or "y" not in guess):
            raise ConfigError(
                'solver.initial_guess: expected "zero" or {"x": [..], "y": [..]}')
        parsed_guess = tuple(
            _period_values(guess[key], f"solver.initial_guess.{key}", period)
            for key in ("x", "y"))
    tol = _override(_as_finite_float(obj.get("tol", 1e-12), "solver.tol"),
                    tol, _as_finite_float, "--tol")
    residual_tol = _as_finite_float(obj.get("residual_tol", 1e-8),
                                    "solver.residual_tol")
    max_iter = _as_int(obj.get("max_iter", 200), "solver.max_iter")
    damping = _as_finite_float(obj.get("damping", 0.5), "solver.damping")
    try:
        return SolverOptions(
            tol=tol, residual_tol=residual_tol, max_iter=max_iter,
            damping=damping,
            strategy=obj.get("strategy", "picard_then_newton"),
            initial_guess=parsed_guess)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_truncation(obj: Dict[str, Any],
                      tail_tol: Optional[float]) -> TruncationPolicy:
    tail_tol = _override(_as_finite_float(obj.get("tail_tol", 1e-10),
                                          "truncation.tail_tol"),
                         tail_tol, _as_finite_float, "--tail-tol")
    max_terms = _as_int(obj.get("max_terms", 100_000), "truncation.max_terms")
    try:
        return TruncationPolicy(tail_tol, max_terms)
    except ValueError as exc:
        raise ConfigError(f"truncation: {exc}") from exc


def parse_scenario(config: Union[str, Dict[str, Any]], *,
                   tol: Optional[float] = None,
                   tail_tol: Optional[float] = None,
                   c1: Optional[float] = None, c2: Optional[float] = None,
                   horizon: Optional[int] = None) -> Scenario:
    """Validate a whole config document at once: the system, then the
    optional ``history``, ``truncation`` and ``solver`` sections, ``c1``,
    ``c2`` (default 1) and ``horizon``.  Each keyword, when given, is a
    command-line override of the config value and is validated under its
    flag's name.  Violations raise ConfigError naming the field path."""
    config = _document(config)
    spec = parse_system(config)
    history = _parse_history(_section(config, "history"))
    policy = _parse_truncation(_section(config, "truncation"), tail_tol)
    solver = _parse_solver(_section(config, "solver"), spec.period, tol)
    amplitudes = [_override(_as_finite_float(config.get(key, 1.0), key),
                            flag, _as_finite_float, f"--{key}")
                  for key, flag in (("c1", c1), ("c2", c2))]
    config_horizon = config.get("horizon")
    if config_horizon is not None:
        config_horizon = _as_int(config_horizon, "horizon")
    horizon = _override(config_horizon, horizon, _as_int, "--horizon")
    return Scenario(spec, history, policy, solver, *amplitudes, horizon)


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
        "f": {"kind": spec.f.kind, "amplitude": spec.f.amplitude,
              "frequency": spec.f.frequency},
        "g": {"kind": spec.g.kind, "amplitude": spec.g.amplitude,
              "frequency": spec.g.frequency},
    }
