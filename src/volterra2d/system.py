"""The full problem statement: coefficient sequences, kernels, a closed
family of nonlinearities with certified bounds, config parsing, and the
hypothesis checkers that route a system to the periodic or asymptotic
solver."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from .kernels import FiniteLag, Kernel, SeparableExponential
from .sequences import (
    PRODUCT_ONE_TOL,
    PeriodicSequence,
    product_one_plus,
    reciprocal_growth,
)


class ConfigError(ValueError):
    """Config document violates the schema; the message carries the field path."""


NONLINEARITY_KINDS = ("sin", "cos", "tanh", "rational_bounded")


@dataclass(frozen=True)
class Nonlinearity:
    """One of a closed family of bounded nonlinearities with analytically
    known bounds and Lipschitz constants:

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
        u = self.frequency * np.asarray(x, dtype=float)
        if self.kind == "sin":
            out = self.amplitude * np.sin(u)
        elif self.kind == "cos":
            out = self.amplitude * np.cos(u)
        elif self.kind == "tanh":
            out = self.amplitude * np.tanh(u)
        else:
            out = self.amplitude * u / (1.0 + u * u)
        return float(out) if np.ndim(out) == 0 else out

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
    best = 0.0
    for n in range(T):
        total = 0.0
        for i in range(n, n + T):
            prod = product_one_plus(seq, i + 1, n + T - 1)
            total += abs(prod) * kernel.abs_row_sum(i)
        best = max(best, abs(gain) * total)
    return best


def check_periodic_hypotheses(spec: SystemSpec) -> CheckReport:
    """Evaluate every hypothesis of the periodic existence theory and
    compute the constants the solver relies on.

    Items, in order: kernel diagonal-periodicity; no factor 1+h_n or 1+p_n
    vanishes; full-period products separated from 1; the cycle gains; the
    weight bounds; and the self-map radius with the theorem route
    (both_bounded, monotone_g, or monotone_f).  Failures are report items,
    never exceptions.
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
    if sep:
        gain_x = 1.0 / (1.0 - prod_h)
        gain_y = 1.0 / (1.0 - prod_p)
        quantities["gain_x"] = gain_x
        quantities["gain_y"] = gain_y
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
    return CheckReport("periodic", passed, tuple(items), quantities, route)


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


def _as_finite_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return out


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


def parse_system(config: Union[str, Dict[str, Any]]) -> SystemSpec:
    """Build a validated SystemSpec from a config document (JSON text or an
    already-decoded object).  Violations raise ConfigError naming the
    offending field path."""
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("top level: expected an object")

    period = _require(config, "period", "")
    if isinstance(period, bool) or not isinstance(period, int) or period < 1:
        raise ConfigError(f"period: expected a positive integer, got {period!r}")

    seqs = {}
    for key in ("h", "p"):
        raw = _require(config, key, "")
        if not isinstance(raw, list):
            raise ConfigError(f"{key}: expected a list of numbers")
        vals = tuple(_as_finite_float(v, f"{key}[{j}]")
                     for j, v in enumerate(raw))
        if len(vals) != period:
            raise ConfigError(
                f"{key}: expected {period} entries to match period, "
                f"got {len(vals)}")
        seqs[key] = PeriodicSequence(period, vals)

    return SystemSpec(
        period=period,
        h=seqs["h"],
        p=seqs["p"],
        kernel_a=_parse_kernel(_require(config, "kernel_a", ""), "kernel_a"),
        kernel_b=_parse_kernel(_require(config, "kernel_b", ""), "kernel_b"),
        f=_parse_nonlinearity(_require(config, "f", ""), "f"),
        g=_parse_nonlinearity(_require(config, "g", ""), "g"),
    )


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
