import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import volterra2d as v
from volterra2d.cli import CSV_HEADER

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def example1_path() -> Path:
    return CONFIG_DIR / "example1.json"


@pytest.fixture(scope="session")
def example2_path() -> Path:
    return CONFIG_DIR / "example2.json"


@pytest.fixture(scope="session")
def example1_spec(example1_path) -> v.SystemSpec:
    return v.parse_system(example1_path.read_text())


@pytest.fixture(scope="session")
def example2_spec(example2_path) -> v.SystemSpec:
    return v.parse_system(example2_path.read_text())


@pytest.fixture(scope="session")
def cosine_spec(example1_spec) -> v.SystemSpec:
    """Variant of the first demo system whose fixed point is away from zero."""
    return v.SystemSpec(
        2, example1_spec.h, example1_spec.p,
        example1_spec.kernel_a, example1_spec.kernel_b,
        v.Nonlinearity("cos", 1.0, 1.0), v.Nonlinearity("cos", 1.0, 2.0))


@pytest.fixture(scope="session")
def zero_amplitude_spec(example1_spec) -> v.SystemSpec:
    return v.SystemSpec(
        2, example1_spec.h, example1_spec.p,
        example1_spec.kernel_a, example1_spec.kernel_b,
        v.Nonlinearity("sin", 0.0, 1.0), v.Nonlinearity("sin", 0.0, 2.0))


def random_nonlinearity(rng, max_amplitude=2.0):
    kind = rng.choice(["sin", "cos", "tanh", "rational_bounded"])
    return v.Nonlinearity(str(kind),
                          float(rng.uniform(-max_amplitude, max_amplitude)),
                          float(rng.uniform(-2.0, 2.0)))


def random_periodic_spec(rng) -> v.SystemSpec:
    """Random diagonal-periodic system that passes the periodic checks:
    factors bounded away from zero, period products bounded away from one."""
    T = int(rng.integers(1, 4))

    def coeffs():
        while True:
            vals = rng.uniform(-0.7, 1.5, T)
            if (min(abs(1.0 + x) for x in vals) > 0.05
                    and abs(np.prod(1.0 + vals) - 1.0) > 0.05):
                return v.PeriodicSequence(T, tuple(float(x) for x in vals))

    def kernel():
        if rng.random() < 0.5:
            rate = float(rng.uniform(0.3, 2.0))
            coef = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
            return v.SeparableExponential(coef, rate, rate)
        lags = int(rng.integers(1, 4))
        weights = tuple(tuple(float(w) for w in rng.uniform(-0.5, 0.5, lags))
                        for _ in range(T))
        return v.FiniteLag(weights)

    return v.SystemSpec(T, coeffs(), coeffs(), kernel(), kernel(),
                        random_nonlinearity(rng), random_nonlinearity(rng))


def random_hard_periodic_spec(rng, period=None, rate=None,
                              gap=None) -> v.SystemSpec:
    """Random diagonal-periodic system in the regimes that are hard to
    certify: periods T up to 32, separable kernels with row rates down to
    0.01, and full-period products within 1e-6 of one.  Arguments left
    None are drawn: T from 1..32, each separable rate log-uniform on
    [0.01, 2] (a kernel is finite-lag with probability 0.3), and each
    |product - 1| log-uniform on [1e-6, 0.3] with a random sign.  g is a
    cos, so zero is not a solution, and both amplitudes are scaled by the
    smaller gap, which keeps the solution near unit size even where the
    cycle gain 1/(1 - product) reaches 1e6."""
    T = int(rng.integers(1, 33)) if period is None else period

    def coeffs():
        size = 10.0 ** rng.uniform(-6.0, math.log10(0.3)) if gap is None \
            else gap
        factors = rng.uniform(0.7, 1.3, T)
        target = 1.0 + size * rng.choice([-1.0, 1.0])
        factors *= (target / np.prod(factors)) ** (1.0 / T)
        return v.PeriodicSequence(T, tuple(float(f - 1.0) for f in factors))

    def kernel():
        if rate is None and rng.random() < 0.3:
            lags = int(rng.integers(1, 4))
            return v.FiniteLag(tuple(
                tuple(float(w) for w in rng.uniform(-0.5, 0.5, lags))
                for _ in range(T)))
        r = 10.0 ** rng.uniform(-2.0, math.log10(2.0)) if rate is None \
            else rate
        coef = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
        return v.SeparableExponential(coef, r, r)

    h, p = coeffs(), coeffs()
    scale = min(1.0, *(abs(seq.full_period_product_one_plus() - 1.0)
                       for seq in (h, p)))
    f = random_nonlinearity(rng)
    return v.SystemSpec(
        T, h, p, kernel(), kernel(),
        v.Nonlinearity(f.kind, f.amplitude * scale, f.frequency),
        v.Nonlinearity("cos", float(rng.uniform(-2.0, 2.0)) * scale,
                       float(rng.uniform(-2.0, 2.0))))


def _shape(kind, u):
    """(value, slope) of a nonlinearity's shape at u, in u's precision."""
    if kind == "sin":
        return np.sin(u), np.cos(u)
    if kind == "cos":
        return np.cos(u), -np.sin(u)
    if kind == "tanh":
        t = np.tanh(u)
        return t, 1 - t * t
    w = 1 / (1 + u * u)
    return u * w, 2 * w * w - w


def _folded_reference(kernel, period):
    """The untruncated kernel folded onto the period in long double:
    entry [n, s] sums a_{n,m} over all m <= n with m = s (mod T), for a
    diagonal-periodic kernel (geometric closed form when separable)."""
    ld = np.longdouble
    n = np.arange(period)
    if isinstance(kernel, v.SeparableExponential):
        rate = ld(kernel.row_rate)
        lag = (n[:, None] - n[None, :]) % period
        return ld(kernel.coef) * np.exp(-rate * lag) / (1 - np.exp(-rate * period))
    folded = np.zeros((period, period), dtype=ld)
    for i in n:
        for k, w in enumerate(kernel.weights[i % kernel.lag_period]):
            folded[i, (i - k) % period] += ld(w)
    return folded


def periodic_reference(spec, z, sweeps=12):
    """Reference T-periodic solution near the stacked period values z:
    iterative refinement of the one-period recurrence with untruncated
    kernels, its residual evaluated in long double (float64 Jacobian
    solves), independent of the library's solvers and verifier."""
    ld = np.longdouble
    T = spec.period
    succ = (np.arange(T) + 1) % T
    blocks = [(slice(0, T), slice(T, 2 * T),
               _folded_reference(spec.kernel_a, T), spec.f, spec.h),
              (slice(T, 2 * T), slice(0, T),
               _folded_reference(spec.kernel_b, T), spec.g, spec.p)]
    z = np.asarray(z, dtype=ld).copy()
    for _ in range(sweeps):
        residual = np.empty(2 * T, dtype=ld)
        jac = np.zeros((2 * T, 2 * T))
        for rows, cols, folded, phi, seq in blocks:
            one_plus = 1 + np.array(seq.values, dtype=ld)
            value, slope = _shape(phi.kind, ld(phi.frequency) * z[cols])
            residual[rows] = (z[rows][succ] - one_plus * z[rows]
                              - folded @ (ld(phi.amplitude) * value))
            jac[rows, rows] = np.eye(T)[succ] - np.diag(one_plus.astype(float))
            jac[rows, cols] = -(folded * (ld(phi.amplitude * phi.frequency)
                                          * slope)).astype(float)
        z -= np.linalg.solve(jac, residual.astype(float)).astype(ld)
    return z, jac


def random_summable_spec(rng) -> v.SystemSpec:
    """Random system in the unit-product regime with summable kernels."""
    T = int(rng.integers(1, 3))

    def coeffs():
        if T == 1:
            return v.PeriodicSequence(1, (0.0,))
        t = float(rng.uniform(0.4, 2.5))
        return v.PeriodicSequence(2, (t - 1.0, 1.0 / t - 1.0))

    def kernel():
        rate = float(rng.uniform(0.3, 1.5))
        gap = float(rng.uniform(0.5, 1.5))
        coef = float(rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]))
        return v.SeparableExponential(coef, rate, rate + gap)

    return v.SystemSpec(T, coeffs(), coeffs(), kernel(), kernel(),
                        random_nonlinearity(rng, 1.5),
                        random_nonlinearity(rng, 1.5))


def central_difference_jacobian(apply_map, z, step=1e-6):
    """Reference Jacobian of F(z) = z - apply_map(z), one column at a time
    by central differences with relative step ``step``."""
    jac = np.empty((len(z), len(z)))
    for k in range(len(z)):
        h = step * max(1.0, abs(z[k]))
        plus = z.copy()
        plus[k] += h
        minus = z.copy()
        minus[k] -= h
        jac[:, k] = ((plus - apply_map(plus)) - (minus - apply_map(minus))
                     ) / (2.0 * h)
    return jac


def inner_sum_reference(kernel, i, values, start, past=1):
    """Reference sum_{m<=i} a_{i,m} * values(m) over a value callback,
    untruncated and summed with math.fsum: every term m = start..i one
    at a time, and the values before ``start``, which repeat those at
    m = start..start+past-1, in closed form (the geometric series
    sum_{j>=1} a_{i,m-j*past} = a_{i,m-past} / (1 - e^{-row_rate*past})
    for a separable kernel, the terms within its lags for a finite-lag
    one)."""
    terms = [kernel.weight(i, m) * values(m) for m in range(start, i + 1)]
    if isinstance(kernel, v.SeparableExponential):
        fold = -math.expm1(-kernel.row_rate * past)
        terms += [kernel.weight(i, m - past) / fold * values(m)
                  for m in range(start, start + past)]
    else:
        terms += [kernel.weight(i, m) * values(start + (m - start) % past)
                  for m in range(i - kernel.max_lag, start)]
    return math.fsum(terms)


def csv_reference(rows, path):
    """Reference table writer, row by row: one dict per row n, each value
    through format(float(v), ".17g"), a missing key an empty cell, written
    by the csv module (so lines end in CRLF)."""
    def fmt(value):
        return "" if value is None else format(float(value), ".17g")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.get("n", ""),
                             *[fmt(row.get(col)) for col in CSV_HEADER[1:]]])
