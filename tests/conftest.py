import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import volterra2d as v
from volterra2d.cli import CSV_HEADER
from volterra2d.kernels import TailNotCertified, certified_depth

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


def direct_sum_reference(kernel, i, values, depth):
    """Reference fixed-depth sum over m = i-depth..i of a_{i,m} * values(m),
    one term at a time, skipping zero weights."""
    total = 0.0
    for m in range(i - depth, i + 1):
        w = kernel.weight(i, m)
        if w != 0.0:
            total += w * values(m)
    return total


def inner_sum_reference(kernel, i, values, bound, policy):
    """Reference truncated sum_{m<=i} a_{i,m} * values(m) over a value
    callback, one term at a time with zero weights skipped, at the window
    depth and certified tail of ``kernels.certified_depth``."""
    depth, tail = certified_depth(kernel, i, bound, policy.tail_tol,
                                  policy.max_terms)
    return direct_sum_reference(kernel, i, values, depth), tail


def truncation_depth_reference(kernel, i, bound, tol, max_terms):
    """Reference (depth, certified tail) of the row sum at i, one row at a
    time in scalar math: the smallest depth with bound * (tail past it)
    <= tol, from the closed-form estimate and a round-off fix-up for
    separable kernels and a downward scan over the lags for finite-lag
    ones, then capped at max_terms terms (TailNotCertified if the tail
    at the cap is still above tol).  The estimate is not clipped, so it
    only suits rates whose depth fits in memory."""
    if isinstance(kernel, v.SeparableExponential):
        def tail_beyond(depth):
            return (abs(kernel.coef)
                    * math.exp((kernel.row_rate - kernel.col_rate) * i)
                    / -math.expm1(-kernel.row_rate)
                    * math.exp(-kernel.row_rate * (depth + 1)))

        full = bound * tail_beyond(-1)
        depth = 0
        if full > tol:
            depth = max(0, math.ceil(math.log(full / tol) / kernel.row_rate
                                     - 1.0))
            while bound * tail_beyond(depth) > tol:
                depth += 1
    else:
        row = kernel.weights[i % kernel.lag_period]

        def tail_beyond(depth):
            return sum(abs(w) for w in row[depth + 1:])

        depth = kernel.max_lag
        while depth > 0 and bound * tail_beyond(depth - 1) <= tol:
            depth -= 1
    depth = min(depth, max_terms - 1)
    tail = bound * tail_beyond(depth)
    if tail > tol:
        raise TailNotCertified(f"tail bound {tail:.3e} > {tol:.3e} "
                               f"at the {max_terms}-term cap")
    return depth, tail


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
