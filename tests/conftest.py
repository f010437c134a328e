import csv
import json
import math
from itertools import count, cycle
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import volterra2d as v
from volterra2d._iteration import (ANDERSON_DEPTH, CONTRACTION_FACTOR,
                                   STALL_PATIENCE)
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
    through repr(float(v)), a missing key an empty cell, written by the
    csv module (so lines end in CRLF)."""
    def fmt(value):
        return "" if value is None else repr(float(value))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.get("n", ""),
                             *[fmt(row.get(col)) for col in CSV_HEADER[1:]]])


def nonlinearity_reference(phi, x):
    """The value of ``phi`` at x written out kind by kind, as the chain of
    kind tests it replaced: u = k * x as a float array, A times the shape
    of u, and a Python float for a 0-d result."""
    u = phi.frequency * np.asarray(x, dtype=float)
    if phi.kind == "sin":
        out = phi.amplitude * np.sin(u)
    elif phi.kind == "cos":
        out = phi.amplitude * np.cos(u)
    elif phi.kind == "tanh":
        out = phi.amplitude * np.tanh(u)
    else:
        out = phi.amplitude * u / (1.0 + u * u)
    return float(out) if np.ndim(out) == 0 else out


def derivative_reference(phi, x):
    """The derivative of ``phi`` at x written out kind by kind, as the
    chain of kind tests it replaced."""
    u = phi.frequency * np.asarray(x, dtype=float)
    if phi.kind == "sin":
        slope = np.cos(u)
    elif phi.kind == "cos":
        slope = -np.sin(u)
    elif phi.kind == "tanh":
        slope = 1.0 - np.tanh(u) ** 2
    else:
        w = 1.0 / (1.0 + u * u)
        slope = 2.0 * w * w - w
    out = phi.amplitude * phi.frequency * slope
    return float(out) if np.ndim(out) == 0 else out


def fixed_point_reference(apply_map, z0, newton_step, opts):
    """The fixed-point driver written as a plain loop: a fresh array for
    every step, the difference histories as lists (row k - 1 mod depth
    holding step k's, as in the driver's ring, so that the Gram products
    round alike), np.max norms, np.isfinite scans and a copy of every best
    iterate: (z, iterations, method, update, converged, map_calls) as
    ``solve_fixed_point`` returns them."""
    calls = 0

    def evaluate(z):
        nonlocal calls
        calls += 1
        return apply_map(z)

    def sup(a):
        return float(np.max(np.abs(a)))

    plain = "picard" if opts.damping == 1.0 else "damped_picard"
    z0 = np.asarray(z0, dtype=float).copy()
    iterations = 0
    mapped = None  # map(z) of a refused check, Newton's first residual
    for depth in (ANDERSON_DEPTH, 0):  # the second pass is the restart
        z, method, restart = z0.copy(), plain, False
        best_update, best_z, since_best = math.inf, z.copy(), 0
        d_f, d_g = [], []
        for step in count():
            if iterations >= opts.max_iter:
                break
            g = evaluate(z)
            iterations += 1
            if depth and step:
                f = g - z
                if len(d_f) < depth:
                    d_f.append(f - f_prev)
                    d_g.append(g - g_prev)
                else:
                    d_f[(step - 1) % depth] = f - f_prev
                    d_g[(step - 1) % depth] = g - g_prev
                dF, dG = np.array(d_f), np.array(d_g)
                rhs = dF @ f
                z_next = None
                if np.all(np.isfinite(rhs)):
                    try:
                        gamma = np.linalg.solve(dF @ dF.T, rhs)
                    except np.linalg.LinAlgError:
                        gamma = np.linalg.lstsq(dF.T, f, rcond=None)[0]
                    z_next = g - gamma @ dG
                f_prev, g_prev, method = f, g, "anderson"
            else:
                z_next = (1.0 - opts.damping) * z + opts.damping * g
                f_prev, g_prev = g - z, g
            update = math.inf if z_next is None else sup(z_next - z)
            stop = not math.isfinite(update)
            if not stop:
                z = z_next
                if update < opts.tol:
                    if method != "anderson":
                        return z, iterations, method, update, True, calls
                    g = evaluate(z)
                    residual = sup(g - z)
                    if residual < opts.tol and (sup(evaluate(g) - g)
                                                <= CONTRACTION_FACTOR
                                                * residual):
                        return z, iterations, method, update, True, calls
                    mapped = g
                    break
                if update < best_update:
                    best_update, best_z, since_best = update, z.copy(), 0
                else:
                    since_best += 1
                    stop = since_best >= STALL_PATIENCE
            if stop:
                restart = method == "anderson" and iterations < opts.max_iter
                if not restart:
                    z = best_z
                break
        if not restart:
            break
    newton_update, used, converged = math.inf, 0, False
    z_newton = z
    for _ in range(opts.max_iter - iterations):
        if mapped is None:
            mapped = evaluate(z_newton)
        residual, mapped = z_newton - mapped, None
        if not np.all(np.isfinite(residual)):
            break
        delta = newton_step(z_newton, residual)
        if not np.all(np.isfinite(delta)):
            break
        stepped = z_newton + delta
        if not np.all(np.isfinite(stepped)):
            break
        z_newton = stepped
        used += 1
        newton_update = sup(delta)
        if newton_update < opts.tol:
            converged = True
            break
    if used:
        z, method, update = z_newton, "newton", newton_update
    return z, iterations + used, method, update, converged, calls


def running_products_reference(seq):
    """The T x T table of ``running_products`` built from strided windows
    of the doubled factors (numpy's sliding_window_view)."""
    T = seq.period
    factors = 1.0 + np.array(seq.values * 2)
    windows = sliding_window_view(factors[1:], T - 1)[:T, ::-1]
    return np.cumprod(np.hstack([np.ones((T, 1)), windows]), axis=1)[:, ::-1]


def weight_bound_reference(gain, seq, kernel):
    """The periodic weight bound from 2T - 1 scalar row sums and strided
    windows over them."""
    T = seq.period
    row_sums = np.array([kernel.abs_row_sum(i) for i in range(2 * T - 1)])
    totals = np.sum(np.abs(running_products_reference(seq))
                    * sliding_window_view(row_sums, T), axis=1)
    return abs(gain) * float(np.max(totals))


def finite_or_none_reference(value):
    """``value`` with every non-finite float in it replaced by None, and
    every tuple made a list."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: finite_or_none_reference(x) for k, x in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_none_reference(x) for x in value]
    return value


def finite_floats_reference(raw, path):
    """A config list of numbers checked one entry at a time: the tuple of
    its floats, or the ConfigError message of the first entry that is not
    a JSON number (an int or a float, never a bool) of finite double
    value, under its field path ``path[j]``."""
    values = []
    for j, value in enumerate(raw):
        where = f"{path}[{j}]"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"{where}: expected a number, got {value!r}"
        try:
            number = float(value)
        except OverflowError:
            return (f"{where}: must be finite, got an integer beyond double "
                    f"range")
        if not math.isfinite(number):
            return f"{where}: must be finite, got {value!r}"
        values.append(number)
    return tuple(values)


def report_reference(report, path):
    """Reference report writer for a report whose columns are lists of
    floats: one line of json.dumps(report, allow_nan=False), or of the
    report with every non-finite float made None where that fails."""
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError:
        text = json.dumps(finite_or_none_reference(report), allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def product_one_plus(seq, a, b):
    """prod_{l=a}^{b} (1 + seq_l), with the empty-product convention 1 for
    a > b.  Windows spanning whole periods reuse the single full-period
    product, so the product over [n, n+T-1] is bitwise identical for
    every n."""
    if a > b:
        return 1.0
    q, r = divmod(b - a + 1, seq.period)
    out = seq.full_period_product_one_plus() ** q if q else 1.0
    for l in range(a, a + r):
        out *= 1.0 + seq.get(l)
    return out


def separable_drives_reference(kernel, values, start, rows, past=1):
    """A separable kernel's drives at n = 0..rows-1, row by row, as a list
    of floats (no round-off gate): values[k] holds phi at m = k - start
    and the past repeats values[:past].  The long double recursion is
    seeded with the past's closed form, reads each value as a Python
    float, and takes each row's scale from the array
    coef * e^{(row_rate - col_rate) n} over n = 0..rows-1."""
    rate = np.longdouble(kernel.row_rate)
    values = [float(value) for value in values]
    decay, s = np.exp(-rate), np.longdouble(0.0)
    for value in values[:past]:
        s = decay * s + value
    s /= -np.expm1(-rate * past)
    for value in values[:start]:
        s = decay * s + value
    scales = kernel.coef * np.exp((rate - kernel.col_rate)
                                  * np.arange(rows, dtype=np.longdouble))
    out = []
    for k, scale in zip(count(start), scales):
        s = decay * s + values[k]
        out.append(float(scale * s))
    return out


def lag_drives_reference(kernel, values, start, rows, past=1):
    """A finite-lag kernel's drives at n = 0..rows-1, row by row, with the
    arguments of ``separable_drives_reference``: weight row n mod P,
    reversed and copied, dotted (``ndarray.dot``, as the library does)
    with its L+1 values, the values padded before values[0] by the last L
    entries of the repeating past."""
    lags = kernel.max_lag
    weights = np.array(kernel.weights)
    values = np.asarray(values, dtype=float)
    padded = np.concatenate([values[np.arange(-lags, 0) % past], values])
    return [float(weights[n % kernel.lag_period, ::-1].copy()
                  .dot(padded[start + n:start + n + lags + 1]))
            for n in range(rows)]


def drives_reference(kernel, values, start, rows, past, bound, tol):
    """Each kernel's drives by its row-by-row reference, a separable one
    refused, as the march refuses it, where ``drive_error`` exceeds
    ``tol`` at some row."""
    if isinstance(kernel, v.FiniteLag):
        return lag_drives_reference(kernel, values, start, rows, past)
    if np.any(kernel.drive_error(np.arange(rows), bound) > tol):
        raise v.TailNotCertified("round-off bound of the kernel recursion")
    return separable_drives_reference(kernel, values, start, rows, past)


def defects_reference(spec, xs, ys, rows, policy, past=1):
    """The recurrence defects one row at a time, each kernel's drives
    taken from ``drives_reference``:
    (|x_{k+1} - (1 + h_n) x_k - drive_x|, the y counterpart) as Python
    floats at n = 0..rows-1, with k the entry of m = n."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    start = len(xs) - 1 - rows
    drives = (drives_reference(kernel, nonlin(partner), start, rows, past,
                               nonlin.bound, policy.tail_tol)
              for (_, kernel, nonlin), partner
              in zip(spec.equations, (ys, xs)))
    return tuple(
        (float(abs(xs[k + 1] - (1.0 + spec.h.get(n)) * xs[k] - drive_x)),
         float(abs(ys[k + 1] - (1.0 + spec.p.get(n)) * ys[k] - drive_y)))
        for n, k, drive_x, drive_y in zip(range(rows), count(start),
                                          *drives))


def march_step_reference(kernel, history, steps):
    """One kernel's drives for a march of ``steps`` rows, stepped here in
    the library's order of operations: a function that takes row n's
    phi_n, in turn, and returns row n's drive.  ``history`` holds the
    mapped values before row 0, its first standing for all before it.
    A separable kernel runs the long double recursion from the constant
    past's closed form, each row scaled by the array coef e^{(row - col)
    n}; a finite-lag kernel dots each reversed weight row
    (``ndarray.dot``, as the library does) with its last L+1 values."""
    history = [float(value) for value in history]
    if isinstance(kernel, v.FiniteLag):
        window = [history[0]] * kernel.max_lag + history
        rows = cycle(np.array(kernel.weights)[:, ::-1].copy())

        def step(phi):
            window.append(phi)
            return float(next(rows).dot(
                np.array(window[-kernel.max_lag - 1:])))
        return step
    rate = np.longdouble(kernel.row_rate)
    decay, s = np.exp(-rate), np.longdouble(0.0)
    s = (decay * s + history[0]) / -np.expm1(-rate)
    for value in history:
        s = decay * s + value
    scales = iter(kernel.coef * np.exp(
        (rate - kernel.col_rate) * np.arange(steps, dtype=np.longdouble)))

    def step(phi):
        nonlocal s
        s = decay * s + phi
        return float(next(scales) * s)
    return step


def march_reference(spec, history, steps):
    """simulate's trajectory (x, y) as tuples, its march stepped by
    ``march_step_reference``: the history before m = 0 mapped as one
    array, each later value mapped by calling the nonlinearity on a
    Python float, and the gains zipped through cycle.  No round-off
    gate."""
    depth = history.depth
    past_x, past_y = np.array(
        [history.value_at(m) for m in range(-depth - 1, 1)]).T
    f, g = spec.f, spec.g
    x, y = float(past_x[-1]), float(past_y[-1])
    traj_x, traj_y = [x], [y]
    gains = zip(*(cycle([1.0 + value for value in seq.values])
                  for seq, _, _ in spec.equations))
    step_x, step_y = (
        march_step_reference(kernel, nonlin(partner[:-1]), steps)
        for (_, kernel, nonlin), partner in zip(spec.equations,
                                                 (past_y, past_x)))
    with np.errstate(over="ignore", invalid="ignore"):
        for _, (gain_x, gain_y) in zip(range(steps), gains):
            x, y = (gain_x * x + step_x(f(y)), gain_y * y + step_y(g(x)))
            traj_x.append(x)
            traj_y.append(y)
    return tuple(traj_x), tuple(traj_y)


def tail_u_reference(kernel, growth, cut):
    """U of a separable tail-map block on the window 0..cut, one row at a
    time in long double by the backward recursion
    U[j] = r_{j+1} coef e^{(row-col) j} + e^{-row} U[j+1], U[cut+1] = 0,
    each entry rounded to double."""
    rate = np.longdouble(kernel.row_rate)
    j = np.arange(cut + 1)
    terms = (kernel.coef * growth.take(j + 1).astype(np.longdouble)
             * np.exp((rate - kernel.col_rate) * j))
    decay, acc, u = np.exp(-rate), np.longdouble(0.0), np.empty(cut + 1)
    for i in range(cut, -1, -1):
        acc = terms[i] + decay * acc
        u[i] = acc
    return u


def tail_u_bound(kernel, growth, cut):
    """Entry by entry, how far ``_tail_block``'s U may lie from
    ``tail_u_reference``: its stated bound, (filter_error(row, cut + 1,
    float64) + (2 |row - col| cut + 12) u / (1 - lam)) max_{i>=n} |term_i|
    with u the double unit round-off, plus the reference's long double
    recursion error, 8 u_ld max_{i>=n} |term_i| / (1 - lam)^2, and its
    rounding to double.  Where the terms underflow each of about 16
    operations an entry takes errs by up to the least subnormal eta
    instead, weighed by 1 / (1 - lam) over the entries it reaches."""
    from volterra2d.kernels import LONG_DOUBLE_UNIT, filter_error

    unit = float(np.finfo(float).eps) / 2.0
    rate, spread = kernel.row_rate, abs(kernel.row_rate - kernel.col_rate)
    gap = -math.expm1(-rate)
    j = np.arange(cut + 1)
    terms = np.abs(kernel.coef * growth.take(j + 1)
                   * np.exp((kernel.row_rate - kernel.col_rate) * j))
    reach = np.maximum.accumulate(terms[::-1])[::-1]
    stated = (filter_error(rate, cut + 1, np.float64)
              + (2.0 * spread * cut + 12.0) * unit / gap) * reach
    underflow = 16.0 * np.nextafter(0.0, 1.0) / gap
    return (stated + underflow + 8.0 * LONG_DOUBLE_UNIT * reach / gap ** 2
            + np.spacing(np.abs(tail_u_reference(kernel, growth, cut))))


def defects_slack(spec, xs, ys, rows, policy, past, got, want):
    """How far ``defects`` output ``got`` may lie from the
    ``defects_reference`` output ``want``, row by row as (x, y) pairs: the
    stated round-off of the filtered drive (``drive_array_error``, zero
    for a finite-lag kernel, whose rows are the reference's dots) and of
    the reference's recursion (``drive_error``), each drive's rounding to
    double, and the last subtraction's rounding on either side."""
    start = len(xs) - 1 - rows
    columns = []
    for (_, kernel, nonlin), partner in zip(spec.equations, (ys, xs)):
        mapped = nonlin(np.asarray(partner, dtype=float))
        drive = np.array(drives_reference(kernel, mapped, start, rows, past,
                                          nonlin.bound, policy.tail_tol))
        error = np.zeros(rows)
        if isinstance(kernel, v.SeparableExponential):
            error += (kernel.drive_array_error(start, rows, past,
                                               nonlin.bound)
                      + kernel.drive_error(np.arange(rows), nonlin.bound))
        columns.append(error + 2.0 * np.spacing(np.abs(drive)))
    size = np.maximum(np.abs(np.array(got)), np.abs(np.array(want)))
    return np.array(columns).T.reshape(size.shape) + 2.0 * np.spacing(size)


#: Magnitude below which tail_block_reference flushes block entries to
#: zero, with their bound added to its error.
REFERENCE_NEGLIGIBLE = math.sqrt(np.finfo(float).tiny)


def tail_block_reference(kernel, nonlin, growth, ratio, c_out, c_partner,
                         partner_growth, horizon, policy):
    """One tail-map block (K, c, error) built densely, with its Toeplitz
    factor lam^{n-m} taken as a reversed strided-window view of
    [lam^{width-1}, ..., lam^0, 0, ..., 0], and its entries below
    REFERENCE_NEGLIGIBLE flushed to zero, at most
    width * REFERENCE_NEGLIGIBLE * bound more error."""
    from volterra2d.asymptotic_solver import _outer_cut

    cut, error = _outer_cut(ratio, nonlin, kernel, horizon, policy)
    width = horizon + 1
    growth_out = growth.take(np.arange(width))
    if isinstance(kernel, v.FiniteLag):
        return np.zeros((width, width)), c_out / growth_out, error
    u = tail_u_reference(kernel, growth, cut)
    powers = np.exp(-kernel.row_rate * np.arange(width + 1))
    lower = sliding_window_view(np.concatenate(
        [powers[width - 1::-1], np.zeros(horizon)]), width)[::-1]
    w = np.triu(np.broadcast_to(u[:width], (width, width)), 1)
    w += u[:width, None] * lower
    post = c_partner / partner_growth.take(np.arange(width, cut + 1))
    drive_outside = (nonlin(0.0) * u[:width] * powers[1:]
                     / -math.expm1(-kernel.row_rate)
                     + u[width:] @ nonlin(post))
    c = (c_out - drive_outside) / growth_out
    w /= -growth_out[:, None]
    w[np.abs(w) < REFERENCE_NEGLIGIBLE] = 0.0
    return w, c, error + width * REFERENCE_NEGLIGIBLE * nonlin.bound


def envelope_ok_reference(dec, tail_tol):
    """The envelope verdict over the Python pairs of v and its bound:
    every |v| <= bound + 10 * tail_tol."""
    slack = 10.0 * tail_tol
    return all(
        abs(x) <= b + slack for x, b in zip(dec.v1, dec.v1_bound)) and all(
        abs(x) <= b + slack for x, b in zip(dec.v2, dec.v2_bound))


def parse_reference(argv):
    """The command line read by the top-level parser alone, as ``run``
    once took it: (exit code, Namespace), the code None where parsing
    returned and the Namespace None where it exited."""
    from volterra2d.cli import _build_parser

    try:
        return None, _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, None


def window_sums_reference(kernel, mapped, at_zero):
    """The verifier's separable window sums as one O(N^2) ``np.convolve``
    of all N mapped values with the decay e^{-row_rate lag}, plus the
    zero history's geometric sum at_zero e^{-row_rate (n+1)} /
    (1 - e^{-row_rate})."""
    n = np.arange(len(mapped))
    rate = kernel.row_rate
    decay = np.exp(-rate * n)
    memory = (np.convolve(mapped, decay)[:len(n)]
              + at_zero * math.exp(-rate) / -math.expm1(-rate) * decay)
    return kernel.coef * np.exp((rate - kernel.col_rate) * n) * memory


def periodic_part_ok_reference(spec, dec):
    """The periodic-part verdict of a decomposition, one n at a time over
    ten periods by ``product_one_plus``: |u_n - free_n| within
    1e-12 max(1, |free_n|) plus the drift |free_n| |P^q - 1|."""
    for seq, c, u in ((spec.h, dec.c1, dec.u1), (spec.p, dec.c2, dec.u2)):
        product = seq.full_period_product_one_plus()
        for n in range(10 * spec.period):
            free = c * product_one_plus(seq, 0, n - 1)
            drift = abs(free) * abs(product ** (n // spec.period) - 1.0)
            if abs(u.get(n) - free) > 1e-12 * max(1.0, abs(free)) + drift:
                return False
    return True


def decay_check_reference(v_values, bound, ratio, period):
    """The decay verdict from strided windows: the peak |v| of every whole
    period against the one a period before, at 10 ratio^T plus 1e-15,
    where the envelope exceeds 1e-12."""
    resolvable = int(np.count_nonzero(np.asarray(bound) > 1e-12))
    if resolvable < 2 * period:
        return True
    peaks = sliding_window_view(np.abs(np.asarray(v_values)[:resolvable]),
                                period).max(axis=1)
    return bool((peaks[period:]
                 <= 10.0 * ratio ** period * peaks[:-period] + 1e-15).all())
