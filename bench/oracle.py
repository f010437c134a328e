"""Independent correctness check of the CLI's outputs.

Recomputes the recurrence defect

    |x[n+1] - (1 + h[n]) x[n] - sum_{m <= n} a[n, m] f(y[m])|

(and its y counterpart) of every returned periodic window, asymptotic
window and trajectory, from the scenario config alone, with this file's
own numpy code.  Nothing here calls volterra2d: no verify, simulate or
kernels.inner_sum.  The infinite part of every kernel sum is taken in
closed form (a geometric series), so no truncation error enters:

* values before a known window are a constant (zero history, constant
  history tail), and sum_{m < m0} c e^{r m - s n} is geometric;
* a T-periodic sequence under a diagonal-periodic exponential kernel
  repeats every D = kT lags, so the sum over all lags is the sum over the
  first D lags divided by 1 - e^{-r D}.
"""
from __future__ import annotations

import csv
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Largest accepted defect, relative to max(1, largest |value|).
DEFECT_TOL = 1e-8

#: Lower bound on the lags summed directly for a periodic window.
PERIODIC_DIRECT_LAGS = 256


def _nonlinearity(spec: Dict[str, Any], values: np.ndarray) -> np.ndarray:
    u = spec["frequency"] * values
    amplitude = spec["amplitude"]
    kind = spec["kind"]
    if kind == "sin":
        return amplitude * np.sin(u)
    if kind == "cos":
        return amplitude * np.cos(u)
    if kind == "tanh":
        return amplitude * np.tanh(u)
    if kind == "rational_bounded":
        return amplitude * u / (1.0 + u * u)
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


def _drive(kernel: Dict[str, Any], phi: np.ndarray, m0: int,
           before: float, steps: int) -> np.ndarray:
    """sum_{m <= n} a[n, m] phi[m] for n = 0..steps-1, where phi[j] is the
    value at m = m0 + j (known up to m = steps - 1) and every m < m0
    carries the constant ``before``."""
    n = np.arange(steps)
    if kernel["type"] == "finite_lag":
        rows = np.asarray(kernel["weights"], dtype=float)
        row = rows[n % len(rows)]
        out = np.zeros(steps)
        for lag in range(rows.shape[1]):
            m = n - lag
            values = np.where(m >= m0, phi[np.maximum(m - m0, 0)], before)
            out += row[:, lag] * values
        return out
    coef, rate, col = kernel["coef"], kernel["row_rate"], kernel["col_rate"]
    decay = math.exp(-rate)
    # acc = sum_{m <= n} e^{rate (m - n)} phi[m], marched from m0 - 1 where
    # the constant part is the geometric series before / (1 - e^{-rate}).
    acc = before / -math.expm1(-rate)
    for j in range(-m0):
        acc = decay * acc + phi[j]
    out = np.empty(steps)
    for k in range(steps):
        acc = decay * acc + phi[k - m0]
        out[k] = acc
    return coef * np.exp((rate - col) * n) * out


def _periodic_drive(kernel: Dict[str, Any], phi: np.ndarray,
                    steps: int) -> np.ndarray:
    """sum_{m <= n} a[n, m] phi[m mod T] for n = 0..steps-1."""
    period = len(phi)
    n = np.arange(steps)
    if kernel["type"] == "finite_lag":
        rows = np.asarray(kernel["weights"], dtype=float)
        row = rows[n % len(rows)]
        lags = np.arange(rows.shape[1])
        return np.sum(row * phi[(n[:, None] - lags[None, :]) % period], axis=1)
    coef, rate = kernel["coef"], kernel["row_rate"]
    if kernel["col_rate"] != rate:
        raise ValueError("periodic window with a non-diagonal-periodic kernel")
    depth = period * math.ceil(PERIODIC_DIRECT_LAGS / period)
    lags = np.arange(depth)
    direct = np.sum(np.exp(-rate * lags)[None, :]
                    * phi[(n[:, None] - lags[None, :]) % period], axis=1)
    return coef * direct / -math.expm1(-rate * depth)


def _defect(cfg: Dict[str, Any], x: np.ndarray, y: np.ndarray,
            drive_x: np.ndarray, drive_y: np.ndarray) -> float:
    """Largest relative defect over the steps drive_x covers; x and y hold
    the values at n = 0..len(drive_x)."""
    steps = len(drive_x)
    n = np.arange(steps)
    h = np.asarray(cfg["h"], dtype=float)[n % cfg["period"]]
    p = np.asarray(cfg["p"], dtype=float)[n % cfg["period"]]
    dx = np.abs(x[1:steps + 1] - (1.0 + h) * x[:steps] - drive_x)
    dy = np.abs(y[1:steps + 1] - (1.0 + p) * y[:steps] - drive_y)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(max(np.max(dx, initial=0.0), np.max(dy, initial=0.0))) / scale


def periodic_defect(cfg: Dict[str, Any], x: np.ndarray, y: np.ndarray) -> float:
    """Defect of the periodic extension of a period window, over two periods."""
    period = cfg["period"]
    steps = 2 * period
    reps = np.arange(steps + 1) % period
    drive_x = _periodic_drive(cfg["kernel_a"], _nonlinearity(cfg["f"], y), steps)
    drive_y = _periodic_drive(cfg["kernel_b"], _nonlinearity(cfg["g"], x), steps)
    return _defect(cfg, x[reps], y[reps], drive_x, drive_y)


def asymptotic_defect(cfg: Dict[str, Any], x: np.ndarray, y: np.ndarray) -> float:
    """Defect of a window on n = 0..H under zero history (x = y = 0 for
    n < 0, so the nonlinearity there is f(0), g(0))."""
    steps = len(x) - 1
    zero = np.zeros(1)
    drive_x = _drive(cfg["kernel_a"], _nonlinearity(cfg["f"], y), 0,
                     float(_nonlinearity(cfg["f"], zero)[0]), steps)
    drive_y = _drive(cfg["kernel_b"], _nonlinearity(cfg["g"], x), 0,
                     float(_nonlinearity(cfg["g"], zero)[0]), steps)
    return _defect(cfg, x, y, drive_x, drive_y)


def trajectory_defect(cfg: Dict[str, Any], x: np.ndarray, y: np.ndarray) -> float:
    """Defect of a forward trajectory from the config's history: window[j]
    is the pair at n = j - H, the tail rule holds for n < -H, and x[0],
    y[0] must equal the history's value at 0."""
    history = cfg.get("history") or {}
    window = np.asarray(history.get("window", [[0.0, 0.0]]), dtype=float)
    tail = history.get("tail")
    tail_x, tail_y = ((0.0, 0.0) if tail in (None, "zero")
                      else (tail["x"], tail["y"]))
    if x[0] != window[-1, 0] or y[0] != window[-1, 1]:
        return math.inf
    m0 = 1 - len(window)
    full_x = np.concatenate([window[:-1, 0], x])
    full_y = np.concatenate([window[:-1, 1], y])
    steps = len(x) - 1
    drive_x = _drive(cfg["kernel_a"], _nonlinearity(cfg["f"], full_y), m0,
                     float(_nonlinearity(cfg["f"], np.array([tail_y]))[0]), steps)
    drive_y = _drive(cfg["kernel_b"], _nonlinearity(cfg["g"], full_x), m0,
                     float(_nonlinearity(cfg["g"], np.array([tail_x]))[0]), steps)
    return _defect(cfg, x, y, drive_x, drive_y)


def _csv_matches(csv_path: str, x: np.ndarray, y: np.ndarray) -> bool:
    """The CSV table has one row per value and repeats x and y exactly."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(x):
        return False
    return (np.array_equal(np.array([float(r["x"]) for r in rows]), x)
            and np.array_equal(np.array([float(r["y"]) for r in rows]), y))


def check(cfg: Dict[str, Any], mode: Optional[str], report: Dict[str, Any],
          csv_path: str) -> Tuple[bool, float, str]:
    """(output well formed, defect, problem) for one operation's report.

    Well formed means: the solution arrays exist, have the expected length,
    are finite and match the CSV.  The defect is returned for the caller
    to judge against DEFECT_TOL, because a defect above it is an error
    only when the operation claimed certification."""
    body = report["report"]
    values = body if mode is None else body["solve"]
    x = np.asarray(values["x"], dtype=float)
    y = np.asarray(values["y"], dtype=float)
    if mode == "periodic":
        expected = cfg["period"]
    elif mode == "asymptotic":
        expected = cfg["horizon"] + 1
    else:
        expected = report["steps"] + 1
    if len(x) != expected or len(y) != expected:
        return False, math.nan, f"expected {expected} values, got {len(x)}"
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return False, math.nan, "non-finite solution values"
    if not _csv_matches(csv_path, x, y):
        return False, math.nan, "CSV table does not repeat the report"
    if mode == "periodic":
        defect = periodic_defect(cfg, x, y)
    elif mode == "asymptotic":
        defect = asymptotic_defect(cfg, x, y)
    else:
        defect = trajectory_defect(cfg, x, y)
    return True, defect, ""
