"""Batch command-line front door.

Subcommands: check, simulate, solve-periodic, solve-asymptotic, verify.
Every run parses one JSON scenario config, executes one pipeline, writes a
JSON report (stdout or --out) plus an optional CSV table, and exits:
0 on success/convergence, 2 on hypothesis-check failure or
non-convergence, 1 on input errors (reported to stderr with field paths).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import asymptotic_solver, periodic_solver, verify
from .kernels import NotDiagonalPeriodic, TailNotCertified, TruncationPolicy
from .sequences import (
    History,
    PeriodicSequence,
    PeriodProductIsOne,
    PeriodProductNotOne,
    ZeroFactor,
)
from .simulate import simulate
from .system import (
    ConfigError,
    SystemSpec,
    _as_finite_float,
    check_asymptotic_hypotheses,
    check_periodic_hypotheses,
    parse_system,
    spec_to_config,
)

CSV_HEADER = ["n", "x", "y", "u1", "v1", "u2", "v2",
              "res_x", "res_y", "bound_v1", "bound_v2"]

_DOMAIN_ERRORS = (PeriodProductIsOne, PeriodProductNotOne, ZeroFactor,
                  NotDiagonalPeriodic, TailNotCertified)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else format(float(value), ".17g")


def _load_config(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _amplitudes(args, doc: Dict[str, Any]) -> Tuple[float, float]:
    """(c1, c2): each flag if given, else the config value, else 1."""
    return tuple(
        _as_finite_float(getattr(args, key) if getattr(args, key) is not None
                         else doc.get(key, 1.0), key)
        for key in ("c1", "c2"))


def _parse_history(doc: Dict[str, Any]) -> History:
    obj = doc.get("history")
    if obj is None:
        return History.zero()
    if not isinstance(obj, dict):
        raise ConfigError("history: expected an object")
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


def _parse_truncation(doc: Dict[str, Any],
                      tail_tol_flag: Optional[float]) -> TruncationPolicy:
    obj = doc.get("truncation") or {}
    if not isinstance(obj, dict):
        raise ConfigError("truncation: expected an object")
    tail_tol = tail_tol_flag if tail_tol_flag is not None else _as_finite_float(
        obj.get("tail_tol", 1e-10), "truncation.tail_tol")
    max_terms = obj.get("max_terms", 100_000)
    if isinstance(max_terms, bool) or not isinstance(max_terms, int):
        raise ConfigError("truncation.max_terms: expected an integer")
    try:
        return TruncationPolicy(tail_tol, max_terms)
    except ValueError as exc:
        raise ConfigError(f"truncation: {exc}") from exc


def _parse_solver(doc: Dict[str, Any], spec: SystemSpec,
                  tol_flag: Optional[float]) -> periodic_solver.SolverOptions:
    obj = doc.get("solver") or {}
    if not isinstance(obj, dict):
        raise ConfigError("solver: expected an object")
    guess = obj.get("initial_guess")
    parsed_guess = None
    if guess is not None and guess != "zero":
        if (not isinstance(guess, dict)
                or "x" not in guess or "y" not in guess):
            raise ConfigError(
                'solver.initial_guess: expected "zero" or {"x": [..], "y": [..]}')
        try:
            parsed_guess = (
                PeriodicSequence(spec.period, tuple(map(float, guess["x"]))),
                PeriodicSequence(spec.period, tuple(map(float, guess["y"]))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"solver.initial_guess: {exc}") from exc
    strategy = obj.get("strategy", "picard_then_newton")
    max_iter = obj.get("max_iter", 200)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int):
        raise ConfigError("solver.max_iter: expected an integer")
    try:
        return periodic_solver.SolverOptions(
            tol=tol_flag if tol_flag is not None else _as_finite_float(
                obj.get("tol", 1e-12), "solver.tol"),
            residual_tol=_as_finite_float(obj.get("residual_tol", 1e-8),
                                          "solver.residual_tol"),
            max_iter=max_iter,
            damping=_as_finite_float(obj.get("damping", 0.5),
                                     "solver.damping"),
            strategy=strategy,
            initial_guess=parsed_guess,
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _history_to_config(history: History) -> Dict[str, Any]:
    out: Dict[str, Any] = {"window": [[a, b] for a, b in history.window]}
    out["tail"] = ("zero" if history.tail is None
                   else {"x": history.tail[0], "y": history.tail[1]})
    return out


def _echo_config(spec: SystemSpec, **extras: Any) -> Dict[str, Any]:
    echo = spec_to_config(spec)
    echo.update({k: v for k, v in extras.items() if v is not None})
    return echo


def _write_report(report: Dict[str, Any], out_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(rows: List[Dict[str, Any]], csv_path: Optional[str]) -> None:
    if not csv_path:
        return
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row.get("n", ""),
                             *[_fmt(row.get(col)) for col in CSV_HEADER[1:]]])


def _resolve_horizon(args, doc: Dict[str, Any], spec: SystemSpec) -> int:
    if getattr(args, "horizon", None) is not None:
        return args.horizon
    value = doc.get("horizon")
    if value is not None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError("horizon: expected an integer")
        return value
    return _default_horizon(spec)


def _default_horizon(spec: SystemSpec, floor: float = 1e-12) -> int:
    """Smallest horizon whose decay envelope is below ``floor``; at least
    four periods."""
    prof = asymptotic_solver.growth_profile(spec)
    envelope = asymptotic_solver.decay_envelope
    n = 4 * spec.period
    limit = n + 100_000
    while n < limit:
        env_x = envelope(prof.ratio_x, spec.f, spec.kernel_a, n)
        env_y = envelope(prof.ratio_y, spec.g, spec.kernel_b, n)
        if env_x <= floor and env_y <= floor:
            return n
        if math.isinf(env_x) or math.isinf(env_y):
            raise TailNotCertified(
                "decay envelope is infinite; pick the horizon explicitly")
        n += 1
    raise TailNotCertified("no horizon with envelope below the floor")


def _cmd_check(args) -> int:
    doc = _load_config(args.config)
    spec = parse_system(doc)
    c1, c2 = _amplitudes(args, doc)
    if args.mode == "periodic":
        report = check_periodic_hypotheses(spec)
    else:
        report = check_asymptotic_hypotheses(spec, c1, c2)
    _write_report({
        "command": "check",
        "mode": args.mode,
        "config": _echo_config(spec, c1=c1, c2=c2),
        "report": report.as_dict(),
    }, args.out)
    return 0 if report.passed else 2


def _cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    spec = parse_system(doc)
    history = _parse_history(doc)
    policy = _parse_truncation(doc, args.tail_tol)
    if args.steps < 0:
        raise ConfigError("--steps: must be nonnegative")
    trajectory = simulate(spec, history, args.steps, policy)

    rows = [{"n": n, "x": trajectory.x[n], "y": trajectory.y[n]}
            for n in range(len(trajectory))]
    _add_defects(rows, trajectory.defects)
    _write_csv(rows, args.csv)
    _write_report({
        "command": "simulate",
        "steps": args.steps,
        "config": _echo_config(spec, history=_history_to_config(history),
                               truncation={"tail_tol": policy.tail_tol,
                                           "max_terms": policy.max_terms}),
        "report": {
            "x": list(trajectory.x),
            "y": list(trajectory.y),
            "tail_tolerance_used": trajectory.tail_tolerance_used,
        },
    }, args.out)
    return 0


def _add_defects(rows: List[Dict[str, Any]], defects) -> None:
    """Fill res_x/res_y of rows[n] from the recurrence defect at step n."""
    for row, (dx, dy) in zip(rows, defects):
        row.update(res_x=dx, res_y=dy)


def _solve_periodic_report(spec, doc, args, policy):
    opts = _parse_solver(doc, spec, args.tol)
    report = periodic_solver.solve_periodic(spec, opts, policy)
    sol_x, sol_y = report.solution
    rows = [{"n": n, "x": sol_x.get(n), "y": sol_y.get(n)}
            for n in range(spec.period)]
    _add_defects(rows, report.defects)
    return report, rows


def _cmd_solve_periodic(args) -> int:
    doc = _load_config(args.config)
    spec = parse_system(doc)
    policy = _parse_truncation(doc, args.tail_tol)
    report, rows = _solve_periodic_report(spec, doc, args, policy)
    _write_csv(rows, args.csv)
    _write_report({
        "command": "solve-periodic",
        "config": _echo_config(spec),
        "report": report.as_dict(),
    }, args.out)
    return 0 if report.converged else 2


def _asymptotic_rows(report) -> List[Dict[str, Any]]:
    dec = report.decomposition
    rows = [{"n": n, "x": report.x[n], "y": report.y[n],
             "u1": dec.u1.get(n), "v1": dec.v1[n],
             "u2": dec.u2.get(n), "v2": dec.v2[n],
             "bound_v1": dec.v1_bound[n], "bound_v2": dec.v2_bound[n]}
            for n in range(dec.horizon + 1)]
    _add_defects(rows, report.defects)
    return rows


def _cmd_solve_asymptotic(args) -> int:
    doc = _load_config(args.config)
    spec = parse_system(doc)
    policy = _parse_truncation(doc, args.tail_tol)
    opts = _parse_solver(doc, spec, args.tol)
    c1, c2 = _amplitudes(args, doc)
    horizon = _resolve_horizon(args, doc, spec)
    report = asymptotic_solver.solve_asymptotic(spec, c1, c2, horizon, opts,
                                                policy)
    _write_csv(_asymptotic_rows(report), args.csv)
    _write_report({
        "command": "solve-asymptotic",
        "config": _echo_config(spec, c1=c1, c2=c2, horizon=horizon),
        "report": report.as_dict(),
    }, args.out)
    return 0 if report.converged else 2


def _cmd_verify(args) -> int:
    doc = _load_config(args.config)
    spec = parse_system(doc)
    policy = _parse_truncation(doc, args.tail_tol)
    if args.mode == "periodic":
        solve_report, rows = _solve_periodic_report(spec, doc, args, policy)
        verification = verify.verify_periodic(spec, solve_report.solution)
        ok = solve_report.converged and verification.passed
        body = {"solve": solve_report.as_dict(),
                "verification": verification.as_dict()}
    else:
        opts = _parse_solver(doc, spec, args.tol)
        c1, c2 = _amplitudes(args, doc)
        horizon = _resolve_horizon(args, doc, spec)
        solve_report = asymptotic_solver.solve_asymptotic(
            spec, c1, c2, horizon, opts, policy)
        verification = verify.verify_decomposition(
            spec, solve_report.decomposition, tail_tol=policy.tail_tol)
        ok = solve_report.converged and verification.passed
        rows = _asymptotic_rows(solve_report)
        body = {"solve": solve_report.as_dict(),
                "verification": verification.as_dict()}
    _write_csv(rows, args.csv)
    _write_report({
        "command": "verify",
        "mode": args.mode,
        "config": _echo_config(spec),
        "report": body,
    }, args.out)
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra2d",
        description="Simulate, solve, and verify periodic and asymptotically "
                    "periodic solutions of two-component Volterra difference "
                    "systems with infinite delay.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=False, with_steps=False, with_horizon=False):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON scenario config")
        p.add_argument("--out", metavar="PATH", help="write the JSON report "
                       "here instead of stdout")
        p.add_argument("--csv", metavar="PATH", help="write the table here")
        p.add_argument("--tol", type=float, default=None,
                       help="solver update tolerance")
        p.add_argument("--tail-tol", type=float, default=None,
                       dest="tail_tol", help="certified tail tolerance")
        p.add_argument("--c1", type=float, default=None)
        p.add_argument("--c2", type=float, default=None)
        if with_mode:
            p.add_argument("--mode", choices=["periodic", "asymptotic"],
                           required=True)
        if with_steps:
            p.add_argument("--steps", type=int, required=True)
        if with_horizon:
            p.add_argument("--horizon", type=int, default=None)

    common(sub.add_parser("check", help="run the hypothesis checkers"),
           with_mode=True)
    common(sub.add_parser("simulate", help="march the initial-value problem"),
           with_steps=True)
    common(sub.add_parser("solve-periodic",
                          help="find a periodic solution"))
    common(sub.add_parser("solve-asymptotic",
                          help="find an asymptotically periodic solution"),
           with_horizon=True)
    common(sub.add_parser("verify", help="solve and independently certify"),
           with_mode=True, with_horizon=True)
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "solve-periodic": _cmd_solve_periodic,
    "solve-asymptotic": _cmd_solve_asymptotic,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
