"""Batch command-line front door.

Subcommands: check, simulate, solve-periodic, solve-asymptotic, verify.
Every run parses one JSON scenario config, executes one pipeline, writes a
JSON report (stdout or --out) plus an optional CSV table (--csv, taken by
every command but check, which has no table), and exits:
0 on success/convergence, 2 on hypothesis-check failure or
non-convergence, 1 on input errors (reported to stderr with field paths).
Every setting of the run -- tolerances, amplitudes c1/c2, horizon --
comes from the config; the flags name only the files, the mode and
simulate's step count, and each command takes only the flags it reads.
A line of the command word and then pairs of its flags and their values
is read straight from the flag table that builds the parsers, to the
Namespace argparse would build.  Every other line goes to argparse, so
argparse writes every usage, help and error: the command word picks its
subcommand's parser, which parses the rest of the arguments; arguments it
leaves over, a flag of another command among them, get the top-level
usage and error, and an argument list that names no command goes to the
top-level parser.

Each command turns every value of its table into text once, with
float.__repr__: the shortest text that reads back as the same double.
The CSV table joins that text row by row, and the JSON report, one line
of strict JSON from json's C encoder with every non-finite float written
as null, splices in the same text for each column it repeats.  Both are
written over the previous file, and cut to their length where it was
longer.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from . import asymptotic_solver, periodic_solver, verify
from .kernels import NotDiagonalPeriodic, TailNotCertified
from .sequences import (
    History,
    PeriodProductIsOne,
    PeriodProductNotOne,
    Trajectory,
    ZeroFactor,
)
from .simulate import simulate
from .system import (
    ConfigError,
    Scenario,
    SystemSpec,
    check_asymptotic_hypotheses,
    check_periodic_hypotheses,
    default_horizon,
    parse_scenario,
    spec_to_config,
)

CSV_HEADER = ["n", "x", "y", "u1", "v1", "u2", "v2",
              "res_x", "res_y", "bound_v1", "bound_v2"]

#: The report warning of an asymptotic solve or verify whose config holds
#: a history that is not zero: the solve starts from the zero history.
ZERO_HISTORY_WARNING = ("history: the asymptotic solve assumes the zero "
                        "history; the config's nonzero history is read "
                        "only by simulate")


class Period(NamedTuple):
    """A table column of ``length`` rows that repeats one period of
    ``values``: row n holds values[n mod T]."""

    values: Sequence[float]
    length: int


#: A table by column name, each column from row n = 0 on.
Columns = Dict[str, Union[Sequence[float], Period]]
#: The same table as text, one string per value.
Cells = Dict[str, List[str]]

#: The table columns that a report repeats, each with its report key.
_REPORT_KEYS = {"x": "x", "y": "y", "v1": "v1", "v2": "v2",
                "bound_v1": "v1_bound", "bound_v2": "v2_bound"}

#: A report holds NUL + column name where a column's text goes in.  No
#: report string holds a NUL, so the encoded placeholder, opened by a
#: quote and its NUL written as \u0000, is found only where it was put.
_SLOT = "\x00"
_SLOT_TOKEN = '"\\u0000'

#: The encoder of every report: strict JSON, so a non-finite float raises.
_ENCODER = json.JSONEncoder(allow_nan=False)

_DOMAIN_ERRORS = (PeriodProductIsOne, PeriodProductNotOne, ZeroFactor,
                  NotDiagonalPeriodic, TailNotCertified)


def _load_config(path: str) -> Any:
    """The JSON document of the UTF-8 file at ``path``; a byte order mark
    is invalid JSON.  The error of invalid JSON counts lines, columns and
    characters as a text-mode read would, with every \\r\\n and \\r read
    as \\n."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}", str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if "\r" in text:
            try:
                json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
            except json.JSONDecodeError as newline_exc:
                exc = newline_exc
        raise ConfigError(path, f"invalid JSON: {exc}") from exc


def _history_to_config(history: History) -> Dict[str, Any]:
    tail = history.tail
    return {"window": [[a, b] for a, b in history.window],
            "tail": "zero" if tail is None else {"x": tail[0], "y": tail[1]}}


def _echo_config(spec: SystemSpec, **extras: Any) -> Dict[str, Any]:
    echo = spec_to_config(spec)
    echo.update({k: v for k, v in extras.items() if v is not None})
    return echo


def _finite_or_none(value: Any) -> Any:
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _write_text(path: str, text: str, flag: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path``, created with mode
    0o666 less the umask, and cut a regular file that was longer to the
    new length.  The old bytes are overwritten rather than truncated to
    zero first, which on ext4 costs a flush at close, and a file no longer
    than the text is not cut at all: a truncate costs a metadata update
    even when it changes nothing.  A device or pipe, which cannot be cut,
    is only written to.  A path that cannot be written raises ConfigError
    under the ``flag`` that named it."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
            status = os.fstat(fd)
            if stat.S_ISREG(status.st_mode) and status.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(flag, f"cannot write {path!r}: {exc}") from exc


def _text(column: Union[Sequence[float], Period]) -> List[str]:
    """Each value of the column as text, by float.__repr__; a Period's
    values once each, their text repeated down its rows."""
    if isinstance(column, Period):
        period = list(map(float.__repr__, column.values))
        return (period * -(-column.length // len(period)))[:column.length]
    return list(map(float.__repr__, column))


def _cells(columns: Columns, csv_path: Optional[str]) -> Cells:
    """Each value of the columns as text, by float.__repr__ (inf, -inf and
    nan where it is not finite): every column when there is a table to
    write, else those the report repeats.  This is the one place where a
    table value becomes text."""
    return {name: _text(column) for name, column in columns.items()
            if csv_path or name in _REPORT_KEYS}


def _share(body: Dict[str, Any]) -> Dict[str, Any]:
    """``body`` with each key that repeats a table column holding that
    column's placeholder instead of its values."""
    body.update({key: _SLOT + name for name, key in _REPORT_KEYS.items()
                 if key in body})
    return body


def _json_array(cells: List[str]) -> str:
    """The cells as a JSON array, each non-finite one (inf, -inf or nan:
    only those hold an n) as null."""
    text = ", ".join(cells)
    if "n" in text:
        text = ", ".join(["null" if "n" in cell else cell for cell in cells])
    return "[" + text + "]"


def _write_report(report: Dict[str, Any], out_path: Optional[str],
                  cells: Optional[Cells] = None) -> None:
    """Write the report as one line of strict JSON: a non-finite float,
    which JSON cannot hold, is written as null.  A placeholder for a
    column becomes the array of its ``cells``, the text json writes for
    the floats themselves."""
    try:
        text = _ENCODER.encode(report)
    except ValueError:
        text = _ENCODER.encode(_finite_or_none(report))
    head, *slots = text.split(_SLOT_TOKEN)
    parts = [head]
    for slot in slots:
        name, rest = slot.split('"', 1)
        parts += [_json_array(cells[name]), rest]
    text = "".join(parts)
    if out_path:
        _write_text(out_path, text + "\n", "--out")
    else:
        print(text)


def _write_csv(length: int, cells: Cells, csv_path: Optional[str]) -> None:
    """Write the table of rows n = 0..length-1 under CSV_HEADER, each row
    its cells joined; a column that is missing or shorter than the table
    leaves empty cells.  The missing columns after the last one there
    are the same empty cells on every row: their commas end each row."""
    if not csv_path:
        return
    names = CSV_HEADER[1:]
    while names and names[-1] not in cells:
        names = names[:-1]
    padded = []
    for name in names:
        column = cells.get(name, [])[:length]
        padded.append(column + [""] * (length - len(column)))
    rows = map(",".join, zip(map(str, range(length)), *padded))
    end = "," * (len(CSV_HEADER) - 1 - len(names)) + "\r\n"
    _write_text(csv_path, ",".join(CSV_HEADER) + "\r\n"
                + end.join([*rows, ""]), "--csv")


def _cmd_check(args, scenario: Scenario) -> int:
    spec, c1, c2 = scenario.spec, scenario.c1, scenario.c2
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


def _non_finite_warnings(trajectory: Trajectory) -> List[str]:
    """A warning naming the first n whose x or y is not finite, if any: a
    sum of all the values is finite unless one is not or the sum
    overflows, so only then are they searched."""
    if math.isfinite(sum(trajectory.x) + sum(trajectory.y)):
        return []
    bad = np.flatnonzero(~np.isfinite([trajectory.x, trajectory.y]).all(
        axis=0))
    return [f"simulate: the trajectory is not finite at n = {bad[0]} "
            f"(x = {trajectory.x[bad[0]]!r}, y = {trajectory.y[bad[0]]!r}); "
            f"it overflowed"] if len(bad) else []


def _cmd_simulate(args, scenario: Scenario) -> int:
    if args.steps < 0:
        raise ConfigError("--steps", "must be nonnegative")
    spec, history, policy = scenario.spec, scenario.history, scenario.policy
    trajectory = simulate(spec, history, args.steps, policy)
    cells = _cells({"x": trajectory.x, "y": trajectory.y}, args.csv)
    _write_csv(len(trajectory), cells, args.csv)
    report = {
        "x": trajectory.x,
        "y": trajectory.y,
        "tail_tolerance_used": trajectory.tail_tolerance_used,
    }
    warnings = _non_finite_warnings(trajectory)
    if warnings:  # a finite run's report keeps its bytes
        report["warnings"] = warnings
    _write_report({
        "command": "simulate",
        "steps": args.steps,
        "config": _echo_config(spec, history=_history_to_config(history),
                               truncation={"tail_tol": policy.tail_tol,
                                           "max_terms": policy.max_terms}),
        "report": _share(report),
    }, args.out, cells)
    return 0


def _solve(mode: str, scenario: Scenario
           ) -> Tuple[Any, Tuple[int, Columns], Dict[str, Any]]:
    """Run the ``mode`` solver on the scenario: its report, table (length
    and columns) and the config echo that reproduces the run."""
    spec, extras = scenario.spec, {}
    if mode == "periodic":
        report = periodic_solver.solve_periodic(spec, scenario.solver,
                                                scenario.policy)
        sol_x, sol_y = report.solution
        length, columns = spec.period, {"x": sol_x.values, "y": sol_y.values}
    else:
        horizon = (default_horizon(spec) if scenario.horizon is None
                   else scenario.horizon)
        report = asymptotic_solver.solve_asymptotic(
            spec, scenario.c1, scenario.c2, horizon, scenario.solver,
            scenario.policy)
        if not scenario.history.is_zero:
            report = dataclasses.replace(report, warnings=(
                *report.warnings, ZERO_HISTORY_WARNING))
        dec = report.decomposition
        length = horizon + 1
        columns = {"x": report.x, "y": report.y,
                   "u1": Period(dec.u1.values, length), "v1": dec.v1,
                   "u2": Period(dec.u2.values, length), "v2": dec.v2,
                   "bound_v1": dec.v1_bound, "bound_v2": dec.v2_bound}
        extras = {"c1": scenario.c1, "c2": scenario.c2, "horizon": horizon}
    # the (x, y) defects at n = 0, 1, ... as the res_x/res_y columns
    columns.update(zip(("res_x", "res_y"), zip(*report.defects)))
    return report, (length, columns), _echo_config(spec, **extras)


def _cmd_solve(args, scenario: Scenario) -> int:
    report, (length, columns), echo = _solve(args.mode, scenario)
    cells = _cells(columns, args.csv)
    _write_csv(length, cells, args.csv)
    _write_report({
        "command": args.command,
        "config": echo,
        "report": _share(report.as_dict()),
    }, args.out, cells)
    return 0 if report.converged else 2


def _cmd_verify(args, scenario: Scenario) -> int:
    solve_report, (length, columns), echo = _solve(args.mode, scenario)
    if args.mode == "periodic":
        verification = verify.verify_periodic(scenario.spec,
                                              solve_report.solution)
    else:
        verification = verify.verify_decomposition(
            scenario.spec, solve_report.decomposition,
            tail_tol=scenario.policy.tail_tol)
    cells = _cells(columns, args.csv)
    _write_csv(length, cells, args.csv)
    _write_report({
        "command": "verify",
        "mode": args.mode,
        "config": echo,
        "report": {"solve": _share(solve_report.as_dict()),
                   "verification": verification.as_dict()},
    }, args.out, cells)
    return 0 if solve_report.converged and verification.passed else 2


#: Every flag that a command may take; every command takes --config and
#: --out.
_FLAGS = {
    "--config": dict(required=True, metavar="PATH",
                     help="JSON scenario config"),
    "--out": dict(metavar="PATH",
                  help="write the JSON report here instead of stdout"),
    "--csv": dict(metavar="PATH", help="write the table here"),
    "--mode": dict(choices=["periodic", "asymptotic"], required=True),
    "--steps": dict(type=int, required=True),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra2d",
        description="Simulate, solve, and verify periodic and asymptotically "
                    "periodic solutions of two-component Volterra difference "
                    "systems with infinite delay.")
    sub = parser.add_subparsers(dest="command", required=True)
    # (command, help, handler, mode, the flags it takes besides --config
    # and --out)
    commands = [
        ("check", "run the hypothesis checkers", _cmd_check, None,
         ("--mode",)),
        ("simulate", "march the initial-value problem", _cmd_simulate, None,
         ("--csv", "--steps")),
        ("solve-periodic", "find a periodic solution", _cmd_solve,
         "periodic", ("--csv",)),
        ("solve-asymptotic", "find an asymptotically periodic solution",
         _cmd_solve, "asymptotic", ("--csv",)),
        ("verify", "solve and independently certify", _cmd_verify, None,
         ("--csv", "--mode")),
    ]
    for name, help_text, handler, mode, flags in commands:
        flags = ("--config", "--out", *flags)
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, mode=mode)
        # Each flag's action, and the Namespace in argparse's order: the
        # command, each flag's default, then the parser defaults that no
        # flag sets.
        actions, namespace = {}, {"command": name}
        for flag in flags:
            actions[flag] = action = p.add_argument(flag, **_FLAGS[flag])
            namespace[action.dest] = action.default
        namespace["handler"] = handler
        namespace.setdefault("mode", mode)
        p.pairs = (actions, {flag for flag, action in actions.items()
                             if action.required}, namespace)
    parser.commands = sub.choices  # each command word's parser
    return parser


def _read_pairs(command: argparse.ArgumentParser,
                argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The Namespace that argparse builds from ``argv`` when it is the
    command word and then pairs of one of its flags and a value: no flag
    twice, every required flag there, no value that starts with - and
    each value of its flag's type and choices.  None for any other line."""
    actions, required, namespace = command.pairs
    given = argv[1::2]
    if (len(argv) % 2 == 0 or len(set(given)) < len(given)
            or not required.issubset(given)):
        return None
    namespace = dict(namespace)
    for flag, text in zip(given, argv[2::2]):
        action = actions.get(flag)
        if action is None or text[:1] == "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        namespace[action.dest] = value
    return argparse.Namespace(**namespace)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments as the top-level parser reads them.  A line of the
    command word and pairs of its flags and values is read directly from
    the flag table.  Any other line that names a command goes to that
    command's parser, which is all the top-level parser would call, and
    arguments it leaves over get the top-level usage and error.  A line
    that names no command goes to the top-level parser whole."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read_pairs(command, argv)
    if args is not None:
        return args
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return argparse.Namespace(command=argv[0], **vars(args))


def run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.handler(args, parse_scenario(_load_config(args.config)))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
