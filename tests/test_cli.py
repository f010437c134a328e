import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from volterra2d import (
    TruncationPolicy,
    check_asymptotic_hypotheses,
    check_periodic_hypotheses,
    defects,
    parse_scenario,
    parse_system,
    simulate,
    solve_asymptotic,
    solve_periodic,
    spec_to_config,
    verify_decomposition,
    verify_periodic,
)
from volterra2d import cli
from volterra2d.cli import (
    _DOMAIN_ERRORS,
    CSV_HEADER,
    Period,
    _cells,
    _share,
    _write_csv,
    _write_report,
    run,
)
from volterra2d.system import default_horizon, max_horizon

from conftest import csv_reference, parse_reference, report_reference

# ``python -m`` puts the working directory on sys.path, so a subprocess run
# from here imports the checkout without PYTHONPATH.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestCheckCommand:
    def test_demo1_periodic_passes(self, example1_path, tmp_path):
        out = tmp_path / "report.json"
        code = run(["check", "--config", str(example1_path),
                    "--mode", "periodic", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        q = report["report"]["quantities"]
        assert q["gain_x"] == -0.5
        assert q["bound_x"] == pytest.approx(3.1639534, abs=1e-7)

    def test_demo1_asymptotic_fails(self, example1_path, tmp_path):
        out = tmp_path / "report.json"
        code = run(["check", "--config", str(example1_path),
                    "--mode", "asymptotic", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["report"]["quantities"]["product_h"] == 3.0

    def test_demo2_modes(self, example2_path, tmp_path):
        assert run(["check", "--config", str(example2_path),
                    "--mode", "periodic",
                    "--out", str(tmp_path / "a.json")]) == 2
        assert run(["check", "--config", str(example2_path),
                    "--mode", "asymptotic",
                    "--out", str(tmp_path / "b.json")]) == 0

    def test_report_prints_to_stdout_by_default(self, example1_path, capsys):
        assert run(["check", "--config", str(example1_path),
                    "--mode", "periodic"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["command"] == "check"

    def test_config_echo_round_trips(self, example2_path, tmp_path):
        out = tmp_path / "report.json"
        run(["check", "--config", str(example2_path), "--mode", "asymptotic",
             "--out", str(out)])
        echo = json.loads(out.read_text())["config"]
        assert parse_system(echo) == parse_system(example2_path.read_text())


class TestSimulateCommand:
    def test_csv_row_count_and_header(self, example2_path, tmp_path):
        csv_path = tmp_path / "table.csv"
        code = run(["simulate", "--config", str(example2_path),
                    "--steps", "7", "--csv", str(csv_path),
                    "--out", str(tmp_path / "r.json")])
        assert code == 0
        header, rows = read_csv(csv_path)
        assert header == CSV_HEADER
        assert len(rows) == 8
        assert rows[0][0] == "0"
        # simulate fills x and y only; its res_x/res_y cells stay empty
        assert all(row[7] == row[8] == "" for row in rows)

    def test_negative_steps_rejected(self, example2_path):
        assert run(["simulate", "--config", str(example2_path),
                    "--steps", "-1", "--out", "/dev/null"]) == 1

    def test_overflow_is_reported(self, example1_path, tmp_path, capsys):
        """example1's h = (2, 0) and p = (0, 2) triple the trajectory every
        period: from this history it overflows at n = 1292, and the march
        goes on in inf and nan.  The report says where, no floating-point
        warning reaches stderr, and the run still exits 0 with every value
        in its table; a finite run's report has no warnings key."""
        config = json.loads(example1_path.read_text())
        config["history"] = {"window": [[0.7, -0.3]],
                             "tail": {"x": 0.5, "y": 0.2}}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config))
        out, table = tmp_path / "r.json", tmp_path / "t.csv"
        for steps, first in (("1000", None), ("20000", 1292)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["simulate", "--config", str(path), "--steps",
                            steps, "--out", str(out), "--csv",
                            str(table)]) == 0
            assert capsys.readouterr().err == ""
            report = json.loads(out.read_text())["report"]
            _, rows = read_csv(table)
            assert len(rows) == int(steps) + 1
            if first is None:
                assert "warnings" not in report
                continue
            x, y = report["x"], report["y"]
            assert [n for n in range(len(x))
                    if x[n] is None or y[n] is None][0] == first
            assert report["warnings"] == [
                f"simulate: the trajectory is not finite at n = {first} "
                f"(x = {x[first]!r}, y = nan); it overflowed"]
            assert rows[first][1:3] == [repr(x[first]), "nan"]

    @pytest.mark.parametrize("rate", [1e-12, 1e-200, 1e-300])
    def test_vanishing_rate_stops_at_the_cap(self, rate, example2_path,
                                             tmp_path):
        # The round-off bound of the kernel recursion grows as 1/rate^2: it
        # is about 5e5 at 1e-12 and overflows at 1e-200 and 1e-300, so all
        # three must be refused with exit 2 before any step.  Run in a
        # subprocess with a timeout so that a hang fails the test.
        config = json.loads(example2_path.read_text())
        config["kernel_a"].update(row_rate=rate, col_rate=rate)
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(config))
        result = subprocess.run(
            [sys.executable, "-m", "volterra2d.cli", "simulate",
             "--config", str(path), "--steps", "5",
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, cwd=SRC_DIR, timeout=60)
        assert result.returncode == 2
        assert "TailNotCertified" in result.stderr
        assert "round-off bound" in result.stderr
        assert "Traceback" not in result.stderr


class TestTableDefects:
    """The res_x/res_y columns of every solve table are the recurrence
    defects of the reported values, and a solve reports their maximum;
    simulate leaves them empty."""

    COS_NONLINEARITIES = {"f": {"kind": "cos", "amplitude": 1.0,
                                "frequency": 1.0},
                          "g": {"kind": "cos", "amplitude": 1.0,
                                "frequency": 2.0}}

    @pytest.mark.parametrize("command", ["simulate", "solve-periodic",
                                         "solve-asymptotic"])
    def test_defect_columns_match_residual(self, command, example1_path,
                                           example2_path, tmp_path):
        if command == "solve-periodic":
            config = json.loads(example1_path.read_text())
            config.update(self.COS_NONLINEARITIES)
            extra, steps = [], config["period"]
        elif command == "simulate":
            config = json.loads(example2_path.read_text())
            extra, steps = ["--steps", "12"], 12
        else:
            config = json.loads(example2_path.read_text())
            config["horizon"] = 20
            extra, steps = [], 20
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out, csv_path = tmp_path / "r.json", tmp_path / "table.csv"
        run([command, "--config", str(path), "--out", str(out),
             "--csv", str(csv_path), *extra])
        header, rows = read_csv(csv_path)
        col_x, col_y = header.index("res_x"), header.index("res_y")
        if command == "simulate":
            assert len(rows) == steps + 1
            assert all(row[col_x] == row[col_y] == "" for row in rows)
            return
        report = json.loads(out.read_text())["report"]
        spec = parse_system(config)
        policy = TruncationPolicy(**config["truncation"])

        # the arrays each solve gates on: one period with the periodic
        # past, or the window after one zero of the zero history
        xs, ys = report["x"], report["y"]
        past = 1
        if command == "solve-periodic":
            extension = np.arange(steps + 1) % spec.period
            values_x = np.array(xs)[extension]
            values_y = np.array(ys)[extension]
            past = spec.period
        else:
            values_x = np.concatenate([[0.0], xs])
            values_y = np.concatenate([[0.0], ys])

        table = [(float(row[col_x]), float(row[col_y]))
                 for row in rows if row[col_x] != ""]
        assert table == list(defects(spec, values_x, values_y, steps,
                                     policy, past))
        assert report["residual_max"] == max(max(pair) for pair in table)


class TestSolveCommands:
    def test_solve_periodic(self, example1_path, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "table.csv"
        code = run(["solve-periodic", "--config", str(example1_path),
                    "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["converged"]
        assert report["x"] == [0.0, 0.0]
        _, rows = read_csv(csv_path)
        assert len(rows) == 2

    def test_solve_periodic_wrong_regime_exits_2(self, example2_path):
        assert run(["solve-periodic", "--config", str(example2_path),
                    "--out", "/dev/null"]) == 2

    def test_solve_asymptotic(self, example2_path, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "table.csv"
        code = run(["solve-asymptotic", "--config", str(example2_path),
                    "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["converged"]
        header, rows = read_csv(csv_path)
        assert len(rows) == 61
        assert header == CSV_HEADER
        # u, v, and bound columns populated in asymptotic mode
        assert rows[3][3] != "" and rows[3][4] != "" and rows[3][9] != ""

    def test_example2_h60_counts_in_the_report(self, example2_path,
                                               tmp_path):
        """The solve report carries the driver's counts: 22 mixing steps,
        two map evaluations of the refused convergence check and one
        Newton step, which starts from the check's first evaluation
        (example2 sets H = 60)."""
        out = tmp_path / "report.json"
        assert run(["solve-asymptotic", "--config", str(example2_path),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert (report["horizon"], report["iterations"],
                report["method_used"], report["map_calls"]) == (
            60, 23, "newton", 24)

    def test_horizon_from_config(self, example2_path, tmp_path):
        csv_path = tmp_path / "table.csv"
        code = run(["solve-asymptotic", "--config", str(example2_path),
                    "--csv", str(csv_path), "--out", "/dev/null"])
        assert code == 0
        _, rows = read_csv(csv_path)
        assert len(rows) == 61  # config carries horizon 60

    def test_default_horizon_when_unspecified(self, example2_path, tmp_path):
        config = json.loads(example2_path.read_text())
        del config["horizon"]
        path = tmp_path / "nohorizon.json"
        path.write_text(json.dumps(config))
        csv_path = tmp_path / "table.csv"
        code = run(["solve-asymptotic", "--config", str(path),
                    "--csv", str(csv_path), "--out", str(tmp_path / "r.json")])
        assert code == 0
        _, rows = read_csv(csv_path)
        # smallest horizon whose decay envelope sinks below 1e-12:
        # 2 * tail_mass_a * e^-n <= 1e-12 first holds at n = 30
        assert len(rows) == 31

    def test_verify_asymptotic(self, example2_path, tmp_path):
        code = run(["verify", "--config", str(example2_path),
                    "--mode", "asymptotic", "--out", str(tmp_path / "r.json")])
        assert code == 0
        body = json.loads((tmp_path / "r.json").read_text())["report"]
        assert body["verification"]["passed"]

    def test_verify_echo_reproduces_the_solve(self, example2_path, tmp_path):
        config = json.loads(example2_path.read_text())
        config.update(c1=1, c2=2, horizon=40)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        reports = {}
        for command in (["solve-asymptotic"],
                        ["verify", "--mode", "asymptotic"]):
            out = tmp_path / f"{command[0]}.json"
            run([*command, "--config", str(path), "--out", str(out)])
            reports[command[0]] = json.loads(out.read_text())
        solve = reports["solve-asymptotic"]["report"]
        for report in reports.values():
            scenario = parse_scenario(report["config"])
            assert (scenario.c1, scenario.c2, scenario.horizon) == (
                solve["c1"], solve["c2"], solve["horizon"])

    def test_loose_truncation_is_not_converged(self, example2_path,
                                               tmp_path):
        """example2 at H = 8 with tail_tol 1e-6: its truncation error,
        2.07e-7, exceeds residual_tol, so the solve and verify exit 2."""
        config = json.loads(example2_path.read_text())
        config.update(horizon=8, truncation={"tail_tol": 1e-6})
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert run(["verify", "--config", str(path), "--mode", "asymptotic",
                    "--out", str(out)]) == 2
        solve = json.loads(out.read_text())["report"]["solve"]
        assert solve["truncation_error"] > solve["residual_max"]
        assert solve["truncation_error"] > 1e-8
        assert not solve["converged"]
        assert "closure_error" not in solve

    @pytest.mark.parametrize("command", [["solve-asymptotic"],
                                         ["verify", "--mode", "asymptotic"]])
    def test_nonzero_history_gets_a_warning(self, command, example2_path,
                                            tmp_path):
        """The asymptotic solve starts from the zero history.  A config
        with another history gets the same solution and exit code, and a
        warning that names the assumption; a zero history, however it is
        written, gets none."""
        config = json.loads(example2_path.read_text())
        histories = {
            "demo": config["history"],
            "zeros": {"window": [[0.0, -0.0], [0.0, 0.0]],
                      "tail": {"x": 0.0, "y": 0.0}},
            "loud": {"window": [[0.7, -0.3]], "tail": {"x": 0.5, "y": 0.2}},
            "tail": {"window": [[0.0, 0.0]], "tail": {"x": 0.0, "y": 0.2}}}
        solves = {}
        for name, history in histories.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(config, history=history)))
            out = tmp_path / f"{name}.out.json"
            assert run([*command, "--config", str(path),
                        "--out", str(out)]) == 0
            report = json.loads(out.read_text())["report"]
            solves[name] = report.get("solve", report)
        for name, solve in solves.items():
            assert (solve["x"], solve["y"]) == (solves["demo"]["x"],
                                                solves["demo"]["y"])
            assert solve["warnings"] == (
                [cli.ZERO_HISTORY_WARNING] if name in ("loud", "tail")
                else [])

    def test_verify_periodic(self, example1_path, tmp_path):
        code = run(["verify", "--config", str(example1_path),
                    "--mode", "periodic", "--out", str(tmp_path / "r.json")])
        assert code == 0


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert run(["check", "--config", "/nonexistent.json",
                    "--mode", "periodic"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["check", "--config", str(bad), "--mode", "periodic"]) == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data", [
        pytest.param(*case, id=case[0]) for case in [
            ("bom", b"\xef\xbb\xbf{}"),
            ("crlf", b'{\r\n  "period": 2,\r\n  h: [1, 2]\r\n}\r\n'),
            ("cr", b'{\r"period": 2,\r\r"h" [1, 2]}'),
            ("crlf-string", b'{"period": "a\r\nb"}'),
            ("empty", b""),
            ("bad-utf-8", b'{"period": "\xff"}'),
            ("utf-16", '{"period": 2}'.encode("utf-16"))]])
    def test_config_errors_read_as_a_text_mode_load(self, tmp_path, capsys,
                                                    name, data):
        """The config is read as bytes and decoded as UTF-8, and its error
        is the one a text-mode json.load would give: a byte order mark is
        invalid JSON, and line, column and offset count every \\r\\n and
        \\r as one \\n."""
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        except json.JSONDecodeError as exc:
            want = f"error: {path}: invalid JSON: {exc}\n"
        except ValueError as exc:
            want = f"error: {exc}\n"
        assert run(["check", "--mode", "periodic", "--config",
                    str(path)]) == 1
        assert capsys.readouterr().err == want

    def test_schema_violation_names_field(self, tmp_path, capsys):
        config = {
            "period": 2, "h": [1.0], "p": [0.0, 0.0],
            "kernel_a": {"type": "finite_lag", "weights": [[1.0]]},
            "kernel_b": {"type": "finite_lag", "weights": [[1.0]]},
            "f": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0},
            "g": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run(["check", "--config", str(path), "--mode", "periodic"]) == 1
        assert "h" in capsys.readouterr().err

    def test_unknown_field_names_its_path(self, example2_path, tmp_path,
                                          capsys):
        config = json.loads(example2_path.read_text())
        config["solver"]["residual_tl"] = 1e-12
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert run(["verify", "--config", str(path), "--mode", "asymptotic",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: solver.residual_tl: unknown field\n")
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_nonfinite_amplitude_names_field(self, example2_path, tmp_path,
                                             capsys):
        config = json.loads(example2_path.read_text())
        config["c1"] = float("inf")  # written as Infinity
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(config))
        assert run(["solve-asymptotic", "--out", str(tmp_path / "r.json"),
                    "--config", str(path)]) == 1
        assert "c1: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("solver", [], "solver: expected an object"),
        ("solver", 0, "solver: expected an object"),
        ("solver", "", "solver: expected an object"),
        ("truncation", [], "truncation: expected an object"),
        ("truncation", 0, "truncation: expected an object"),
        ("truncation", "", "truncation: expected an object"),
        ("solver", {"initial_guess": {"x": ["0.5", True], "y": [0.0, 0.0]}},
         "solver.initial_guess.x[0]: expected a number"),
    ])
    def test_malformed_section_rejected(self, example1_path, tmp_path, capsys,
                                        key, value, message):
        config = json.loads(example1_path.read_text())
        config[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert run(["solve-periodic", "--config", str(path),
                    "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        pytest.param({"solver": {"max_iter": "many"}},
                     "solver.max_iter: expected an integer",
                     id="change0-solver.max_iter"),
        pytest.param({"horizon": "x"}, "horizon: expected an integer",
                     id="change1-horizon"),
        pytest.param({"horizon": -5},
                     "horizon: must be at least 4 periods (8), got -5",
                     id="change2-horizon"),
        pytest.param({"horizon": 3},
                     "horizon: must be at least 4 periods (8), got 3",
                     id="change3-horizon"),
        pytest.param({"solver": {"damping": 2}},
                     "solver.damping: must be in (0, 1], got 2.0",
                     id="change4-solver.damping"),
        # an integer too large for a double: refused as not finite, not
        # an OverflowError out of run
        *[pytest.param({key: value}, f"{field}: must be finite, got an "
                       f"integer beyond double range", id=f"huge-{field}")
          for key, value, field in [
              ("h", [0.5, int("9" * 400)], "h[1]"),
              ("c1", int("9" * 400), "c1"),
              ("solver", {"tol": int("9" * 400)}, "solver.tol"),
              ("horizon", int("9" * 400), "horizon")]],
    ])
    def test_check_validates_whole_document(self, example1_path, tmp_path,
                                            capsys, change, message):
        """Every command refuses a document that is broken in a part it
        does not use, before it writes anything."""
        config = json.loads(example1_path.read_text())
        config.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in (["check", "--mode", "periodic"],
                        ["check", "--mode", "asymptotic"],
                        ["simulate", "--steps", "3"], ["solve-periodic"],
                        ["solve-asymptotic"],
                        ["verify", "--mode", "periodic"]):
            assert run([*command, "--config", str(path),
                        "--out", str(tmp_path / "r.json")]) == 1
            assert f"error: {message}\n" in capsys.readouterr().err
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("command", [
        ["check", "--mode", "periodic"], ["simulate", "--steps", "3"],
        ["verify", "--mode", "periodic"]])
    def test_unwritable_path_names_its_flag(self, example1_path, tmp_path,
                                            capsys, command, flag):
        """A path under a missing directory exits 1 with an error line that
        names the flag, prints no report, and raises no traceback; check
        writes no table and takes no --csv, so it gives a usage error."""
        path = tmp_path / "missing" / "file"
        code = run([*command, "--config", str(example1_path), flag,
                    str(path)])
        out, err = capsys.readouterr()
        if command[0] == "check" and flag == "--csv":
            assert (code, out) == (1, "")
            assert f"error: unrecognized arguments: --csv {path}" in err
            return
        assert code == 1
        assert out == ""
        assert err == (f"error: {flag}: cannot write {str(path)!r}: "
                       f"[Errno 2] No such file or directory: "
                       f"{str(path)!r}\n")

    def test_check_takes_no_csv(self, example1_path, tmp_path, capsys):
        """check writes no table, so --csv is a usage error that names it:
        exit 1, the top-level usage, no report and no file."""
        table = tmp_path / "t.csv"
        code = run(["check", "--mode", "periodic", "--config",
                    str(example1_path), "--csv", str(table)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("usage: volterra2d [-h]")
        assert f"error: unrecognized arguments: --csv {table}\n" in err
        assert not table.exists()

    def test_unwritable_report_leaves_the_table(self, example1_path,
                                                tmp_path, capsys):
        """The table is written before the report, so a bad --out leaves
        a fresh --csv behind."""
        table = tmp_path / "t.csv"
        assert run(["simulate", "--steps", "3", "--config",
                    str(example1_path), "--csv", str(table),
                    "--out", str(tmp_path / "missing" / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("error: --out: ")
        header, rows = read_csv(table)
        assert header == CSV_HEADER and len(rows) == 4


@pytest.mark.parametrize("horizon", [2 ** 63, 10 ** 20])
def test_horizon_numpy_cannot_size_names_its_field(horizon, example2_path,
                                                   tmp_path, capsys):
    config = json.loads(example2_path.read_text())
    config["horizon"] = horizon
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["solve-asymptotic", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: horizon: must be at most "
                   f"{max_horizon(TruncationPolicy())}, the largest window "
                   f"numpy can size, got {horizon}\n")


def test_memory_error_exits_1(example1_path, monkeypatch, capsys):
    """A MemoryError out of a command is an error line and exit 1 (here
    raised, not provoked by an allocation)."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "simulate", exhausted)
    assert run(["simulate", "--steps", "3",
                "--config", str(example1_path)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_window_beyond_memory_exits_1(example2_path, tmp_path):
    """A horizon of 10**12 parses, and numpy then fails to allocate its
    window: under a 1 GiB address-space limit, set in a subprocess, the
    command exits 1 with numpy's error line and no traceback."""
    pytest.importorskip("resource")
    config = json.loads(example2_path.read_text())
    config["horizon"] = 10 ** 12
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, {(2 ** 30,) * 2})\n"
              "from volterra2d.cli import run\n"
              "sys.exit(run(sys.argv[1:]))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, "solve-asymptotic",
         "--config", str(path)], capture_output=True, text=True,
        cwd=SRC_DIR, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 1
    assert result.stderr.startswith("error: Unable to allocate")
    assert "Traceback" not in result.stderr


def test_finite_lag_config_end_to_end(tmp_path):
    config = {
        "period": 2, "h": [0.5, 0.2], "p": [0.3, 0.4],
        "kernel_a": {"type": "finite_lag",
                     "weights": [[0.4, 0.1], [0.2, -0.1]]},
        "kernel_b": {"type": "finite_lag",
                     "weights": [[0.3, 0.0], [0.1, 0.2]]},
        "f": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0},
        "g": {"kind": "cos", "amplitude": 0.5, "frequency": 1.0}}
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(config))
    assert run(["check", "--config", str(path), "--mode", "periodic",
                "--out", str(tmp_path / "c.json")]) == 0
    assert run(["solve-periodic", "--config", str(path),
                "--out", str(tmp_path / "s.json")]) == 0
    report = json.loads((tmp_path / "s.json").read_text())["report"]
    assert report["converged"]
    assert run(["simulate", "--config", str(path), "--steps", "6",
                "--out", str(tmp_path / "t.json")]) == 0


def test_bad_history_value_reports_field_path(tmp_path, capsys, example1_path):
    config = json.loads(example1_path.read_text())
    config["history"] = {"window": [[0.0, None]]}
    path = tmp_path / "badhist.json"
    path.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(path), "--steps", "2",
                "--out", "/dev/null"]) == 1
    assert "history.window[0][1]" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude, frequency", [
    (10 ** 200, 10 ** 200), (1.0, 10 ** 200), (1.0, 1e200)],
    ids=["integers", "integer-frequency", "float-frequency"])
@pytest.mark.parametrize("argv", [
    ["check", "--mode", "periodic"], ["check", "--mode", "asymptotic"],
    ["verify", "--mode", "periodic"], ["simulate", "--steps", "3"]])
def test_huge_nonlinearity_fields_end_without_an_exception(
        amplitude, frequency, argv, tmp_path, example1_path):
    """Finite fields whose products overflow a double, integers among
    them, give infinite bounds and an exit code, never an exception."""
    config = json.loads(example1_path.read_text())
    config["f"] = {"kind": "sin", "amplitude": amplitude,
                   "frequency": frequency}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    assert run([*argv, "--config", str(path),
                "--out", str(tmp_path / "r.json")]) in (0, 1, 2)


def test_console_entry_point(example1_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "volterra2d.cli", "check",
         "--config", str(example1_path), "--mode", "periodic",
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, cwd=SRC_DIR)
    assert result.returncode == 0
    assert json.loads((tmp_path / "r.json").read_text())["report"]["passed"]


def _demo_config(name, example1_path, example2_path):
    """A demo config, or a variant of it with nonzero values everywhere:
    cos nonlinearities (a periodic solution away from 0) or a nonzero
    history with a nonzero tail."""
    base, _, variant = name.partition("-")
    path = example1_path if base == "example1" else example2_path
    config = json.loads(path.read_text())
    if variant == "cos":
        config.update(TestTableDefects.COS_NONLINEARITIES)
    elif variant == "history":
        config["history"] = {"window": [[0.3, -0.2], [0.1, 0.4]],
                             "tail": {"x": 0.05, "y": -0.1}}
    elif variant:  # tT-hH: period T and asymptotic window H
        period, horizon = (int(part[1:]) for part in variant.split("-"))
        coefficients = WINDOW_COEFFICIENTS[period]
        config.update(period=period, h=coefficients, p=coefficients[::-1],
                      horizon=horizon)
    return config


def reference_rows(argv, scenario):
    """The table of the command ``argv`` as one dict per row n, built from
    the library's results the way the row-wise writer took it."""
    spec = scenario.spec
    if argv[0] == "simulate":
        trajectory = simulate(spec, scenario.history, int(argv[2]),
                              scenario.policy)
        return [{"n": n, "x": trajectory.x[n], "y": trajectory.y[n]}
                for n in range(len(trajectory))]
    if argv[0] == "solve-periodic" or argv[-1] == "periodic":
        report = solve_periodic(spec, scenario.solver, scenario.policy)
        sol_x, sol_y = report.solution
        rows = [{"n": n, "x": sol_x.get(n), "y": sol_y.get(n)}
                for n in range(spec.period)]
    else:
        horizon = (default_horizon(spec) if scenario.horizon is None
                   else scenario.horizon)
        report = solve_asymptotic(spec, scenario.c1, scenario.c2, horizon,
                                  scenario.solver, scenario.policy)
        dec = report.decomposition
        rows = [{"n": n, "x": report.x[n], "y": report.y[n],
                 "u1": dec.u1.get(n), "v1": dec.v1[n],
                 "u2": dec.u2.get(n), "v2": dec.v2[n],
                 "bound_v1": dec.v1_bound[n], "bound_v2": dec.v2_bound[n]}
                for n in range(horizon + 1)]
    for row, (dx, dy) in zip(rows, report.defects):
        row.update(res_x=dx, res_y=dy)
    return rows


def reference_report(argv, scenario):
    """The report of the command ``argv`` as the writer took it before the
    table text was shared: each column a list of the library's floats."""
    spec, policy = scenario.spec, scenario.policy
    mode = argv[argv.index("--mode") + 1] if "--mode" in argv else None

    def echo(**extras):
        return {**spec_to_config(spec),
                **{k: v for k, v in extras.items() if v is not None}}

    if argv[0] == "check":
        report = (check_periodic_hypotheses(spec) if mode == "periodic" else
                  check_asymptotic_hypotheses(spec, scenario.c1, scenario.c2))
        return {"command": "check", "mode": mode,
                "config": echo(c1=scenario.c1, c2=scenario.c2),
                "report": report.as_dict()}
    if argv[0] == "simulate":
        history, steps = scenario.history, int(argv[2])
        trajectory = simulate(spec, history, steps, policy)
        tail = history.tail
        body = {"x": list(trajectory.x), "y": list(trajectory.y),
                "tail_tolerance_used": trajectory.tail_tolerance_used}
        # an overflowing run names its first step with a non-finite value
        for n, (x, y) in enumerate(zip(trajectory.x, trajectory.y)):
            if not (math.isfinite(x) and math.isfinite(y)):
                body["warnings"] = [
                    f"simulate: the trajectory is not finite at n = {n} "
                    f"(x = {x!r}, y = {y!r}); it overflowed"]
                break
        return {"command": "simulate", "steps": steps,
                "config": echo(
                    history={"window": [[a, b] for a, b in history.window],
                             "tail": "zero" if tail is None
                             else {"x": tail[0], "y": tail[1]}},
                    truncation={"tail_tol": policy.tail_tol,
                                "max_terms": policy.max_terms}),
                "report": body}
    if argv[0] == "solve-periodic" or mode == "periodic":
        solved = solve_periodic(spec, scenario.solver, policy)
        config = echo()
    else:
        horizon = (default_horizon(spec) if scenario.horizon is None
                   else scenario.horizon)
        solved = solve_asymptotic(spec, scenario.c1, scenario.c2, horizon,
                                  scenario.solver, policy)
        # the solve assumes the zero history and warns of any other one
        history = scenario.history
        if any(history.value_at(m) != (0.0, 0.0)
               for m in range(-history.depth - 1, 1)):
            solved = dataclasses.replace(solved, warnings=(
                *solved.warnings, cli.ZERO_HISTORY_WARNING))
        config = echo(c1=scenario.c1, c2=scenario.c2, horizon=horizon)
    if argv[0] != "verify":
        return {"command": argv[0], "config": config,
                "report": solved.as_dict()}
    verification = (
        verify_periodic(spec, solved.solution) if mode == "periodic" else
        verify_decomposition(spec, solved.decomposition,
                             tail_tol=policy.tail_tol))
    return {"command": "verify", "mode": mode, "config": config,
            "report": {"solve": solved.as_dict(),
                       "verification": verification.as_dict()}}


DEMO_CONFIGS = ["example1", "example2", "example1-cos", "example2-history"]

#: h (and p reversed) of each period of the example2 window variants.
WINDOW_COEFFICIENTS = {1: [0.0], 2: [-0.5, 1.0], 3: [-0.5, 1.0, 0.0]}
#: example2 at periods 1-3 over windows H = 8, 40, 400; a window shorter
#: than four periods is refused before any table is written.
WINDOW_CONFIGS = [f"example2-t{period}-h{horizon}" for period in (1, 2, 3)
                  for horizon in (8, 40, 400) if horizon >= 4 * period]

COMMANDS = {
    "check-periodic": ["check", "--mode", "periodic"],
    "check-asymptotic": ["check", "--mode", "asymptotic"],
    "simulate-0": ["simulate", "--steps", "0"],
    "simulate-1": ["simulate", "--steps", "1"],
    "simulate-25": ["simulate", "--steps", "25"],
    "solve-periodic": ["solve-periodic"],
    "solve-asymptotic": ["solve-asymptotic"],
    "verify-periodic": ["verify", "--mode", "periodic"],
    "verify-asymptotic": ["verify", "--mode", "asymptotic"],
}


class TestWriters:
    """The column-wise CSV writer gives the row-wise writer's bytes, and
    every report is strict JSON (RFC 8259: no NaN or Infinity)."""

    @pytest.mark.parametrize("command, config_name", [
        (command, config_name) for config_name in DEMO_CONFIGS
        for command in COMMANDS if not command.startswith("check")] + [
        (command, config_name) for config_name in WINDOW_CONFIGS
        for command in ("solve-asymptotic", "verify-asymptotic")])
    def test_csv_bytes_match_row_writer(self, command, config_name,
                                        example1_path, example2_path,
                                        tmp_path):
        config = _demo_config(config_name, example1_path, example2_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = COMMANDS[command]
        csv_path, expected = tmp_path / "table.csv", tmp_path / "expected.csv"
        code = run([*argv, "--config", str(path), "--csv", str(csv_path),
                    "--out", str(tmp_path / "r.json")])
        try:
            rows = reference_rows(argv, parse_scenario(config))
        except _DOMAIN_ERRORS:
            assert code == 2 and not csv_path.exists()
            return
        csv_reference(rows, expected)
        assert csv_path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("config_name", ["example1", "example2"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_reports_are_strict_json(self, command, config_name,
                                     example1_path, example2_path, capsys):
        path = example1_path if config_name == "example1" else example2_path
        code = run([*COMMANDS[command], "--config", str(path)])
        out, err = capsys.readouterr()
        if not out:  # the solver refused the regime: no report
            assert code == 2 and err
            return

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        assert out.count("\n") == 1
        report = json.loads(out, parse_constant=reject)
        assert report["command"] == COMMANDS[command][0]

    def test_shorter_output_leaves_no_stale_tail(self, example2_path,
                                                 tmp_path):
        # Outputs are written over the old bytes and cut to length: a
        # short run over a long one must read as the short run alone.
        def outputs(steps, name):
            out, table = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert run(["simulate", "--steps", str(steps), "--config",
                        str(example2_path), "--out", str(out),
                        "--csv", str(table)]) == 0
            return out.read_bytes(), table.read_bytes()

        longer = outputs(400, "reused")
        fresh = outputs(25, "fresh")
        assert all(len(old) > len(new) for old, new in zip(longer, fresh))
        assert outputs(25, "reused") == fresh

    def test_only_a_longer_file_is_cut(self, example2_path, tmp_path,
                                       monkeypatch):
        """A report or table is cut only where the old file was longer
        than the new text: a new file, or an old one as long or shorter,
        is written over and never truncated."""
        cuts = []
        truncate = os.ftruncate

        def counted(fd, length):
            cuts.append(length)
            truncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", counted)

        def outputs(steps):
            out, table = tmp_path / "r.json", tmp_path / "t.csv"
            assert run(["simulate", "--steps", str(steps), "--config",
                        str(example2_path), "--out", str(out),
                        "--csv", str(table)]) == 0
            return out.read_bytes(), table.read_bytes()

        short = outputs(5)  # new files
        long = outputs(25)  # over shorter ones
        assert outputs(25) == long and cuts == []  # over as long ones
        assert outputs(5) == short  # over longer ones
        assert sorted(cuts) == sorted(map(len, short))

    def test_outputs_to_dev_null(self, example1_path):
        assert run(["simulate", "--steps", "5", "--config",
                    str(example1_path), "--out", os.devnull,
                    "--csv", os.devnull]) == 0

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_new_files_get_mode_0o666_less_the_umask(self, example1_path,
                                                     tmp_path):
        out, table = tmp_path / "r.json", tmp_path / "t.csv"
        umask = os.umask(0o027)
        try:
            assert run(["simulate", "--steps", "5", "--config",
                        str(example1_path), "--out", str(out),
                        "--csv", str(table)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert stat.S_IMODE(table.stat().st_mode) == 0o640

    def test_nonfinite_values_are_written_as_null(self, tmp_path):
        out = tmp_path / "r.json"
        inf, nan = float("inf"), float("nan")
        _write_report({"a": inf, "b": [1.5, -inf, (nan, 2.0)],
                       "c": {"d": np.float64(nan), "e": "inf"}, "f": 3},
                      str(out))
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text) == {"a": None, "b": [1.5, None, [None, 2.0]],
                                    "c": {"d": None, "e": "inf"}, "f": 3}

    def test_demo1_tail_mass_is_null(self, example1_path, tmp_path):
        # The demo-1 kernels have col_rate = row_rate, so their double tail
        # sums are infinite: JSON cannot hold the value, null stands in.
        out = tmp_path / "r.json"
        assert run(["check", "--mode", "asymptotic", "--config",
                    str(example1_path), "--out", str(out)]) == 2
        report = json.loads(out.read_text())["report"]
        assert report["quantities"]["tail_mass_a"] is None
        assert report["quantities"]["tail_mass_b"] is None
        summable = [item for item in report["items"]
                    if item["key"] == "summable_kernels"]
        assert summable[0]["values"] == {"tail_mass_a": None,
                                         "tail_mass_b": None}

    # Table column -> report key, for every column a report repeats.
    SHARED = {"x": "x", "y": "y", "v1": "v1", "v2": "v2",
              "bound_v1": "v1_bound", "bound_v2": "v2_bound"}

    @pytest.mark.parametrize("config_name",
                             ["example1", "example2", "example2-history"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_report_bytes_match_float_report(self, command, config_name,
                                             example1_path, example2_path,
                                             tmp_path):
        config = _demo_config(config_name, example1_path, example2_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = COMMANDS[command]
        out, expected = tmp_path / "r.json", tmp_path / "expected.json"
        table = [] if argv[0] == "check" else ["--csv",
                                               str(tmp_path / "table.csv")]
        code = run([*argv, "--config", str(path), "--out", str(out), *table])
        try:
            report = reference_report(argv, parse_scenario(config))
        except _DOMAIN_ERRORS:
            assert code == 2 and not out.exists()
            return
        report_reference(report, expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("config_name",
                             ["example1", "example2", "example2-history"])
    @pytest.mark.parametrize("command", [
        name for name in COMMANDS if not name.startswith("check")])
    def test_csv_cells_are_the_report_tokens(self, command, config_name,
                                             example1_path, example2_path,
                                             tmp_path):
        config = _demo_config(config_name, example1_path, example2_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = COMMANDS[command]
        out, table = tmp_path / "r.json", tmp_path / "table.csv"
        code = run([*argv, "--config", str(path), "--out", str(out),
                    "--csv", str(table)])
        if not out.exists():  # the solver refused the regime
            assert code == 2
            return
        report = json.loads(out.read_text(), parse_float=str)["report"]
        body = report["solve"] if argv[0] == "verify" else report
        with open(table, newline="") as fh:
            header, *rows = csv.reader(fh)
        shared = [name for name in self.SHARED if self.SHARED[name] in body]
        asymptotic = argv[0] == "solve-asymptotic" or argv[-1] == "asymptotic"
        assert shared == (list(self.SHARED) if asymptotic else ["x", "y"])
        for name in shared:
            column = [row[header.index(name)] for row in rows]
            assert column == body[self.SHARED[name]]

    def test_overflow_writes_null_and_nonfinite_cells(self, example2_path,
                                                      tmp_path):
        # Gains of 101 from (-1, 1) overflow x to -inf and y to inf, and
        # the cos nonlinearities of inf make every later value nan.
        config = json.loads(example2_path.read_text())
        config["h"] = config["p"] = [100.0] * config["period"]
        config["history"] = {"window": [[-1.0, 1.0]], "tail": "zero"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--steps", "300"]
        out, table = tmp_path / "r.json", tmp_path / "table.csv"
        expected_out = tmp_path / "expected.json"
        expected_table = tmp_path / "expected.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run([*argv, "--config", str(path), "--out", str(out),
                        "--csv", str(table)]) == 0
            scenario = parse_scenario(config)
            report_reference(reference_report(argv, scenario), expected_out)
            csv_reference(reference_rows(argv, scenario), expected_table)
        assert out.read_bytes() == expected_out.read_bytes()
        assert table.read_bytes() == expected_table.read_bytes()

        body = json.loads(out.read_text(), parse_float=str)["report"]
        with open(table, newline="") as fh:
            header, *rows = csv.reader(fh)
        cells = [row[header.index(name)] for name in ("x", "y")
                 for row in rows]
        tokens = body["x"] + body["y"]
        assert {"inf", "-inf", "nan"} <= set(cells)
        assert tokens == [None if cell in ("inf", "-inf", "nan") else cell
                          for cell in cells]

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_period_columns_are_the_text_of_take(self, period, example1_path,
                                                  example2_path, tmp_path):
        """u1 and u2 are formatted once per period value: their cells
        are float.__repr__ of the column over the window, on a horizon
        that is no multiple of the period, and a Period column gives them
        at every length."""
        horizon = 4 * period + 2 if period > 1 else 7
        config = _demo_config(f"example2-t{period}-h{horizon}",
                              example1_path, example2_path)
        path, table = tmp_path / "config.json", tmp_path / "table.csv"
        path.write_text(json.dumps(config))
        assert run(["solve-asymptotic", "--config", str(path),
                    "--csv", str(table),
                    "--out", str(tmp_path / "r.json")]) == 0
        scenario = parse_scenario(config)
        dec = solve_asymptotic(scenario.spec, scenario.c1, scenario.c2,
                               horizon, scenario.solver,
                               scenario.policy).decomposition
        header, rows = read_csv(table)
        for name in ("u1", "u2"):
            seq = getattr(dec, name)
            column = [row[header.index(name)] for row in rows]
            assert column == list(map(float.__repr__, seq.take(
                np.arange(horizon + 1)).tolist()))
            for length in range(3 * period + 2):
                assert _cells({name: Period(seq.values, length)},
                              "table.csv")[name] == list(map(
                                  float.__repr__,
                                  seq.take(np.arange(length)).tolist()))

    @given(st.lists(st.floats(allow_nan=False), max_size=20))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e-4, 0.1,
              1e22, 1.7976931348623157e308, math.inf, -math.inf])
    def test_cells_read_back_as_the_same_doubles(self, values):
        # Every cell reads back as its double, bit for bit, and the report
        # writes the same text for it (null where it is not finite).
        cells = _cells({"x": values, "res_x": values[::-1]}, "table.csv")
        with tempfile.TemporaryDirectory() as tmp:
            table, out = Path(tmp, "table.csv"), Path(tmp, "r.json")
            _write_csv(len(values), cells, str(table))
            _write_report(_share({"x": values}), str(out), cells)
            with open(table, newline="") as fh:
                header, *rows = csv.reader(fh)
            tokens = json.loads(out.read_text(), parse_float=str)["x"]

        def bits(numbers):
            return [struct.pack("<d", number) for number in numbers]

        assert len(rows) == len(values)
        for name, column in (("x", values), ("res_x", values[::-1])):
            read = [float(row[header.index(name)]) for row in rows]
            assert bits(read) == bits(column)
        assert tokens == [cell if math.isfinite(value) else None
                          for cell, value in zip(cells["x"], values)]


def _outcome(call, argv):
    """(exit code, result, stdout, stderr) of ``call(argv)``, the code None
    where it returned and the result None where it exited."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, result = None, call(argv)
        except SystemExit as exc:
            code, result = exc.code, None
    return code, result, out.getvalue(), err.getvalue()


#: Each command's options besides -h, in its parser's order.
OPTIONS = {
    "check": ["--config", "--out", "--mode"],
    "simulate": ["--config", "--out", "--csv", "--steps"],
    "solve-periodic": ["--config", "--out", "--csv"],
    "solve-asymptotic": ["--config", "--out", "--csv"],
    "verify": ["--config", "--out", "--csv", "--mode"],
}

#: Flags that would set a config value a second way, beside its field
#: in the document: no command takes them.
OVERRIDE_FLAGS = ("--tol", "--tail-tol", "--c1", "--c2", "--horizon")

#: Command and flag pairs that the command does not take.
UNREAD_FLAGS = [(command, flag) for command in OPTIONS
                for flag in OVERRIDE_FLAGS]


def _flags(command, config, tmp_path):
    """--config, --out and each optional flag that ``command`` takes, with
    a value."""
    values = {"--config": str(config), "--out": str(tmp_path / "r.json"),
              "--csv": str(tmp_path / "t.csv")}
    return [word for flag in OPTIONS[command] if flag in values
            for word in (flag, values[flag])]


def _dispatch_cases(example1, example2, tmp_path):
    """Argument lists by name: every command with every flag, the
    --flag=value form, an abbreviation, missing, bad and extra arguments,
    help and argument lists that name no command."""
    c1, c2 = str(example1), str(example2)
    cases = {
        "check": ["check", "--mode", "periodic",
                  *_flags("check", example1, tmp_path)],
        "check-csv": ["check", "--mode", "periodic",
                      *_flags("check", example1, tmp_path),
                      "--csv", str(tmp_path / "t.csv")],
        "simulate": ["simulate", "--steps", "5",
                     *_flags("simulate", example1, tmp_path)],
        "solve-periodic": ["solve-periodic",
                           *_flags("solve-periodic", example1, tmp_path)],
        "solve-asymptotic": ["solve-asymptotic",
                             *_flags("solve-asymptotic", example2, tmp_path)],
        "verify": ["verify", "--mode", "asymptotic",
                   *_flags("verify", example2, tmp_path)],
        "equals-form": ["check", "--mode=periodic", "--config=" + c1],
        "abbreviation": ["check", "--conf", c1, "--mode", "periodic"],
        "missing-mode": ["check", "--config", c1],
        "missing-steps": ["simulate", "--config", c1],
        "missing-config": ["solve-periodic"],
        "bad-mode": ["verify", "--mode", "bogus", "--config", c2],
        "bad-steps": ["simulate", "--config", c1, "--steps", "x"],
        "extra-flag": ["check", "--mode", "periodic", "--config", c1,
                       "--bogus", "1"],
        "extra-word": ["solve-periodic", "--config", c1, "stray"],
        "extra-and-missing": ["check", "--config", c1, "--bogus"],
        "flag-of-another-command": ["check", "--mode", "periodic",
                                    "--config", c1, "--steps", "3"],
        "empty": [],
        "unknown-command": ["nosuch"],
        "command-prefix": ["ver", "--config", c1],
        "flags-first": ["--config", c1, "check"],
        "top-help": ["-h"],
        "top-long-help": ["--help"],
        "config-starts-with-dash": ["check", "--mode", "periodic",
                                    "--config", "-x"],
        "config-twice": ["check", "--mode", "periodic", "--config", c1,
                         "--config", c2],
        "config-empty": ["check", "--mode", "periodic", "--config", ""],
        "steps-negative": ["simulate", "--config", c1, "--steps", "-3"],
        "steps-leading-space": ["simulate", "--config", c1, "--steps", " 5"],
        "steps-underscore": ["simulate", "--config", c1, "--steps", "1_000"],
        "steps-empty": ["simulate", "--config", c1, "--steps", ""],
        "double-dash": ["check", "--mode", "periodic", "--config", c1, "--"],
        "mode-without-value": ["check", "--config", c1, "--mode"],
        "help-after-a-whole-line": ["check", "--mode", "periodic",
                                    "--config", c1, "-h"],
    }
    for command in ("check", "simulate", "solve-periodic",
                    "solve-asymptotic", "verify"):
        cases[f"{command}-help"] = [command, "-h"]
    return cases


DISPATCH_CASES = list(_dispatch_cases("a", "b", Path("t")))

#: The dispatch cases that are the command word and then pairs of its
#: flags and values of their type and choices, each flag once and every
#: required flag there: the lines read from the flag table.
PAIR_CASES = {"check", "simulate", "solve-periodic", "solve-asymptotic",
              "verify", "config-empty", "steps-leading-space",
              "steps-underscore"}

#: Words that argument lists are drawn from: command words, prefixes of
#: them and unknown words; every command's flags, abbreviations, help and
#: other words that start with -; values of the flags' types and choices,
#: and values that are not or that start with -.
_COMMAND_WORDS = ["check", "simulate", "solve-periodic", "solve-asymptotic",
                  "verify", "ver", "solve", "nosuch", ""]
_FLAG_WORDS = ["--config", "--out", "--csv", "--mode", "--steps", "--conf",
               "--c", "--o", "--mo", "--st", "--tol", "--bogus", "-h",
               "--help", "--", "-"]
_VALUE_WORDS = ["a", "b", "periodic", "asymptotic", "bogus", "5", "0",
                "-3", " 5", "1_000", "", "-x", "x y", "--config"]
#: Values that each flag takes; a path flag takes any of _PATHS.
_GOOD_VALUES = {"--mode": ["periodic", "asymptotic"],
                "--steps": ["5", "0", " 5", "1_000"]}
_PATHS = ["a", "b", "", "x y"]

_WORD = st.one_of(st.sampled_from(_FLAG_WORDS),
                  st.sampled_from(_VALUE_WORDS),
                  st.builds("{}={}".format, st.sampled_from(_FLAG_WORDS),
                            st.sampled_from(_VALUE_WORDS)))


def _value(flag):
    """A value that the flag takes, most of the time, or any drawn one."""
    good = st.sampled_from(_GOOD_VALUES.get(flag, _PATHS))
    return st.one_of(good, good, st.sampled_from(_VALUE_WORDS))


@st.composite
def _argvs(draw):
    """A command word, most of the time, then a pair of each of its flags
    in any order, each with a value drawn by _value; then up to two
    edits, each one of: a pair left out, a pair of any drawn flag put
    in, a pair joined as flag=value, or a drawn word put in."""
    command = draw(st.sampled_from(list(OPTIONS))
                   | st.sampled_from([*_COMMAND_WORDS, None]))
    items = [[flag, draw(_value(flag))]
             for flag in draw(st.permutations(OPTIONS.get(command, [])))]
    for edit in draw(st.lists(st.integers(0, 3), max_size=2)):
        at = draw(st.integers(0, len(items)))
        if edit == 1:
            flag = draw(st.sampled_from(_FLAG_WORDS))
            items.insert(at, [flag, draw(_value(flag))])
        elif at == len(items) or edit == 3:
            items.insert(at, [draw(_WORD)])
        elif edit == 0:
            del items[at]
        else:
            items[at] = ["=".join(items[at])]
    return [command] * (command is not None) + [word for item in items
                                                for word in item]


def _reference(argv):
    """The Namespace of the top-level parser alone, or a SystemExit."""
    code, args = parse_reference(argv)
    if args is None:
        raise SystemExit(code)
    return args


def _assert_parses_as_reference(argv):
    """``cli._parse`` gives the top-level parser's exit code, Namespace,
    attribute order, stdout and stderr."""
    got, reference = _outcome(cli._parse, argv), _outcome(_reference, argv)
    assert got == reference
    if got[1] is not None:
        assert list(vars(got[1])) == list(vars(reference[1]))


class TestDispatch:
    """The command word's own parser gives what the top-level parser gave:
    the same exit code, output, error text and Namespace."""

    @pytest.mark.parametrize("name", DISPATCH_CASES)
    def test_parse_equals_top_level_parse(self, name, example1_path,
                                          example2_path, tmp_path):
        _assert_parses_as_reference(
            _dispatch_cases(example1_path, example2_path, tmp_path)[name])

    @pytest.mark.parametrize("name", DISPATCH_CASES)
    def test_run_equals_top_level_run(self, name, example1_path,
                                      example2_path, tmp_path, monkeypatch):
        argv = _dispatch_cases(example1_path, example2_path, tmp_path)[name]
        outputs = [tmp_path / "r.json", tmp_path / "t.csv"]

        def outcome():
            result = _outcome(run, argv)
            files = [p.read_bytes() if p.exists() else None for p in outputs]
            for p in outputs:
                p.unlink(missing_ok=True)
            return result, files

        got = outcome()
        monkeypatch.setattr(cli, "_parse",
                            lambda argv: cli._build_parser().parse_args(argv))
        assert got == outcome()

    @pytest.mark.parametrize("name", DISPATCH_CASES)
    def test_pairs_are_read_from_the_flag_table(self, name, example1_path,
                                                example2_path, tmp_path):
        """A line of pairs is read without argparse, to the Namespace
        argparse builds; every other line is left to argparse."""
        argv = _dispatch_cases(example1_path, example2_path, tmp_path)[name]
        command = cli._build_parser().commands.get(argv[0] if argv else "")
        args = None if command is None else cli._read_pairs(command, argv)
        if name not in PAIR_CASES:
            assert args is None
            return
        reference = parse_reference(argv)[1]
        assert args == reference
        assert list(vars(args)) == list(vars(reference))

    @settings(max_examples=400, deadline=None)
    @given(argv=_argvs())
    @example(argv=["check", "--mode", "periodic", "--config", "a"])
    @example(argv=["simulate", "--steps", "5", "--config", "a", "--csv",
                   "b", "--out", "b"])
    @example(argv=["verify", "--config", "a", "--mode", "asymptotic",
                   "--csv", "b"])
    def test_drawn_lines_parse_as_the_top_level_parser(self, argv):
        """Lines drawn from command words, flags, abbreviations, the
        --flag=value form, help and good and bad values."""
        _assert_parses_as_reference(argv)

    def test_extras_get_the_top_level_usage(self, example1_path, capsys):
        code = run(["check", "--mode", "periodic", "--config",
                    str(example1_path), "--bogus", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage: volterra2d [-h]")
        assert "error: unrecognized arguments: --bogus 1" in err

    def test_subcommand_help_gets_its_own_usage(self, capsys):
        assert run(["verify", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: volterra2d verify")


class TestFlagSurface:
    """Each command takes exactly the flags that it reads."""

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_command_takes_exactly_its_options(self, command):
        parser = cli._build_parser().commands[command]
        options = [option for action in parser._actions
                   for option in action.option_strings
                   if option not in ("-h", "--help")]
        assert options == OPTIONS[command]

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_gets_the_top_level_usage(self, command, flag,
                                                  example1_path, tmp_path,
                                                  capsys):
        """A flag that the command does not take is an argument it leaves
        over: exit 1, the top-level usage, no report and no file."""
        words = {"check": ["check", "--mode", "periodic"],
                 "simulate": ["simulate", "--steps", "3"],
                 "solve-periodic": ["solve-periodic"],
                 "solve-asymptotic": ["solve-asymptotic"],
                 "verify": ["verify", "--mode", "periodic"]}[command]
        outputs = [tmp_path / "r.json", tmp_path / "t.csv"]
        code = run([*words, *_flags(command, example1_path, tmp_path),
                    flag, "0.5"])
        stdout, err = capsys.readouterr()
        assert (code, stdout) == (1, "")
        assert err.startswith("usage: volterra2d [-h]")
        assert f"error: unrecognized arguments: {flag} 0.5\n" in err
        assert not any(path.exists() for path in outputs)
