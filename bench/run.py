#!/usr/bin/env python3
"""volterra2d benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload periodic-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's scenario configs are
generated from the seed and written before timing starts; then the batch
goes through ``volterra2d.cli.run`` in this process, one operation at a
time, in whole passes, as many as fit into ``--seconds``.  Every output is
checked by bench/oracle.py outside the timed region.  A host-speed
yardstick (bench/hostspeed.py) is timed right before every operation, and
the end-to-end timings are given at its reference speed; the plain wall
times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics per pass of the
batch (bench/tracing.py), plus the tracing overhead.  The last line of
standard output is one JSON object; the lines before it print every
metric by name and unit.  Metric definitions: bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

#: BLAS/OpenMP pools pinned to one thread before numpy loads: two threads
#: on a two-core machine made one solve vary from 33 ms to 613 ms.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh interpreters timed for setup_s (after one untimed warm start).
SETUP_SAMPLES = 11

#: The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10

#: Whole untraced passes of the batch in every --trace 0 run.  With B
#: operations per pass the run has at least MIN_PASSES * B samples, which
#: fixes the tail percentile for the workload (see _tail).
MIN_PASSES = 4

#: No new operation starts after this many seconds, whatever --seconds
#: says, so a run ends well inside its time limit.
HARD_STOP_S = 140.0

END_TO_END = (("ops_per_s", "1/s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("certified_share", "ratio"))

WORK_DIR = ".bench_out"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(root: Path, workload: str, seed: int, out_dir: Path):
    """Import the library and write the workload's configs: everything a
    run does before its first timed operation."""
    sys.path.insert(0, str(root / "src"))
    from volterra2d import cli

    ops = workloads.generate(workload, seed)
    paths = []
    for i, op in enumerate(ops):
        path = out_dir / f"op{i:03d}.config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
        paths.append((str(path), str(out_dir / f"op{i:03d}")))
    return cli, ops, paths


def _measure_setup(workload: str, seed: int, work: Path):
    """Times from starting a fresh interpreter to the end of _setup, and
    the yardstick timed before each of them and after the last."""
    import hostspeed

    samples, yards = [], []
    for k in range(SETUP_SAMPLES + 1):
        probe_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
        yard = hostspeed.measure()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(probe_dir)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        shutil.rmtree(probe_dir)
        if k:
            samples.append(elapsed)
            yards.append(yard)
    yards.append(hostspeed.measure())
    return samples, yards


class Runner:
    """Runs operations through the CLI and judges their outputs."""

    def __init__(self, cli, ops, paths):
        self.cli_run = cli.run
        self.ops = ops
        self.paths = paths
        self.attempted = 0
        self.certified = 0
        self.errors = 0
        self.false_fails = 0
        self.unsolved = 0
        self.problems = []

    def commands(self, i: int, cli_run=None):
        """Run operation i's commands; return their exit codes, or None if
        one raised."""
        cli_run = cli_run or self.cli_run
        config, prefix = self.paths[i]
        try:
            return [cli_run(argv) for argv in self.ops[i].argvs(config, prefix)]
        except Exception:  # any escape from cli.run is an operation error
            traceback.print_exc(file=sys.stderr)
            return None

    def judge(self, i: int, codes) -> None:
        """Count operation i as certified, not certified or an error.

        Exit 0 from every command is certified, exit 2 is "not certified"
        and not an error.  An error is a raise, an exit 1, a missing,
        malformed or non-finite output, or a certified result whose
        recurrence defect (bench/oracle.py) exceeds its tolerance."""
        import oracle

        op = self.ops[i]
        self.attempted += 1
        problem = ""
        if codes is None:
            problem = "raised"
        elif any(code not in (0, 2) for code in codes):
            problem = f"exit codes {codes}"
        else:
            certified = all(code == 0 for code in codes)
            prefix = self.paths[i][1]
            try:
                with open(prefix + ".json", encoding="utf-8") as fh:
                    report = json.load(fh)
                ok, defect, problem = oracle.check(op.config, op.mode, report,
                                                   prefix + ".csv")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ok, defect, problem = False, float("nan"), f"output: {exc!r}"
            if ok:
                correct = defect <= oracle.DEFECT_TOL
                if certified and not correct:
                    problem = f"certified with defect {defect:.3e}"
                elif certified:
                    self.certified += 1
                elif correct:
                    self.false_fails += 1
                else:
                    self.unsolved += 1
        if problem:
            self.errors += 1
            self.problems.append(f"{op.name}: {problem}")


def _timed_pass(runner: Runner, deadline: float):
    """One pass of the batch, untraced: each operation's wall time, and the
    yardstick timed before it (after the previous operation's check)."""
    import hostspeed

    times, yards = [], []
    for i in range(len(runner.ops)):
        if time.perf_counter() > deadline:
            break
        yards.append(hostspeed.measure())
        start = time.perf_counter()
        codes = runner.commands(i)
        times.append(time.perf_counter() - start)
        runner.judge(i, codes)
    return times, yards


def _traced_pass(runner: Runner, tracer, deadline: float, totals):
    """One pass of the batch with every layer wrapped; adds per-operation
    layer figures to ``totals`` and returns the operations' wall times and
    the largest gap between a root span and the sum of its self times."""
    import tracing

    times, worst_gap = [], 0.0
    cli_run = tracer.wrap("cli.run", runner.cli_run)
    for i, op in enumerate(runner.ops):
        if time.perf_counter() > deadline:
            break
        tracer.op = i
        first = len(tracer.spans)
        root = tracer.wrap("op", runner.commands)
        start = time.perf_counter()
        codes = root(i, cli_run)
        times.append(time.perf_counter() - start)
        metrics = tracing.op_metrics(tracer.spans, first)
        self_sum = sum(v for k, v in metrics.items()
                       if k.startswith("layer_self."))
        worst_gap = max(worst_gap, abs(self_sum - metrics["trace.root_s"]))
        for src, dst in tracing.REFERENCE_COUNTS.get(op.name, {}).items():
            metrics[dst] = metrics.get(src, 0.0)
        prefix = runner.paths[i][1]
        metrics["cli.report_bytes"] = sum(
            os.path.getsize(prefix + suffix)
            for suffix in (".json", ".csv", ".check.json")
            if os.path.exists(prefix + suffix))
        for key, value in metrics.items():
            totals[key] = totals.get(key, 0.0) + value
        runner.judge(i, codes)
    return times, worst_gap


def _environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _tail(times, batch: int):
    """The highest percentile with TAIL_BEYOND samples beyond it in a run
    of MIN_PASSES passes, evaluated (with linear interpolation) on all of
    ``times``: the value, the percentile and the sample count.

    The percentile depends only on the batch size, so a faster program,
    which fits more passes into a run, is judged at the same percentile."""
    least = MIN_PASSES * batch
    fraction = (least - 1 - TAIL_BEYOND) / (least - 1)
    ordered = sorted(times)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (position - low) * (ordered[high] - ordered[low])
    return value, 100.0 * fraction, len(ordered)


def _timings(times, batch: int, setup_times):
    """The end-to-end timing metrics of one run from the times of its
    untraced operations, in the order run (the batch cycling), and of its
    set-ups; and the tail's percentile and sample count."""
    by_op = [times[i::batch] for i in range(batch)]
    tail, percentile, count = _tail(times, batch)
    return {
        "ops_per_s": sum(1 for t in by_op if t) / sum(
            statistics.median(t) for t in by_op if t),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "setup_s": statistics.median(setup_times),
    }, (percentile, count)


def _print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def run(args, root: Path) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import hostspeed  # after the pin: it loads numpy

    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        setup = (None if args.trace
                 else _measure_setup(args.workload, args.seed, work))
        cli, ops, paths = _setup(root, args.workload, args.seed, work)
        runner = Runner(cli, ops, paths)
        runner.commands(len(ops) - 1)  # warm-up, untimed and unjudged

        start = time.perf_counter()
        deadline = start + max(args.seconds, HARD_STOP_S)
        walls, yards = [], []  # untraced operations, in the order run
        untraced_pass, traced_pass = [], []
        totals, worst_gap, missing = {}, 0.0, []
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        while True:
            pass_start = time.perf_counter()
            pass_times, pass_yards = _timed_pass(runner, deadline)
            walls.extend(pass_times)
            yards.extend(pass_yards)
            untraced_pass.append(sum(pass_times))
            if args.trace:
                with tracing.installed(tracer) as missing:
                    pass_times, gap = _traced_pass(runner, tracer, deadline,
                                                   totals)
                traced_pass.append(sum(pass_times))
                worst_gap = max(worst_gap, gap)
                if len(traced_pass) == 1:
                    first_pass_spans = len(tracer.spans)
            passes = len(untraced_pass)
            now = time.perf_counter()
            # Start another pass only if it should end within --seconds.
            if now > deadline or (
                    passes >= (1 if args.trace else MIN_PASSES)
                    and now - start + (now - pass_start) > args.seconds):
                break
        yards.append(hostspeed.measure())  # after the last operation

        env = _environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} "
              f"operations per pass, {passes} passes, closed loop, 1 client")
        print(f"operations attempted {runner.attempted}, certified "
              f"{runner.certified}, not certified but correct "
              f"{runner.false_fails}, not certified and unsolved "
              f"{runner.unsolved}, errors {runner.errors}")
        for problem in runner.problems[:20]:
            print("error " + problem)
        error_share = runner.errors / runner.attempted
        if args.trace:
            overhead = (statistics.median(traced_pass)
                        / statistics.median(untraced_pass) - 1.0)
            metrics = tracing.layer_metrics(totals, len(traced_pass), overhead)
            units = dict(tracing.LAYER_METRICS)
            if missing:
                print("trace: call sites not found: " + ", ".join(missing))
            print(f"trace: per-layer figures are per pass of the batch, "
                  f"averaged over {len(traced_pass)} traced passes; "
                  f"largest gap between a root span and its summed self "
                  f"times {worst_gap:.3g} s")
            for name, _ in tracing.LAYER_METRICS:
                _print_metric(name, metrics[name], units[name])
            for key in sorted(k for k in totals if k.startswith("layer_self.")):
                _print_metric("self." + key.split(".", 1)[1],
                              totals[key] / len(traced_pass), "s")
            tracing.write_spans(
                str(work_root / f"spans-{args.workload}-{args.seed}.jsonl"),
                tracer.spans[:first_pass_spans], [op.name for op in ops])
        else:
            timings, (percentile, count) = _timings(
                hostspeed.adjust(walls, yards), len(ops),
                hostspeed.adjust(*setup))
            raw, _ = _timings(walls, len(ops), setup[0])
            metrics = dict(
                timings,
                peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0),
                certified_share=runner.certified / runner.attempted)
            units = dict(END_TO_END)
            print(f"host: yardstick median {statistics.median(yards):.4g} s "
                  f"(range {min(yards):.4g}-{max(yards):.4g} s, reference "
                  f"{hostspeed.REFERENCE_S:g} s); timings below are at the "
                  f"reference speed, 'wall' lines give them unadjusted")
            for name, unit in END_TO_END:
                note = (f" (p{percentile:.1f}, {count} samples)"
                        if name == "op_s.tail" else "")
                _print_metric(name, metrics[name], unit, note)
                if name in raw:
                    _print_metric("wall " + name, raw[name], unit)
        _print_metric("error_share", error_share, "ratio")
        print(json.dumps({
            "correct": runner.errors == 0,
            "attempted": runner.attempted,
            "failed": runner.errors,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "volterra2d" / "cli.py").is_file():
        print("error: src/volterra2d not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        for var in THREAD_VARS:
            os.environ[var] = "1"
        _setup(root, args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
