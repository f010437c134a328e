"""Outside-in layer trace of the volterra2d library.

The library is not edited.  ``installed`` replaces, for the duration of a
``with`` block, the module attributes through which one layer calls the
next (``periodic_solver.solve_fixed_point``, ``cli.residual``,
``simulate.inner_sum``, ...) by wrappers that record a span per call:
name, start, end, parent span and operation id.  Spans stay in memory;
``write_spans`` saves them when the run ends.

A span's layer is the part of its name before the first dot.  Its self
time is its duration minus the durations of its children, which run one
after another inside it (one thread), so the self times of all spans of
an operation add up to the duration of the operation's root span.
"""
from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from volterra2d import _iteration, asymptotic_solver, cli, periodic_solver, verify

# The package re-exports the function simulate under the module's name.
simulate = importlib.import_module("volterra2d.simulate")

NAME, START, END, PARENT, OP, INFO = range(6)

#: Per-layer metrics in output order, with units.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("system.parse_s", "s"),
    ("system.check_s", "s"),
    ("periodic_solver.self_s", "s"),
    ("periodic_solver.map_calls", "count"),
    ("periodic_solver.map_s", "s"),
    ("periodic_solver.ref_t4_map_calls", "count"),
    ("periodic_solver.ref_t16_map_calls", "count"),
    ("asymptotic_solver.operator_s", "s"),
    ("asymptotic_solver.map_calls", "count"),
    ("asymptotic_solver.map_s", "s"),
    ("asymptotic_solver.self_s", "s"),
    ("asymptotic_solver.ref_h60_map_calls", "count"),
    ("iteration.picard_s", "s"),
    ("iteration.picard_iters", "count"),
    ("iteration.unconverged", "count"),
    ("iteration.newton_s", "s"),
    ("iteration.newton_iters", "count"),
    ("iteration.newton_map_calls", "count"),
    ("iteration.newton_self_s", "s"),
    ("iteration.newton_map_share", "ratio"),
    ("iteration.ref_t16_newton_iters", "count"),
    ("iteration.ref_h60_newton_iters", "count"),
    ("kernels.inner_sum_calls", "count"),
    ("kernels.inner_sum_terms", "count"),
    ("kernels.inner_sum_s", "s"),
    ("simulate.simulate_s", "s"),
    ("simulate.steps", "count"),
    ("simulate.residual_s", "s"),
    ("simulate.residual_calls", "count"),
    ("verify.residual_max_s", "s"),
    ("verify.periodic_s", "s"),
    ("verify.decomposition_s", "s"),
    ("verify.direct_terms", "count"),
    ("verify.passed_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)

#: Operations whose counts are checked against known values, and the
#: metric each count goes to.
REFERENCE_COUNTS = {
    "ref-example1-cos-T4": {"periodic_solver.map_calls":
                            "periodic_solver.ref_t4_map_calls"},
    "ref-example1-cos-T16": {"periodic_solver.map_calls":
                             "periodic_solver.ref_t16_map_calls",
                             "iteration.newton_iters":
                             "iteration.ref_t16_newton_iters"},
    "ref-example2-H60": {"asymptotic_solver.map_calls":
                         "asymptotic_solver.ref_h60_map_calls",
                         "iteration.newton_iters":
                         "iteration.ref_h60_newton_iters"},
}


class Tracer:
    """Span store shared by every wrapper of one run."""

    def __init__(self):
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable[[tuple, dict, Any], Any]] = None):
        """``fn`` recording one span per call.  ``info(args, kwargs,
        result)`` runs after the span closes and is kept with it."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                      None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if info is not None:
                record[INFO] = _safely(info, args, kwargs, result)
            return result

        return traced


def _safely(extract: Callable, *args):
    """``extract(*args)``, or None when the call site's arguments or result
    no longer have the shape it reads: a figure then reads 0 instead of
    the traced run failing."""
    try:
        return extract(*args)
    except (IndexError, KeyError, AttributeError, TypeError):
        return None


def _wrap_fixed_point(tracer: Tracer, original: Callable, map_name: str):
    """solve_fixed_point with a span of its own and one per call of the
    apply_map callable it receives."""

    def solve_fixed_point(apply_map, z0, **kwargs):
        return original(tracer.wrap(map_name, apply_map), z0, **kwargs)

    return tracer.wrap("_iteration.solve_fixed_point", solve_fixed_point,
                       lambda a, k, r: (r.iterations, r.converged))


def _wrap_class(tracer: Tracer, cls: type, name: str) -> type:
    """A subclass of ``cls`` whose construction is one span."""

    class Traced(cls):
        pass

    Traced.__init__ = tracer.wrap(name, cls.__init__)
    return Traced


def _passed(args, kwargs, result):
    return bool(result.passed)


def _replacements(tracer: Tracer):
    """(module, attribute, wrapper factory) for every traced call site."""
    wrap = tracer.wrap
    return [
        (cli, "parse_system",
         lambda f: wrap("system.parse_system", f)),
        (cli, "check_periodic_hypotheses",
         lambda f: wrap("system.check", f)),
        (cli, "check_asymptotic_hypotheses",
         lambda f: wrap("system.check", f)),
        (cli, "simulate",
         lambda f: wrap("simulate.simulate", f, lambda a, k, r: a[2])),
        (cli, "residual", lambda f: wrap("simulate.residual", f)),
        (periodic_solver, "solve_periodic",
         lambda f: wrap("periodic_solver.solve_periodic", f)),
        (periodic_solver, "solve_fixed_point",
         lambda f: _wrap_fixed_point(tracer, f, "periodic_solver.map")),
        (asymptotic_solver, "solve_asymptotic",
         lambda f: wrap("asymptotic_solver.solve_asymptotic", f)),
        (asymptotic_solver, "TailMapOperator",
         lambda c: _wrap_class(tracer, c, "asymptotic_solver.TailMapOperator")),
        (asymptotic_solver, "solve_fixed_point",
         lambda f: _wrap_fixed_point(tracer, f, "asymptotic_solver.map")),
        (asymptotic_solver, "recurrence_residual",
         lambda f: wrap("simulate.residual", f)),
        (_iteration, "_newton",
         lambda f: wrap("_iteration._newton", f, lambda a, k, r: r[1])),
        (verify, "periodic_residual_max",
         lambda f: wrap("verify.periodic_residual_max", f)),
        (verify, "verify_periodic",
         lambda f: wrap("verify.verify_periodic", f, _passed)),
        (verify, "verify_decomposition",
         lambda f: wrap("verify.verify_decomposition", f, _passed)),
        (verify, "simulate",
         lambda f: wrap("simulate.simulate", f, lambda a, k, r: a[2])),
        (verify, "_direct_sum",
         lambda f: wrap("verify._direct_sum", f, lambda a, k, r: a[3] + 1)),
        (simulate, "inner_sum",
         lambda f: wrap("kernels.inner_sum", f,
                        lambda a, k, r: (a[0], a[1], a[3], a[4]))),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore the original attributes on exit.
    Call sites missing from this version of the library are skipped and
    returned, so their metrics read 0."""
    saved, missing = [], []
    try:
        for module, attr, factory in _replacements(tracer):
            if not hasattr(module, attr):
                missing.append(f"{module.__name__}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _inner_sum_terms(kernel, i, bound, policy) -> int:
    """Terms inner_sum adds: depth + 1, with the depth inner_sum picks."""
    depth = kernel.truncation_depth(i, bound, policy.tail_tol)
    return min(depth, policy.max_terms - 1) + 1


def op_metrics(spans: List[list], first: int) -> Dict[str, float]:
    """Per-layer figures of one operation from its spans ``spans[first:]``
    (the first is the operation's root).  Also returns, under
    ``layer_self.<layer>``, the self time of every layer, and under
    ``trace.root_s`` the root span's duration."""
    ops = spans[first:]
    child_time = [0.0] * len(ops)
    newton_child_time = [0.0] * len(ops)
    for span in ops[1:]:
        parent = span[PARENT] - first
        duration = span[END] - span[START]
        child_time[parent] += duration
        if span[NAME] == "_iteration._newton":
            newton_child_time[parent] += duration
    m: Dict[str, float] = defaultdict(float)
    for k, span in enumerate(ops):
        name, info = span[NAME], span[INFO]
        duration = span[END] - span[START]
        self_time = duration - child_time[k]
        m["layer_self." + name.split(".", 1)[0]] += self_time
        if name == "system.parse_system":
            m["system.parse_s"] += duration
        elif name == "system.check":
            m["system.check_s"] += duration
        elif name == "periodic_solver.solve_periodic":
            m["periodic_solver.self_s"] += self_time
        elif name == "asymptotic_solver.solve_asymptotic":
            m["asymptotic_solver.self_s"] += self_time
        elif name == "asymptotic_solver.TailMapOperator":
            m["asymptotic_solver.operator_s"] += duration
        elif name.endswith(".map"):
            layer = name.split(".", 1)[0]
            m[layer + ".map_calls"] += 1
            m[layer + ".map_s"] += duration
            m["iteration.map_calls"] += 1
            if ops[span[PARENT] - first][NAME] == "_iteration._newton":
                m["iteration.newton_map_calls"] += 1
        elif name == "_iteration.solve_fixed_point":
            m["iteration.picard_s"] += duration - newton_child_time[k]
            if info is not None:
                m["iteration.picard_iters"] += info[0]
                m["iteration.unconverged"] += not info[1]
        elif name == "_iteration._newton":
            m["iteration.newton_s"] += duration
            m["iteration.newton_self_s"] += self_time
            m["iteration.newton_iters"] += info or 0
            m["iteration.picard_iters"] -= info or 0
        elif name == "verify._direct_sum":
            m["verify.direct_terms"] += info or 0
        elif name == "verify.periodic_residual_max":
            m["verify.residual_max_s"] += duration
        elif name in ("verify.verify_periodic", "verify.verify_decomposition"):
            key = ("verify.periodic_s" if name == "verify.verify_periodic"
                   else "verify.decomposition_s")
            m[key] += duration
            if info is not None:
                m["verify.verifications"] += 1
                m["verify.passed"] += info
        elif name == "simulate.simulate":
            m["simulate.simulate_s"] += duration
            m["simulate.steps"] += info or 0
        elif name == "simulate.residual":
            m["simulate.residual_s"] += duration
            m["simulate.residual_calls"] += 1
        elif name == "kernels.inner_sum":
            m["kernels.inner_sum_calls"] += 1
            m["kernels.inner_sum_s"] += duration
            if info is not None:
                m["kernels.inner_sum_terms"] += (
                    _safely(_inner_sum_terms, *info) or 0)
    m["cli.self_s"] = m["layer_self.cli"]
    m["trace.spans"] = len(ops)
    m["trace.root_s"] = ops[0][END] - ops[0][START]
    return m


def layer_metrics(totals: Dict[str, float], passes: int,
                  overhead_share: float) -> Dict[str, float]:
    """Per-pass per-layer metrics from totals over ``passes`` passes."""
    out = {name: totals.get(name, 0.0) / passes for name, _ in LAYER_METRICS}
    maps = totals.get("iteration.map_calls", 0.0)
    out["iteration.newton_map_share"] = (
        totals.get("iteration.newton_map_calls", 0.0) / maps if maps else 0.0)
    checks = totals.get("verify.verifications", 0.0)
    out["verify.passed_share"] = (
        totals.get("verify.passed", 0.0) / checks if checks else 0.0)
    out["trace.overhead_share"] = overhead_share
    return out


def write_spans(path: str, spans: List[list], op_names: List[str]) -> None:
    """One JSON array per line: name, start, end, parent, op id, op name."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps([span[NAME], span[START], span[END],
                                 span[PARENT], span[OP],
                                 op_names[span[OP]]]) + "\n")
