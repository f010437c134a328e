"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them live).  Expected values come from
closed forms and brute-force oracles computed inside this module, never
from the code paths under test."""
import math

import numpy as np
import pytest

import volterra2d as v
from volterra2d.sequences import running_products

from conftest import random_periodic_spec, random_summable_spec

E = math.e

# closed forms for the demo kernels
ROW_SUM_UNIT = E / (E - 1.0)
TAIL_MASS_A = 1.0 / ((1.0 - math.exp(-1.0)) ** 2)
TAIL_MASS_B = 1.0 / ((1.0 - math.exp(-2.0)) * (1.0 - math.exp(-1.0)))


def report_line(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def brute_row_sum(kernel: v.SeparableExponential, i: int) -> float:
    depth = math.ceil(36.0 / kernel.row_rate)
    m = np.arange(i - depth, i + 1, dtype=float)
    return float(np.sum(np.abs(kernel.coef)
                        * np.exp(kernel.row_rate * m - kernel.col_rate * i)))


def brute_double_tail(kernel: v.SeparableExponential, n: int) -> float:
    gap = kernel.col_rate - kernel.row_rate
    outer = math.ceil(36.0 / gap)
    inner = math.ceil(36.0 / kernel.row_rate)
    i = np.arange(n, n + outer + 1, dtype=float)
    d = np.arange(0, inner + 1, dtype=float)
    grid = np.abs(kernel.coef) * np.exp(-gap * i[:, None]
                                        - kernel.row_rate * d[None, :])
    return float(grid.sum())


def test_criterion_1_regime_routing(example1_spec, example2_spec):
    """Demo 1 is the periodic regime, demo 2 the asymptotic one, with the
    gains, products, and tail masses at their closed-form values."""
    per1 = v.check_periodic_hypotheses(example1_spec)
    asy1 = v.check_asymptotic_hypotheses(example1_spec)
    per2 = v.check_periodic_hypotheses(example2_spec)
    asy2 = v.check_asymptotic_hypotheses(example2_spec)

    ok = per1.passed
    ok &= abs(per1.quantities["gain_x"] + 0.5) <= 1e-14
    ok &= abs(per1.quantities["gain_y"] + 0.5) <= 1e-14
    ok &= not asy1.passed
    ok &= abs(asy1.quantities["product_h"] - 3.0) <= 1e-14

    ok &= not per2.passed
    ok &= abs(per2.quantities["product_h"] - 1.0) <= 1e-14
    ok &= asy2.passed
    ok &= abs(asy2.quantities["tail_mass_a"] - TAIL_MASS_A) <= 1e-8
    ok &= abs(asy2.quantities["tail_mass_b"] - TAIL_MASS_B) <= 1e-8

    report_line(1, "regime routing", bool(ok),
                f"gains {per1.quantities['gain_x']}, "
                f"tails ({asy2.quantities['tail_mass_a']:.7f}, "
                f"{asy2.quantities['tail_mass_b']:.7f})")


def test_criterion_2_periodic_solve(example1_spec):
    """Solve the periodic demo, certify the residual of the recurrence,
    which repeats with the period, on every row of one period, and bound
    the distance to a true periodic solution by the Newton-Kantorovich
    existence radius."""
    solve = v.solve_periodic(example1_spec)
    ver = v.verify_periodic(example1_spec, solve.solution,
                            defect_tol=1e-8, radius_tol=1e-8)
    ok = solve.converged and ver.max_defect <= 1e-8 and ver.radius <= 1e-8
    report_line(2, "periodic solve", bool(ok),
                f"defect {ver.max_defect:.2e}, radius {ver.radius:.2e}")


def test_criterion_3_asymptotic_solve(example2_spec):
    """Solve the asymptotic demo at horizon 60: periodic part exactly
    2-periodic, deviations inside the closed-form envelopes, reconstruction
    residual below 1e-8."""
    report = v.solve_asymptotic(example2_spec, 1.0, 1.0, 60,
                                policy=v.TruncationPolicy(1e-10))
    dec = report.decomposition
    ok = report.converged
    ok &= all(dec.u1.get(n + 2) == dec.u1.get(n) for n in range(-10, 130))
    ok &= all(dec.u2.get(n + 2) == dec.u2.get(n) for n in range(-10, 130))
    env1 = [2.0 * TAIL_MASS_A * math.exp(-n) for n in range(61)]
    env2 = [2.0 * TAIL_MASS_B * math.exp(-n) for n in range(61)]
    ok &= all(abs(val) <= bound + 1e-9
              for val, bound in zip(dec.v1, env1))
    ok &= all(abs(val) <= bound + 1e-9
              for val, bound in zip(dec.v2, env2))
    ver = v.verify_decomposition(example2_spec, dec)
    ok &= ver.max_defect <= 1e-8 and ver.passed
    report_line(3, "asymptotic solve", bool(ok),
                f"defect {ver.max_defect:.2e}, "
                f"|v1[40]| {abs(dec.v1[40]):.2e} <= {env1[40]:.2e}")


def test_criterion_4_kernel_oracles():
    """200 random kernels: closed-form row sums and double tails against
    brute-force truncated summation (1e-10 relative), folded lag-table row
    sums against the row-sum closed form (1e-12 relative)."""
    rng = np.random.default_rng(20260809)
    worst_row = worst_tail = worst_fold = 0.0
    for _ in range(200):
        coef = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        rate = float(rng.uniform(0.1, 3.0))

        k_any = v.SeparableExponential(coef, rate, float(rng.uniform(0.1, 3.0)))
        i = int(rng.integers(-3, 4))
        rel = abs(k_any.abs_row_sum(i) - brute_row_sum(k_any, i)) \
            / brute_row_sum(k_any, i)
        worst_row = max(worst_row, rel)

        k_sum = v.SeparableExponential(coef, rate,
                                       rate + float(rng.uniform(0.1, 3.0)))
        n = int(rng.integers(0, 4))
        rel = abs(k_sum.double_tail(n) - brute_double_tail(k_sum, n)) \
            / brute_double_tail(k_sum, n)
        worst_tail = max(worst_tail, rel)

        k_diag = v.SeparableExponential(coef, rate, rate)
        period = int(rng.integers(1, 5))
        table = k_diag.folded_weights(period)
        for row_index in range(period):
            row_sum = float(np.sum(np.abs(table[row_index])))
            rel = abs(row_sum - k_diag.abs_row_sum(row_index)) \
                / k_diag.abs_row_sum(row_index)
            worst_fold = max(worst_fold, rel)

    ok = worst_row <= 1e-10 and worst_tail <= 1e-10 and worst_fold <= 1e-12
    report_line(4, "kernel oracle suite", bool(ok),
                f"worst rel err: rows {worst_row:.1e}, tails {worst_tail:.1e}, "
                f"folds {worst_fold:.1e}")


def test_criterion_5_cycle_map_properties():
    """20 random diagonal-periodic systems: the cycle map stays inside the
    bounded-route ball on 100 random states, the folded path matches an
    adaptively truncated direct path to 1e-10, and each output is one
    period of each component, so it repeats exactly one period later."""
    from test_periodic_solver import direct_map, stacked
    from volterra2d.periodic_solver import _cycle_map_vec

    rng = np.random.default_rng(5150)
    worst_gap = 0.0
    for _ in range(20):
        spec = random_periodic_spec(rng)
        T = spec.period
        q = v.check_periodic_hypotheses(spec).quantities
        ball = max(spec.f.bound * q["bound_x"], spec.g.bound * q["bound_y"])
        cycle_map = _cycle_map_vec(spec)
        for _ in range(100):
            out = cycle_map(rng.uniform(-ball, ball, 2 * T))
            assert out.shape == (2 * T,)
            assert np.max(np.abs(out)) <= ball + 1e-9
        for _ in range(2):
            state = (v.PeriodicSequence(T, tuple(rng.uniform(-2, 2, T))),
                     v.PeriodicSequence(T, tuple(rng.uniform(-2, 2, T))))
            folded = cycle_map(stacked(state))
            direct = stacked(direct_map(spec, state))
            scale = max(1.0, float(np.max(np.abs(folded))))
            gap = float(np.max(np.abs(folded - direct))) / scale
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-10
    report_line(5, "cycle map properties", True,
                f"worst folded-vs-direct gap {worst_gap:.1e}")


def test_criterion_6_tail_map_properties(example2_spec):
    """The tail map stays inside its ball on 100 random windows per system
    and its deviation from the free response obeys the pointwise envelope."""
    rng = np.random.default_rng(606)
    policy = v.TruncationPolicy(1e-10)
    specs = [(example2_spec, 16)]
    for _ in range(10):
        spec = random_summable_spec(rng)
        specs.append((spec, max(8, 4 * spec.period)))

    for spec, horizon in specs:
        check = v.check_asymptotic_hypotheses(spec, 1.0, 1.0)
        assert check.passed
        ball = check.quantities["radius"]
        prof = v.growth_profile(spec)
        ratio = prof.max_x / prof.min_x
        op = v.TailMapOperator(spec, 1.0, 1.0, horizon, policy)
        width = len(op.free) // 2  # the window 0..N, N >= horizon
        slack = 10.0 * policy.tail_tol
        for _ in range(100):
            xw = rng.uniform(-ball, ball, width)
            yw = rng.uniform(-ball, ball, width)
            z = op.map(np.concatenate([xw, yw]))
            nx, ny = z[:width], z[width:]
            assert max(np.max(np.abs(nx)), np.max(np.abs(ny))) <= ball + slack
            for n in range(width):
                dev = abs(nx[n] - 1.0 / prof.x.get(n))
                envelope = ratio * spec.f.bound * spec.kernel_a.double_tail(n)
                assert dev <= envelope + slack
    report_line(6, "tail map properties", True,
                f"{len(specs)} systems x 100 windows")


def test_criterion_7_degenerate_inputs(example1_spec, example2_spec,
                                       zero_amplitude_spec):
    """Unit-product sequences break the cycle gain, non-unit products break
    the reciprocal growth, zero-amplitude nonlinearities give exactly zero
    fixed points, and empty products are 1."""
    with pytest.raises(v.PeriodProductIsOne):
        v.cycle_gain(example2_spec.h)
    with pytest.raises(v.PeriodProductNotOne):
        v.growth_profile(example1_spec)

    periodic = v.solve_periodic(zero_amplitude_spec)
    ok = periodic.converged and periodic.solution[0].values == (0.0, 0.0) \
        and periodic.solution[1].values == (0.0, 0.0) \
        and periodic.residual_max == 0.0

    quiet = v.SystemSpec(2, example2_spec.h, example2_spec.p,
                         example2_spec.kernel_a, example2_spec.kernel_b,
                         v.Nonlinearity("sin", 0.0, 1.0),
                         v.Nonlinearity("sin", 0.0, 1.0))
    asymptotic = v.solve_asymptotic(quiet, 1.0, 1.0, 12,
                                    policy=v.TruncationPolicy(1e-10))
    ok &= asymptotic.converged
    ok &= all(val == 0.0 for val in asymptotic.decomposition.v1)
    ok &= all(val == 0.0 for val in asymptotic.decomposition.v2)

    # the empty product closes every row of the running-products table
    ok &= bool(np.all(running_products(example1_spec.h)[:, -1] == 1.0))

    report_line(7, "degenerate inputs", bool(ok))
