import math

import numpy as np
import pytest

from volterra2d import (
    Nonlinearity,
    PeriodicSequence,
    PeriodProductNotOne,
    SeparableExponential,
    SolverOptions,
    SystemSpec,
    TailMapOperator,
    TailNotCertified,
    TruncationPolicy,
    ZeroFactor,
    apply_tail_map,
    check_asymptotic_hypotheses,
    growth_profile,
    solve_asymptotic,
)

from volterra2d.asymptotic_solver import _outer_cut
from volterra2d.kernels import certified_depth

from conftest import central_difference_jacobian, random_summable_spec

POLICY = TruncationPolicy(1e-10, 100_000)
TAIL_MASS_A = 2.502650301077119
TAIL_MASS_B = 1.8295839719133922


def brute_tail_component(spec, c1, yw, n, outer=200, inner=300):
    """Reference evaluation of the first tail-map component by raw double
    summation: (c1 - sum_{i>=n} r_{i+1} a_{i,m} f(y_m)) / r_n with window
    closure values beyond the horizon and zero history."""
    r = growth_profile(spec).x
    ry = growth_profile(spec).y
    horizon = len(yw) - 1
    total = 0.0
    for i in range(n, n + outer):
        inner_total = 0.0
        for m in range(i - inner, i + 1):
            if m < 0:
                y_m = 0.0
            elif m <= horizon:
                y_m = yw[m]
            else:
                y_m = 1.0 / ry.get(m)  # c2 = 1 in these tests
            inner_total += spec.kernel_a.weight(i, m) * spec.f(y_m)
        total += r.get(i + 1) * inner_total
    return (c1 - total) / r.get(n)


def per_term_weight_block(kernel, nonlin, growth, ratio, horizon, policy):
    """Reference K of one tail-map component, built one kernel.weight term
    at a time: the growth-weighted suffix sums of the weight rows over the
    window 0..horizon, divided by -growth."""
    cut, _ = _outer_cut(ratio, nonlin, kernel, horizon, policy)
    inner_tol = (policy.tail_tol / 2.0) / (ratio * (cut + 1))
    w = np.zeros((cut + 1, cut + 1))  # columns m = 0..cut
    for i in range(cut + 1):
        depth, _ = certified_depth(kernel, i, nonlin.bound, inner_tol,
                                   policy.max_terms)
        for m in range(max(0, i - depth), i + 1):
            w[i, m] = growth.get(i + 1) * kernel.weight(i, m)
    suffix = np.cumsum(w[::-1], axis=0)[::-1]
    return np.array([suffix[n, :horizon + 1] / -growth.get(n)
                     for n in range(horizon + 1)])


class TestGrowthProfile:
    def test_demo2_values(self, example2_spec):
        prof = growth_profile(example2_spec)
        assert prof.x.values == (1.0, 2.0)
        assert prof.y.values == (1.0, 2.0)
        assert (prof.min_x, prof.max_x) == (1.0, 2.0)
        assert (prof.min_y, prof.max_y) == (1.0, 2.0)

    def test_zero_coefficients(self):
        spec = SystemSpec(
            1, PeriodicSequence(1, (0.0,)), PeriodicSequence(1, (0.0,)),
            SeparableExponential(1.0, 1.0, 2.0),
            SeparableExponential(1.0, 1.0, 2.0),
            Nonlinearity("cos", 1.0, 1.0), Nonlinearity("cos", 1.0, 1.0))
        prof = growth_profile(spec)
        assert prof.x.values == (1.0,)
        assert prof.min_x == prof.max_x == 1.0

    def test_demo1_rejected(self, example1_spec):
        with pytest.raises(PeriodProductNotOne):
            growth_profile(example1_spec)

    def test_zero_factor_rejected(self, example2_spec):
        spec = SystemSpec(2, PeriodicSequence(2, (-1.0, 1.0)),
                          example2_spec.p, example2_spec.kernel_a,
                          example2_spec.kernel_b, example2_spec.f,
                          example2_spec.g)
        with pytest.raises(ZeroFactor):
            growth_profile(spec)


class TestTailMap:
    def test_zero_amplitude_returns_free_response(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          example2_spec.kernel_a, example2_spec.kernel_b,
                          Nonlinearity("sin", 0.0, 1.0),
                          Nonlinearity("sin", 0.0, 1.0))
        prof = growth_profile(spec)
        u1 = np.array([2.0 / prof.x.get(n) for n in range(11)])
        u2 = np.array([3.0 / prof.y.get(n) for n in range(11)])
        nx, ny, err = apply_tail_map(spec, 2.0, 3.0, np.zeros(11),
                                     np.zeros(11), POLICY)
        assert np.array_equal(nx, u1)
        assert np.array_equal(ny, u2)
        assert err == 0.0

    def test_deviation_envelope_demo2(self, example2_spec):
        rng = np.random.default_rng(5)
        radius = check_asymptotic_hypotheses(example2_spec).quantities["radius"]
        prof = growth_profile(example2_spec)
        horizon = 20
        for _ in range(10):
            xw = rng.uniform(-radius, radius, horizon + 1)
            yw = rng.uniform(-radius, radius, horizon + 1)
            nx, ny, err = apply_tail_map(example2_spec, 1.0, 1.0, xw, yw,
                                         POLICY)
            for n in range(horizon + 1):
                dev = abs(nx[n] - 1.0 / prof.x.get(n))
                bound = 2.0 * example2_spec.kernel_a.double_tail(n)
                assert dev <= bound + 10 * POLICY.tail_tol

    def test_matches_brute_double_sum(self, example2_spec):
        rng = np.random.default_rng(6)
        yw = rng.uniform(-2, 2, 13)
        xw = rng.uniform(-2, 2, 13)
        nx, _, err = apply_tail_map(example2_spec, 1.0, 1.0, xw, yw, POLICY)
        for n in (0, 1, 5, 12):
            ref = brute_tail_component(example2_spec, 1.0, yw, n)
            assert nx[n] == pytest.approx(ref, abs=1e-9)

    def test_single_point_window(self, example2_spec):
        nx, ny, err = apply_tail_map(example2_spec, 1.0, 1.0, [0.0], [0.0],
                                     POLICY)
        assert nx.shape == (1,)
        assert abs(nx[0] - 1.0) <= 2.0 * TAIL_MASS_A + 10 * POLICY.tail_tol

    def test_nonsummable_kernel_rejected(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          SeparableExponential(1.0, 1.0, 1.0),
                          example2_spec.kernel_b, example2_spec.f,
                          example2_spec.g)
        with pytest.raises(TailNotCertified):
            apply_tail_map(spec, 1.0, 1.0, np.zeros(5), np.zeros(5), POLICY)

    def test_certified_error_covers_truncation(self, example2_spec):
        # tighter policy must produce a smaller certified error
        _, _, loose = apply_tail_map(example2_spec, 1.0, 1.0, np.zeros(9),
                                     np.zeros(9), TruncationPolicy(1e-6))
        _, _, tight = apply_tail_map(example2_spec, 1.0, 1.0, np.zeros(9),
                                     np.zeros(9), TruncationPolicy(1e-12))
        assert tight < loose <= 1e-6


    @pytest.mark.parametrize("seed", range(4))
    def test_weight_block_matches_per_term_build(self, seed):
        spec = random_summable_spec(np.random.default_rng(seed))
        op = TailMapOperator(spec, 1.0, 1.0, 12, POLICY)
        prof = op.profile
        for component, kernel, nonlin, growth, ratio in (
                (op.component_x, spec.kernel_a, spec.f, prof.x, prof.ratio_x),
                (op.component_y, spec.kernel_b, spec.g, prof.y, prof.ratio_y)):
            expected = per_term_weight_block(kernel, nonlin, growth, ratio,
                                             12, POLICY)
            assert component.k.shape == expected.shape
            assert np.max(np.abs(component.k - expected)) <= 1e-15 * max(
                1.0, np.max(np.abs(expected)))


class TestSolveAsymptotic:
    def test_demo2_horizon_60(self, example2_spec):
        report = solve_asymptotic(example2_spec, 1.0, 1.0, 60,
                                  policy=POLICY)
        assert report.converged
        dec = report.decomposition
        assert dec.u1.values == (1.0, 0.5)
        assert dec.u2.values == (1.0, 0.5)
        for n in range(61):
            assert abs(dec.v1[n]) <= 2.0 * TAIL_MASS_A * math.exp(-n) + 1e-9
            assert abs(dec.v2[n]) <= 2.0 * TAIL_MASS_B * math.exp(-n) + 1e-9
        assert abs(dec.v1[40]) <= 2.2e-17
        assert report.residual_max <= 1e-8
        assert report.warnings == ()
        # envelopes decrease strictly toward zero
        assert all(a > b for a, b in zip(dec.v1_bound, dec.v1_bound[1:]))
        assert dec.v1_bound[-1] < 1e-20

    def test_free_response_agrees_with_running_products(self, example2_spec):
        from volterra2d import product_one_plus
        report = solve_asymptotic(example2_spec, 1.0, 1.0, 8, policy=POLICY)
        u1 = report.decomposition.u1
        for n in range(20):
            direct = product_one_plus(example2_spec.h, 0, n - 1)
            assert u1.get(n) == pytest.approx(direct, rel=1e-12)

    def test_zero_amplitude_gives_zero_deviation(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          example2_spec.kernel_a, example2_spec.kernel_b,
                          Nonlinearity("cos", 0.0, 1.0),
                          Nonlinearity("cos", 0.0, 1.0))
        report = solve_asymptotic(spec, 1.0, 1.0, 12, policy=POLICY)
        assert report.converged
        assert report.iterations == 1
        assert all(v == 0.0 for v in report.decomposition.v1)
        assert all(v == 0.0 for v in report.decomposition.v2)

    def test_zero_amplitudes_warn_and_solve(self, example2_spec):
        report = solve_asymptotic(example2_spec, 0.0, 0.0, 20, policy=POLICY)
        assert len(report.warnings) == 2
        assert report.converged
        assert report.residual_max <= 1e-8
        assert report.decomposition.u1.values == (0.0, 0.0)

    def test_short_horizon_rejected(self, example2_spec):
        with pytest.raises(ValueError):
            solve_asymptotic(example2_spec, 1.0, 1.0, 7, policy=POLICY)

    def test_initial_guess_rejected(self, example2_spec):
        guess = (PeriodicSequence(2, (1.0, 0.5)),
                 PeriodicSequence(2, (1.0, 0.5)))
        with pytest.raises(ValueError, match="initial_guess"):
            solve_asymptotic(example2_spec, 1.0, 1.0, 8,
                             SolverOptions(initial_guess=guess), POLICY)

    def test_random_summable_systems(self):
        rng = np.random.default_rng(77)
        converged = 0
        for _ in range(4):
            spec = random_summable_spec(rng)
            report = solve_asymptotic(spec, 1.0, 1.0, max(12, 4 * spec.period),
                                      policy=POLICY)
            if report.converged:
                converged += 1
                dec = report.decomposition
                assert all(abs(v) <= b + 1e-9
                           for v, b in zip(dec.v1, dec.v1_bound))
        assert converged >= 3


class TestOperatorReuse:
    def test_operator_apply_matches_public_function(self, example2_spec):
        rng = np.random.default_rng(13)
        op = TailMapOperator(example2_spec, 1.0, 1.0, 15, POLICY)
        xw = rng.uniform(-3, 3, 16)
        yw = rng.uniform(-3, 3, 16)
        ax, ay = op.apply(xw, yw)
        bx, by, _ = apply_tail_map(example2_spec, 1.0, 1.0, xw, yw, POLICY)
        assert np.array_equal(ax, bx)
        assert np.array_equal(ay, by)

    def test_jacobian_matches_central_differences(self, example2_spec):
        rng = np.random.default_rng(14)
        tail_map = TailMapOperator(example2_spec, 1.0, 1.0, 15, POLICY).map
        z = rng.uniform(-3, 3, 32)
        assert np.allclose(tail_map.jacobian(z),
                           central_difference_jacobian(tail_map, z),
                           rtol=0.0, atol=1e-7)
