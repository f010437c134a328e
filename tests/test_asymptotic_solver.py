import math

import numpy as np
import pytest

from volterra2d import (
    FiniteLag,
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
from volterra2d.system import decay_envelope, default_horizon

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
    at a time and untruncated: for each window entry (n, m), math.fsum of
    r_{i+1} a_{i,m} over i = max(n, m)..cut, divided by -r_n."""
    cut, _ = _outer_cut(ratio, nonlin, kernel, horizon, policy)
    return np.array([[math.fsum(growth.get(i + 1) * kernel.weight(i, m)
                                for i in range(max(n, m), cut + 1))
                      / -growth.get(n)
                      for m in range(horizon + 1)]
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
    def test_finite_lag_reaches_the_map_only_with_a_zero_drive(
            self, example2_spec):
        lagged = FiniteLag(((0.5, 0.25), (0.1, 0.0)))
        for amplitude in (0.0, 1.0):
            spec = SystemSpec(2, example2_spec.h, example2_spec.p, lagged,
                              example2_spec.kernel_b,
                              Nonlinearity("cos", amplitude, 1.0),
                              example2_spec.g)
            if amplitude:
                # a nonzero lag kernel has an infinite double tail
                with pytest.raises(TailNotCertified, match="infinite"):
                    TailMapOperator(spec, 1.0, 1.0, 12, POLICY)
                continue
            op = TailMapOperator(spec, 1.0, 1.0, 12, POLICY)
            assert op.map.k_x.shape == (13, 13)
            assert not op.map.k_x.any()
            assert np.array_equal(op.map.c[:13], op.free[:13])
            assert op.map.k_y.any()

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
        prof = growth_profile(spec)
        for block, kernel, nonlin, growth, ratio in (
                (op.map.k_x, spec.kernel_a, spec.f, prof.x, prof.ratio_x),
                (op.map.k_y, spec.kernel_b, spec.g, prof.y, prof.ratio_y)):
            expected = per_term_weight_block(kernel, nonlin, growth, ratio,
                                             12, POLICY)
            assert block.shape == expected.shape
            assert np.max(np.abs(block - expected)) <= 1e-15 * max(
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
        bx, by, _ = apply_tail_map(example2_spec, 1.0, 1.0, xw, yw, POLICY)
        assert np.array_equal(op.map(np.concatenate([xw, yw])),
                              np.concatenate([bx, by]))

    def test_jacobian_matches_central_differences(self, example2_spec):
        rng = np.random.default_rng(14)
        tail_map = TailMapOperator(example2_spec, 1.0, 1.0, 15, POLICY).map
        z = rng.uniform(-3, 3, 32)
        assert np.allclose(tail_map.jacobian(z),
                           central_difference_jacobian(tail_map, z),
                           rtol=0.0, atol=1e-7)

    def test_newton_step_matches_dense_solve(self):
        """The eliminated step solves the same system as an LU of the dense
        2(H+1) x 2(H+1) Jacobian, on random tail maps of H = 10..200."""
        rng = np.random.default_rng(15)
        for horizon in (10, 37, 80, 141, 200):
            spec = random_summable_spec(rng)
            tail_map = TailMapOperator(spec, 1.0, 1.0, horizon, POLICY).map
            z = rng.uniform(-3, 3, 2 * (horizon + 1))
            residual = rng.uniform(-1, 1, 2 * (horizon + 1))
            dense = np.linalg.solve(tail_map.jacobian(z), -residual)
            step = tail_map.newton_step(z, residual)
            assert (np.max(np.abs(step - dense))
                    <= 1e-13 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("horizon", [60, 150])
    def test_example2_iteration_counts(self, example2_spec, horizon):
        """Pinned at the dense-Jacobian Newton's counts: eliminating the y
        block changes no step."""
        report = solve_asymptotic(example2_spec, 1.0, 1.0, horizon,
                                  policy=POLICY)
        assert report.converged
        assert (report.iterations, report.method_used) == (22, "newton")


def outer_cut_reference(ratio, nonlin, kernel, horizon, policy):
    """The outer cut one envelope evaluation at a time: N grows from the
    horizon until the envelope at N+1 is <= tail_tol/2, at most max_terms
    times."""
    n = horizon
    while ((envelope := decay_envelope(ratio, nonlin, kernel, n + 1))
           > policy.tail_tol / 2.0):
        n += 1
        if n > horizon + policy.max_terms:
            raise TailNotCertified("cap")
    return n, envelope


def default_horizon_reference(spec, floor):
    """default_horizon one horizon at a time from four periods on."""
    prof = growth_profile(spec)
    for n in range(4 * spec.period, 4 * spec.period + 100_000):
        if (decay_envelope(prof.ratio_x, spec.f, spec.kernel_a, n) <= floor
                and decay_envelope(prof.ratio_y, spec.g, spec.kernel_b,
                                   n) <= floor):
            return n
    raise TailNotCertified("no horizon")


class TestEnvelopeCut:
    """The outer cut and the default horizon come from the log of the
    envelope's ratio and a round-off fix-up; they must equal the one-step
    search exactly."""

    def random_case(self, rng):
        rate = float(rng.uniform(0.05, 2.0))
        gap = 10.0 ** rng.uniform(-2.0, 0.5)
        kernel = SeparableExponential(
            float(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])), rate,
            rate + gap)
        nonlin = Nonlinearity(str(rng.choice(["sin", "cos", "tanh"])),
                              float(rng.uniform(0.1, 3.0)), 1.0)
        return float(rng.uniform(1.0, 6.0)), nonlin, kernel

    def test_outer_cut_matches_one_step_search(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ratio, nonlin, kernel = self.random_case(rng)
            horizon = int(rng.integers(0, 200))
            tail_tol = 10.0 ** rng.uniform(-15.0, -3.0)
            on_envelope = 2.0 * float(decay_envelope(
                ratio, nonlin, kernel, horizon + 1 + int(rng.integers(0, 40))))
            if rng.random() < 0.5 and on_envelope > 0.0:
                # tol/2 exactly on the envelope at some n, where <= holds
                # with equality, or one ulp below it, where it just fails
                tail_tol = (on_envelope if rng.random() < 0.5
                            else np.nextafter(on_envelope, 0.0))
            policy = TruncationPolicy(tail_tol, int(rng.choice([40, 100_000])))
            try:
                expected = outer_cut_reference(ratio, nonlin, kernel,
                                               horizon, policy)
            except TailNotCertified:
                with pytest.raises(TailNotCertified):
                    _outer_cut(ratio, nonlin, kernel, horizon, policy)
                continue
            assert _outer_cut(ratio, nonlin, kernel, horizon,
                              policy) == expected

    def test_outer_cut_rejects_an_infinite_envelope(self):
        with pytest.raises(TailNotCertified, match="infinite"):
            _outer_cut(1.0, Nonlinearity("sin", 1.0, 1.0),
                       SeparableExponential(1.0, 1.0, 1.0), 10, POLICY)

    def test_default_horizon_matches_one_step_search(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            spec = random_summable_spec(rng)
            floor = 10.0 ** rng.uniform(-16.0, -6.0)
            assert default_horizon(spec, floor) == default_horizon_reference(
                spec, floor)

    def test_envelope_is_the_scalar_envelope_on_the_window(self,
                                                           example2_spec):
        op = TailMapOperator(example2_spec, 1.0, 1.0, 40, POLICY)
        prof = growth_profile(example2_spec)
        for bounds, ratio, nonlin, kernel in zip(
                (op.envelope[:41], op.envelope[41:]),
                (prof.ratio_x, prof.ratio_y),
                (example2_spec.f, example2_spec.g),
                (example2_spec.kernel_a, example2_spec.kernel_b)):
            assert bounds.shape == (41,)
            assert bounds == pytest.approx(
                [decay_envelope(ratio, nonlin, kernel, n) for n in range(41)],
                rel=1e-15, abs=0.0)
