import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from volterra2d import (
    FiniteLag,
    History,
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
    check_asymptotic_hypotheses,
    growth_profile,
    solve_asymptotic,
    verify_decomposition,
)

from volterra2d._iteration import solve_fixed_point
from volterra2d.asymptotic_solver import _outer_cut, _tail_block
from volterra2d.system import decay_envelope, default_horizon

from conftest import (REFERENCE_NEGLIGIBLE, central_difference_jacobian,
                      defects_reference, defects_slack, product_one_plus,
                      random_summable_spec, tail_block_reference,
                      tail_u_bound)

POLICY = TruncationPolicy(1e-10, 100_000)
TAIL_MASS_A = 2.502650301077119
TAIL_MASS_B = 1.8295839719133922


def brute_tail_component(spec, c1, yw, n, inner=300):
    """Reference evaluation of the first tail-map component by raw double
    summation: (c1 - sum_{i=n}^{N} r_{i+1} a_{i,m} f(y_m)) / r_n over the
    whole window 0..N of yw, with zero history."""
    r = growth_profile(spec).x
    total = 0.0
    for i in range(n, len(yw)):
        inner_total = 0.0
        for m in range(i - inner, i + 1):
            y_m = yw[m] if m >= 0 else 0.0
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


def window_end(op):
    """N, the last index of the window 0..N the operator's map acts on."""
    return len(op.free) // 2 - 1


def reference_sides(spec, c1, c2, cut):
    """Per component, the _tail_block arguments for the window 0..cut and
    tail_block_reference's dense (K, c, error) there, its horizon at the
    cut, so that no column lies past it: the x component, then y."""
    prof = growth_profile(spec)
    sides = ((spec.kernel_a, spec.f, prof.x, prof.ratio_x, c1),
             (spec.kernel_b, spec.g, prof.y, prof.ratio_y, c2))
    out = []
    for (kernel, nonlin, growth, ratio, c_out), (
            _, _, p_growth, _, c_partner) in zip(sides, sides[::-1]):
        out.append(((kernel, nonlin, growth, c_out, cut),
                    _outer_cut(ratio, nonlin, kernel, cut, POLICY)[1],
                    tail_block_reference(kernel, nonlin, growth, ratio, c_out,
                                         c_partner, p_growth, cut, POLICY)))
    return out


def assert_map_matches_blocks(tail_map, blocks, rng, draws=3):
    """map(z) against c + K phi(z) with the dense reference blocks
    (K_x, K_y), at random z: in each component within
    1e-13 max(1, max |K| |phi|)."""
    width = len(blocks[0])
    for _ in range(draws):
        z = rng.uniform(-3.0, 3.0, 2 * width)
        phis = (tail_map.f(z[width:]), tail_map.g(z[:width]))
        for part, c, k_ref, phi in zip(np.split(tail_map(z), 2),
                                       np.split(tail_map.c, 2), blocks, phis):
            bound = 1e-13 * max(1.0, np.max(np.abs(k_ref) @ np.abs(phi)))
            assert np.max(np.abs(part - (c + k_ref @ phi))) <= bound


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
            width = window_end(op) + 1
            # K_x = 0 is held as U = 0, not as a square array of zeros
            assert op.map.u.shape == (2, width)
            assert not op.map.u[0].any() and op.map.u[1].any()
            assert np.array_equal(op.map.c[:width], op.free[:width])
            z = np.random.default_rng(4).uniform(-3.0, 3.0, 2 * width)
            assert np.array_equal(op.map(z)[:width], op.map.c[:width])

    def test_zero_amplitude_returns_free_response(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          example2_spec.kernel_a, example2_spec.kernel_b,
                          Nonlinearity("sin", 0.0, 1.0),
                          Nonlinearity("sin", 0.0, 1.0))
        prof = growth_profile(spec)
        u1 = np.array([2.0 / prof.x.get(n) for n in range(11)])
        u2 = np.array([3.0 / prof.y.get(n) for n in range(11)])
        op = TailMapOperator(spec, 2.0, 3.0, 10, POLICY)
        nx, ny = np.split(op.map(np.zeros(22)), 2)
        assert np.array_equal(nx, u1)
        assert np.array_equal(ny, u2)
        assert op.truncation_error == 0.0

    def test_deviation_envelope_demo2(self, example2_spec):
        rng = np.random.default_rng(5)
        radius = check_asymptotic_hypotheses(example2_spec).quantities["radius"]
        prof = growth_profile(example2_spec)
        op = TailMapOperator(example2_spec, 1.0, 1.0, 20, POLICY)
        width = window_end(op) + 1
        for _ in range(10):
            z = rng.uniform(-radius, radius, 2 * width)
            nx = op.map(z)[:width]
            for n in range(width):
                dev = abs(nx[n] - 1.0 / prof.x.get(n))
                bound = 2.0 * example2_spec.kernel_a.double_tail(n)
                assert dev <= bound + 10 * POLICY.tail_tol

    def test_matches_brute_double_sum(self, example2_spec):
        rng = np.random.default_rng(6)
        op = TailMapOperator(example2_spec, 1.0, 1.0, 12, POLICY)
        end = window_end(op)
        yw = rng.uniform(-2, 2, end + 1)
        xw = rng.uniform(-2, 2, end + 1)
        nx = op.map(np.concatenate([xw, yw]))[:end + 1]
        for n in (0, 1, 5, 12, end):
            ref = brute_tail_component(example2_spec, 1.0, yw, n)
            assert nx[n] == pytest.approx(ref, abs=1e-9)

    def test_single_point_window(self, example2_spec):
        op = TailMapOperator(example2_spec, 1.0, 1.0, 0, POLICY)
        out = op.map(np.zeros(len(op.free)))
        assert out.shape == op.free.shape
        assert abs(out[0] - 1.0) <= 2.0 * TAIL_MASS_A + 10 * POLICY.tail_tol

    def test_nonsummable_kernel_rejected(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          SeparableExponential(1.0, 1.0, 1.0),
                          example2_spec.kernel_b, example2_spec.f,
                          example2_spec.g)
        with pytest.raises(TailNotCertified):
            TailMapOperator(spec, 1.0, 1.0, 4, POLICY)

    def test_certified_error_covers_truncation(self, example2_spec):
        # tighter policy must produce a smaller certified error
        loose, tight = (TailMapOperator(example2_spec, 1.0, 1.0, 8,
                                        TruncationPolicy(tail_tol))
                        .truncation_error for tail_tol in (1e-6, 1e-12))
        assert tight < loose <= 1e-6


    @pytest.mark.parametrize("seed", range(4))
    def test_weight_block_matches_per_term_build(self, seed):
        """The map from its generators applies the blocks built one kernel
        term at a time."""
        spec = random_summable_spec(np.random.default_rng(seed))
        op = TailMapOperator(spec, 1.0, 1.0, 12, POLICY)
        end = window_end(op)
        prof = growth_profile(spec)
        blocks = [per_term_weight_block(kernel, nonlin, growth, ratio, end,
                                        POLICY)
                  for kernel, nonlin, growth, ratio in (
                      (spec.kernel_a, spec.f, prof.x, prof.ratio_x),
                      (spec.kernel_b, spec.g, prof.y, prof.ratio_y))]
        assert op.map.u.shape == (2, end + 1)
        assert_map_matches_blocks(op.map, blocks,
                                  np.random.default_rng(seed))

    @pytest.mark.parametrize("horizon", [0, 8, 40, 400, 1000])
    def test_tail_block_equals_strided_build(self, example2_spec, horizon):
        """On the window 0..N the generators give the dense strided
        build's c within the stated round-off of U (``tail_u_bound``: U is
        filtered in double, the reference's row by row in long double) and
        its error less the flush of tiny entries, and the map applies its
        K.  The cases: components of different rates; a negative kernel at
        rate 2.5, whose lam^{n-m} underflows and whose filter runs in
        segments of 205 from H = 205 on; and rates 2.5 and 0.3 together."""
        steep = SeparableExponential(-0.8, 2.5, 3.0)
        slow = SeparableExponential(0.5, 0.3, 0.9)
        rng = np.random.default_rng(horizon)
        for spec, c1, c2 in (
                (example2_spec, 1.0, 2.0),
                (random_summable_spec(rng), 0.7, -1.3),
                (SystemSpec(2, example2_spec.h, example2_spec.p, steep,
                            steep, example2_spec.f, example2_spec.g),
                 1.0, 1.0),
                (SystemSpec(2, example2_spec.h, example2_spec.p, steep,
                            slow, example2_spec.f, example2_spec.g),
                 1.0, -0.5)):
            op = TailMapOperator(spec, c1, c2, horizon, POLICY)
            end = window_end(op)
            assert end >= horizon
            blocks, errors = [], []
            for c_map, (args, error, (k_ref, c_ref, error_ref)) in zip(
                    np.split(op.map.c, 2),
                    reference_sides(spec, c1, c2, end)):
                u, rate, scale, c = _tail_block(*args)
                assert u.shape == scale.shape == (end + 1,)
                assert c.tobytes() == c_map.tobytes()
                # c = (c_out - f(0) U[n] lam^{n+1} / (1 - lam)) / r_n
                kernel, nonlin, growth, _, _ = args
                weight = (abs(nonlin(0.0))
                          * np.exp(-kernel.row_rate * np.arange(1, end + 2))
                          / -math.expm1(-kernel.row_rate)
                          / np.abs(growth.take(np.arange(end + 1))))
                assert np.all(np.abs(c - c_ref) <= (1.0 + 1e-14) * weight
                              * tail_u_bound(kernel, growth, end)
                              + 4.0 * np.spacing(np.abs(c_ref)))
                flush = (end + 1) * REFERENCE_NEGLIGIBLE * args[1].bound
                assert error + flush == error_ref
                blocks.append(k_ref)
                errors.append(error)
            assert op.truncation_error == max(errors)
            assert_map_matches_blocks(op.map, blocks, rng)


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

    @pytest.mark.parametrize("horizon", [60, 150])
    def test_example2_has_a_second_certified_decomposition(
            self, example2_spec, horizon):
        """No uniqueness is claimed.  solve_fixed_point, run from the free
        response on the reduced map x -> c_x + K_x f(c_y + K_y g(x)) (y
        eliminated, Newton on the Schur complement I - A B), reaches a
        second fixed point of the tail map, 1.43 away in x and 2.28 in y.
        Both decompositions have recurrence defects at round-off and both
        verify.  The solver reports the first: pinned, so that a change in
        which one it reports shows up."""
        spec = example2_spec
        report = solve_asymptotic(spec, 1.0, 1.0, horizon, policy=POLICY)
        op = TailMapOperator(spec, 1.0, 1.0, horizon, POLICY)
        dense = op.map.dense()
        width = len(dense.k_x)
        c_x, c_y = dense.c[:width], dense.c[width:]

        def partner(x):
            return c_y + dense.k_y @ spec.g.apply(x)

        def reduced(x):
            return c_x + dense.k_x @ spec.f.apply(partner(x))

        def newton_step(x, residual):
            a = dense.k_x * spec.f.slope(partner(x))
            b = dense.k_y * spec.g.slope(x)
            return np.linalg.solve(np.eye(width) - a @ b, -residual)

        result = solve_fixed_point(reduced, op.free[:width],
                                   newton_step=newton_step,
                                   opts=SolverOptions())
        assert report.converged and result.converged
        z = np.concatenate([result.z, partner(result.z)])
        assert np.abs(op.map(z) - z).max() <= 1e-14
        x, y = z.reshape(2, -1)[:, :horizon + 1]
        assert report.x[0] == pytest.approx(-2.581438, abs=1e-6)
        assert x[0] == pytest.approx(-1.1501, abs=1e-4)
        assert np.abs(x - report.x).max() == pytest.approx(1.4313, abs=1e-4)
        assert np.abs(y - report.y).max() == pytest.approx(2.2840, abs=1e-4)
        free_x, free_y = op.free.reshape(2, -1)[:, :horizon + 1]
        second = dataclasses.replace(
            report.decomposition, v1=tuple((x - free_x).tolist()),
            v2=tuple((y - free_y).tolist()))
        for dec in (report.decomposition, second):
            verification = verify_decomposition(spec, dec,
                                                tail_tol=POLICY.tail_tol)
            assert verification.passed
            assert verification.max_defect <= 1e-15

    def test_free_response_agrees_with_running_products(self, example2_spec):
        report = solve_asymptotic(example2_spec, 1.0, 1.0, 8, policy=POLICY)
        u1 = report.decomposition.u1
        for n in range(20):
            direct = product_one_plus(example2_spec.h, 0, n - 1)
            assert u1.get(n) == pytest.approx(direct, rel=1e-12)

    def test_values_read_the_window_and_the_zero_history(self, example2_spec):
        report = solve_asymptotic(example2_spec, 1.0, 1.0, 20, policy=POLICY)
        dec = report.decomposition
        window = np.arange(21)
        for u, v, values in ((dec.u1, dec.v1, report.x),
                             (dec.u2, dec.v2, report.y)):
            assert np.allclose(u.take(window) + v, values, rtol=0.0,
                               atol=1e-15)
        # before the window: the zero history, not the window's far end
        x0, y0 = History.zero().value_at(-1)
        xs, ys = [x0, *report.x], [y0, *report.y]
        want = defects_reference(example2_spec, xs, ys, 20, POLICY)
        assert len(report.defects) == len(want) == 20
        assert np.all(np.abs(np.array(report.defects) - np.array(want))
                      <= defects_slack(example2_spec, xs, ys, 20, POLICY, 1,
                                       report.defects, want))

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

    @pytest.mark.parametrize("seed, horizon", [
        (None, 8), (None, 10), (None, 40), (0, 40), (1, 40), (2, 40)])
    def test_reported_window_does_not_depend_on_the_horizon(
            self, example2_spec, seed, horizon):
        """On 0..H the solve is the H = 600 solve's to 1e-10, also where the
        outer cut lies far past H: the window map drops only the sums past
        the cut, by at most truncation_error.  Cases: example2 (seed None),
        then seeded unit-product systems."""
        spec = (example2_spec if seed is None
                else random_summable_spec(np.random.default_rng(seed)))
        report = solve_asymptotic(spec, 1.0, 1.0, horizon, policy=POLICY)
        far = solve_asymptotic(spec, 1.0, 1.0, 600, policy=POLICY)
        assert report.converged and far.converged
        for near, ref in ((report.x, far.x), (report.y, far.y)):
            assert len(near) == horizon + 1
            assert np.max(np.abs(np.subtract(near, ref[:horizon + 1]))) \
                <= 1e-10

    def test_truncation_error_gates_converged(self, example2_spec):
        """A loose tail tolerance leaves a truncation error of 2.07e-7, above
        residual_tol = 1e-8: the window solves and its defects are small,
        but the solve is not converged."""
        report = solve_asymptotic(example2_spec, 1.0, 1.0, 8,
                                  policy=TruncationPolicy(1e-6))
        assert report.truncation_error == pytest.approx(2.07e-7, rel=1e-2)
        assert report.residual_max <= 1e-8
        assert not report.converged
        assert not report.decomposition.converged

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
    def test_operator_apply_matches_a_fresh_build(self, example2_spec):
        """One operator applied again and again gives, call by call, what
        an operator built for that call gives: its map holds no state."""
        rng = np.random.default_rng(13)
        op = TailMapOperator(example2_spec, 1.0, 1.0, 15, POLICY)
        for _ in range(3):
            z = rng.uniform(-3, 3, len(op.free))
            fresh = TailMapOperator(example2_spec, 1.0, 1.0, 15, POLICY)
            assert np.array_equal(op.map(z), fresh.map(z))

    def test_jacobian_matches_central_differences(self, example2_spec):
        rng = np.random.default_rng(14)
        op = TailMapOperator(example2_spec, 1.0, 1.0, 15, POLICY)
        tail_map = op.map
        z = rng.uniform(-3, 3, len(op.free))
        assert np.allclose(tail_map.jacobian(z),
                           central_difference_jacobian(tail_map, z),
                           rtol=0.0, atol=1e-7)

    def test_newton_step_matches_dense_solve(self):
        """The matrix-free step solves the same system as an LU of the
        dense 2(N+1) x 2(N+1) Jacobian built from the reference blocks, on
        random tail maps of H = 10..400 (in filter segments at H = 400)."""
        rng = np.random.default_rng(15)
        for horizon in (10, 37, 80, 141, 200, 400):
            spec = random_summable_spec(rng)
            op = TailMapOperator(spec, 1.0, 1.0, horizon, POLICY)
            tail_map, end = op.map, window_end(op)
            (_, _, (k_x, _, _)), (_, _, (k_y, _, _)) = reference_sides(
                spec, 1.0, 1.0, end)
            width = end + 1
            z = rng.uniform(-3, 3, 2 * width)
            residual = rng.uniform(-1, 1, 2 * width)
            jac = np.eye(2 * width)
            jac[:width, width:] = -k_x * spec.f.slope(z[width:])
            jac[width:, :width] = -k_y * spec.g.slope(z[:width])
            dense = np.linalg.solve(jac, -residual)
            step = tail_map.newton_step(z, residual)
            assert (np.max(np.abs(step - dense))
                    <= 1e-13 * np.max(np.abs(dense)))

    @pytest.mark.parametrize("horizon", [60, 150])
    def test_example2_iteration_counts(self, example2_spec, horizon):
        """Pinned at the Anderson-accelerated counts: 22 mixing steps and
        one Newton step (22 under damped Picard and Newton)."""
        report = solve_asymptotic(example2_spec, 1.0, 1.0, horizon,
                                  policy=POLICY)
        assert report.converged
        assert (report.iterations, report.method_used) == (23, "newton")

    def test_memory_stays_linear_in_the_horizon(self, example2_spec):
        """At H = 2000 one dense (H+1)^2 block would take 32 MB: the
        generators, their map and its matrix-free Newton steps take O(H)
        memory, and the solve takes its H = 60 counts."""
        tracemalloc.start()
        try:
            report = solve_asymptotic(example2_spec, 1.0, 1.0, 2000,
                                      policy=POLICY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert (report.iterations, report.map_calls,
                report.method_used) == (23, 24, "newton")
        assert peak < 4_000_000


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
