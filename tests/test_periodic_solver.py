import math

import numpy as np
import pytest

from volterra2d import (
    History,
    Nonlinearity,
    PeriodicSequence,
    PeriodProductIsOne,
    SeparableExponential,
    SolverOptions,
    SystemSpec,
    TruncationPolicy,
    apply_cycle_map,
    check_periodic_hypotheses,
    cycle_gain,
    simulate,
    solve_periodic,
)

from volterra2d._iteration import CoupledMap, solve_fixed_point
from volterra2d.periodic_solver import _cycle_map_vec

from conftest import (central_difference_jacobian, inner_sum_reference,
                      random_hard_periodic_spec, random_periodic_spec)

CONSTANT_DRIVE_EVEN = -1.5819767068693265   # frozen: -(1/2) * 2 * e/(e-1)
CONSTANT_DRIVE_ODD = -3.163953413738653     # frozen: -(1/2) * 4 * e/(e-1)


def direct_map(spec, state):
    """Reference path for the cycle map: untruncated per-term inner sums on
    the periodic extension instead of folded lag tables."""
    x, y = state
    T = spec.period
    gain_x = cycle_gain(spec.h)
    gain_y = cycle_gain(spec.p)
    out_x, out_y = [], []
    for n in range(T):
        acc_x = 0.0
        acc_y = 0.0
        for i in range(n, n + T):
            prod_h = 1.0
            prod_p = 1.0
            for l in range(i + 1, n + T):
                prod_h *= 1.0 + spec.h.get(l)
                prod_p *= 1.0 + spec.p.get(l)
            drive_a = inner_sum_reference(
                spec.kernel_a, i, lambda m: spec.f(y.get(m)), 0, T)
            drive_b = inner_sum_reference(
                spec.kernel_b, i, lambda m: spec.g(x.get(m)), 0, T)
            acc_x += prod_h * drive_a
            acc_y += prod_p * drive_b
        out_x.append(gain_x * acc_x)
        out_y.append(gain_y * acc_y)
    return (PeriodicSequence(T, tuple(out_x)), PeriodicSequence(T, tuple(out_y)))


class TestCycleMap:
    def test_constant_drive_frozen_values(self, example1_spec):
        spec = SystemSpec(2, example1_spec.h, example1_spec.p,
                          example1_spec.kernel_a, example1_spec.kernel_b,
                          Nonlinearity("cos", 1.0, 0.0),
                          Nonlinearity("cos", 1.0, 0.0))
        out_x, out_y = apply_cycle_map(
            spec, (PeriodicSequence(2, (0.0, 0.0)),
                   PeriodicSequence(2, (0.0, 0.0))))
        assert out_x.values[0] == pytest.approx(CONSTANT_DRIVE_EVEN, rel=1e-12)
        assert out_x.values[1] == pytest.approx(CONSTANT_DRIVE_ODD, rel=1e-12)
        # p swaps the roles of even and odd
        assert out_y.values[0] == pytest.approx(CONSTANT_DRIVE_ODD, rel=1e-12)
        assert out_y.values[1] == pytest.approx(CONSTANT_DRIVE_EVEN, rel=1e-12)
        # reference path agrees
        ref_x, _ = direct_map(spec, (out_x, out_y))
        assert ref_x.values == pytest.approx(out_x.values, abs=1e-10)

    def test_zero_amplitude_maps_everything_to_zero(self, zero_amplitude_spec):
        rng = np.random.default_rng(3)
        for _ in range(5):
            state = (PeriodicSequence(2, tuple(rng.uniform(-5, 5, 2))),
                     PeriodicSequence(2, tuple(rng.uniform(-5, 5, 2))))
            out_x, out_y = apply_cycle_map(zero_amplitude_spec, state)
            assert out_x.values == (0.0, 0.0)
            assert out_y.values == (0.0, 0.0)

    def test_output_is_periodic_by_representation(self, cosine_spec):
        out_x, out_y = apply_cycle_map(
            cosine_spec, (PeriodicSequence(2, (0.4, -0.2)),
                          PeriodicSequence(2, (0.1, 0.9))))
        for n in range(-4, 5):
            assert out_x.get(n + 2) == out_x.get(n)
            assert out_y.get(n + 2) == out_y.get(n)

    def test_unit_product_rejected(self, example2_spec):
        state = (PeriodicSequence(2, (0.0, 0.0)),
                 PeriodicSequence(2, (0.0, 0.0)))
        with pytest.raises(PeriodProductIsOne):
            apply_cycle_map(example2_spec, state)

    def test_folded_path_matches_direct_path(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            spec = random_periodic_spec(rng)
            T = spec.period
            state = (PeriodicSequence(T, tuple(rng.uniform(-2, 2, T))),
                     PeriodicSequence(T, tuple(rng.uniform(-2, 2, T))))
            folded = apply_cycle_map(spec, state)
            direct = direct_map(spec, state)
            scale = max(1.0, max(abs(u) for u in folded[0].values + folded[1].values))
            for a, b in zip(folded, direct):
                assert a.values == pytest.approx(b.values, abs=1e-10 * scale)

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(4):
            spec = random_periodic_spec(rng)
            cycle_map = _cycle_map_vec(spec)
            z = rng.uniform(-2, 2, 2 * spec.period)
            assert np.allclose(cycle_map.jacobian(z),
                               central_difference_jacobian(cycle_map, z),
                               rtol=0.0, atol=1e-7)

    def test_newton_step_matches_dense_solve(self):
        """The eliminated step solves the same system as an LU of the dense
        2T x 2T Jacobian, on random cycle maps of T = 1..16.  Rate 1 and
        products 0.3 from one keep cond(J) below about 1e3, so the two
        solves agree to round-off."""
        rng = np.random.default_rng(13)
        for period in range(1, 17):
            cycle_map = _cycle_map_vec(random_hard_periodic_spec(
                rng, period=period, rate=1.0, gap=0.3))
            z = rng.uniform(-2, 2, 2 * period)
            residual = rng.uniform(-1, 1, 2 * period)
            dense = np.linalg.solve(cycle_map.jacobian(z), -residual)
            step = cycle_map.newton_step(z, residual)
            assert (np.max(np.abs(step - dense))
                    <= 1e-13 * np.max(np.abs(dense)))

    def test_singular_jacobian_falls_back_to_least_squares(self):
        """With K_x = K_y = I and f' = g' = 1 at z = 0, J = [[I, -I], [-I,
        I]] and its Schur complement I - I are singular: the step is the
        least-squares solution on the dense Jacobian, as before."""
        sin = Nonlinearity("sin", 1.0, 1.0)
        coupled = CoupledMap(np.zeros(6), np.eye(3), np.eye(3), sin, sin)
        z = np.zeros(6)
        residual = np.array([1.0, -2.0, 0.5, 3.0, 0.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(coupled.jacobian(z), -residual)
        expected = np.linalg.lstsq(coupled.jacobian(z), -residual,
                                   rcond=None)[0]
        assert np.array_equal(coupled.newton_step(z, residual), expected)

    def test_self_map_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            spec = random_periodic_spec(rng)
            q = check_periodic_hypotheses(spec).quantities
            # the bounded-route ball: max of (nonlinearity bound) x (map mass)
            radius = max(spec.f.bound * q["bound_x"],
                         spec.g.bound * q["bound_y"])
            T = spec.period
            for _ in range(25):
                state = (
                    PeriodicSequence(T, tuple(rng.uniform(-radius - 1, radius + 1, T))),
                    PeriodicSequence(T, tuple(rng.uniform(-radius - 1, radius + 1, T))))
                out_x, out_y = apply_cycle_map(spec, state)
                norm = max(max(abs(u) for u in out_x.values),
                           max(abs(u) for u in out_y.values))
                assert norm <= radius + 1e-9


class TestSolvePeriodic:
    def test_demo1_zero_guess(self, example1_spec):
        report = solve_periodic(example1_spec)
        assert report.converged
        assert report.gain_x == -0.5 and report.gain_y == -0.5
        assert report.residual_max <= 1e-8
        # zero is an exact fixed point here (odd nonlinearities)
        assert report.solution[0].values == (0.0, 0.0)
        assert report.solution[1].values == (0.0, 0.0)

    def test_zero_amplitude_converges_immediately(self, zero_amplitude_spec):
        report = solve_periodic(zero_amplitude_spec)
        assert report.converged
        assert report.iterations == 1
        assert report.residual_max == 0.0
        assert report.solution[0].values == (0.0, 0.0)

    def test_nontrivial_fixed_point(self, cosine_spec):
        report = solve_periodic(cosine_spec)
        assert report.converged
        assert report.method_used == "newton"
        assert report.final_update_norm <= 1e-12
        assert report.residual_max <= 1e-8
        # the found point reproduces itself under the map
        out = apply_cycle_map(cosine_spec, report.solution)
        for got, expected in zip(out, report.solution):
            assert got.values == pytest.approx(expected.values, abs=1e-12)

    def test_unit_product_raises(self, example2_spec):
        with pytest.raises(PeriodProductIsOne):
            solve_periodic(example2_spec)

    def test_custom_initial_guess(self, cosine_spec):
        guess = (PeriodicSequence(2, (-1.0, -2.0)),
                 PeriodicSequence(2, (1.0, 0.3)))
        report = solve_periodic(cosine_spec,
                                SolverOptions(initial_guess=guess))
        assert report.converged

    def test_undamped_picard_method_label(self, zero_amplitude_spec):
        report = solve_periodic(zero_amplitude_spec,
                                SolverOptions(damping=1.0))
        assert report.converged
        assert report.method_used == "picard"

    def test_random_systems_converge_and_verify(self):
        rng = np.random.default_rng(17)
        solved = 0
        for _ in range(6):
            spec = random_periodic_spec(rng)
            report = solve_periodic(spec)
            if report.converged:
                solved += 1
                assert report.residual_max <= 1e-8
        assert solved >= 4  # most random systems have reachable fixed points

    @pytest.mark.parametrize("period", [1, 2])
    def test_slow_kernel_solution_converges(self, period):
        """Slow kernels (coef 0.05, rate 0.05) on example1 with cos
        nonlinearities and constant h = 0.5, p = 0.3.  The gate is the
        certified-tail residual over one period, about 4.4e-11 here; a
        fixed 256-term kernel sum drops a tail of about 1.2e-6 and would
        fail this correct solution.  verify_periodic sums these kernels
        in closed form and certifies the solution (tests/test_verify.py)."""
        kernel = SeparableExponential(0.05, 0.05, 0.05)
        spec = SystemSpec(
            period, PeriodicSequence(period, (0.5,) * period),
            PeriodicSequence(period, (0.3,) * period), kernel, kernel,
            Nonlinearity("cos", 1.0, 1.0), Nonlinearity("cos", 1.0, 2.0))
        report = solve_periodic(spec)
        assert report.converged
        assert report.residual_max <= 1e-8
        assert len(report.defects) == period

    @pytest.mark.parametrize("blowup", [math.inf, math.nan])
    def test_picard_stops_at_a_non_finite_step(self, blowup):
        """A step to inf or NaN ends Picard at once on the last finite
        iterate, instead of stalling through STALL_PATIENCE more steps.
        Newton then refuses the non-finite residual before its first step,
        so the result is Picard's."""
        opts = SolverOptions(damping=1.0)
        result = solve_fixed_point(lambda z: z * blowup, np.ones(2),
                                   newton_step=None, opts=opts)
        assert result.iterations == 1
        assert result.z.tolist() == [1.0, 1.0]
        assert result.method_used == "picard"
        assert not result.converged

    @pytest.mark.parametrize("period", [4, 12, 16])
    def test_example1_cos_iteration_counts(self, period):
        """example1's kernels with cos nonlinearities, h = 0.5 and p = 0.3:
        pinned at the dense-Jacobian Newton's counts."""
        kernel = SeparableExponential(1.0, 1.0, 1.0)
        spec = SystemSpec(
            period, PeriodicSequence(period, (0.5,) * period),
            PeriodicSequence(period, (0.3,) * period), kernel, kernel,
            Nonlinearity("cos", 1.0, 1.0), Nonlinearity("cos", 1.0, 2.0))
        report = solve_periodic(spec)
        assert report.converged
        assert (report.iterations, report.method_used) == (38, "newton")

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(damping=0.0)
        with pytest.raises(ValueError):
            SolverOptions(damping=1.5)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)


class TestSolutionIsFixedPoint:
    def test_numerically_periodic_trajectory_reproduces_itself(self, cosine_spec):
        """A trajectory seeded with the solved periodic history stays on the
        orbit, and its period window is a fixed point of the cycle map."""
        report = solve_periodic(cosine_spec)
        sol_x, sol_y = report.solution
        window = tuple((sol_x.get(n), sol_y.get(n)) for n in range(-300, 1))
        t = simulate(cosine_spec, History(window), 2, TruncationPolicy(1e-14))
        state = (PeriodicSequence(2, (t.x[0], t.x[1])),
                 PeriodicSequence(2, (t.y[0], t.y[1])))
        out = apply_cycle_map(cosine_spec, state)
        gap = max(max(abs(a - b) for a, b in zip(out[0].values, state[0].values)),
                  max(abs(a - b) for a, b in zip(out[1].values, state[1].values)))
        assert gap <= 10 * 1e-8
