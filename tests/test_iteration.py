"""The fixed-point driver against the same loop written with a fresh array
for every step: identical iterates, counts, methods and update norms, and
no write into an array the map returns."""
import numpy as np
import pytest

from volterra2d import Nonlinearity, SolverOptions, TruncationPolicy
from volterra2d._iteration import CoupledMap, solve_fixed_point
from volterra2d.asymptotic_solver import TailMapOperator
from volterra2d.periodic_solver import _cycle_map_vec
from volterra2d.system import default_horizon

from conftest import fixed_point_reference, random_periodic_spec

OPTIONS = [SolverOptions(), SolverOptions(damping=1.0),
           SolverOptions(damping=0.3, max_iter=25),
           SolverOptions(tol=1e-15, max_iter=60)]


def assert_same_run(apply_map, z0, newton_step, opts):
    result = solve_fixed_point(apply_map, z0, newton_step=newton_step,
                               opts=opts)
    z, iterations, method, update, converged = fixed_point_reference(
        apply_map, z0, newton_step, opts)
    assert result.z.tobytes() == z.tobytes()
    assert (result.iterations, result.method_used, result.converged) \
        == (iterations, method, converged)
    assert np.float64(result.final_update_norm).tobytes() \
        == np.float64(update).tobytes()
    return result


def periodic_maps(example1_spec, cosine_spec):
    rng = np.random.default_rng(16)
    specs = [example1_spec, cosine_spec] + [random_periodic_spec(rng)
                                            for _ in range(6)]
    return [_cycle_map_vec(spec) for spec in specs]


def tail_maps(example2_spec):
    return [TailMapOperator(example2_spec, c1, c2, horizon,
                            TruncationPolicy()).map
            for c1, c2, horizon in ((1.0, 1.0, 40),
                                    (0.5, 2.0, default_horizon(example2_spec)))]


class TestDriver:
    @pytest.mark.parametrize("opts", OPTIONS)
    def test_identity_map(self, opts):
        # The map returns its argument: any write into the map's output
        # would change the iterate itself.
        z0 = np.array([0.25, -1.5, 3.0, 1e-300, -0.0])
        keep = z0.copy()
        assert_same_run(lambda z: z, z0, lambda z, r: -r, opts)
        assert z0.tobytes() == keep.tobytes()

    @pytest.mark.parametrize("opts", OPTIONS)
    def test_cached_array_map(self, opts):
        # The map returns one array it keeps; the driver must not write
        # into it, and Newton on z - cached is exact in one step.
        cached = np.array([1.0, -2.5, 0.125, 7.0, -0.0, 3e-8])
        keep = cached.copy()
        result = assert_same_run(lambda z: cached, np.zeros(6),
                                 lambda z, r: -r, opts)
        assert cached.tobytes() == keep.tobytes()
        assert result.z is not cached

    @pytest.mark.parametrize("opts", OPTIONS)
    def test_non_finite_steps(self, opts):
        # A map that overflows ends Picard at its best iterate.  A bounded
        # one that Picard cycles on stalls into Newton, whose steps are
        # refused once the correction or the stepped iterate overflows.
        def growing(z):
            return z * 1e200 + 1.0

        def bounded(z):
            return np.clip(z, -1.0, 1.0) * -3.0 + 1.0

        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_run(growing, np.ones(3), lambda z, r: -r, opts)
            for step in (lambda z, r: -r, lambda z, r: r * np.inf,
                         lambda z, r: np.full_like(z, 1e308)):
                assert_same_run(bounded, np.array([1.0, 0.5, -2.0]), step,
                                opts)

    def test_periodic_cycle_maps(self, example1_spec, cosine_spec):
        for cycle_map in periodic_maps(example1_spec, cosine_spec):
            for opts in OPTIONS:
                assert_same_run(cycle_map, np.zeros(len(cycle_map.c)),
                                cycle_map.newton_step, opts)

    def test_asymptotic_tail_maps(self, example2_spec):
        for tail_map in tail_maps(example2_spec):
            for opts in OPTIONS:
                assert_same_run(tail_map, tail_map.c, tail_map.newton_step,
                                opts)


class TestCoupledMap:
    def test_output_equals_concatenated_blocks(self, example1_spec,
                                               cosine_spec, example2_spec):
        rng = np.random.default_rng(3)
        maps = periodic_maps(example1_spec, cosine_spec) \
            + tail_maps(example2_spec)
        maps.append(CoupledMap(rng.normal(size=10), rng.normal(size=(5, 5)),
                               rng.normal(size=(5, 5)),
                               example1_spec.f, example1_spec.g))
        for m in maps:
            n = len(m.k_x)
            for z in (rng.normal(size=2 * n), 10.0 * rng.normal(size=2 * n)):
                expected = m.c + np.concatenate([m.k_x @ m.f(z[n:]),
                                                 m.k_y @ m.g(z[:n])])
                out = m(z)
                assert out.tobytes() == expected.tobytes()
                assert out is not m.c and m(z).tobytes() == out.tobytes()

    def test_bound_formulas_equal_the_called_form(self, example1_spec,
                                                  cosine_spec, example2_spec):
        # The map and its Newton step take f and g by their bound array
        # formulas; written with the dispatching call and ``derivative``
        # they give the same bits, for every kind.
        rng = np.random.default_rng(5)
        maps = periodic_maps(example1_spec, cosine_spec) \
            + tail_maps(example2_spec)
        for kind in ("sin", "cos", "tanh", "rational_bounded"):
            f, g = Nonlinearity(kind, 1.3, -0.7), Nonlinearity(kind, -0.4, 2.1)
            maps.append(CoupledMap(rng.normal(size=8), rng.normal(size=(4, 4)),
                                   rng.normal(size=(4, 4)), f, g))
        for m in maps:
            n = len(m.k_x)
            for z in (rng.normal(size=2 * n), 10.0 * rng.normal(size=2 * n)):
                called = m.c + np.concatenate([m.k_x @ m.f(z[n:]),
                                               m.k_y @ m.g(z[:n])])
                assert m(z).tobytes() == called.tobytes()
                a = m.k_x * m.f.derivative(z[n:])
                b = m.k_y * m.g.derivative(z[:n])
                jac = np.eye(2 * n)
                jac[:n, n:], jac[n:, :n] = -a, -b
                assert m.jacobian(z).tobytes() == jac.tobytes()
                residual = z - called
                dx = np.linalg.solve(np.eye(n) - a @ b,
                                     -residual[:n] - a @ residual[n:])
                step = np.concatenate([dx, b @ dx - residual[n:]])
                assert (m.newton_step(z, residual).tobytes()
                        == step.tobytes())
