"""The fixed-point driver against the same loop written with a fresh array
for every step: identical iterates, counts, methods, update norms and map
evaluations, and no write into an array the map returns.  Each branch of
the mixing phase (restart, contraction refusal, singular Gram system) is
shown on a map that takes it, and on contractions the accelerated result
is the depth-0 (damped Picard) result."""
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volterra2d import Nonlinearity, SolverOptions, TruncationPolicy
from volterra2d import _iteration, kernels
from volterra2d._iteration import CoupledMap, TailMap, solve_fixed_point
from volterra2d.asymptotic_solver import TailMapOperator
from volterra2d.periodic_solver import _cycle_map_vec
from volterra2d.system import default_horizon

from conftest import (fixed_point_reference, random_periodic_spec,
                      random_summable_spec)
from test_verify import FORMER_FALSE_FAILS

OPTIONS = [SolverOptions(), SolverOptions(damping=1.0),
           SolverOptions(damping=0.3, max_iter=25),
           SolverOptions(tol=1e-15, max_iter=60)]


def assert_same_run(apply_map, z0, newton_step, opts):
    result = solve_fixed_point(apply_map, z0, newton_step=newton_step,
                               opts=opts)
    z, iterations, method, update, converged, map_calls = \
        fixed_point_reference(apply_map, z0, newton_step, opts)
    assert result.z.tobytes() == z.tobytes()
    assert (result.iterations, result.method_used, result.converged,
            result.map_calls) == (iterations, method, converged, map_calls)
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


def _spy(apply_map):
    """``apply_map`` and the list of copies of the iterates it is called
    at, in order."""
    seen = []

    def spied(z):
        seen.append(z.copy())
        return apply_map(z)

    return spied, seen


def _sup(a):
    return float(np.max(np.abs(a)))


def _lipschitz(m):
    """The sup-norm Lipschitz bound of a CoupledMap or a TailMap."""
    if isinstance(m, TailMap):
        m = m.dense()
    return max(np.abs(m.k_x).sum(axis=1).max() * m.f.lipschitz,
               np.abs(m.k_y).sum(axis=1).max() * m.g.lipschitz)


class TestMixingBranches:
    def test_stall_after_accelerated_steps_restarts_at_depth_zero(self):
        """rate-5e-05-T1's accelerated steps stall.  The phase restarts
        once from z0, and from there it is damped Picard on the remaining
        budget, as a depth-0 run given that budget; Newton converges from
        where it stops."""
        cycle_map = _cycle_map_vec(FORMER_FALSE_FAILS["rate-5e-05-T1"])
        z0, opts = np.zeros(len(cycle_map.c)), SolverOptions()
        spied, seen = _spy(cycle_map)
        result = solve_fixed_point(spied, z0, newton_step=cycle_map.newton_step,
                                   opts=opts)
        starts = [k for k, z in enumerate(seen) if z.tobytes() == z0.tobytes()]
        assert len(starts) == 2 and starts[1] > 1
        assert (result.method_used, result.converged) == ("newton", True)
        assert result.map_calls == len(seen)
        spied, plain = _spy(cycle_map)
        with mock.patch.object(_iteration, "ANDERSON_DEPTH", 0):
            again = solve_fixed_point(
                spied, z0, newton_step=cycle_map.newton_step,
                opts=dataclasses.replace(opts,
                                         max_iter=opts.max_iter - starts[1]))
        assert [z.tobytes() for z in seen[starts[1]:]] \
            == [z.tobytes() for z in plain]
        assert again.z.tobytes() == result.z.tobytes()
        assert_same_run(cycle_map, z0, cycle_map.newton_step, opts)

    @pytest.mark.parametrize("name, contracts", [
        ("example1-cos-T16", None), ("example1-cos-T4", False)])
    def test_refused_step_hands_over_to_newton(self, name, contracts):
        """An accelerated step drops below tol, but its iterate z is not
        accepted: on example1-cos-T16 the residual |map(z) - z| is still
        above tol, and on example1-cos-T4 it is below, but one more Picard
        step from z does not shrink it by CONTRACTION_FACTOR.  Newton
        takes over from that very z with the check's map(z), so that the
        map is evaluated at z once (tests/test_verify.py shows that Newton
        brings the certified radius down to round-off)."""
        cycle_map = _cycle_map_vec(FORMER_FALSE_FAILS[name])
        z0, opts = np.zeros(len(cycle_map.c)), SolverOptions()
        spied, seen = _spy(cycle_map)
        with mock.patch.object(_iteration, "_newton",
                               wraps=_iteration._newton) as newton:
            result = solve_fixed_point(spied, z0,
                                       newton_step=cycle_map.newton_step,
                                       opts=opts)
        (_, _, z, _, budget, mapped), _ = newton.call_args
        steps = opts.max_iter - budget
        g = cycle_map(z)
        assert _sup(z - seen[steps - 1]) < opts.tol
        # the check evaluates the map at z (and at g if the residual is
        # below tol), then Newton starts at z from that map(z): its one
        # step converges, so it evaluates the map no more
        check = [z] if contracts is None else [z, g]
        assert mapped.tobytes() == g.tobytes()
        assert [x.tobytes() for x in seen[steps:]] \
            == [x.tobytes() for x in check]
        first = z + cycle_map.newton_step(z, z - g)
        assert result.z.tobytes() == first.tobytes()
        assert (_sup(g - z) < opts.tol) == (contracts is not None)
        if contracts is not None:
            assert (_sup(cycle_map(g) - g)
                    <= _iteration.CONTRACTION_FACTOR * _sup(g - z)) \
                == contracts
        assert (result.method_used, result.converged) == ("newton", True)
        assert result.iterations == steps + 1
        assert result.map_calls == len(seen)
        assert_same_run(cycle_map, z0, cycle_map.newton_step, opts)

    def test_singular_gram_system_takes_the_lstsq_step(self):
        """A constant map, damping 1/2: the plain step goes half way, the
        first accelerated step lands on the constant, and the next one
        repeats the difference of f (-c/2 both times), so its Gram
        system is exactly singular and least squares gives the step."""
        cached = np.array([1.0, -2.5, 0.125, 7.0])
        with mock.patch.object(np.linalg, "lstsq",
                               wraps=np.linalg.lstsq) as lstsq:
            result = solve_fixed_point(lambda z: cached, np.zeros(4),
                                       newton_step=lambda z, r: -r,
                                       opts=SolverOptions())
        assert lstsq.call_count == 1
        assert (result.iterations, result.method_used, result.converged,
                result.map_calls) == (3, "anderson", True, 5)
        assert result.z.tobytes() == cached.tobytes()

    def test_failing_gram_solves_reach_the_same_fixed_point(self, cosine_spec):
        """With every Gram solve raising LinAlgError, least squares takes
        each accelerated step, and the run ends where it ends without."""
        cycle_map = _cycle_map_vec(cosine_spec)
        z0, opts = np.zeros(len(cycle_map.c)), SolverOptions()
        expected = solve_fixed_point(cycle_map, z0,
                                     newton_step=cycle_map.newton_step,
                                     opts=opts)
        with mock.patch.object(_iteration, "_mix",
                               wraps=_iteration._mix) as mix, \
                mock.patch.object(np.linalg, "solve",
                                  side_effect=np.linalg.LinAlgError) as solve:
            result = solve_fixed_point(
                cycle_map, z0,
                newton_step=lambda z, r: np.linalg.lstsq(
                    cycle_map.jacobian(z), -r, rcond=None)[0],
                opts=opts)
        assert mix.call_count and solve.call_count == mix.call_count
        assert expected.converged and result.converged
        assert _sup(result.z - expected.z) <= 10 * opts.tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rate=st.floats(0.05, 0.7),
       asymptotic=st.booleans())
@example(seed=2268, rate=0.0625, asymptotic=False)
def test_contractions_reach_the_depth_zero_fixed_point(seed, rate,
                                                       asymptotic):
    """Random periodic and summable systems, their f and g scaled so that
    the map's sup-norm Lipschitz bound is at most ``rate``: the
    accelerated run and the depth-0 run (damped Picard, then Newton) both
    converge, to within 10 tol of each other.  In the pinned example the
    mixing stagnates: a step of 4e-15 leaves a residual of 1.9e-10, which
    must not pass for converged."""
    rng = np.random.default_rng(seed)
    if asymptotic:
        spec = random_summable_spec(rng)

        def build(spec):
            return TailMapOperator(spec, 1.0, 1.0, default_horizon(spec),
                                   TruncationPolicy()).map
    else:
        spec = random_periodic_spec(rng)
        build = _cycle_map_vec
    scale = rate / max(_lipschitz(build(spec)), rate)
    spec = dataclasses.replace(spec, **{
        name: Nonlinearity(phi.kind, phi.amplitude * scale, phi.frequency)
        for name, phi in (("f", spec.f), ("g", spec.g))})
    m, opts = build(spec), SolverOptions()
    result = solve_fixed_point(m, m.c, newton_step=m.newton_step, opts=opts)
    with mock.patch.object(_iteration, "ANDERSON_DEPTH", 0):
        plain = solve_fixed_point(m, m.c, newton_step=m.newton_step,
                                  opts=opts)
    assert result.converged and plain.converged
    assert _sup(result.z - plain.z) <= 10 * opts.tol


class TestCoupledMap:
    def test_output_equals_concatenated_blocks(self, example1_spec,
                                               cosine_spec):
        rng = np.random.default_rng(3)
        maps = periodic_maps(example1_spec, cosine_spec)
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
                                                  cosine_spec):
        # The map and its Newton step take f and g by their bound array
        # formulas; written with the dispatching call and ``derivative``
        # they give the same bits, for every kind.
        rng = np.random.default_rng(5)
        maps = periodic_maps(example1_spec, cosine_spec)
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
                a = m.k_x * m.f.slope(z[n:])
                b = m.k_y * m.g.slope(z[:n])
                jac = np.eye(2 * n)
                jac[:n, n:], jac[n:, :n] = -a, -b
                assert m.jacobian(z).tobytes() == jac.tobytes()
                residual = z - called
                dx = np.linalg.solve(np.eye(n) - a @ b,
                                     -residual[:n] - a @ residual[n:])
                step = np.concatenate([dx, b @ dx - residual[n:]])
                assert (m.newton_step(z, residual).tobytes()
                        == step.tobytes())


def random_tail_maps(rng):
    """TailMaps with random generators: U decaying at a random gap, row
    scales of either sign, widths 1 to 300, rates 0.05 to 4 (the filter in
    segments of 129 at width 300) and a zero block (U = 0, rate 0)."""
    maps = []
    for width, rates in ((1, (0.7, 1.3)), (9, (0.05, 2.0)),
                         (300, (4.0, 0.2)), (50, (0.0, 1.0))):
        n = np.arange(width)
        u = np.stack([0.0 * n if rate == 0.0 else
                      rng.uniform(0.1, 0.5) * rng.choice([-1.0, 1.0])
                      * np.exp(-rng.uniform(0.5, 1.0) * n)
                      * rng.uniform(0.8, 1.2, width)
                      for rate in rates])
        scale = rng.uniform(0.5, 1.5, (2, width)) * rng.choice([-1.0, 1.0])
        maps.append(TailMap(rng.normal(size=2 * width), u, scale,
                            np.array(rates), Nonlinearity("sin", 1.3, 0.7),
                            Nonlinearity("tanh", -0.4, 2.1)))
    return maps


class TestTailMap:
    """The map from its generators in O(W) against its dense form, and its
    matrix-free Newton step against the dense one."""

    @pytest.mark.parametrize("exponent", [kernels.SEGMENT_EXPONENT, 4.0,
                                          0.1])
    def test_output_matches_the_dense_form(self, example2_spec, exponent):
        """At the module's segment exponent, S carried across a segment's
        end is below 1e-222 of the sum, so smaller exponents (segments of
        one to 81 entries) check the carry."""
        rng = np.random.default_rng(7)
        with mock.patch.object(kernels, "SEGMENT_EXPONENT", exponent):
            maps = tail_maps(example2_spec) + random_tail_maps(rng)
        for m in maps:
            n = m.u.shape[1]
            dense = m.dense()
            assert dense.k_x.shape == (n, n)
            for z in (rng.normal(size=2 * n), 10.0 * rng.normal(size=2 * n)):
                out = m(z)
                phi = np.concatenate([m.f(z[n:]), m.g(z[:n])])
                size = np.concatenate([np.abs(dense.k_x) @ np.abs(phi[:n]),
                                       np.abs(dense.k_y) @ np.abs(phi[n:])])
                assert (np.max(np.abs(out - dense(z)))
                        <= 1e-13 * max(1.0, np.max(size)))
                # f and g by their bound array formulas, as called
                assert out.tobytes() == (
                    m.c + m._product(m._both, phi)).tobytes()
                assert out is not m.c and m(z).tobytes() == out.tobytes()

    @pytest.mark.parametrize("exponent", [kernels.SEGMENT_EXPONENT, 0.1])
    def test_newton_step_matches_the_dense_step(self, example2_spec,
                                                exponent):
        rng = np.random.default_rng(8)
        with mock.patch.object(kernels, "SEGMENT_EXPONENT", exponent):
            maps = tail_maps(example2_spec) + random_tail_maps(rng)
        for m in maps:
            n = m.u.shape[1]
            z, residual = rng.normal(size=2 * n), rng.normal(size=2 * n)
            dense = m.dense()
            assert m.jacobian(z).tobytes() == dense.jacobian(z).tobytes()
            expected = dense.newton_step(z, residual)
            assert (np.max(np.abs(m.newton_step(z, residual) - expected))
                    <= 1e-13 * max(1.0, np.max(np.abs(expected))))

    def test_failed_structured_solve_takes_the_lstsq_step(self,
                                                          example2_spec):
        """Where GMRES fails, the step is least squares on the dense
        Jacobian, the one place that builds it."""
        m = tail_maps(example2_spec)[0]
        rng = np.random.default_rng(9)
        z, residual = rng.normal(size=len(m.c)), rng.normal(size=len(m.c))
        with mock.patch.object(_iteration, "_gmres",
                               return_value=None) as gmres:
            step = m.newton_step(z, residual)
        assert gmres.call_count == 1
        expected = np.linalg.lstsq(m.jacobian(z), -residual, rcond=None)[0]
        assert step.tobytes() == expected.tobytes()


class TestGmres:
    @pytest.mark.parametrize("dim", [1, 3, _iteration.KRYLOV_DIM])
    def test_restarted_solves_reach_the_tolerance(self, dim):
        """Nonsymmetric systems of size 1 to 80, with restarts every dim
        steps: the residual ends at KRYLOV_RTOL of the right-hand side, as
        far as round-off lets the implicit residual tell."""
        rng = np.random.default_rng(11)
        with mock.patch.object(_iteration, "KRYLOV_DIM", dim):
            for n in (1, 5, 80):
                a = np.eye(n) + 0.2 * rng.normal(size=(n, n)) / np.sqrt(n)
                b = rng.normal(size=n)
                x = _iteration._gmres(lambda v: a @ v, b)
                assert (np.linalg.norm(b - a @ x)
                        <= 10 * _iteration.KRYLOV_RTOL * np.linalg.norm(b))
                assert np.allclose(x, np.linalg.solve(a, b), rtol=0.0,
                                   atol=1e-12)

    def test_failures_give_none(self):
        # no better solution in the Krylov space: A b = 0
        assert _iteration._gmres(lambda v: np.diag([1.0, 1.0, 0.0]) @ v,
                                 np.array([0.0, 0.0, 1.0])) is None
        # non-finite data
        assert _iteration._gmres(lambda v: v, np.array([1.0, np.inf])) is None
        assert _iteration._gmres(lambda v: v * np.nan, np.ones(3)) is None
        # a rotation: GMRES(1) stalls, so its restart does not halve
        # the residual
        turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with mock.patch.object(_iteration, "KRYLOV_DIM", 1):
            assert _iteration._gmres(lambda v: turn @ v,
                                     np.array([1.0, 2.0])) is None
        assert np.allclose(_iteration._gmres(lambda v: turn @ v,
                                             np.array([1.0, 2.0])),
                           [-2.0, 1.0], rtol=0.0, atol=1e-15)
        # a zero right-hand side: x = 0 and no product
        assert not _iteration._gmres(None, np.zeros(4)).any()


@pytest.mark.parametrize("settings, field", [
    (dict(tol=float("inf")), "tol"),
    (dict(tol=float("nan")), "tol"),
    (dict(residual_tol=float("inf")), "residual_tol"),
    (dict(tol=float("inf"), residual_tol=float("inf")), "tol"),
    (dict(max_iter=2.5), "max_iter"),
    (dict(max_iter=True), "max_iter"),
    (dict(max_iter=0), "max_iter"),
], ids=["tol-inf", "tol-nan", "residual_tol-inf", "both-inf", "max_iter-2.5",
        "max_iter-bool", "max_iter-0"])
def test_options_refuse_what_the_config_refuses(settings, field):
    """Tolerances are finite and positive, and the budget is an integer of
    at least 1: with tol = residual_tol = inf any iterate would converge,
    and a fractional budget would fail inside solve_fixed_point."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverOptions(**settings)

