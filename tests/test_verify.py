import dataclasses
import math

import numpy as np
import pytest

from volterra2d import (
    Decomposition,
    FiniteLag,
    Nonlinearity,
    PeriodicSequence,
    SeparableExponential,
    SystemSpec,
    TruncationPolicy,
    defects,
    periodic_residual_max,
    solve_asymptotic,
    solve_periodic,
    verify_decomposition,
    verify_periodic,
)
from volterra2d.verify import DIRECT_DEPTH

from conftest import (direct_sum_reference, periodic_reference,
                      random_hard_periodic_spec, random_periodic_spec,
                      random_summable_spec)


@pytest.fixture(scope="module")
def cosine_solution(cosine_spec):
    report = solve_periodic(cosine_spec)
    assert report.converged
    return report.solution


@pytest.fixture(scope="module")
def demo2_report(example2_spec):
    report = solve_asymptotic(example2_spec, 1.0, 1.0, 60,
                              policy=TruncationPolicy(1e-10))
    assert report.converged
    return report


class TestVerifyPeriodic:
    def test_converged_solution_passes(self, cosine_spec, cosine_solution):
        ver = verify_periodic(cosine_spec, cosine_solution)
        assert ver.passed
        assert ver.max_defect <= 1e-8
        assert ver.radius <= 1e-8
        assert ver.remainder_bound < 1e-8

    def test_zero_solution_is_exact(self, zero_amplitude_spec):
        zero = (PeriodicSequence(2, (0.0, 0.0)), PeriodicSequence(2, (0.0, 0.0)))
        ver = verify_periodic(zero_amplitude_spec, zero)
        assert ver.passed
        assert ver.max_defect == 0.0
        assert ver.radius == 0.0

    def test_perturbed_solution_is_caught(self, cosine_spec, cosine_solution):
        sol_x, sol_y = cosine_solution
        bad_x = PeriodicSequence(2, (sol_x.values[0] + 1e-3, sol_x.values[1]))
        ver = verify_periodic(cosine_spec, (bad_x, sol_y))
        assert ver.max_defect >= 1e-4
        assert not ver.passed

    def test_report_carries_the_radius_terms(self, cosine_spec,
                                             cosine_solution):
        ver = verify_periodic(cosine_spec, cosine_solution)
        assert list(ver.as_dict()) == [
            "max_defect", "remainder_bound", "radius", "y0", "z1", "z2",
            "depth", "n_checks", "defect_tol", "radius_tol", "passed"]
        assert 0.0 < ver.y0 <= ver.radius <= 2.0 * ver.y0
        assert 0.0 <= ver.z1 < 1e-12 and ver.z2 > 0.0
        assert ver.depth == DIRECT_DEPTH and ver.radius_tol == 1e-8

    def test_two_residual_paths_agree(self, cosine_spec, cosine_solution):
        sol_x, sol_y = cosine_solution
        policy = TruncationPolicy(1e-12)
        brute = periodic_residual_max(cosine_spec, cosine_solution, 10)
        ms = range(-DIRECT_DEPTH, 11)
        adaptive = max(
            max(pair) for pair in defects(
                cosine_spec, np.array([sol_x.get(m) for m in ms]),
                np.array([sol_y.get(m) for m in ms]), 10, policy))
        assert abs(brute - adaptive) <= 1e-9


def _example1_cos(period, kernel=SeparableExponential(1.0, 1.0, 1.0)):
    """example1's kernels with cos nonlinearities and constant h = 0.5,
    p = 0.3: full-period products 1.5^T and 1.3^T, so the orbit is
    unstable and marching it forward amplifies round-off."""
    return SystemSpec(
        period, PeriodicSequence(period, (0.5,) * period),
        PeriodicSequence(period, (0.3,) * period), kernel, kernel,
        Nonlinearity("cos", 1.0, 1.0), Nonlinearity("cos", 1.0, 2.0))


SLOW = SeparableExponential(0.05, 0.05, 0.05)

#: Correct solutions that a 10-period round trip (unstable orbits) or a
#: fixed 256-term depth (slow kernels) used to fail.
FORMER_FALSE_FAILS = {
    "example1-cos-T4": _example1_cos(4),
    "example1-cos-T12": _example1_cos(12),
    "example1-cos-T16": _example1_cos(16),
    "slow-T1": _example1_cos(1, SLOW),
    "slow-T2": _example1_cos(2, SLOW),
}


def _shifted(solution, shift):
    return tuple(PeriodicSequence(seq.period,
                                  tuple(v + shift for v in seq.values))
                 for seq in solution)


class TestExistenceRadius:
    @pytest.fixture(scope="class")
    def solved(self):
        out = {}
        for name, spec in FORMER_FALSE_FAILS.items():
            report = solve_periodic(spec)
            assert report.converged
            out[name] = (spec, report.solution)
        return out

    @pytest.mark.parametrize("name", FORMER_FALSE_FAILS)
    def test_former_false_fail_now_passes(self, solved, name):
        spec, solution = solved[name]
        ver = verify_periodic(spec, solution)
        assert ver.passed
        assert ver.radius <= 1e-8
        assert ver.max_defect + ver.remainder_bound <= 1e-8
        if name.startswith("slow"):
            # 256 terms leave a remainder of about 2.7e-6 at rate 0.05
            assert ver.depth > DIRECT_DEPTH
            assert ver.remainder_bound <= 1e-9
            assert ver.y0 >= ver.remainder_bound  # the tail enters Y0
        else:
            assert ver.radius <= 1e-14

    @pytest.mark.parametrize("name", FORMER_FALSE_FAILS)
    def test_shifted_candidate_fails_on_radius_alone(self, solved, name):
        spec, solution = solved[name]
        ver = verify_periodic(spec, _shifted(solution, 1e-6), defect_tol=1.0)
        assert not ver.passed
        assert ver.radius >= 1e-7
        assert verify_periodic(spec, solution, defect_tol=1.0).passed

    @pytest.mark.parametrize("name", FORMER_FALSE_FAILS)
    def test_shifted_candidate_fails_on_defect_alone(self, solved, name):
        spec, solution = solved[name]
        ver = verify_periodic(spec, _shifted(solution, 1e-6), radius_tol=1.0)
        assert not ver.passed
        assert ver.max_defect >= 1e-7
        assert verify_periodic(spec, solution, radius_tol=1.0).passed

    @pytest.mark.parametrize("name", ["example1-cos-T4", "slow-T2"])
    def test_fixed_point_of_another_system_fails(self, name):
        spec = FORMER_FALSE_FAILS[name]
        f = spec.f
        other = dataclasses.replace(
            spec, f=Nonlinearity(f.kind, 1.01 * f.amplitude, f.frequency))
        report = solve_periodic(other)
        assert report.converged
        assert verify_periodic(other, report.solution).passed
        ver = verify_periodic(spec, report.solution)
        assert not ver.passed
        assert ver.radius > 1e-8 and ver.max_defect > 1e-8

    def test_radius_bounds_the_distance_to_the_solution(self, solved):
        """The candidate shifted by 1e-6 lies 1e-6 from the true solution;
        the radius must say so, within its own rounding."""
        for spec, solution in solved.values():
            ver = verify_periodic(spec, _shifted(solution, 1e-6),
                                  radius_tol=1.0)
            assert 1e-6 * (1 - 1e-6) <= ver.radius <= 1.1e-6
            # too far off for the quadratic term: no radius at all
            far = verify_periodic(spec, _shifted(solution, 0.3),
                                  defect_tol=1.0, radius_tol=1.0)
            assert far.y0 >= 0.3 and far.radius == math.inf

    def test_non_diagonal_periodic_kernel_is_not_certified(self,
                                                           zero_amplitude_spec):
        spec = dataclasses.replace(
            zero_amplitude_spec, kernel_a=SeparableExponential(1.0, 1.0, 2.0))
        zero = (PeriodicSequence(2, (0.0, 0.0)),) * 2
        ver = verify_periodic(spec, zero)
        assert ver.max_defect == 0.0
        assert ver.radius == math.inf
        assert not ver.passed


#: Hard regimes of the periodic property generator: everything drawn, and
#: each extreme pinned (T = 32, rate 0.01, products 1e-6 from one).
HARD_REGIMES = {"drawn": {}, "period-32": {"period": 32},
                "rate-0.01": {"rate": 0.01}, "gap-1e-6": {"gap": 1e-6}}


#: (regime, seed, draw) of converged solves that double precision cannot
#: resolve: their long-double reference lies more than radius_tol away,
#: while |A F| alone, without F's rounding, would give a radius below it.
UNRESOLVED = [("period-32", 3, 14), ("gap-1e-6", 2, 2)]


class TestHardRegimes:
    """Every converged solve in the hard regimes, against a reference
    solution refined in long double with untruncated kernels.  A pass
    must be right: the reference lies within radius_tol.  And a
    candidate within radius_tol / 10 of the reference must pass unless
    double precision cannot resolve it to that: its resolution
    |DF^-1| * 2^-52 * (1 + |z|), how far one rounding of F can move the
    solution, is above radius_tol / 10."""

    @pytest.mark.parametrize("regime", HARD_REGIMES)
    def test_converged_solves_verify(self, regime):
        rng = np.random.default_rng(list(HARD_REGIMES).index(regime))
        tol = 1e-8
        converged = passed = required = 0
        for _ in range(25):
            spec = random_hard_periodic_spec(rng, **HARD_REGIMES[regime])
            report = solve_periodic(spec)
            if not report.converged:
                continue
            converged += 1
            z = np.array(report.solution[0].values + report.solution[1].values)
            reference, jac = periodic_reference(spec, z)
            error = float(np.max(np.abs(reference - z)))
            resolution = (np.abs(np.linalg.inv(jac)).sum(axis=1).max()
                          * 2.0 ** -52 * (1.0 + np.max(np.abs(z))))
            ver = verify_periodic(spec, report.solution, radius_tol=tol)
            passed += ver.passed
            if ver.passed:
                assert error <= tol, (spec, ver, error)
            if error <= tol / 10 and resolution <= tol / 10:
                required += 1
                assert ver.passed, (spec, ver, error, resolution)
        assert converged >= 15 and passed >= 2
        # Products 1e-6 from one put |DF^-1| at 1e7 to 1e8, so double
        # precision resolves almost none of those solutions to 1e-9.
        assert required >= 5 or regime == "gap-1e-6"

    @pytest.mark.parametrize("regime, seed, draw", UNRESOLVED)
    def test_unresolved_candidate_is_refused(self, regime, seed, draw):
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            spec = random_hard_periodic_spec(rng, **HARD_REGIMES[regime])
        report = solve_periodic(spec)
        assert report.converged
        z = np.array(report.solution[0].values + report.solution[1].values)
        reference, _ = periodic_reference(spec, z)
        assert np.max(np.abs(reference - z)) > 1e-8
        ver = verify_periodic(spec, report.solution)
        assert not ver.passed and ver.radius > 1e-8


class TestVerifyDecomposition:
    def test_converged_decomposition_passes(self, example2_spec, demo2_report):
        ver = verify_decomposition(example2_spec, demo2_report.decomposition)
        assert ver.passed
        assert ver.periodic_part_ok
        assert ver.envelope_ok
        assert ver.decay_ok
        assert ver.max_defect <= 1e-8

    def test_tampered_deviation_fails_envelope(self, example2_spec,
                                               demo2_report):
        dec = demo2_report.decomposition
        tampered = dataclasses.replace(
            dec, v1=tuple(1e-2 for _ in dec.v1))
        ver = verify_decomposition(example2_spec, tampered)
        assert not ver.envelope_ok
        assert not ver.passed
        # envelope crosses 1e-2 just past n = log(coefficient / 1e-2) ~ 6.2
        first_bad = next(n for n, b in enumerate(dec.v1_bound)
                         if 1e-2 > b + 1e-9)
        assert first_bad == 7

    def test_alternating_deviation_decays_per_period(self, example2_spec):
        """With (c1, c2) = (1, 2) at H = 40, v alternates within each period
        (single steps grow), while whole periods shrink at the envelope
        rate: the decomposition is correct and must pass."""
        report = solve_asymptotic(example2_spec, 1.0, 2.0, 40,
                                  policy=TruncationPolicy(1e-10))
        assert report.converged
        ver = verify_decomposition(example2_spec, report.decomposition)
        assert ver.decay_ok
        assert ver.passed

    def test_deviation_growing_per_period_fails_decay(self, example2_spec,
                                                      demo2_report):
        dec = demo2_report.decomposition
        # 2x per period T = 2; every single step is within 10x the ratio
        grown = tuple(1e-9 * 2.0 ** (n / 2) for n in range(len(dec.v1)))
        ver = verify_decomposition(example2_spec,
                                   dataclasses.replace(dec, v1=grown))
        assert not ver.decay_ok
        assert not ver.passed

    def test_tampered_periodic_part_fails(self, example2_spec, demo2_report):
        dec = demo2_report.decomposition
        tampered = dataclasses.replace(
            dec, u1=PeriodicSequence(2, (1.0, 0.5 + 1e-6)))
        ver = verify_decomposition(example2_spec, tampered)
        assert not ver.periodic_part_ok

    def test_zero_decomposition_passes(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          example2_spec.kernel_a, example2_spec.kernel_b,
                          Nonlinearity("cos", 0.0, 1.0),
                          Nonlinearity("cos", 0.0, 1.0))
        report = solve_asymptotic(spec, 0.0, 0.0, 12,
                                  policy=TruncationPolicy(1e-10))
        ver = verify_decomposition(spec, report.decomposition)
        assert ver.passed
        assert ver.max_defect == 0.0

    def test_remainder_bound_reported(self, example2_spec, demo2_report):
        ver = verify_decomposition(example2_spec, demo2_report.decomposition)
        assert 0.0 <= ver.remainder_bound < 1e-12
        assert ver.as_dict()["remainder_bound"] == ver.remainder_bound


def _scalar_defect(spec, x, y, n_rows, depth):
    """(max defect, scale) of the recurrence over n < n_rows, recomputed
    term by term; scale bounds the size of every quantity in a defect."""
    worst = scale = 0.0
    for n in range(n_rows):
        for kernel, phi, seq, own, partner in (
                (spec.kernel_a, spec.f, spec.h, x, y),
                (spec.kernel_b, spec.g, spec.p, y, x)):
            drive = direct_sum_reference(
                kernel, n, lambda m: phi(partner(m)), depth)
            step = (1.0 + seq.get(n)) * own(n)
            worst = max(worst, abs(own(n + 1) - step - drive))
            scale = max(scale, abs(own(n + 1)) + abs(step)
                        + phi.bound * kernel.abs_row_sum(n))
    return worst, scale


def _long_lag_spec(rng):
    """FiniteLag kernels with 3 weight rows and lags 0..5 on a period-2
    system: lag_period > 1, and max_lag beyond a depth of 3."""
    def kernel():
        return FiniteLag(tuple(tuple(float(w) for w in rng.uniform(-1, 1, 6))
                               for _ in range(3)))
    seq = PeriodicSequence(2, (0.4, -0.3))
    return SystemSpec(2, seq, PeriodicSequence(2, (-0.2, 0.7)),
                      kernel(), kernel(), Nonlinearity("cos", 1.3, 0.7),
                      Nonlinearity("tanh", -0.8, 1.9))


def _candidate(rng, spec):
    return tuple(PeriodicSequence(spec.period, tuple(
        float(v) for v in rng.uniform(-2.0, 2.0, spec.period)))
        for _ in range(2))


SPEC_BUILDERS = {"periodic": random_periodic_spec,
                 "summable": random_summable_spec,
                 "long_lag": _long_lag_spec}


def _cases(kind):
    """(kind, seed, depth): four random specs of ``kind`` at the default
    depth, and two long-lag specs at depth 3."""
    return ([(kind, seed, DIRECT_DEPTH) for seed in range(4)]
            + [("long_lag", seed, 3) for seed in range(2)])


class TestArraySums:
    """The verifier's array sums against a term-by-term recompute."""

    @pytest.mark.parametrize("n_checks", [0, 1, 21])
    @pytest.mark.parametrize("kind, seed, depth", _cases("periodic"))
    def test_periodic_residual_matches_scalar_sums(self, kind, seed, depth,
                                                   n_checks):
        rng = np.random.default_rng(seed)
        spec = SPEC_BUILDERS[kind](rng)
        sol_x, sol_y = _candidate(rng, spec)
        expected, scale = _scalar_defect(spec, sol_x.get, sol_y.get,
                                         n_checks, depth)
        got = periodic_residual_max(spec, (sol_x, sol_y), n_checks, depth)
        assert abs(got - expected) <= 1e-14 * scale

    @pytest.mark.parametrize("horizon", [0, 1, 21])
    @pytest.mark.parametrize("kind, seed, depth", _cases("summable"))
    def test_decomposition_defect_matches_scalar_sums(self, kind, seed, depth,
                                                      horizon):
        rng = np.random.default_rng(seed)
        spec = SPEC_BUILDERS[kind](rng)
        u1, u2 = _candidate(rng, spec)
        v1, v2 = (tuple(float(v) for v in rng.uniform(-1.0, 1.0, horizon + 1))
                  for _ in range(2))
        dec = Decomposition(1.0, 1.0, u1, u2, v1, v2, v1, v2, horizon, True)
        expected, scale = _scalar_defect(
            spec, lambda m: dec.x_at(m) if m >= 0 else 0.0,
            lambda m: dec.y_at(m) if m >= 0 else 0.0, horizon, depth)
        got = verify_decomposition(spec, dec, depth=depth).max_defect
        assert abs(got - expected) <= 1e-14 * scale
