import dataclasses
import inspect
import math
import tracemalloc

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
    check_asymptotic_hypotheses,
    defects,
    solve_asymptotic,
    solve_periodic,
    verify_decomposition,
    verify_periodic,
)

from volterra2d.verify import _window_sums

from conftest import (decay_check_reference, envelope_ok_reference,
                      inner_sum_reference, periodic_part_ok_reference,
                      periodic_reference, window_sums_reference,
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

    @pytest.mark.parametrize("period", [1, 4])
    def test_candidate_of_another_period_is_refused(self, example1_spec,
                                                    monkeypatch, period):
        """A candidate shorter or longer than the system period, in either
        component, raises a ValueError that names both periods before
        any sum is taken."""
        import volterra2d.verify as verify_module

        def no_work(*args):
            raise AssertionError("verify_periodic did work on the candidate")

        monkeypatch.setattr(verify_module, "_one_period_system", no_work)
        monkeypatch.setattr(verify_module, "_existence_radius", no_work)
        other = PeriodicSequence(period, (0.0,) * period)
        same = PeriodicSequence(2, (0.0, 0.0))
        for solution in ((other, same), (same, other)):
            with pytest.raises(ValueError, match=(
                    f"^solution period {period} does not match the system "
                    f"period 2$")):
                verify_periodic(example1_spec, solution)

    def test_report_carries_the_radius_terms(self, cosine_spec,
                                             cosine_solution):
        ver = verify_periodic(cosine_spec, cosine_solution)
        assert list(ver.as_dict()) == [
            "max_defect", "radius", "y0", "z1", "z2", "defect_tol",
            "radius_tol", "passed"]
        assert 0.0 < ver.y0 <= ver.radius <= 2.0 * ver.y0
        assert 0.0 <= ver.z1 < 1e-12 and ver.z2 > 0.0
        assert ver.radius_tol == 1e-8

    def test_two_residual_paths_agree(self, cosine_spec, cosine_solution):
        sol_x, sol_y = cosine_solution
        policy = TruncationPolicy(1e-12)
        brute = verify_periodic(cosine_spec, cosine_solution).max_defect
        ms = range(11)
        adaptive = max(
            max(pair) for pair in defects(
                cosine_spec, np.array([sol_x.get(m) for m in ms]),
                np.array([sol_y.get(m) for m in ms]), 10, policy,
                past=cosine_spec.period))
        assert abs(brute - adaptive) <= 1e-12

    def test_every_slot_of_a_long_period_is_checked(self):
        """A candidate off by 1e-3 at slot 25 of T = 32: the defect gate
        covers all T rows of the one-period system."""
        spec = _example1_cos(32, FiniteLag(((0.3, 0.2),)))
        report = solve_periodic(spec)
        assert report.converged
        sol_x, sol_y = report.solution
        values = list(sol_x.values)
        values[25] += 1e-3
        bad_x = PeriodicSequence(32, tuple(values))
        ver = verify_periodic(spec, (bad_x, sol_y), radius_tol=1.0)
        assert ver.max_defect >= 1e-3
        assert not ver.passed
        assert verify_periodic(spec, report.solution, radius_tol=1.0).passed


def _example1_cos(period, kernel=SeparableExponential(1.0, 1.0, 1.0)):
    """example1's kernels with cos nonlinearities and constant h = 0.5,
    p = 0.3: full-period products 1.5^T and 1.3^T, so the orbit is
    unstable and marching it forward amplifies round-off."""
    return SystemSpec(
        period, PeriodicSequence(period, (0.5,) * period),
        PeriodicSequence(period, (0.3,) * period), kernel, kernel,
        Nonlinearity("cos", 1.0, 1.0), Nonlinearity("cos", 1.0, 2.0))


SLOW = SeparableExponential(0.05, 0.05, 0.05)

#: Correct solutions that a 10-period round trip (unstable orbits), a
#: fixed 256-term depth (slow kernels) or a 100,000-term one (rates 2e-4
#: and 5e-5: kernel row mass 250 and 1000) used to fail.
FORMER_FALSE_FAILS = {
    "example1-cos-T4": _example1_cos(4),
    "example1-cos-T12": _example1_cos(12),
    "example1-cos-T16": _example1_cos(16),
    "slow-T1": _example1_cos(1, SLOW),
    "slow-T2": _example1_cos(2, SLOW),
    **{f"rate-{rate:g}-T{period}": _example1_cos(
        period, SeparableExponential(0.05, rate, rate))
       for rate in (2e-4, 5e-5) for period in (1, 2)},
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
        assert ver.max_defect <= 1e-8
        if name.startswith("example1"):
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
    def test_default_tail_tol_is_the_policy_default(self):
        default = inspect.signature(verify_decomposition).parameters[
            "tail_tol"].default
        assert default == TruncationPolicy().tail_tol

    def test_converged_decomposition_passes(self, example2_spec, demo2_report):
        ver = verify_decomposition(example2_spec, demo2_report.decomposition)
        assert ver.passed
        assert ver.periodic_part_ok
        assert ver.envelope_ok
        assert ver.decay_ok
        assert ver.max_defect <= 1e-8
        assert list(ver.as_dict()) == [
            "periodic_part_ok", "envelope_ok", "max_defect", "decay_ok",
            "defect_tol", "passed"]

    @pytest.mark.parametrize("row_rate, col_rate, horizon", [
        (0.05, 0.1, 300), (0.05, 0.1, 600), (0.02, 0.05, 600)])
    def test_slow_kernel_decomposition_passes(self, row_rate, col_rate,
                                              horizon):
        """Unit products h = p = (-0.5, 1) with kernels of row rate 0.05 or
        0.02: a 256-term sum left defects of 8e-7 to 4e-3 on these correct
        decompositions; the whole-window sums leave round-off."""
        seq = PeriodicSequence(2, (-0.5, 1.0))
        spec = SystemSpec(2, seq, seq,
                          SeparableExponential(0.05, row_rate, col_rate),
                          SeparableExponential(0.04, row_rate, col_rate),
                          Nonlinearity("cos", 0.3, 1.0),
                          Nonlinearity("cos", 0.3, 1.0))
        report = solve_asymptotic(spec, 1.0, 1.0, horizon,
                                  policy=TruncationPolicy(1e-10))
        assert report.converged
        ver = verify_decomposition(spec, report.decomposition)
        assert ver.passed
        assert ver.max_defect <= 1e-12

    def test_memory_stays_linear_in_the_horizon(self, example2_spec):
        """At H = 1000 one dense (H+1)^2 weight block alone would take
        8 MB; the window sums need O(H) memory."""
        report = solve_asymptotic(example2_spec, 1.0, 1.0, 1000,
                                  policy=TruncationPolicy(1e-10))
        assert report.converged
        tracemalloc.start()
        try:
            ver = verify_decomposition(example2_spec, report.decomposition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ver.passed
        assert peak < 1_000_000

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

    @pytest.mark.parametrize("field", ["v1", "v2", "v1_bound", "v2_bound"])
    def test_nan_fails_envelope(self, example2_spec, demo2_report, field):
        dec = demo2_report.decomposition
        values = list(getattr(dec, field))
        values[7] = math.nan
        tampered = dataclasses.replace(dec, **{field: tuple(values)})
        assert not envelope_ok_reference(tampered, 1e-10)
        ver = verify_decomposition(example2_spec, tampered)
        assert not ver.envelope_ok
        assert not ver.passed

    @pytest.mark.parametrize("horizon", [8, 40, 60, 200])
    def test_envelope_verdict_equals_pairwise_verdict(self, example2_spec,
                                                      horizon):
        # the solved windows, and windows moved onto the edge of the
        # envelope (|v| = bound + slack passes) and one ulp past it
        dec = solve_asymptotic(example2_spec, 1.0, 2.0, horizon,
                               policy=TruncationPolicy(1e-10)).decomposition
        slack = 10.0 * 1e-10
        edge = tuple(b + slack for b in dec.v1_bound)
        past = tuple(math.nextafter(e, math.inf) for e in edge)
        variants = [dec,
                    dataclasses.replace(dec, v1=edge),
                    dataclasses.replace(dec, v1=tuple(-e for e in edge)),
                    dataclasses.replace(dec, v1=edge[:-1] + past[-1:]),
                    dataclasses.replace(dec, v2=tuple(
                        -2.0 * b for b in dec.v2_bound))]
        verdicts = [verify_decomposition(example2_spec, variant).envelope_ok
                    for variant in variants]
        assert verdicts == [envelope_ok_reference(variant, 1e-10)
                            for variant in variants]
        assert verdicts[:3] == [True] * 3 and verdicts[3:] == [False] * 2

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

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 5e-10])
    def test_products_near_one_verify(self, eps, example2_spec):
        """h = (-0.5, 1 + 2 eps): the full-period product is 1 + 2 eps,
        which the asymptotic check accepts.  The periodic u then drifts
        from the free response by about 2 eps per period, and the verifier
        grants that drift, but not a u that is 1e-6 off."""
        near = PeriodicSequence(2, (-0.5, 1.0 + 2.0 * eps))
        spec = dataclasses.replace(example2_spec, h=near)
        assert check_asymptotic_hypotheses(spec, 1.0, 1.0).passed
        report = solve_asymptotic(spec, 1.0, 1.0, 60,
                                  policy=TruncationPolicy(1e-10))
        assert report.converged
        dec = report.decomposition
        ver = verify_decomposition(spec, dec)
        assert ver.periodic_part_ok and ver.passed
        assert ver.max_defect <= 2.0 * eps + 1e-12
        u1 = dec.u1.values
        shifted = dataclasses.replace(
            dec, u1=PeriodicSequence(2, (u1[0], u1[1] + 1e-6)))
        ver = verify_decomposition(spec, shifted)
        assert not ver.periodic_part_ok and not ver.passed

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


def _scalar_defect(spec, x, y, rows, lead, past):
    """(max defect, scale) of the recurrence over the rows n, recomputed
    term by term with untruncated kernel sums: the values from
    m = -lead on one at a time, and those before, which repeat the
    ``past`` values from m = -lead on, in closed form.  scale bounds the
    size of every quantity in a defect."""
    worst = scale = 0.0
    for n in rows:
        for kernel, phi, seq, own, partner in (
                (spec.kernel_a, spec.f, spec.h, x, y),
                (spec.kernel_b, spec.g, spec.p, y, x)):
            drive = inner_sum_reference(
                kernel, n, lambda m: phi(partner(m)), -lead, past)
            step = (1.0 + seq.get(n)) * own(n)
            worst = max(worst, abs(own(n + 1) - step - drive))
            scale = max(scale, abs(own(n + 1)) + abs(step)
                        + phi.bound * kernel.abs_row_sum(n))
    return worst, scale


def _long_lag_spec(rng):
    """FiniteLag kernels with 3 weight rows and lags 0..5 on a period-2
    system: lag_period > 1, and max_lag beyond a lead of 3."""
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
    """(kind, seed, lead): four random specs of ``kind`` whose reference
    sums 256 history terms one at a time, and two long-lag specs whose
    reference sums 3."""
    return ([(kind, seed, 256) for seed in range(4)]
            + [("long_lag", seed, 3) for seed in range(2)])


class TestArraySums:
    """The verifier's closed-form array sums against a term-by-term
    recompute with untruncated kernels."""

    @pytest.mark.parametrize("start", [0, 1, 21])
    @pytest.mark.parametrize("kind, seed, lead", _cases("periodic"))
    def test_periodic_residual_matches_scalar_sums(self, kind, seed, lead,
                                                   start):
        """max_defect, taken over the T rows of the one-period system, is
        the brute-force defect of the periodic extension over three
        repeats from repeat ``start`` on.  The defect of row n repeats
        every L rows, L the least common multiple of T and the kernels'
        row periods: L = T for the diagonal-periodic kernels, whose rows
        repeat with the period, so the rows are three whole periods; the
        long-lag kernels' 3 weight rows give L = 6 on T = 2, so the rows
        are jL + r, r < T."""
        rng = np.random.default_rng(seed)
        spec = SPEC_BUILDERS[kind](rng)
        sol_x, sol_y = _candidate(rng, spec)
        repeat = math.lcm(spec.period, *(
            kernel.lag_period for _, kernel, _ in spec.equations
            if isinstance(kernel, FiniteLag)))
        rows = [j * repeat + r for j in range(start, start + 3)
                for r in range(spec.period)]
        expected, scale = _scalar_defect(spec, sol_x.get, sol_y.get, rows,
                                         lead, spec.period)
        got = verify_periodic(spec, (sol_x, sol_y)).max_defect
        assert abs(got - expected) <= 1e-14 * scale

    @pytest.mark.parametrize("horizon", [0, 1, 21])
    @pytest.mark.parametrize("kind, seed, lead", _cases("summable"))
    def test_decomposition_defect_matches_scalar_sums(self, kind, seed, lead,
                                                      horizon):
        rng = np.random.default_rng(seed)
        spec = SPEC_BUILDERS[kind](rng)
        u1, u2 = _candidate(rng, spec)
        v1, v2 = (tuple(float(v) for v in rng.uniform(-1.0, 1.0, horizon + 1))
                  for _ in range(2))
        dec = Decomposition(1.0, 1.0, u1, u2, v1, v2, v1, v2, horizon, True)
        def values(u, v):  # u + v on the window, the zero history before
            return lambda n: u.get(n) + v[n] if n >= 0 else 0.0

        expected, scale = _scalar_defect(spec, values(u1, v1), values(u2, v2),
                                         range(horizon), lead, 1)
        got = verify_decomposition(spec, dec).max_defect
        assert abs(got - expected) <= 1e-14 * scale


class TestVerifierOwnSums:
    """The verifier's block recursion for the separable window sums, and
    its whole-array periodic-part and decay checks, against the forms
    they replaced: one O(H^2) ``np.convolve``, a ``product_one_plus``
    loop over ten periods and strided windows."""

    @pytest.mark.parametrize("horizon", [0, 1, 40, 400, 5000])
    @pytest.mark.parametrize("kernel", [
        SeparableExponential(-0.8, 2.5, 3.0),
        SeparableExponential(0.5, 0.05, 0.1),
        SeparableExponential(1.3, 0.7, 0.7)],
        ids=["steep", "slow", "unit"])
    def test_window_sums_match_the_convolution(self, kernel, horizon):
        """Blocks of WINDOW_BLOCK rows: H = 400 and 5000 carry the state
        across 1 and 19 block ends; the steep rate's decay underflows
        inside one block."""
        rng = np.random.default_rng(horizon)
        mapped = rng.uniform(-1.5, 1.5, horizon + 1)
        for at_zero in (0.0, 0.9):
            got = _window_sums(kernel, mapped, at_zero)
            want = window_sums_reference(kernel, mapped, at_zero)
            size = kernel.abs_row_sum(np.arange(horizon + 1)) * 1.5
            assert got.shape == want.shape == (horizon + 1,)
            assert np.all(np.abs(got - want) <= 1e-13 * size)

    @staticmethod
    def near_one_cases(example2_spec):
        """Decompositions of example2 with h = (-0.5, 1 + 2 eps), solved,
        and each with u1 shifted by 1e-6, u2 shifted by -1e-6 and v1
        grown 2x per period."""
        cases = []
        for eps in (0.0, 1e-12, 1e-10, 5e-10):
            near = PeriodicSequence(2, (-0.5, 1.0 + 2.0 * eps))
            spec = dataclasses.replace(example2_spec, h=near)
            for c1, c2 in ((1.0, 1.0), (1.0, 2.0), (-0.7, 0.3)):
                dec = solve_asymptotic(spec, c1, c2, 60,
                                       policy=TruncationPolicy(1e-10)
                                       ).decomposition
                u1, u2 = dec.u1.values, dec.u2.values
                cases += [(spec, dec),
                          (spec, dataclasses.replace(dec, u1=PeriodicSequence(
                              2, (u1[0], u1[1] + 1e-6)))),
                          (spec, dataclasses.replace(dec, u2=PeriodicSequence(
                              2, (u2[0] - 1e-6, u2[1])))),
                          (spec, dataclasses.replace(dec, v1=tuple(
                              1e-9 * 2.0 ** (n / 2)
                              for n in range(len(dec.v1)))))]
        return cases

    def test_verdicts_match_the_loops(self, example2_spec):
        cases = self.near_one_cases(example2_spec)
        rng = np.random.default_rng(12)
        for _ in range(10):
            spec = random_summable_spec(rng)
            dec = solve_asymptotic(spec, 1.0, -0.5, 24,
                                   policy=TruncationPolicy(1e-10)
                                   ).decomposition
            cases.append((spec, dec))
        verdicts = []
        for spec, dec in cases:
            ver = verify_decomposition(spec, dec)
            assert ver.periodic_part_ok == periodic_part_ok_reference(spec,
                                                                      dec)
            decay = all(decay_check_reference(
                v_values, bound, math.exp(kernel.row_rate - kernel.col_rate),
                spec.period)
                for v_values, bound, kernel in (
                    (dec.v1, dec.v1_bound, spec.kernel_a),
                    (dec.v2, dec.v2_bound, spec.kernel_b)))
            assert ver.decay_ok == decay
            verdicts.append((ver.periodic_part_ok, ver.decay_ok))
        # every solved near-one case passes both; each shift fails the
        # periodic part and each growth the decay
        assert verdicts[:48:4] == [(True, True)] * 12
        assert verdicts[1:48:4] == verdicts[2:48:4] == [(False, True)] * 12
        assert verdicts[3:48:4] == [(True, False)] * 12


class TestVerificationDicts:
    """Both verifications report their fields as a plain dict in field
    order, as dataclasses.asdict gave them."""

    def test_periodic_dict_is_asdict(self, cosine_spec, cosine_solution):
        bad = (cosine_solution[0], PeriodicSequence(
            cosine_spec.period, tuple(v + 1e-3 for v in
                                      cosine_solution[1].values)))
        for solution in (cosine_solution, bad):
            ver = verify_periodic(cosine_spec, solution)
            self.assert_plain_asdict(ver)

    def test_decomposition_dict_is_asdict(self, example2_spec, demo2_report):
        dec = demo2_report.decomposition
        for tol in (1e-8, 1e-30):
            ver = verify_decomposition(example2_spec, dec, defect_tol=tol)
            self.assert_plain_asdict(ver)

    @staticmethod
    def assert_plain_asdict(ver):
        plain, reference = ver.as_dict(), dataclasses.asdict(ver)
        assert plain == reference
        assert list(plain) == list(reference) == [
            field.name for field in dataclasses.fields(ver)]
        assert [type(v) for v in plain.values()] == [
            type(v) for v in reference.values()]
        plain.clear()  # a fresh dict: the verification keeps its fields
        assert ver.as_dict() == reference
