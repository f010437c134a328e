import dataclasses
import math

import numpy as np
import pytest

from volterra2d import (
    Decomposition,
    FiniteLag,
    Nonlinearity,
    PeriodicSequence,
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

from conftest import (direct_sum_reference, random_periodic_spec,
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
        assert ver.drift <= 1e-6
        assert ver.remainder_bound < 1e-8

    def test_zero_solution_is_exact(self, zero_amplitude_spec):
        zero = (PeriodicSequence(2, (0.0, 0.0)), PeriodicSequence(2, (0.0, 0.0)))
        ver = verify_periodic(zero_amplitude_spec, zero)
        assert ver.passed
        assert ver.max_defect == 0.0
        assert ver.drift == 0.0

    def test_perturbed_solution_is_caught(self, cosine_spec, cosine_solution):
        sol_x, sol_y = cosine_solution
        bad_x = PeriodicSequence(2, (sol_x.values[0] + 1e-3, sol_x.values[1]))
        ver = verify_periodic(cosine_spec, (bad_x, sol_y))
        assert ver.max_defect >= 1e-4
        assert not ver.passed

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
