"""The one first-order filter S[n] = lam S[n-1] + phi_n of ``kernels``, in
double and in long double, against references summed to long double
accuracy, within its stated round-off bound; and its users against their
row-by-row long double references: ``drive_array`` under ``defects``
(``defects_reference``) and the tail map's backward U
(``tail_u_reference``, the U of ``tail_block_reference``).  Lengths cross
segment ends, at the module's segment exponent and at a small one that
makes segments short at every rate, and seeds are nonzero, so a dropped
carry, a misweighted seed or a segment off by one entry shows."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra2d import (
    FiniteLag,
    Nonlinearity,
    PeriodicSequence,
    SeparableExponential,
    SystemSpec,
    TailNotCertified,
    TruncationPolicy,
    defects,
    kernels,
)
from volterra2d.asymptotic_solver import _tail_block
from volterra2d.kernels import (LONG_DOUBLE_UNIT, filter_error,
                                first_order_filter)

from conftest import (defects_reference, defects_slack,
                      lag_drives_reference, tail_u_bound, tail_u_reference)
from test_simulate import filter_threshold_rate, threshold_rate

DOUBLE_UNIT = float(np.finfo(float).eps) / 2.0
#: A segment exponent small enough that every rate drawn here crosses a
#: segment end within a few hundred entries.
SHORT_SEGMENTS = 2.0


def filter_reference(terms, rate, seed):
    """S[n] = lam^{n+1} seed + sum_{m<=n} lam^{n-m} terms[m] as long
    doubles: every product formed in long double (each within one long
    double rounding), split into two doubles that hold it exactly, and
    summed by math.fsum, whose remainder is summed again."""
    ld = np.longdouble
    rate, values = ld(rate), np.asarray(terms).astype(ld)
    out = np.empty(len(values), dtype=ld)
    for n in range(len(values)):
        parts = np.append(np.exp(-rate * np.arange(n, -1, -1, dtype=ld))
                          * values[:n + 1],
                          np.exp(-rate * (n + 1)) * ld(seed))
        hi = parts.astype(float)
        split = np.concatenate([hi, (parts - hi).astype(float)])
        first = math.fsum(split)
        out[n] = ld(first) + ld(math.fsum(np.append(split, -first)))
    return out


@st.composite
def filter_cases(draw):
    """(rate, segment exponent, terms, seed, B): a rate in [0.01, 3], a
    length of up to two whole segments and a part, signed terms of a
    random scale and a seed of |seed| in [0.1, 1] B / (1 - lam)."""
    rate = draw(st.floats(0.01, 3.0))
    exponent = draw(st.sampled_from([kernels.SEGMENT_EXPONENT,
                                     SHORT_SEGMENTS]))
    segment = int(exponent // rate) + 1
    length = min(draw(st.integers(0, 2)) * segment
                 + draw(st.integers(1, 40)), 700)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    terms = scale * rng.uniform(-1.0, 1.0, length)
    bound = float(np.abs(terms).max())
    share = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    seed = share * bound / -math.expm1(-rate)
    return rate, exponent, terms, seed, bound


class TestFirstOrderFilter:
    @settings(max_examples=40, deadline=None)
    @given(filter_cases())
    def test_within_the_stated_bound(self, case):
        rate, exponent, terms, seed, bound = case
        gap = -math.expm1(-rate)
        reference = filter_reference(terms, rate, seed)
        # the reference's own products err by a long double rounding each
        slack = 4.0 * LONG_DOUBLE_UNIT * bound / gap
        with mock.patch.object(kernels, "SEGMENT_EXPONENT", exponent):
            for dtype in (np.float64, np.longdouble):
                got = first_order_filter(terms.astype(dtype), rate,
                                         dtype(seed))
                assert got.dtype == dtype
                error = np.abs(got.astype(np.longdouble) - reference)
                assert np.all(error <= filter_error(rate, len(terms), dtype)
                              * bound + slack)

    def test_the_bound_grows_with_the_length_up_to_one_over_the_gap(self):
        """u / (1 - lam) (nu + 18 + ...) in double: nu, the summed length,
        grows with the length up to 1 / (1 - lam), so the bound grows as
        u / (1 - lam)^2 at most; the rounded offsets of a segment of l
        entries add 2 rate l u / (1 - lam), and past a segment end the sum
        counts twice and the carries add (9 + rate l) u / (1 - lam)
        (1 + 1 / (l (1 - lam)))."""
        gap = -math.expm1(-1e-3)
        short = filter_error(1e-3, 10, np.float64)
        long = filter_error(1e-3, 100_000, np.float64)
        assert short == pytest.approx(DOUBLE_UNIT / gap
                                      * (10.0 + 18.0 + 0.02), rel=1e-12)
        assert long == pytest.approx(DOUBLE_UNIT / gap
                                     * (1.0 / gap + 18.0 + 200.0), rel=1e-9)
        segment = 512_001  # 1 + SEGMENT_EXPONENT / rate
        longer = filter_error(1e-3, 10 ** 6, np.float64)
        assert longer == pytest.approx(DOUBLE_UNIT / gap * (
            2.0 / gap + 18.0 + 2e-3 * segment + (9.0 + 1e-3 * segment)
            * (1.0 + 1.0 / (segment * gap))), rel=1e-9)

    def test_long_double_offsets_are_exact(self):
        """Where long double holds k > 0 more significand bits than a
        double, segments hold at most 2^k entries, so every offset
        rate * j is exact and adds no rounding to the bound, and exp is
        taken as correct to 1 ulp."""
        spare = np.finfo(np.longdouble).nmant - np.finfo(float).nmant
        if spare <= 0:
            pytest.skip("long double is double here")
        unit = float(np.finfo(np.longdouble).eps) / 2.0
        gap = -math.expm1(-1e-3)
        assert kernels._segment(1e-3, 10 ** 6, spare) == 2 ** spare
        assert filter_error(1e-3, 10 ** 6, np.longdouble) == pytest.approx(
            unit / gap * (2.0 / gap + 6.0 + 3.0 * (
                1.0 + 1.0 / (2 ** spare * gap))), rel=1e-9)

    def test_empty_input(self):
        assert first_order_filter(np.zeros(0), 1.0, 5.0).shape == (0,)


def separable_spec(rate_a, rate_b, spread, period, rng):
    """A system of two separable kernels at the given row rates, col rate
    = row rate + spread, and random T-periodic coefficients."""
    def coeffs():
        return PeriodicSequence(period, tuple(
            float(x) for x in rng.uniform(-0.6, 0.6, period)))

    return SystemSpec(
        period, coeffs(), coeffs(),
        SeparableExponential(float(rng.uniform(0.2, 2.0)), rate_a,
                             rate_a + spread),
        SeparableExponential(-float(rng.uniform(0.2, 2.0)), rate_b,
                             rate_b + spread),
        Nonlinearity("sin", 1.3, 0.7), Nonlinearity("cos", -0.8, 1.9))


class TestDriveArray:
    """``defects`` takes a separable kernel's drives from the long double
    filter, seeded with the closed-form periodic past."""

    @settings(max_examples=30, deadline=None)
    @given(rates=st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
           spread=st.floats(-0.05, 0.5),
           exponent=st.sampled_from([512.0, SHORT_SEGMENTS]),
           rows=st.integers(0, 500), start=st.integers(0, 30),
           period=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_row_by_row_reference(self, rates, spread, exponent,
                                              rows, start, period, seed):
        rng = np.random.default_rng(seed)
        spec = separable_spec(*rates, spread, period, rng)
        xs, ys = rng.uniform(-2.0, 2.0, (2, start + rows + 1))
        policy = TruncationPolicy(1e-10)
        with mock.patch.object(kernels, "SEGMENT_EXPONENT", exponent):
            for past in {1, period}:
                if past > start + rows + 1:
                    continue
                try:
                    want = defects_reference(spec, xs, ys, rows, policy,
                                             past)
                except TailNotCertified:  # a growing kernel's bound
                    continue
                got = defects(spec, xs, ys, rows, policy, past)
                assert len(got) == len(want) == rows
                assert np.all(np.abs(np.array(got) - np.array(want))
                              <= defects_slack(spec, xs, ys, rows, policy,
                                               past, got, want))

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(1e-13, 1e-2), coef=st.floats(0.01, 3.0),
           scale=st.floats(0.1, 3.0), tol=st.floats(1e-12, 1e-6),
           rows=st.integers(1, 60), lead=st.integers(0, 5))
    def test_refused_exactly_where_the_bound_exceeds_tail_tol(
            self, rate, coef, scale, tol, rows, lead):
        kernel = SeparableExponential(coef, rate, rate)
        nonlin = Nonlinearity("sin", scale, 1.0)
        half = PeriodicSequence(1, (-0.5,))
        spec = SystemSpec(1, half, half, kernel, kernel, nonlin, nonlin)
        xs = np.linspace(-1.0, 1.0, lead + rows + 1)
        policy = TruncationPolicy(tol)
        over = kernel.drive_array_error(lead, rows, 1, nonlin.bound) > tol
        if over:
            with pytest.raises(TailNotCertified, match="round-off bound"):
                defects(spec, xs, xs[::-1], rows, policy)
        else:
            assert len(defects(spec, xs, xs[::-1], rows, policy)) == rows

    @pytest.mark.parametrize("coef", [1.0, 0.05])
    def test_refuses_no_rate_the_recursion_bound_accepts(self, coef):
        """At tail_tol = 1e-10 and B = 1 the filter's bound refuses only
        rates that the row-by-row recursion's bound refuses too, from two
        rows to 10^6; with 80-bit long double, at |coef| = 1, it refuses
        below 3.4e-8 over 40 rows and 3.3e-5 over 10^6, against 7.0e-5."""
        recursion = threshold_rate(coef, 1e-10)
        for rows in (2, 40, 400, 10 ** 4, 10 ** 6):
            assert filter_threshold_rate(coef, 1e-10, 1, rows) < recursion
        if coef == 1.0 and np.finfo(np.longdouble).eps < 1e-18:
            assert filter_threshold_rate(coef, 1e-10, 1, 40) == \
                pytest.approx(3.4e-8, rel=0.01)
            assert filter_threshold_rate(coef, 1e-10, 1, 10 ** 6) \
                == pytest.approx(3.3e-5, rel=0.01)
            assert recursion == pytest.approx(7.0e-5, rel=0.01)

    def test_finite_lag_rows_are_the_generators(self):
        """A finite-lag kernel's rows, from entry 0, after a periodic past
        and none at all, are the reference's dots bit for bit, and where
        a march can take them (a constant past, values before row 0) the
        rows its drives send back."""
        kernel = FiniteLag(((0.5, -0.25, 0.125), (1.0, 0.0, -2.0)))
        values = np.random.default_rng(4).uniform(-1.0, 1.0, 30)
        for start, rows, past in ((0, 29, 1), (5, 25, 3), (10, 0, 2),
                                  (7, 23, 1), (0, 12, 3), (1, 20, 4)):
            got = kernel.drive_array(values, start, rows, past, 1.0, 1e-10)
            want = lag_drives_reference(kernel, values, start, rows, past)
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
            if start and past == 1:
                drive = kernel.drives(values[:start], rows, 1.0, 1e-10)
                next(drive)
                sent = [drive.send(phi) for phi in values[start:].tolist()]
                assert got.tolist() == sent


class TestTailU:
    """``_tail_block``'s U, the filter run backward in double, against the
    long double row-by-row recursion of ``tail_block_reference``."""

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(0.01, 3.0), gap=st.floats(0.05, 1.5),
           coef=st.floats(-2.0, 2.0), growth=st.floats(0.4, 2.5),
           exponent=st.sampled_from([512.0, SHORT_SEGMENTS]),
           cut=st.integers(0, 900))
    def test_within_the_stated_bound(self, rate, gap, coef, growth,
                                     exponent, cut):
        kernel = SeparableExponential(coef, rate, rate + gap)
        seq = PeriodicSequence(2, (1.0, 1.0 / growth))
        with mock.patch.object(kernels, "SEGMENT_EXPONENT", exponent):
            u = _tail_block(kernel, Nonlinearity("cos", 1.0, 1.0), seq, 1.0,
                            cut)[0]
            bound = tail_u_bound(kernel, seq, cut)
        assert np.all(np.abs(u - tail_u_reference(kernel, seq, cut))
                      <= bound)
