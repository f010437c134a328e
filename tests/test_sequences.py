import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra2d import (
    History,
    PeriodicSequence,
    PeriodProductIsOne,
    PeriodProductNotOne,
    Trajectory,
    ZeroFactor,
    cycle_gain,
    reciprocal_growth,
)
from volterra2d.sequences import running_products

from conftest import product_one_plus

ULP = 2.220446049250313e-16


def seq(*values):
    return PeriodicSequence(len(values), tuple(values))


class TestPeriodicSequence:
    def test_basic_wraparound(self):
        s = seq(2.0, 0.0)
        assert s.get(5) == 0.0
        assert s.get(-1) == 0.0  # mathematical modulus
        assert s.get(0) == 2.0
        assert s.get(-2) == 2.0

    def test_period_one_is_constant(self):
        s = PeriodicSequence(1, (7.5,))
        assert all(s.get(n) == 7.5 for n in range(-5, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicSequence(0, ())
        with pytest.raises(ValueError):
            PeriodicSequence(2, (1.0,))
        with pytest.raises(ValueError):
            PeriodicSequence(1, (math.inf,))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.integers(-50, 50), st.integers(-5, 5))
    def test_shift_by_periods_is_exact(self, values, n, k):
        s = PeriodicSequence(len(values), tuple(values))
        assert s.get(n + k * s.period) == s.get(n)

    def test_take_reads_get_and_returns_a_fresh_array(self):
        s = seq(0.5, -1.25, 3.0)
        n = np.arange(-7, 8)
        taken = s.take(n)
        assert taken.tolist() == [s.get(int(m)) for m in n]
        taken[:] = 99.0  # the caller's array: the sequence is unchanged
        assert s.values == (0.5, -1.25, 3.0)
        assert s.take(n).tolist() == [s.get(int(m)) for m in n]
        assert s.take(n) is not s.take(n)


class TestProductOnePlus:
    """The reference product that the running-products table and the
    verifier's periodic-part check are compared against."""

    def test_demo_values(self):
        assert product_one_plus(seq(2.0, 0.0), 0, 1) == 3.0
        assert product_one_plus(seq(-0.5, 1.0), 0, 1) == 1.0

    def test_empty_product(self):
        assert product_one_plus(seq(2.0, 0.0), 5, 4) == 1.0
        assert product_one_plus(seq(2.0, 0.0), 0, -1) == 1.0

    def test_full_period_window_is_shift_invariant(self):
        s = seq(0.3, -0.4, 1.7)
        base = product_one_plus(s, 0, 2)
        for n in range(-7, 8):
            assert product_one_plus(s, n, n + 2) == base

    @given(st.lists(st.floats(-0.9, 1.5), min_size=1, max_size=4),
           st.integers(-6, 6), st.integers(0, 8), st.integers(1, 8))
    @settings(max_examples=200)
    def test_splitting(self, values, a, len1, len2):
        s = PeriodicSequence(len(values), tuple(values))
        b = a + len1 - 1
        c = b + len2
        left = product_one_plus(s, a, b)
        right = product_one_plus(s, b + 1, c)
        whole = product_one_plus(s, a, c)
        assert left * right == pytest.approx(whole, rel=4 * ULP, abs=1e-300)


class TestRunningProducts:
    @pytest.mark.parametrize("period", [1, 2, 3, 7, 16, 64])
    def test_matches_product_one_plus(self, period):
        rng = np.random.default_rng(period)
        values = rng.uniform(-0.9, 1.5, period)
        values[period // 2] = -1.0  # a zero factor
        s = PeriodicSequence(period, tuple(values))
        prods = running_products(s)
        expected = np.array([[product_one_plus(s, n + j + 1, n + period - 1)
                              for j in range(period)]
                             for n in range(period)])
        # both multiply the same factors, in opposite orders
        assert np.array_equal(prods == 0.0, expected == 0.0)
        assert np.allclose(prods, expected, atol=0.0,
                           rtol=period * np.finfo(float).eps)
        assert np.all(prods[:, -1] == 1.0)


class TestCycleGain:
    def test_demo_values(self):
        assert cycle_gain(seq(2.0, 0.0)) == -0.5
        assert cycle_gain(seq(0.0, 2.0)) == -0.5
        assert cycle_gain(seq(1.0)) == -1.0

    def test_unit_product_rejected(self):
        with pytest.raises(PeriodProductIsOne):
            cycle_gain(seq(-0.5, 1.0))

    @given(st.lists(st.floats(-0.9, 1.5), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_gain_inverts_product_gap(self, values):
        s = PeriodicSequence(len(values), tuple(values))
        try:
            gain = cycle_gain(s)
        except PeriodProductIsOne:
            return
        gap = 1.0 - s.full_period_product_one_plus()
        assert gain * gap == pytest.approx(1.0, abs=1e-12)


class TestReciprocalGrowth:
    def test_demo_values(self):
        r = reciprocal_growth(seq(-0.5, 1.0))
        assert r.values == (1.0, 2.0)
        assert r.get(1) == 2.0
        assert r.get(2) == 1.0

    def test_constant_zero_coefficients(self):
        r = reciprocal_growth(seq(0.0))
        assert r.values == (1.0,)

    def test_product_not_one_rejected(self):
        with pytest.raises(PeriodProductNotOne):
            reciprocal_growth(seq(2.0, 0.0))

    def test_zero_factor_rejected(self):
        with pytest.raises(ZeroFactor):
            reciprocal_growth(seq(-1.0))

    def test_running_product_matches_direct_evaluation(self):
        s = seq(0.25, -0.5, 0.6)  # (1.25)(0.5)(1.6) = 1
        r = reciprocal_growth(s)
        running = 1.0
        for n in range(1, 3 * s.period):
            running /= 1.0 + s.get(n - 1)
            assert r.get(n) == pytest.approx(running, rel=1e-12)


class TestHistory:
    def test_zero_tail(self):
        h = History(((1.0, 2.0),), None)
        assert h.value_at(0) == (1.0, 2.0)
        assert h.value_at(-3) == (0.0, 0.0)

    def test_constant_tail(self):
        h = History(((1.0, 2.0),), (5.0, 5.0))
        assert h.value_at(-3) == (5.0, 5.0)

    def test_window_lookup(self):
        h = History(((3.0, 4.0), (1.0, 2.0)), None)
        assert h.value_at(0) == (1.0, 2.0)
        assert h.value_at(-1) == (3.0, 4.0)
        assert h.value_at(-2) == (0.0, 0.0)

    def test_future_rejected(self):
        with pytest.raises(ValueError):
            History.zero().value_at(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            History((), None)
        with pytest.raises(ValueError):
            History(((math.nan, 0.0),), None)
        with pytest.raises(ValueError):
            History(((0.0, 0.0),), (math.inf, 0.0))


class TestTrajectory:
    def test_negative_indices_delegate_to_history(self):
        """A trajectory holds n = 0..len-1; the values before n = 0 are
        those of the History it was marched from, which it does not keep."""
        hist = History(((9.0, 8.0), (1.0, 2.0)), None)
        t = Trajectory((1.0, 3.0), (2.0, 4.0), 1e-10)
        assert t.x[1] == 3.0
        assert t.y[0] == 2.0
        assert [field.name for field in dataclasses.fields(t)] == [
            "x", "y", "tail_tolerance_used"]
        assert hist.value_at(-1)[0] == 9.0
        assert hist.value_at(-5)[1] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory((1.0,), (), 1e-10)
