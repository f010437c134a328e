import math

import numpy as np
import pytest

from volterra2d import (
    FiniteLag,
    NotDiagonalPeriodic,
    SeparableExponential,
    TailNotCertified,
    TruncationPolicy,
    inner_sum,
)
from volterra2d.kernels import certified_depth, drive_plan

from conftest import inner_sum_reference, truncation_depth_reference

# Frozen from the geometric-series oracles below (brute-force partial sums
# agree to 1e-14 relative).
ROW_SUM_UNIT_RATE = 1.5819767068693265          # e / (e - 1)
ROW_SUM_RATE2 = 1.1565176427496657              # 1 / (1 - e^-2)
DOUBLE_TAIL_12 = 2.502650301077119              # (e / (e-1))^2
DOUBLE_TAIL_23 = 1.8295839719133922             # 1/((1-e^-2)(1-e^-1))
FOLDED_LAG0 = 1.1565176427496657                # 1 / (1 - e^-2)
FOLDED_LAG1 = 0.42545906411966083               # e^-1 / (1 - e^-2)


def row_sum_oracle(kernel, i):
    """Brute-force partial sums of |a_{i,m}| down to machine-level tails."""
    depth = max(64, math.ceil(36.0 / kernel.row_rate))
    m = np.arange(i - depth, i + 1, dtype=float)
    return float(np.sum(np.abs(kernel.coef)
                        * np.exp(kernel.row_rate * m - kernel.col_rate * i)))


def double_tail_oracle(kernel, n):
    """Brute-force double sum over i >= n, m <= i."""
    gap = kernel.col_rate - kernel.row_rate
    outer = max(64, math.ceil(36.0 / gap))
    inner = max(64, math.ceil(36.0 / kernel.row_rate))
    i = np.arange(n, n + outer + 1, dtype=float)
    d = np.arange(0, inner + 1, dtype=float)
    grid = np.abs(kernel.coef) * np.exp(-gap * i[:, None]
                                        - kernel.row_rate * d[None, :])
    return float(grid.sum())


def folded_oracle(kernel, period, r):
    """Brute-force lag sums A[r] = sum_j a_{i, i-r-j*period}."""
    terms = max(64, math.ceil(40.0 / (kernel.row_rate * period)))
    j = np.arange(terms, dtype=float)
    return float(np.sum(kernel.coef
                        * np.exp(-kernel.row_rate * (r + j * period))))


class TestWeight:
    def test_unit_rate_values(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        assert k.weight(3, 1) == pytest.approx(math.exp(-2), rel=1e-15)

    def test_uneven_rate_values(self):
        k = SeparableExponential(1.0, 1.0, 2.0)
        assert k.weight(2, 2) == pytest.approx(math.exp(-2), rel=1e-15)

    def test_finite_lag_support(self):
        k = FiniteLag(((1.0,),))
        assert k.weight(4, 4) == 1.0
        assert k.weight(4, 3) == 0.0

    def test_future_indices_rejected(self):
        with pytest.raises(ValueError):
            SeparableExponential(1.0, 1.0, 1.0).weight(3, 4)
        with pytest.raises(ValueError):
            FiniteLag(((1.0,),)).weight(3, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeparableExponential(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SeparableExponential(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            FiniteLag(())
        with pytest.raises(ValueError):
            FiniteLag(((1.0,), (1.0, 2.0)))


class TestAbsRowSum:
    def test_frozen_values(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        assert k.abs_row_sum(0) == pytest.approx(ROW_SUM_UNIT_RATE, rel=1e-14)
        assert k.abs_row_sum(17) == pytest.approx(ROW_SUM_UNIT_RATE, rel=1e-14)
        k2 = SeparableExponential(1.0, 2.0, 3.0)
        assert k2.abs_row_sum(0) == pytest.approx(ROW_SUM_RATE2, rel=1e-14)

    def test_zero_table(self):
        assert FiniteLag(((0.0, 0.0),)).abs_row_sum(3) == 0.0

    def test_finite_lag_rows(self):
        k = FiniteLag(((1.0, -2.0), (0.5, 0.25)))
        assert k.abs_row_sum(0) == 3.0
        assert k.abs_row_sum(1) == 0.75

    def test_matches_oracle_at_random_parameters(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            k = SeparableExponential(float(rng.uniform(-3, 3)),
                                     float(rng.uniform(0.1, 3)),
                                     float(rng.uniform(0.1, 3)))
            i = int(rng.integers(-3, 4))
            assert k.abs_row_sum(i) == pytest.approx(
                row_sum_oracle(k, i), rel=1e-10)


class TestDoubleTail:
    def test_frozen_values(self):
        a = SeparableExponential(1.0, 1.0, 2.0)
        b = SeparableExponential(1.0, 2.0, 3.0)
        assert a.double_tail(0) == pytest.approx(DOUBLE_TAIL_12, rel=1e-14)
        assert b.double_tail(0) == pytest.approx(DOUBLE_TAIL_23, rel=1e-14)

    def test_divergent_cases(self):
        assert SeparableExponential(1.0, 1.0, 1.0).double_tail(0) == math.inf
        assert SeparableExponential(1.0, 2.0, 1.0).double_tail(5) == math.inf
        assert FiniteLag(((0.5,),)).double_tail(0) == math.inf
        assert FiniteLag(((0.0, 0.0),)).double_tail(0) == 0.0

    def test_nonincreasing_and_vanishing(self):
        k = SeparableExponential(0.7, 0.9, 1.6)
        values = [k.double_tail(n) for n in range(0, 40, 4)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-9 * values[0]

    def test_matches_oracle_at_random_parameters(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            rate = float(rng.uniform(0.1, 3))
            k = SeparableExponential(float(rng.uniform(-3, 3)), rate,
                                     rate + float(rng.uniform(0.1, 3)))
            n = int(rng.integers(0, 5))
            assert k.double_tail(n) == pytest.approx(
                double_tail_oracle(k, n), rel=1e-10)


class TestFoldedWeights:
    def test_frozen_values(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        table = k.folded_weights(2)
        for row in table:
            assert row[0] == pytest.approx(FOLDED_LAG0, rel=1e-13)
            assert row[1] == pytest.approx(FOLDED_LAG1, rel=1e-13)
        assert table[0, 0] + table[0, 1] == pytest.approx(
            ROW_SUM_UNIT_RATE, rel=1e-13)

    def test_matches_lag_sum_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rate = float(rng.uniform(0.3, 2.5))
            k = SeparableExponential(float(rng.uniform(-2, 2)), rate, rate)
            period = int(rng.integers(1, 4))
            table = k.folded_weights(period)
            for r in range(period):
                assert table[0, r] == pytest.approx(
                    folded_oracle(k, period, r), rel=1e-11)

    def test_row_sums_equal_abs_row_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rate = float(rng.uniform(0.3, 2.5))
            k = SeparableExponential(float(rng.uniform(0.1, 2)), rate, rate)
            period = int(rng.integers(1, 5))
            table = k.folded_weights(period)
            for i in range(period):
                assert float(np.sum(np.abs(table[i]))) == pytest.approx(
                    k.abs_row_sum(i), rel=1e-12)

    def test_short_finite_lag_is_padded_table(self):
        k = FiniteLag(((0.5,), (0.25,)))
        table = k.folded_weights(2)
        assert table[0, 0] == 0.5 and table[1, 0] == 0.25
        assert table[0, 1] == 0.0 and table[1, 1] == 0.0

    def test_long_finite_lag_folds_aliased_lags(self):
        k = FiniteLag(((1.0, 2.0, 4.0),))
        table = k.folded_weights(2)
        assert table[0, 0] == 5.0  # lags 0 and 2 share residue 0
        assert table[0, 1] == 2.0

    def test_not_diagonal_periodic(self):
        with pytest.raises(NotDiagonalPeriodic):
            SeparableExponential(1.0, 1.0, 2.0).folded_weights(2)
        with pytest.raises(NotDiagonalPeriodic):
            FiniteLag(((1.0,), (2.0,))).folded_weights(1)


class TestInnerSum:
    # Mapped values on m = i-DEPTH..i, longer than any window used here.
    DEPTH = 2000

    def test_constant_callback_recovers_row_sum(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        policy = TruncationPolicy(1e-10, 100_000)
        total, tail = inner_sum(k, 0, np.ones(self.DEPTH), 1.0, policy)
        assert tail <= 1e-10
        assert total == pytest.approx(ROW_SUM_UNIT_RATE, abs=2e-10)

    def test_zero_callback(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        total, tail = inner_sum(k, 5, np.zeros(self.DEPTH), 0.0,
                                TruncationPolicy())
        assert total == 0.0
        assert tail <= 1e-10

    def test_finite_lag_is_exact(self):
        k = FiniteLag(((2.0, -1.0, 0.5),))
        values = np.array([-3.0, 2.0, 1.0])  # m = -2, -1, 0
        total, tail = inner_sum(k, 0, values, 3.0, TruncationPolicy())
        assert tail == 0.0
        assert total == 2.0 * 1.0 + (-1.0) * 2.0 + 0.5 * (-3.0)

    def test_cap_raises_when_tail_uncertified(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        with pytest.raises(TailNotCertified):
            inner_sum(k, 0, np.ones(self.DEPTH), 1.0,
                      TruncationPolicy(1e-30, 3))

    def test_cap_tolerated_when_weights_vanish(self):
        k = FiniteLag(((2.0, 0.0, 0.0),))
        total, tail = inner_sum(k, 0, np.ones(self.DEPTH), 1.0,
                                TruncationPolicy(1e-12, 1))
        assert total == 2.0
        assert tail == 0.0

    def test_cap_counts_terms(self):
        k = FiniteLag(((1.0, 1.0, 1.0),))
        total, tail = inner_sum(k, 0, np.ones(3), 1.0,
                                TruncationPolicy(1e-12, 3))
        assert (total, tail) == (3.0, 0.0)
        with pytest.raises(TailNotCertified, match="2-term cap"):
            inner_sum(k, 0, np.ones(3), 1.0, TruncationPolicy(1e-12, 2))

    def test_too_few_values_rejected(self):
        k = FiniteLag(((2.0, -1.0, 0.5),))
        assert inner_sum(k, 0, np.ones(3), 1.0, TruncationPolicy())[1] == 0.0
        with pytest.raises(ValueError, match="needs 3 values"):
            inner_sum(k, 0, np.ones(2), 1.0, TruncationPolicy())

    def test_matches_per_term_reference(self):
        rng = np.random.default_rng(8)
        policy = TruncationPolicy(1e-9)
        kernels = [SeparableExponential(float(rng.uniform(-2, 2)),
                                        float(rng.uniform(0.05, 2.0)),
                                        float(rng.uniform(0.05, 2.0)))
                   for _ in range(10)]
        kernels += [FiniteLag(tuple(tuple(float(w) for w in
                                          rng.uniform(-1, 1, 60))
                                    for _ in range(3))) for _ in range(3)]
        for k in kernels:
            i = int(rng.integers(-3, 8))
            values = np.sin(np.arange(i - self.DEPTH + 1, i + 1))
            total, tail = inner_sum(k, i, values, 1.0, policy)
            ref, ref_tail = inner_sum_reference(
                k, i, lambda m: values[m - i - 1], 1.0, policy)
            assert tail == ref_tail
            assert abs(total - ref) <= 1e-13 * max(1.0, k.abs_row_sum(i))

    @pytest.mark.parametrize("kernel", [
        SeparableExponential(-0.7, 0.05, 0.3),
        SeparableExponential(1.2, 0.9, 0.4),
        FiniteLag(((1.0, -2.0, 0.5), (0.25, 0.0, 3.0))),
    ])
    def test_weight_row_matches_weight(self, kernel):
        for i in (-4, 0, 3, 7):
            for depth in (0, 1, 2, 5, 40):
                row = kernel.weight_row(i, depth)
                ref = [kernel.weight(i, m) for m in range(i - depth, i + 1)]
                assert row.shape == (depth + 1,)
                assert np.allclose(row, ref, rtol=1e-15, atol=0.0)

    def test_tail_bound_honest_against_untruncated_sum(self):
        rng = np.random.default_rng(55)
        policy = TruncationPolicy(1e-8, 100_000)
        for _ in range(25):
            k = SeparableExponential(float(rng.uniform(-2, 2)),
                                     float(rng.uniform(0.2, 2.0)),
                                     float(rng.uniform(0.2, 2.0)))
            i = int(rng.integers(-2, 3))
            phase = float(rng.uniform(0, 6))
            total, tail = inner_sum(
                k, i, np.sin(np.arange(i - self.DEPTH + 1, i + 1) + phase),
                1.0, policy)
            exact = float(sum(
                k.weight(i, m) * math.sin(m + phase)
                for m in range(i - max(64, math.ceil(40 / k.row_rate)), i + 1)))
            assert abs(total - exact) <= tail + 1e-13

    def test_unit_callback_bounded_by_row_sum(self):
        rng = np.random.default_rng(314)
        policy = TruncationPolicy(1e-9)
        kernels = [SeparableExponential(float(rng.uniform(-2, 2)),
                                        float(rng.uniform(0.2, 2.5)),
                                        float(rng.uniform(0.2, 2.5)))
                   for _ in range(10)]
        kernels += [FiniteLag(tuple(tuple(float(w) for w in
                                          rng.uniform(-1, 1, 3))
                                    for _ in range(2))) for _ in range(5)]
        for k in kernels:
            i = int(rng.integers(-2, 3))
            total, tail = inner_sum(k, i, np.ones(self.DEPTH), 1.0, policy)
            assert abs(total) <= k.abs_row_sum(i) + policy.tail_tol

    def test_unit_callback_converges_to_row_sum(self):
        # single-signed rows, so the absolute sum is attained in the limit
        k = SeparableExponential(-1.3, 0.7, 1.1)
        gaps = []
        for tol in (1e-4, 1e-8, 1e-12):
            total, _ = inner_sum(k, 2, np.ones(self.DEPTH), 1.0,
                                 TruncationPolicy(tol))
            gaps.append(abs(abs(total) - k.abs_row_sum(2)))
        assert gaps[0] <= 1e-4 and gaps[2] <= 1e-12
        assert gaps[2] <= gaps[0]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(0.0, 10)
        with pytest.raises(ValueError):
            TruncationPolicy(1e-10, 0)
        with pytest.raises(ValueError):
            inner_sum(SeparableExponential(1.0, 1.0, 1.0), 0,
                      np.ones(TestInnerSum.DEPTH), -1.0, TruncationPolicy())


def random_plan_case(rng):
    """A kernel, bound, tail_tol and term cap for a drive plan: separable
    rates 1e-3..3 with col - row of either sign, or finite-lag kernels of
    1..60 lags (some trailing weights zero) and lag period 1..3; bounds
    include 0 and caps are sometimes small enough to be hit."""
    if rng.random() < 0.6:
        rate = float(10.0 ** rng.uniform(-3.0, math.log10(3.0)))
        gap = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 0.1))
        kernel = SeparableExponential(
            float(rng.uniform(0.01, 3.0) * rng.choice([-1.0, 1.0])),
            rate, rate + gap)
    else:
        lags = int(rng.integers(1, 61))
        weights = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), lags))
        weights[:, lags - int(rng.integers(0, 3)):] = 0.0
        kernel = FiniteLag(tuple(tuple(float(w) for w in row)
                                 for row in weights))
    bound = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 3.0))
    tol = float(10.0 ** rng.uniform(-14.0, -6.0))
    max_terms = (int(rng.integers(1, 40)) if rng.random() < 0.3
                 else 100_000)
    return kernel, bound, tol, max_terms


class TestDrivePlan:
    """The array depth rule and the compact weights against the scalar
    per-row loop and the per-term weight."""

    ROWS = 120

    @pytest.mark.parametrize("seed", range(60))
    def test_depths_match_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        kernel, bound, tol, max_terms = random_plan_case(rng)
        try:
            expected = [truncation_depth_reference(kernel, n, bound, tol,
                                                   max_terms)
                        for n in range(self.ROWS)]
        except TailNotCertified as exc:
            with pytest.raises(TailNotCertified) as caught:
                drive_plan(kernel, self.ROWS, bound, tol, max_terms)
            assert str(caught.value) == str(exc)  # the same first row
            return
        plan = drive_plan(kernel, self.ROWS, bound, tol, max_terms)
        depths, tails = zip(*expected)
        assert plan.depth.tolist() == list(depths)
        # numpy's exp and the summation order of the lag tails may differ
        # from the scalar loop in the last bits
        assert plan.tail.tolist() == pytest.approx(tails, rel=1e-13, abs=0.0)
        assert plan.max_depth == max(depths)
        for n in (0, self.ROWS // 2, self.ROWS - 1):
            assert certified_depth(kernel, n, bound, tol, max_terms) == (
                plan.depth[n], plan.tail[n])
            assert kernel.truncation_depth(n, bound, tol, max_terms) \
                == plan.depth[n]

    def test_cases_reach_the_hard_regimes(self):
        cases = [random_plan_case(np.random.default_rng(seed))
                 for seed in range(60)]
        separable = [k for k, *_ in cases
                     if isinstance(k, SeparableExponential)]
        lagged = [k for k, *_ in cases if isinstance(k, FiniteLag)]
        assert min(k.row_rate for k in separable) < 3e-3
        assert max(k.row_rate for k in separable) > 1.5
        assert any(k.col_rate < k.row_rate for k in separable)
        assert any(k.col_rate > k.row_rate for k in separable)
        assert max(k.max_lag for k in lagged) >= 40
        assert {k.lag_period for k in lagged} == {1, 2, 3}
        assert any(bound == 0.0 for _, bound, _, _ in cases)
        uncertified = 0
        for kernel, bound, tol, max_terms in cases:
            try:
                drive_plan(kernel, self.ROWS, bound, tol, max_terms)
            except TailNotCertified:
                uncertified += 1
        assert 0 < uncertified < len(cases)

    def test_tail_equal_to_tol_is_certified(self):
        plan = drive_plan(FiniteLag(((0.5, 0.25),)), 2, 1.0, 0.25, 10)
        assert plan.depth.tolist() == [0, 0]
        assert plan.tail.tolist() == [0.25, 0.25]

    def test_compact_weights_match_per_term_weight(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(300):
            rate = float(10.0 ** rng.uniform(math.log10(0.05),
                                             math.log10(3.0)))
            kernel = SeparableExponential(
                float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])),
                rate, rate + float(rng.uniform(-0.01, 0.5)))
            first = int(rng.integers(0, 1998))
            plan = drive_plan(kernel, 2, 1.0, 1e-8, 100_000, first=first)
            m_lo = first - plan.max_depth
            block = np.zeros((2, plan.max_depth + 2))
            plan.fill(block, m_lo)
            ref = np.zeros_like(block)
            for r, depth in enumerate(plan.depth.tolist()):
                n = first + r
                for m in range(n - depth, n + 1):
                    ref[r, m - m_lo] = kernel.weight(n, m)
            assert np.array_equal(block != 0.0, ref != 0.0)
            nonzero = ref != 0.0
            worst = max(worst, float(np.max(
                np.abs(block - ref)[nonzero] / np.abs(ref)[nonzero],
                initial=0.0)))
        assert worst <= 2e-12

    def test_finite_lag_weights_are_the_table(self):
        kernel = FiniteLag(((1.0, -2.0, 0.5), (0.25, 0.0, 3.0)))
        plan = drive_plan(kernel, 5, 1.0, 1e-12, 100)
        block = np.zeros((5, 7))
        plan.fill(block, -2)
        ref = np.array([[kernel.weight(n, m) if m <= n else 0.0
                         for m in range(-2, 5)] for n in range(5)])
        assert np.array_equal(block, ref)

    def test_drives_match_inner_sum(self):
        kernel = SeparableExponential(0.7, 0.3, 0.25)
        policy = TruncationPolicy(1e-12)
        plan = drive_plan(kernel, 30, 1.0, policy.tail_tol, policy.max_terms)
        values = np.sin(np.arange(-plan.max_depth, 30))
        drives = list(plan.drives(values, plan.max_depth))
        assert drives == [inner_sum(kernel, n, values[:plan.max_depth + n + 1],
                                    1.0, policy)[0] for n in range(30)]
        assert all(type(d) is float for d in drives)
