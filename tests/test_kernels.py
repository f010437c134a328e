import math

import numpy as np
import pytest

from volterra2d import (
    FiniteLag,
    Nonlinearity,
    NotDiagonalPeriodic,
    SeparableExponential,
    TailNotCertified,
    TruncationPolicy,
)
from volterra2d.asymptotic_solver import _outer_cut

from conftest import inner_sum_reference, separable_drives_reference

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

    @pytest.mark.parametrize("period", [1, 2, 3, 5, 8, 16])
    def test_array_call_equals_scalar_calls(self, period):
        # One call on an index array, flat or a window table, equals the
        # scalar calls bit for bit; a finite-lag row sum is Python's sum.
        rng = np.random.default_rng(period)
        lag = np.arange(period)
        for rows in np.arange(2 * period - 1), lag[:, None] + lag:
            for k in (SeparableExponential(-1.3, 0.4, 0.4),
                      SeparableExponential(0.8, 0.05, 0.3),
                      FiniteLag(tuple(tuple(rng.uniform(-2, 2, 4))
                                      for _ in range(period))),
                      FiniteLag(tuple(tuple(rng.uniform(-2, 2, 2))
                                      for _ in range(3)))):
                sums = k.abs_row_sum(rows)
                assert sums.shape == rows.shape and sums.dtype == np.float64
                scalar = np.array([k.abs_row_sum(int(i)) for i in rows.flat])
                assert sums.ravel().tobytes() == scalar.tobytes()
                if isinstance(k, FiniteLag):
                    python = [sum(abs(w) for w in k.weights[i % k.lag_period])
                              for i in rows.flat]
                    assert sums.ravel().tolist() == python


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


def drives(kernel, values, start, rows, bound=1.0, tol=1e-10):
    """The kernel's drives at n = 0..rows-1 as a list, as a march takes
    them: primed with values[:start], the values before row 0, then sent
    values[start + n] for row n."""
    values = np.asarray(values, dtype=float)
    assert len(values) >= start + rows
    drive = kernel.drives(values[:start], rows, bound, tol)
    next(drive)
    return [drive.send(phi) for phi in values[start:start + rows].tolist()]


def array_drives(kernel, values, start, rows, past=1, bound=1.0, tol=1e-10):
    """The kernel's ``drive_array`` at n = 0..rows-1 as a list: row 0 at
    values[start], the values before values[0] repeating values[:past]."""
    return kernel.drive_array(np.asarray(values, dtype=float), start, rows,
                              past, bound, tol).tolist()


def impulse_drives(kernel, m, rows, first=-10):
    """The drives at n = 0..rows-1 of a unit impulse at m over zeros on
    first..rows-1 (a zero past): row n reads off a_{n,m}."""
    values = np.zeros(rows - first)
    values[m - first] = 1.0
    return drives(kernel, values, -first, rows)


class TestInnerSum:
    """Each drive is the whole row sum sum_{m<=n} a_{n,m} * values_m: the
    values array term by term and the past before it in closed form."""

    # Mapped values on m = -DEPTH+1..ROWS-1, the past repeating the first.
    DEPTH = 2000
    ROWS = 4

    def test_constant_callback_recovers_row_sum(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        total, = array_drives(k, np.ones(1), 0, 1)
        assert total == pytest.approx(ROW_SUM_UNIT_RATE, rel=1e-15)

    def test_zero_callback(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        assert drives(k, np.zeros(8), 2, 6, bound=0.0) == [0.0] * 6

    @pytest.mark.parametrize("k", [SeparableExponential(1.0, 1.0, 1.0),
                                   FiniteLag(((2.0, -1.0, 0.5),))])
    def test_no_rows_give_an_empty_array(self, k):
        # a window view of a finite-lag kernel's padded values needs one
        # value past its L pad entries, even for no rows
        for values, start in ((np.ones(1), 0), (np.ones(3), 3)):
            got = k.drive_array(values, start, 0, 1, 1.0, 1e-10)
            assert got.shape == (0,) and got.dtype == np.float64

    def test_finite_lag_is_exact(self):
        k = FiniteLag(((2.0, -1.0, 0.5),))
        values = np.array([-3.0, 2.0, 1.0])  # m = -2, -1, 0
        total, = drives(k, values, 2, 1, bound=3.0)
        assert total == 2.0 * 1.0 + (-1.0) * 2.0 + 0.5 * (-3.0)

    def test_cap_raises_when_tail_uncertified(self):
        k = SeparableExponential(1.0, 1.0, 1.0)
        with pytest.raises(TailNotCertified, match="round-off bound"):
            drives(k, np.ones(self.DEPTH), 1, 3, tol=1e-60)

    def test_cap_tolerated_when_weights_vanish(self):
        # a finite-lag window has no memory to certify, at any tolerance
        k = FiniteLag(((2.0, 0.0, 0.0),))
        assert drives(k, np.ones(self.DEPTH), 1, 1, tol=1e-300) == [2.0]
        assert array_drives(k, np.ones(self.DEPTH), 0, 1,
                            tol=1e-300) == [2.0]

    def test_cap_counts_terms(self):
        # max_terms caps the tail map's outer cut only, counted in terms
        k = FiniteLag(((1.0, 1.0, 1.0),))
        assert drives(k, np.ones(3), 2, 1, tol=1e-12) == [3.0]
        kernel = SeparableExponential(1.0, 1.0, 2.0)
        f = Nonlinearity("sin", 1.0, 1.0)
        cut, _ = _outer_cut(1.0, f, kernel, 0, TruncationPolicy(1e-12))
        assert _outer_cut(1.0, f, kernel, 0,
                          TruncationPolicy(1e-12, cut)) == _outer_cut(
            1.0, f, kernel, 0, TruncationPolicy(1e-12))
        with pytest.raises(TailNotCertified, match=f"{cut - 1}-term cap"):
            _outer_cut(1.0, f, kernel, 0, TruncationPolicy(1e-12, cut - 1))

    def test_too_few_values_rejected(self):
        for k in (FiniteLag(((2.0, -1.0, 0.5),)),
                  SeparableExponential(1.0, 1.0, 1.0)):
            assert len(array_drives(k, np.ones(3), 2, 1)) == 1
            with pytest.raises(ValueError, match="need 3 values"):
                array_drives(k, np.ones(2), 2, 1)
            with pytest.raises(ValueError, match="need 4 values"):
                array_drives(k, np.ones(3), 0, 1, past=4)

    def test_matches_per_term_reference(self):
        rng = np.random.default_rng(8)
        kernels = [SeparableExponential(float(rng.uniform(-2, 2)),
                                        float(rng.uniform(0.05, 2.0)),
                                        float(rng.uniform(0.05, 2.0)))
                   for _ in range(10)]
        kernels += [FiniteLag(tuple(tuple(float(w) for w in
                                          rng.uniform(-1, 1, 60))
                                    for _ in range(3))) for _ in range(3)]
        start = self.DEPTH - 1
        for k in kernels:
            values = np.sin(np.arange(-start, self.ROWS))
            for n, total in enumerate(drives(k, values, start, self.ROWS)):
                ref = inner_sum_reference(k, n, lambda m: values[m + start],
                                          -start)
                assert abs(total - ref) <= 1e-13 * max(1.0, k.abs_row_sum(n))

    @pytest.mark.parametrize("kernel", [
        SeparableExponential(-0.7, 0.05, 0.3),
        SeparableExponential(1.2, 0.9, 0.4),
        FiniteLag(((1.0, -2.0, 0.5), (0.25, 0.0, 3.0))),
    ])
    def test_weight_row_matches_weight(self, kernel):
        # the drives of a unit impulse at m are the weights a_{n,m}
        for m in (-4, 0, 3, 7):
            row = impulse_drives(kernel, m, 12)
            ref = [kernel.weight(n, m) if m <= n else 0.0 for n in range(12)]
            assert np.allclose(row, ref, rtol=1e-15, atol=0.0)

    def test_tail_bound_honest_against_untruncated_sum(self):
        rng = np.random.default_rng(55)
        start = self.DEPTH - 1
        for _ in range(25):
            k = SeparableExponential(float(rng.uniform(-2, 2)),
                                     float(rng.uniform(0.2, 2.0)),
                                     float(rng.uniform(0.2, 2.0)))
            phase = float(rng.uniform(0, 6))
            values = np.sin(np.arange(-start, self.ROWS) + phase)
            for n, total in enumerate(drives(k, values, start, self.ROWS,
                                             tol=1e-8)):
                exact = math.fsum(k.weight(n, m) * math.sin(m + phase)
                                  for m in range(n - max(64, math.ceil(
                                      40 / k.row_rate)), n + 1))
                assert abs(total - exact) <= k.drive_error(n, 1.0) + 1e-13

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
            for n, total in enumerate(array_drives(k, np.ones(3), 0, 3,
                                                   tol=policy.tail_tol)):
                assert abs(total) <= k.abs_row_sum(n) + policy.tail_tol

    def test_unit_callback_converges_to_row_sum(self):
        # single-signed rows, so the absolute sum is attained exactly, and
        # with nothing truncated the tolerance no longer moves the sum
        k = SeparableExponential(-1.3, 0.7, 1.1)
        gaps = [abs(abs(array_drives(k, np.ones(3), 0, 3, tol=tol)[2])
                    - k.abs_row_sum(2)) for tol in (1e-4, 1e-8, 1e-12)]
        assert gaps[0] == gaps[1] == gaps[2] <= 1e-15 * k.abs_row_sum(2)

    @pytest.mark.parametrize("settings, field", [
        (dict(max_terms=2.5), "max_terms"),
        (dict(max_terms=True), "max_terms"),
        (dict(tail_tol=float("inf")), "tail_tol"),
    ], ids=["max_terms-2.5", "max_terms-bool", "tail_tol-inf"])
    def test_policy_refuses_what_the_config_refuses(self, settings, field):
        with pytest.raises(ValueError, match=(
            f"^{field}: (must be|expected an integer)")):
            TruncationPolicy(**settings)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(0.0, 10)
        with pytest.raises(ValueError):
            TruncationPolicy(1e-10, 0)
        with pytest.raises(ValueError, match="^bound must be"):
            drives(SeparableExponential(1.0, 1.0, 1.0),
                   np.ones(TestInnerSum.DEPTH), 1, 1, bound=-1.0)


def random_plan_case(rng):
    """A kernel, bound and tolerance for a batch of drives: separable
    rates 1e-3..3 with col - row of either sign, or finite-lag kernels of
    1..60 lags (some trailing weights zero) and lag period 1..3; bounds
    include 0, and tolerances reach far enough down that slow rates are
    refused."""
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
    return kernel, bound, tol


class TestDrivePlan:
    """How each kernel's drives are computed, against the untruncated
    scalar per-term reference and the per-term weight: every row reaches
    back to the start of the values, and the past before them in closed
    form; a separable kernel is refused exactly where its round-off bound
    exceeds the tolerance."""

    ROWS = 60
    START = 20  # values on m = -START..ROWS-1

    @pytest.mark.parametrize("seed", range(60))
    def test_depths_match_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        kernel, bound, tol = random_plan_case(rng)
        values = bound * np.cos(0.7 * np.arange(-self.START, self.ROWS)
                                + seed)
        error = (kernel.drive_error(np.arange(self.ROWS), bound)
                 if isinstance(kernel, SeparableExponential)
                 else np.zeros(self.ROWS))
        refused = np.flatnonzero(error > tol)
        if len(refused):
            with pytest.raises(TailNotCertified,
                               match=f"at row {refused[0]}$"):
                drives(kernel, values, self.START, self.ROWS, bound=bound,
                       tol=tol)
            return
        got = drives(kernel, values, self.START, self.ROWS, bound=bound,
                     tol=tol)
        for n, total in enumerate(got):
            ref = inner_sum_reference(kernel, n,
                                      lambda m: values[m + self.START],
                                      -self.START)
            assert abs(total - ref) <= error[n] + 1e-13 * max(
                1.0, bound * kernel.abs_row_sum(n))

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
        assert any(bound == 0.0 for _, bound, _ in cases)
        uncertified = 0
        for kernel, bound, tol in cases:
            try:
                drives(kernel, np.zeros(self.ROWS + 1), 1, self.ROWS,
                       bound=bound, tol=tol)
            except TailNotCertified:
                uncertified += 1
        assert 0 < uncertified < len(cases)

    def test_tail_equal_to_tol_is_certified(self):
        kernel = SeparableExponential(1.0, 0.01, 0.01)
        error = kernel.drive_error(np.arange(2), 1.0)
        assert error.tolist() == [error[0]] * 2 and error[0] > 0.0
        assert len(drives(kernel, np.ones(3), 1, 2, tol=error[0])) == 2
        with pytest.raises(TailNotCertified):
            drives(kernel, np.ones(3), 1, 2,
                   tol=float(np.nextafter(error[0], 0.0)))

    def test_compact_weights_match_per_term_weight(self):
        # the scale e^{(row-col) n} stays exact far from n = 0
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(100):
            rate = float(10.0 ** rng.uniform(math.log10(0.05),
                                             math.log10(3.0)))
            kernel = SeparableExponential(
                float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])),
                rate, rate + float(rng.uniform(-0.01, 0.5)))
            first = int(rng.integers(0, 1998))
            for m in (first, first - 3):
                got = impulse_drives(kernel, m, first + 2)[first:]
                ref = [kernel.weight(n, m) for n in (first, first + 1)]
                assert (np.array(got) != 0.0).tolist() == [
                    r != 0.0 for r in ref]
                worst = max([worst, *(abs(g - r) / abs(r)
                                      for g, r in zip(got, ref) if r)])
        assert worst <= 2e-12

    def test_finite_lag_weights_are_the_table(self):
        kernel = FiniteLag(((1.0, -2.0, 0.5), (0.25, 0.0, 3.0)))
        block = np.array([impulse_drives(kernel, m, 5)
                          for m in range(-2, 5)]).T
        ref = np.array([[kernel.weight(n, m) if m <= n else 0.0
                         for m in range(-2, 5)] for n in range(5)])
        assert np.array_equal(block, ref)

    def test_drives_match_inner_sum(self):
        # sent one value per row: a separable kernel, and finite-lag
        # kernels of 12 lags after 5 values (rows n < 7 take the values
        # before them, the rest a window of them) and after 40 (windows
        # only)
        lags = np.cos(np.arange(26.0)).reshape(2, 13) / 8.0
        for kernel, start in [(SeparableExponential(0.7, 0.3, 0.25), 40),
                              (FiniteLag(lags.tolist()), 5),
                              (FiniteLag(lags.tolist()), 40)]:
            values = np.sin(np.arange(-start, 30))
            got = drives(kernel, values, start, 30, tol=1e-12)
            assert all(type(d) is float for d in got)
            for n, total in enumerate(got):
                ref = inner_sum_reference(
                    kernel, n, lambda m: values[m + start], -start)
                assert abs(total - ref) <= 1e-13

    def test_drives_equal_their_dispatching_forms(self):
        # The separable recursion reads each value as a Python float and
        # the finite-lag rows dot with ndarray.dot: bit for bit the
        # recursion on float64 reads and the rows by the @ operator, in
        # the march's drives and in ``drive_array``, which also starts at
        # entry 0.
        values = np.sin(np.arange(-40.0, 300.0) * 0.7) * 1.3
        for coef, rate, col in [(0.7, 0.3, 0.25), (-0.05, 0.05, 0.06)]:
            kernel = SeparableExponential(coef, rate, col)
            rate = np.longdouble(rate)
            decay = np.exp(-rate)
            s = decay * 0.0 + values[0]
            s /= -np.expm1(-rate)
            for value in values[:40]:
                s = decay * s + value
            ref = []
            for n, k in enumerate(range(40, 340)):
                s = decay * s + values[k]
                ref.append(float(coef * np.exp((rate - col)
                                               * np.longdouble(n)) * s))
            assert drives(kernel, values, 40, 300, tol=1e-9) == ref
        for width in (1, 11, 61):
            weights = np.cos(np.arange(3.0 * width)).reshape(3, width) / width
            kernel = FiniteLag(weights.tolist())
            for start in (0, width // 2, 40):
                padded = np.concatenate([np.full(width - 1, values[0]),
                                         values])
                ref = [float(weights[n % 3, ::-1].copy()
                             @ padded[start + n:start + n + width])
                       for n in range(300 - start)]
                assert array_drives(kernel, values, start,
                                    300 - start) == ref
                if start:
                    assert drives(kernel, values, start, 300 - start) == ref


class TestSendFedDrives:
    """A march primes each drive with the values before row 0, then sends
    it the value of each row.  The checks stay at priming, and a diagonal
    kernel's one scale gives the array of scales' floats."""

    START, ROWS = 6, 30

    KERNELS = [SeparableExponential(-0.37, 0.6, 0.6),
               SeparableExponential(0.8, 0.45, 0.9),
               FiniteLag(((0.5, -0.25, 0.125), (0.3, 0.2, -0.1))),
               FiniteLag(((0.25,) * 12,))]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_sent_values_equal_the_read_ones(self, kernel):
        """The drives of sent values against ``drive_array``'s, which reads
        them from the array: bit for bit for a finite-lag kernel's dots,
        and within both stated round-off bounds for a separable one."""
        rng = np.random.default_rng(7)
        values = rng.uniform(-1.0, 1.0, self.START + self.ROWS)
        got = np.array(drives(kernel, values, self.START, self.ROWS))
        want = kernel.drive_array(values, self.START, self.ROWS, 1, 1.0,
                                  1e-10)
        if isinstance(kernel, FiniteLag):
            assert got.tobytes() == want.tobytes()
            return
        slack = (kernel.drive_error(np.arange(self.ROWS), 1.0)
                 + kernel.drive_array_error(self.START, self.ROWS, 1, 1.0)
                 + np.spacing(np.abs(want)) + np.spacing(np.abs(got)))
        assert np.all(np.abs(got - want) <= slack)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_short_window_refused_at_the_first_step(self, kernel):
        """A drive with no value before row 0 is refused at priming."""
        drive = kernel.drives(np.ones(0), 4, 1.0, 1e-10)
        with pytest.raises(ValueError, match="a value before row 0"):
            next(drive)
        assert list(drive) == []  # no row was summed

    def test_uncertified_recursion_refused_at_the_first_step(self):
        kernel = SeparableExponential(1.0, 1e-9, 1e-9)
        drive = kernel.drives(np.ones(2), 6, 1.0, 1e-10)
        with pytest.raises(TailNotCertified, match="at row 0$"):
            next(drive)
        assert list(drive) == []

    def test_no_rows_prime_without_a_refusal(self):
        """A drive of no rows asks for no certificate: an uncertifiable
        rate primes, and sends nothing back."""
        for kernel in (SeparableExponential(1.0, 1e-9, 1e-9),
                       FiniteLag(((1.0, 2.0),))):
            drive = kernel.drives(np.ones(2), 0, 1.0, 1e-10)
            assert next(drive) is None
            with pytest.raises(StopIteration):
                drive.send(1.0)

    @pytest.mark.parametrize("rate", [1e-3, 0.05, 0.7, 3.0, 20.0])
    @pytest.mark.parametrize("past", [1, 3])
    def test_constant_scale_equals_the_array_of_scales(self, rate, past):
        """Bit for bit in the march's drives (a constant past); within
        the stated round-off bounds in ``drive_array``, whose periodic
        past of ``past`` values the march has no form for."""
        rng = np.random.default_rng([past, int(rate * 1000)])
        values = rng.uniform(-1.0, 1.0, self.START + self.ROWS)
        for coef in (-0.37, 1.0, 2.5e-3, float(rng.uniform(-3.0, 3.0))):
            kernel = SeparableExponential(coef, rate, rate)
            want = np.array(separable_drives_reference(
                kernel, values, self.START, self.ROWS, past))
            if past == 1:
                got = np.array(drives(kernel, values, self.START, self.ROWS,
                                      tol=1.0))
                assert got.tobytes() == want.tobytes()
            got = kernel.drive_array(values, self.START, self.ROWS, past,
                                     1.0, 1.0)
            slack = (kernel.drive_error(np.arange(self.ROWS), 1.0)
                     + kernel.drive_array_error(self.START, self.ROWS, past,
                                                1.0)
                     + np.spacing(np.abs(want)) + np.spacing(np.abs(got)))
            assert np.all(np.abs(got - want) <= slack)
