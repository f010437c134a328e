import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra2d import (
    FiniteLag,
    History,
    PeriodicSequence,
    SeparableExponential,
    SystemSpec,
    TailNotCertified,
    TruncationPolicy,
    check_asymptotic_hypotheses,
    Nonlinearity,
    defects,
    simulate,
)
from volterra2d.system import NONLINEARITY_KINDS

from conftest import (defects_reference, defects_slack, inner_sum_reference,
                      march_reference, random_nonlinearity)

POLICY = TruncationPolicy(1e-10, 100_000)


def trajectory_values(t, history, depth=200):
    """x and y of a trajectory on m = -depth..len-1, preceded by the
    history it was marched from."""
    past_x, past_y = zip(*(history.value_at(m) for m in range(-depth, 0)))
    return np.array(past_x + t.x), np.array(past_y + t.y)


class TestSimulate:
    def test_zero_amplitude_reduces_to_linear_growth(self, zero_amplitude_spec):
        hist = History(((1.0, 1.0),), None)
        t = simulate(zero_amplitude_spec, hist, 4, POLICY)
        assert t.x == (1.0, 3.0, 3.0, 9.0, 9.0)
        assert t.y == (1.0, 1.0, 3.0, 3.0, 9.0)

    def test_zero_steps_returns_history_point(self, example1_spec):
        hist = History(((2.5, -1.5),), None)
        t = simulate(example1_spec, hist, 0, POLICY)
        assert len(t) == 1
        assert t.x == (2.5,) and t.y == (-1.5,)
        assert t.tail_tolerance_used == POLICY.tail_tol

    def test_negative_steps_rejected(self, example1_spec):
        with pytest.raises(ValueError):
            simulate(example1_spec, History.zero(), -1, POLICY)

    def test_deterministic_bitwise(self, example2_spec):
        hist = History(((0.3, -0.2), (0.1, 0.4)), (0.05, 0.05))
        a = simulate(example2_spec, hist, 25, POLICY)
        b = simulate(example2_spec, hist, 25, POLICY)
        assert a.x == b.x and a.y == b.y

    def test_history_tail_feeds_the_sums(self, example1_spec):
        quiet = simulate(example1_spec, History.zero(), 1, POLICY)
        loud = simulate(example1_spec, History(((0.0, 0.0),), (0.0, 2.0)), 1,
                        POLICY)
        # same start, different tails: the drive must differ
        assert quiet.x[1] != loud.x[1]

    def test_zero_history_stays_within_radius(self, example2_spec):
        radius = check_asymptotic_hypotheses(example2_spec).quantities["radius"]
        t = simulate(example2_spec, History.zero(), 40, POLICY)
        assert max(abs(v) for v in t.x) <= radius + 10 * POLICY.tail_tol
        assert max(abs(v) for v in t.y) <= radius + 10 * POLICY.tail_tol


class TestResidual:
    def test_simulated_trajectory_is_consistent(self, example2_spec):
        t = simulate(example2_spec, History.zero(), 30, POLICY)
        for dx, dy in defects(example2_spec,
                              *trajectory_values(t, History.zero()), 30,
                              POLICY):
            assert dx <= 10 * POLICY.tail_tol
            assert dy <= 10 * POLICY.tail_tol

    def test_growing_trajectory_is_consistent(self, example1_spec):
        hist = History(((0.2, -0.1),), None)
        t = simulate(example1_spec, hist, 12, POLICY)
        scale = max(abs(v) for v in t.x)
        for dx, dy in defects(example1_spec, *trajectory_values(t, hist), 12,
                              POLICY):
            assert dx <= 10 * POLICY.tail_tol * max(1.0, scale)
            assert dy <= 10 * POLICY.tail_tol * max(1.0, scale)

    def test_defects_are_python_floats(self, example1_spec, example2_spec):
        hist = History(((0.3, -0.2), (0.1, 0.4)), (0.05, -0.1))
        for spec in (example1_spec, example2_spec):
            t = simulate(spec, hist, 12, POLICY)
            pairs = defects(spec, *trajectory_values(t, hist), 12, POLICY)
            assert len(pairs) == 12
            assert all(type(d) is float for pair in pairs for d in pair)

    def test_zero_everything_gives_exact_zero(self, zero_amplitude_spec):
        zero = np.zeros(6)
        assert defects(zero_amplitude_spec, zero, zero, 5, POLICY) \
            == ((0.0, 0.0),) * 5


def random_drive_kernel(rng):
    """Slow (rate down to 0.05) separable kernels with row sums growing or
    decaying in n, or finite-lag kernels with up to 60 lags.  Row sums stay
    near 1 or below: with much stronger coupling some of these systems are
    chaotic, and any two summation orders then part ways exponentially."""
    if rng.random() < 0.6:
        rate = float(rng.uniform(0.05, 1.0))
        gap = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.1))
        coef = float(rng.uniform(0.002, 0.05) * rng.choice([-1.0, 1.0]))
        return SeparableExponential(coef, rate, rate + gap)
    lags = int(rng.integers(1, 61))
    rows = int(rng.integers(1, 4))
    return FiniteLag(tuple(tuple(float(w) / lags
                                 for w in rng.uniform(-1, 1, lags))
                           for _ in range(rows)))


def random_drive_case(rng):
    T = int(rng.integers(1, 4))

    def coeffs():
        return PeriodicSequence(T, tuple(float(v) for v in
                                         rng.uniform(-0.6, 0.0, T)))

    spec = SystemSpec(T, coeffs(), coeffs(), random_drive_kernel(rng),
                      random_drive_kernel(rng), random_nonlinearity(rng),
                      random_nonlinearity(rng))
    window = tuple(tuple(float(v) for v in rng.uniform(-1, 1, 2))
                   for _ in range(int(rng.integers(1, 6))))
    tail = (None if rng.random() < 0.3
            else tuple(float(v) for v in rng.uniform(-1, 1, 2)))
    return spec, History(window, tail)


def reference_march(spec, history, steps):
    """simulate's recurrence marched one step at a time on untruncated
    per-term sums, from the history's tail entry at n = -H-1 on."""
    xs, ys = [history.value_at(0)[0]], [history.value_at(0)[1]]
    start = -history.depth - 1

    def value(seq, m, c):
        return seq[m] if m >= 0 else history.value_at(m)[c]

    for n in range(steps):
        drive_x = inner_sum_reference(
            spec.kernel_a, n, lambda m: spec.f(value(ys, m, 1)), start)
        drive_y = inner_sum_reference(
            spec.kernel_b, n, lambda m: spec.g(value(xs, m, 0)), start)
        xs.append((1.0 + spec.h.get(n)) * xs[n] + drive_x)
        ys.append((1.0 + spec.p.get(n)) * ys[n] + drive_y)
    return np.array(xs), np.array(ys)


class TestArrayDrive:
    """simulate's exact drives against an untruncated per-term march."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_term_march(self, seed):
        rng = np.random.default_rng(seed)
        spec, history = random_drive_case(rng)
        t = simulate(spec, history, 40, POLICY)
        ref_x, ref_y = reference_march(spec, history, 40)
        scale = max(1.0, np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert np.max(np.abs(np.array(t.x) - ref_x)) <= 1e-13 * scale
        assert np.max(np.abs(np.array(t.y) - ref_y)) <= 1e-13 * scale
        # on the arrays simulate marches on: the history from its tail
        # entry at n = -H-1, which the past repeats
        march = trajectory_values(t, history, history.depth + 1)
        pairs = defects(spec, *march, 40, POLICY)
        assert max(max(pair) for pair in pairs) <= POLICY.tail_tol

    def test_generators_reach_the_hard_regimes(self):
        cases = [random_drive_case(np.random.default_rng(seed))
                 for seed in range(12)]
        kernels = [k for spec, _ in cases for k in (spec.kernel_a,
                                                     spec.kernel_b)]
        separable = [k for k in kernels
                     if isinstance(k, SeparableExponential)]
        assert min(k.row_rate for k in separable) < 0.1
        assert any(k.col_rate < k.row_rate for k in separable)
        assert any(k.col_rate > k.row_rate for k in separable)
        assert max(k.max_lag for k in kernels
                   if isinstance(k, FiniteLag)) >= 40
        assert any(history.tail is not None for _, history in cases)


class TestDispatchingMarch:
    """simulate's march, which calls each scalar formula directly and
    sends each drive its value, bit for bit against its dispatching form
    over the kernels stepped by ``march_reference``."""

    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("tail", [None, (0.4, -0.7)])
    @pytest.mark.parametrize("kinds", ["ss", "sf", "fs", "ff"])
    def test_equals_dispatching_march(self, kinds, tail, period):
        rng = np.random.default_rng([period, tail is None,
                                     "ss sf fs ff".split().index(kinds)])

        def kernel(kind):
            if kind == "s":
                rate = float(rng.uniform(0.05, 1.0))
                return SeparableExponential(
                    float(rng.uniform(-0.1, 0.1)), rate,
                    rate + float(rng.uniform(-0.05, 0.1)))
            lags = int(rng.integers(1, 41))
            return FiniteLag(tuple(tuple(rng.uniform(-1, 1, lags) / lags)
                                   for _ in range(int(rng.integers(1, 4)))))

        def coeffs():
            return PeriodicSequence(period, tuple(rng.uniform(-0.6, 0.0,
                                                              period)))

        spec = SystemSpec(period, coeffs(), coeffs(), kernel(kinds[0]),
                          kernel(kinds[1]), random_nonlinearity(rng),
                          random_nonlinearity(rng))
        window = tuple(tuple(rng.uniform(-1, 1, 2)) for _ in range(4))
        history = History(window, tail)
        t = simulate(spec, history, 300, POLICY)
        ref_x, ref_y = march_reference(spec, history, 300)
        assert np.array(t.x).tobytes() == np.array(ref_x).tobytes()
        assert np.array(t.y).tobytes() == np.array(ref_y).tobytes()


@st.composite
def march_cases(draw):
    """A system, history and step count for the send-fed march: separable
    kernels, diagonal or not, and finite-lag kernels of 1-3 weight rows
    and up to 30 lags, periods 1-3, and history depths 0-20 with a zero
    or a constant tail."""
    period = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)

    def kernel():
        if draw(st.booleans()):
            rate = draw(st.floats(0.05, 3.0))
            col = rate + (0.0 if draw(st.booleans())
                          else draw(st.floats(-0.05, 1.0)))
            return SeparableExponential(draw(st.floats(-0.3, 0.3)), rate,
                                        col)
        lags, rows = draw(st.integers(1, 30)), draw(st.integers(1, 3))
        return FiniteLag(tuple(tuple(draw(st.lists(
            unit, min_size=lags, max_size=lags))) for _ in range(rows)))

    def coeffs():
        return PeriodicSequence(period, tuple(draw(st.lists(
            st.floats(-0.6, 0.0), min_size=period, max_size=period))))

    def nonlinearity():
        return Nonlinearity(draw(st.sampled_from(NONLINEARITY_KINDS)),
                            draw(st.floats(-2.0, 2.0)),
                            draw(st.floats(0.1, 3.0)))

    spec = SystemSpec(period, coeffs(), coeffs(), kernel(), kernel(),
                      nonlinearity(), nonlinearity())
    depth = draw(st.integers(0, 20))
    window = tuple((draw(unit), draw(unit)) for _ in range(depth + 1))
    tail = draw(st.one_of(st.none(), st.tuples(unit, unit)))
    return spec, History(window, tail), draw(st.integers(0, 60))


class TestSendFedMarch:
    """simulate sends each drive the value it has just mapped, bit for bit
    the march of ``march_reference``, which steps each kernel itself."""

    @settings(max_examples=150, deadline=None)
    @given(march_cases())
    def test_equals_the_march_reference(self, case):
        spec, history, steps = case
        t = simulate(spec, history, steps, POLICY)
        ref_x, ref_y = march_reference(spec, history, steps)
        assert np.array(t.x).tobytes() == np.array(ref_x).tobytes()
        assert np.array(t.y).tobytes() == np.array(ref_y).tobytes()

    def test_refusal_comes_at_the_first_step(self):
        """A separable drive too slow to certify is refused when it is
        primed, before any row is summed: a march of no steps asks for
        no row, so it returns the history point."""
        half = PeriodicSequence(1, (-0.5,))
        kernel = SeparableExponential(1.0, 1e-9, 1e-9)
        spec = SystemSpec(1, half, half, kernel, kernel,
                          Nonlinearity("cos", 1.0, 1.0),
                          Nonlinearity("sin", 1.0, 2.0))
        history = History(((0.2, -0.1),), (0.1, 0.3))
        assert simulate(spec, history, 0, POLICY).x == (0.2,)
        with pytest.raises(TailNotCertified, match="at row 0$"):
            simulate(spec, history, 1, POLICY)


def test_signed_zero_drive_equals_the_march_reference():
    """A case of ``march_cases`` pinned: zero weights and a zero amplitude
    over a history of negative zeros.  ``ndarray.dot`` gives 0.0 * -0.0 =
    -0.0 where ``@`` sums from +0.0, so a reference that dots by ``@``
    gives x_1 = 0.0 against the march's -0.0."""
    zero = PeriodicSequence(1, (0.0,))
    kernel = FiniteLag(((0.0,),))
    mute = Nonlinearity("sin", 0.0, 1.0)
    spec = SystemSpec(1, zero, zero, kernel, kernel, mute, mute)
    history = History(((-0.0, -0.0),), None)
    t = simulate(spec, history, 2, POLICY)
    ref_x, ref_y = march_reference(spec, history, 2)
    assert np.array(t.x).tobytes() == np.array(ref_x).tobytes() \
        == np.array([-0.0, -0.0, -0.0]).tobytes()
    assert np.array(t.y).tobytes() == np.array(ref_y).tobytes()


class TestMemory:
    def test_long_slow_march_keeps_storage_linear(self):
        # Rate 0.01 over 3,000 steps: a dense (steps x steps) weight band
        # would take about 72 MB; the one-state recursion, the value arrays
        # and the trajectory take well under 8 MB.
        kernel = SeparableExponential(0.12, 0.01, 0.01)
        half = PeriodicSequence(1, (-0.5,))
        spec = SystemSpec(1, half, half, kernel, kernel,
                          Nonlinearity("cos", 1.0, 1.0),
                          Nonlinearity("sin", 1.0, 2.0))
        tracemalloc.start()
        try:
            t = simulate(spec, History(((0.2, -0.1),), None), 3000, POLICY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t) == 3001
        assert peak < 8 * 2**20


def threshold_rate(coef, tol):
    """The smallest row rate (to 1e-9 relative) whose round-off bound for
    the kernel coef * e^{rate (m - n)} over values bounded by 1 is <= tol."""
    lo, hi = 1e-300, 1.0  # refused, accepted
    while hi > lo * (1.0 + 1e-9):
        mid = math.sqrt(lo * hi)
        if SeparableExponential(coef, mid, mid).drive_error(0, 1.0) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def filter_threshold_rate(coef, tol, start, rows, past=1):
    """The smallest row rate (to 1e-9 relative) whose ``drive_array``
    round-off bound over ``rows`` rows from entry ``start`` on, of values
    bounded by 1, is <= tol."""
    lo, hi = 1e-300, 1.0  # refused, accepted
    while hi > lo * (1.0 + 1e-9):
        mid = math.sqrt(lo * hi)
        if SeparableExponential(coef, mid, mid).drive_array_error(
                start, rows, past, 1.0) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def accurate_drive(kernel, values, start, n):
    """sum_{m<=n} a_{n,m} phi_m with values[k] at m = k - start and the past
    repeating values[0], to long double accuracy: the terms in long double,
    each split into two doubles, and all of them summed with math.fsum."""
    ld = np.longdouble
    rate = ld(kernel.row_rate)
    lag = n - np.arange(-start, n + 1)
    w = (ld(kernel.coef) * np.exp((rate - kernel.col_rate) * n)
         * np.exp(-rate * lag))
    terms = np.append(w * values[:start + n + 1],
                      w[0] * values[0] * np.exp(-rate) / -np.expm1(-rate))
    hi = terms.astype(float)
    return math.fsum(np.concatenate([hi, (terms - hi).astype(float)]))


class TestRoundOff:
    """The separable recursion's round-off bound: honest against a long
    double reference, and the gate that refuses a vanishing rate."""

    @pytest.mark.parametrize("rate", [0.5, 0.05, 0.01, 1e-3, 1e-4])
    @pytest.mark.parametrize("kind", ["constant", "alternating", "random"])
    def test_bound_covers_measured_error(self, rate, kind):
        start, rows = 50, 2000
        count = start + rows
        values = {"constant": np.full(count, 0.75),
                  "alternating": (-1.0) ** np.arange(count),
                  "random": np.random.default_rng(5).uniform(-1, 1, count),
                  }[kind]
        kernel = SeparableExponential(1.0, rate, rate)
        drive = kernel.drives(values[:start], rows, 1.0, 1.0)
        next(drive)
        got = [drive.send(phi) for phi in values[start:].tolist()]
        bound = kernel.drive_error(np.arange(rows), 1.0)
        for n in (0, 1, 7, 99, 500, rows - 1):
            ref = accurate_drive(kernel, values, start, n)
            # the bound covers the recursion; the returned double and the
            # reference are each rounded by at most half an ulp on top
            assert abs(got[n] - ref) <= bound[n] + np.spacing(abs(ref))

    def test_rates_either_side_of_the_threshold(self):
        coef, tol = 0.05, POLICY.tail_tol
        rate = threshold_rate(coef, tol)
        if np.finfo(np.longdouble).eps < 1e-18:  # 80-bit or wider
            assert rate < 1e-4
        half = PeriodicSequence(1, (-0.5,))
        history = History(((0.2, -0.1),), (0.1, 0.3))
        for r in (2.0 * rate, 0.5 * rate):
            kernel = SeparableExponential(coef, r, r)
            spec = SystemSpec(1, half, half, kernel, kernel,
                              Nonlinearity("cos", 1.0, 1.0),
                              Nonlinearity("sin", 1.0, 2.0))
            if r < rate:
                with pytest.raises(TailNotCertified, match="round-off bound"):
                    simulate(spec, history, 30, POLICY)
                continue
            t = simulate(spec, history, 30, POLICY)
            march = trajectory_values(t, history, history.depth + 1)
            pairs = defects(spec, *march, 30, POLICY)
            assert max(max(pair) for pair in pairs) <= tol
            for n in range(30):
                ref = inner_sum_reference(
                    kernel, n, lambda m: spec.f(
                        t.y[m] if m >= 0 else history.value_at(m)[1]), -2)
                drive = t.x[n + 1] - 0.5 * t.x[n]
                assert abs(drive - ref) <= kernel.drive_error(n, 1.0) + 4 * (
                    np.spacing(max(abs(t.x[n + 1]), abs(ref))))


class TestDefectsOnArrays:
    """``defects`` computes every row in one array expression, a separable
    kernel's drives by the long double filter of ``drive_array`` and a
    finite-lag kernel's by a dot per window: the floats of the row-by-row
    loop, within the stated round-off of both drives."""

    @staticmethod
    def assert_same(got, want, slack):
        assert all(type(d) is float for pair in got for d in pair)
        assert len(got) == len(want)
        assert np.all(np.abs(np.array(got) - np.array(want)) <= slack)

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_row_by_row_defects(self, seed):
        rng = np.random.default_rng(seed)
        spec, history = random_drive_case(rng)
        t = simulate(spec, history, 40, POLICY)
        march = trajectory_values(t, history, history.depth + 1)
        candidate = rng.uniform(-2.0, 2.0, (2, len(march[0])))
        for xs, ys in (march, candidate):
            for rows in (0, 1, 40):
                for past in (1, spec.period):
                    got = defects(spec, xs, ys, rows, POLICY, past)
                    want = defects_reference(spec, xs, ys, rows, POLICY,
                                             past)
                    self.assert_same(got, want, defects_slack(
                        spec, xs, ys, rows, POLICY, past, got, want))

    def test_equals_row_by_row_defects_on_a_periodic_extension(
            self, cosine_spec):
        # the periodic solver's gate: one period after its periodic past
        T = cosine_spec.period
        values = np.random.default_rng(3).uniform(-1.0, 1.0, (2, T))
        xs, ys = values[:, np.arange(T + 1) % T]
        got = defects(cosine_spec, xs, ys, T, POLICY, T)
        want = defects_reference(cosine_spec, xs, ys, T, POLICY, T)
        self.assert_same(got, want, defects_slack(
            cosine_spec, xs, ys, T, POLICY, T, got, want))

    def test_uncertified_drive_raises_as_before(self):
        """Each form refuses a drive whose own stated bound exceeds
        tail_tol: the filter of ``defects`` by ``drive_array_error``, and
        the row-by-row recursion by ``drive_error``."""
        half = PeriodicSequence(1, (-0.5,))
        xs = np.linspace(-1.0, 1.0, 12)
        for defect, threshold in (
                (defects, filter_threshold_rate(0.05, POLICY.tail_tol, 1,
                                                10)),
                (defects_reference, threshold_rate(0.05, POLICY.tail_tol))):
            kernel = SeparableExponential(0.05, 0.5 * threshold,
                                          0.5 * threshold)
            spec = SystemSpec(1, half, half, kernel, kernel,
                              Nonlinearity("cos", 1.0, 1.0),
                              Nonlinearity("sin", 1.0, 2.0))
            with pytest.raises(TailNotCertified, match="round-off bound"):
                defect(spec, xs, xs[::-1], 10, POLICY)
