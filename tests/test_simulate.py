import pytest

from volterra2d import (
    History,
    TruncationPolicy,
    check_asymptotic_hypotheses,
    residual,
    simulate,
)

POLICY = TruncationPolicy(1e-10, 100_000)


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
        for n in range(30):
            dx, dy = residual(example2_spec, t.x_at, t.y_at, n, POLICY)
            assert dx <= 10 * POLICY.tail_tol
            assert dy <= 10 * POLICY.tail_tol

    def test_growing_trajectory_is_consistent(self, example1_spec):
        hist = History(((0.2, -0.1),), None)
        t = simulate(example1_spec, hist, 12, POLICY)
        scale = max(abs(v) for v in t.x)
        for n in range(12):
            dx, dy = residual(example1_spec, t.x_at, t.y_at, n, POLICY)
            assert dx <= 10 * POLICY.tail_tol * max(1.0, scale)
            assert dy <= 10 * POLICY.tail_tol * max(1.0, scale)

    def test_trajectory_keeps_the_residual_of_each_step(self, example1_spec):
        hist = History(((0.3, -0.2), (0.1, 0.4)), (0.05, -0.1))
        t = simulate(example1_spec, hist, 12, POLICY)
        assert t.defects == tuple(
            residual(example1_spec, t.x_at, t.y_at, n, POLICY)
            for n in range(12))

    def test_zero_everything_gives_exact_zero(self, zero_amplitude_spec):
        zero = lambda m: 0.0
        for n in range(5):
            assert residual(zero_amplitude_spec, zero, zero, n, POLICY) \
                == (0.0, 0.0)
