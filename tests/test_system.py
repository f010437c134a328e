import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from volterra2d import (
    ConfigError,
    History,
    Nonlinearity,
    PeriodicSequence,
    SeparableExponential,
    SolverOptions,
    SystemSpec,
    TruncationPolicy,
    check_asymptotic_hypotheses,
    check_periodic_hypotheses,
    parse_scenario,
    parse_system,
    spec_to_config,
)
from volterra2d.system import NONLINEARITY_KINDS

from conftest import random_periodic_spec

WEIGHT_BOUND_DEMO1 = 3.163953413738653  # 2 * e / (e - 1), frozen from the oracle
TAIL_MASS_A = 2.502650301077119
TAIL_MASS_B = 1.8295839719133922


class TestNonlinearity:
    def test_point_values(self):
        assert Nonlinearity("sin", 1.0, 2.0)(math.pi / 4) \
            == pytest.approx(1.0, rel=1e-15)
        assert Nonlinearity("cos", 1.0, 1.0)(0.0) == 1.0
        assert Nonlinearity("rational_bounded", 1.0, 1.0)(1.0) \
            == pytest.approx(0.5, rel=1e-15)
        assert Nonlinearity("tanh", 2.0, 1.0)(100.0) \
            == pytest.approx(2.0, rel=1e-12)

    def test_vectorized_evaluation(self):
        f = Nonlinearity("sin", 2.0, 3.0)
        x = np.linspace(-1, 1, 7)
        assert np.allclose(f(x), 2.0 * np.sin(3.0 * x))

    @pytest.mark.parametrize(
        "seed, kind", enumerate(["sin", "cos", "tanh", "rational_bounded"]))
    def test_scalar_call_equals_array_entry(self, seed, kind):
        # A Python number takes the scalar path: it must give the array
        # entry's value bit for bit, as a Python float.
        rng = np.random.default_rng(50 + seed)
        for amplitude, frequency in [(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                                     (1, 2), (-3.0, 1e-3)]:
            f = Nonlinearity(kind, amplitude, frequency)
            # |k x| from 1e-300 up to 1e8, both signs, signed zeros and
            # integer values
            u = (rng.choice([-1.0, 1.0], 600)
                 * 10.0 ** rng.uniform(-300, 8, 600))
            x = np.concatenate([u / abs(frequency), [0.0, -0.0],
                                np.round(u[:100] / abs(frequency))])
            values = f(x)
            for arguments in ([float(v) for v in x], list(x)):
                scalars = [f(v) for v in arguments]  # float, np.float64
                assert all(type(s) is float for s in scalars)
                assert np.array(scalars).tobytes() == values.tobytes()
            ints = [int(v) for v in x[-100:]]
            assert np.array([f(v) for v in ints]).tobytes() \
                == f(np.array(ints, dtype=float)).tobytes()
            assert type(f(3)) is float

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_declared_bound_holds_on_dense_sample(self, kind):
        rng = np.random.default_rng(NONLINEARITY_KINDS.index(kind))
        for _ in range(3):
            f = Nonlinearity(kind, float(rng.uniform(-3, 3)),
                             float(rng.uniform(-3, 3)))
            x = rng.uniform(-1e6, 1e6, 100_000)
            assert np.max(np.abs(f(x))) <= f.bound + 1e-12

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_declared_lipschitz_holds_on_dense_sample(self, kind):
        rng = np.random.default_rng(NONLINEARITY_KINDS.index(kind))
        f = Nonlinearity(kind, float(rng.uniform(-2, 2)),
                         float(rng.uniform(-2, 2)))
        x = rng.uniform(-20, 20, 5000)
        y = x + rng.uniform(-0.5, 0.5, 5000)
        assert np.all(np.abs(f(x) - f(y))
                      <= f.lipschitz * np.abs(x - y) + 1e-12)

    @pytest.mark.parametrize(
        "seed, kind", enumerate(["sin", "cos", "tanh", "rational_bounded"]))
    def test_derivative_matches_central_differences(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            f = Nonlinearity(kind, float(rng.uniform(-2, 2)),
                             float(rng.uniform(-2, 2)))
            x = rng.uniform(-20, 20, 5000)
            step = 1e-6
            central = (f(x + step) - f(x - step)) / (2.0 * step)
            slope = f.derivative(x)
            assert np.allclose(slope, central, rtol=0.0, atol=1e-8)
            assert np.all(np.abs(slope) <= f.lipschitz)
            assert isinstance(f.derivative(0.5), float)
        with np.errstate(over="ignore"):  # huge arguments stay finite
            assert np.all(np.isfinite(f.derivative(np.array([1e200, -1e200]))))

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_declared_curvature_holds_on_dense_sample(self, kind):
        """Central differences of ``derivative`` stay within the declared
        curvature and, on a grid through the worst point, reach it."""
        rng = np.random.default_rng(10 + NONLINEARITY_KINDS.index(kind))
        for _ in range(3):
            f = Nonlinearity(kind, float(rng.uniform(-2, 2)),
                             float(rng.uniform(-2, 2)))
            x = np.concatenate([rng.uniform(-20, 20, 5000),
                                np.linspace(-3, 3, 200_001) / f.frequency])
            step = 1e-5
            central = (f.derivative(x + step)
                       - f.derivative(x - step)) / (2.0 * step)
            assert np.max(np.abs(central)) <= f.curvature * (1 + 1e-6) + 1e-8
            assert np.max(np.abs(central)) >= f.curvature * (1 - 1e-6) - 1e-8
        assert Nonlinearity(kind, 0.0, 1.0).curvature == 0.0

    def test_monotone_flags(self):
        assert Nonlinearity("tanh", 1.0, 1.0).monotone
        assert Nonlinearity("tanh", -1.0, -1.0).monotone
        assert not Nonlinearity("tanh", -1.0, 1.0).monotone
        assert not Nonlinearity("sin", 1.0, 1.0).monotone
        # increasing only on |frequency * x| <= 1, so not flagged
        assert not Nonlinearity("rational_bounded", 1.0, 1.0).monotone

    def test_monotone_kind_is_nondecreasing_and_odd_dominated(self):
        g = Nonlinearity("tanh", 1.5, 2.0)
        x = np.linspace(-30, 30, 10_000)
        values = g(x)
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all(np.abs(values) <= g(np.abs(x)) + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Nonlinearity("exp", 1.0, 1.0)
        with pytest.raises(ValueError):
            Nonlinearity("sin", math.nan, 1.0)


class TestParse:
    def test_demo_configs(self, example1_spec, example2_spec):
        assert example1_spec.period == 2
        assert example1_spec.h.values == (2.0, 0.0)
        assert example1_spec.p.values == (0.0, 2.0)
        assert example1_spec.f.kind == "sin" and example1_spec.g.frequency == 2.0
        assert example2_spec.h.values == (-0.5, 1.0)
        assert example2_spec.kernel_b == SeparableExponential(1.0, 2.0, 3.0)

    def test_length_mismatch(self):
        config = {"period": 2, "h": [1.0, 2.0, 3.0], "p": [0.0, 0.0],
                  "kernel_a": {"type": "finite_lag", "weights": [[1.0]]},
                  "kernel_b": {"type": "finite_lag", "weights": [[1.0]]},
                  "f": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0},
                  "g": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0}}
        with pytest.raises(ConfigError, match="h"):
            parse_system(config)

    def test_bad_period(self):
        with pytest.raises(ConfigError, match="period"):
            parse_system({"period": 0})
        with pytest.raises(ConfigError, match="period"):
            parse_system({"period": 2.5})

    def test_error_messages_carry_field_paths(self):
        config = json.loads(json.dumps({
            "period": 1, "h": [0.5], "p": [0.5],
            "kernel_a": {"type": "separable_exponential", "coef": 1.0,
                         "row_rate": -2.0, "col_rate": 1.0},
            "kernel_b": {"type": "finite_lag", "weights": [[1.0]]},
            "f": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0},
            "g": {"kind": "sin", "amplitude": 1.0, "frequency": 1.0}}))
        with pytest.raises(ConfigError, match="kernel_a.row_rate"):
            parse_system(config)

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_system("{not json")

    def test_round_trip(self, example1_spec, example2_spec):
        for spec in (example1_spec, example2_spec):
            echo = spec_to_config(spec)
            assert parse_system(json.loads(json.dumps(echo))) == spec


class TestParseScenario:
    def test_readme_schema_block_parses(self):
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        section = readme.split("## Config schema", 1)[1]
        block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
        scenario = parse_scenario(re.sub(r"//[^\n]*", "", block))
        assert (scenario.c1, scenario.c2, scenario.horizon) == (1.0, 1.0, 60)
        assert scenario.spec.period == 2
        assert scenario.history == History.zero()
        assert scenario.policy == TruncationPolicy(1e-10, 100000)
        assert scenario.solver == SolverOptions()

    def test_defaults_and_overrides(self, example1_path, example2_path):
        bare = parse_scenario(spec_to_config(parse_system(
            example1_path.read_text())))
        assert (bare.c1, bare.c2, bare.horizon) == (1.0, 1.0, None)
        assert bare.history == History.zero()
        assert bare.policy == TruncationPolicy()
        assert bare.solver == SolverOptions()
        flagged = parse_scenario(example2_path.read_text(), tol=1e-9,
                                 tail_tol=1e-8, c1=0.5, c2=2, horizon=30)
        assert flagged.solver.tol == 1e-9
        assert flagged.policy.tail_tol == 1e-8
        assert (flagged.c1, flagged.c2, flagged.horizon) == (0.5, 2.0, 30)

    @pytest.mark.parametrize("key, value, field", [
        ("solver", {"tol": math.inf}, "solver.tol: must be finite"),
        ("solver", {"max_iter": 1.5}, "solver.max_iter: expected an integer"),
        ("truncation", {"max_terms": "all"},
         "truncation.max_terms: expected an integer"),
        ("history", [], "history: expected an object"),
    ])
    def test_field_errors_keep_their_path(self, example2_path, key, value,
                                          field):
        config = json.loads(example2_path.read_text())
        config[key] = value
        with pytest.raises(ConfigError) as info:
            parse_scenario(config)
        assert str(info.value).startswith(field)

    @pytest.mark.parametrize("flag, kwargs", [
        ("--tol", {"tol": math.inf}),
        ("--tail-tol", {"tail_tol": math.nan}),
        ("--c2", {"c2": -math.inf}),
        ("--horizon", {"horizon": 2.5}),
    ])
    def test_flags_checked_under_their_names(self, example2_path, flag,
                                             kwargs):
        with pytest.raises(ConfigError, match=f"^{flag}: "):
            parse_scenario(example2_path.read_text(), **kwargs)


class TestPeriodicCheck:
    def test_demo1_passes_with_expected_quantities(self, example1_spec):
        report = check_periodic_hypotheses(example1_spec)
        assert report.passed
        assert report.quantities["gain_x"] == -0.5
        assert report.quantities["gain_y"] == -0.5
        assert report.quantities["bound_x"] == pytest.approx(
            WEIGHT_BOUND_DEMO1, rel=1e-12)
        assert report.quantities["bound_y"] == pytest.approx(
            WEIGHT_BOUND_DEMO1, rel=1e-12)
        assert report.route == "both_bounded"
        assert report.quantities["radius"] == pytest.approx(
            WEIGHT_BOUND_DEMO1, rel=1e-12)

    def test_weight_bound_matches_direct_enumeration(self, example1_spec):
        # |gain| * sum over a period window of |trailing products| * row sums
        ars = example1_spec.kernel_a.abs_row_sum(0)
        by_n = []
        for n in range(2):
            total = 0.0
            for i in range(n, n + 2):
                prod = 1.0
                for l in range(i + 1, n + 2):
                    prod *= 1.0 + example1_spec.h.get(l)
                total += abs(prod) * ars
            by_n.append(0.5 * total)
        assert by_n == pytest.approx([1.5819767068693265, WEIGHT_BOUND_DEMO1])
        report = check_periodic_hypotheses(example1_spec)
        assert report.quantities["bound_x"] == pytest.approx(max(by_n))

    def test_demo2_fails_on_unit_product(self, example2_spec):
        report = check_periodic_hypotheses(example2_spec)
        assert not report.passed
        assert not report.item("products_separated_from_one").passed
        assert report.quantities["product_h"] == pytest.approx(1.0, abs=1e-14)
        assert report.item("diagonal_periodic_kernels").passed is False

    def test_monotone_route(self, example1_spec):
        spec = SystemSpec(2, example1_spec.h, example1_spec.p,
                          example1_spec.kernel_a, example1_spec.kernel_b,
                          example1_spec.f, Nonlinearity("tanh", 1.0, 1.0))
        report = check_periodic_hypotheses(spec)
        assert report.passed
        assert report.route == "monotone_g"
        b1 = report.quantities["bound_x"]
        b2 = report.quantities["bound_y"]
        assert report.quantities["radius"] == pytest.approx(
            max(b1, b2 * math.tanh(b1)), rel=1e-12)

    def test_monotone_f_route(self, example1_spec):
        spec = SystemSpec(2, example1_spec.h, example1_spec.p,
                          example1_spec.kernel_a, example1_spec.kernel_b,
                          Nonlinearity("tanh", 2.0, 0.5), example1_spec.g)
        report = check_periodic_hypotheses(spec)
        assert report.route == "monotone_f"
        b1 = report.quantities["bound_x"]
        b2 = report.quantities["bound_y"]
        assert report.quantities["radius"] == pytest.approx(
            max(b2, b1 * 2.0 * math.tanh(0.5 * b2)), rel=1e-12)

    def test_demo_configs_give_no_warnings(self, example1_spec,
                                           example2_spec):
        assert check_periodic_hypotheses(example1_spec).warnings == ()
        assert check_asymptotic_hypotheses(example2_spec).warnings == ()

    def test_product_near_one_warns(self, cosine_spec):
        # 3 * (1 + h_1) = 1 + 1e-8: separated from 1, but gain_x ~ -1e8
        h = PeriodicSequence(2, (2.0, (1.0 + 1e-8) / 3.0 - 1.0))
        spec = SystemSpec(2, h, cosine_spec.p, cosine_spec.kernel_a,
                          cosine_spec.kernel_b, cosine_spec.f, cosine_spec.g)
        report = check_periodic_hypotheses(spec)
        assert report.item("products_separated_from_one").passed
        assert abs(report.quantities["gain_x"]) > 1e6
        assert len(report.warnings) == 1
        assert "gain_x" in report.warnings[0]

    def test_zero_factor_detected(self, example1_spec):
        spec = SystemSpec(2, PeriodicSequence(2, (-1.0, 5.0)),
                          example1_spec.p, example1_spec.kernel_a,
                          example1_spec.kernel_b, example1_spec.f,
                          example1_spec.g)
        report = check_periodic_hypotheses(spec)
        assert not report.item("nonzero_factors").passed


class TestAsymptoticCheck:
    def test_demo2_passes_with_expected_quantities(self, example2_spec):
        report = check_asymptotic_hypotheses(example2_spec, 1.0, 1.0)
        assert report.passed
        q = report.quantities
        assert q["product_h"] == pytest.approx(1.0, abs=1e-14)
        assert q["tail_mass_a"] == pytest.approx(TAIL_MASS_A, rel=1e-10)
        assert q["tail_mass_b"] == pytest.approx(TAIL_MASS_B, rel=1e-10)
        assert (q["recip_growth_min_x"], q["recip_growth_max_x"]) == (1.0, 2.0)
        assert (q["recip_growth_min_y"], q["recip_growth_max_y"]) == (1.0, 2.0)
        assert q["radius"] == pytest.approx(2 * TAIL_MASS_A + 1.0, rel=1e-10)
        assert report.warnings == ()

    def test_demo1_fails_on_product(self, example1_spec):
        report = check_asymptotic_hypotheses(example1_spec)
        assert not report.passed
        assert not report.item("products_equal_one").passed
        assert report.quantities["product_h"] == pytest.approx(3.0, abs=1e-14)

    def test_nonsummable_kernel_fails(self, example2_spec):
        spec = SystemSpec(2, example2_spec.h, example2_spec.p,
                          SeparableExponential(1.0, 1.0, 1.0),
                          example2_spec.kernel_b, example2_spec.f,
                          example2_spec.g)
        report = check_asymptotic_hypotheses(spec)
        assert not report.passed
        assert not report.item("summable_kernels").passed
        assert report.quantities["tail_mass_a"] == math.inf

    def test_nonpositive_amplitudes_warn(self, example2_spec):
        report = check_asymptotic_hypotheses(example2_spec, -1.0, 0.0)
        assert len(report.warnings) == 2
        assert report.passed  # warning, not failure

    def test_regimes_are_mutually_exclusive(self):
        rng = np.random.default_rng(42)
        specs = [random_periodic_spec(rng) for _ in range(5)]
        for spec in specs:
            periodic = check_periodic_hypotheses(spec)
            asymptotic = check_asymptotic_hypotheses(spec)
            sep = periodic.item("products_separated_from_one").passed
            unit = asymptotic.item("products_equal_one").passed
            assert sep != unit
