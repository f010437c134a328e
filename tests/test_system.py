import copy
import dataclasses
import inspect
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra2d import (
    ConfigError,
    FiniteLag,
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
from volterra2d.sequences import running_products
from volterra2d.system import (NONLINEARITY_KINDS, _weight_bound,
                               max_horizon)

from conftest import (
    derivative_reference,
    finite_floats_reference,
    nonlinearity_reference,
    random_periodic_spec,
    running_products_reference,
    weight_bound_reference,
)

#: A JSON integer too large for a double, and how its refusal reads.
HUGE = int("9" * 400)
BEYOND = "must be finite, got an integer beyond double range"

#: Entries of a JSON list: finite floats, ints within and beyond double
#: range (2**1024 - 2**971 is the largest that rounds to a double), bools,
#: null, strings and the NaN and Infinity literals of json.loads.
JSON_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.integers(-(10 ** 400), 10 ** 400),
    st.sampled_from([2 ** 1024 - 2 ** 971, 2 ** 1024 - 2 ** 970, HUGE,
                     -(2 ** 1024 - 2 ** 971), -(2 ** 1024 - 2 ** 970)]),
    st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from([json.loads(word)
                     for word in ("NaN", "Infinity", "-Infinity")]))

#: An integer beyond double range in each kind of float field, and the
#: refusal as not finite, without its digits, under its field path.
HUGE_CASES = [
    ("h", [0.5, HUGE], f"h[1]: {BEYOND}"),
    ("p", [-HUGE, 0.5], f"p[0]: {BEYOND}"),
    ("kernel_a", {"type": "separable_exponential", "coef": HUGE,
                  "row_rate": 1.0, "col_rate": 2.0},
     f"kernel_a.coef: {BEYOND}"),
    ("kernel_b", {"type": "separable_exponential", "coef": 1.0,
                  "row_rate": 2.0, "col_rate": -HUGE},
     f"kernel_b.col_rate: {BEYOND}"),
    ("kernel_a", {"type": "finite_lag", "weights": [[0.5], [HUGE]]},
     f"kernel_a.weights[1][0]: {BEYOND}"),
    ("f", {"kind": "cos", "amplitude": HUGE, "frequency": 1.0},
     f"f.amplitude: {BEYOND}"),
    ("g", {"kind": "cos", "amplitude": 1.0, "frequency": -HUGE},
     f"g.frequency: {BEYOND}"),
    ("c1", HUGE, f"c1: {BEYOND}"),
    ("c2", -HUGE, f"c2: {BEYOND}"),
    ("history", {"window": [[0.0, 0.0], [0.5, HUGE]]},
     f"history.window[1][1]: {BEYOND}"),
    ("history", {"tail": {"x": 0.0, "y": HUGE}},
     f"history.tail.y: {BEYOND}"),
    ("solver", {"tol": HUGE}, f"solver.tol: {BEYOND}"),
    ("solver", {"residual_tol": HUGE}, f"solver.residual_tol: {BEYOND}"),
    ("solver", {"damping": -HUGE}, f"solver.damping: {BEYOND}"),
    ("solver", {"initial_guess": {"x": [0.0, 0.0], "y": [0.0, -HUGE]}},
     f"solver.initial_guess.y[1]: {BEYOND}"),
    ("truncation", {"tail_tol": HUGE}, f"truncation.tail_tol: {BEYOND}"),
    ("horizon", HUGE, f"horizon: {BEYOND}"),
    ("horizon", -HUGE, f"horizon: {BEYOND}"),
]

WEIGHT_BOUND_DEMO1 = 3.163953413738653  # 2 * e / (e - 1), frozen from the oracle
TAIL_MASS_A = 2.502650301077119
TAIL_MASS_B = 1.8295839719133922


@pytest.mark.parametrize("build", [
    lambda: PeriodicSequence(1, (10 ** 400,)),
    lambda: FiniteLag(((10 ** 400,),)),
    lambda: History(((10 ** 400, 0.0),)),
    lambda: History(((0.0, 0.0),), (0.0, -10 ** 400)),
    lambda: Nonlinearity("sin", 10 ** 400, 1.0),
    lambda: SeparableExponential(10 ** 400, 1.0, 2.0),
], ids=["sequence", "finite-lag", "history", "history-tail", "nonlinearity",
        "separable"])
def test_value_objects_refuse_integers_beyond_double_range(build):
    """A library caller that catches ValueError for bad input catches an
    integer too large for a double too, refused as not finite."""
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: PeriodicSequence(True, (0.5,)), "period: expected an integer"),
    (lambda: PeriodicSequence(1, ("0.5",)),
     "[0]: expected a number, got '0.5'"),
    (lambda: SeparableExponential(True, 1.0, 1.0),
     "coef: expected a number, got True"),
    (lambda: Nonlinearity("sin", "1", 1.0),
     "amplitude: expected a number, got '1'"),
    (lambda: TruncationPolicy(tail_tol="1e-10"),
     "tail_tol: expected a number, got '1e-10'"),
    (lambda: SolverOptions(damping="0.5"),
     "damping: expected a number, got '0.5'"),
    (lambda: History(((0.0, 0.0),), (1.0,)),
     "tail: expected None or a pair (x, y)"),
    (lambda: History(((0.0, 0.0, 0.0),)),
     "window[0]: expected a pair [x, y]"),
    (lambda: History(({0.0, 1.0},)), "window[0]: expected a pair [x, y]"),
    (lambda: History(({0.0: 1.0, 1.0: 0.0},)),
     "window[0]: expected a pair [x, y]"),
    (lambda: FiniteLag(((0.5,), (math.inf,))),
     "weights[1][0]: must be finite, got inf"),
], ids=["period-bool", "sequence-string", "coef-bool", "amplitude-string",
        "tail_tol-string", "damping-string", "tail-single", "window-triple",
        "window-set", "window-dict", "weight-inf"])
def test_value_objects_refuse_naming_the_field(build, message):
    """A value object refuses a bad field itself, as a ConfigError that
    names the field relative to the object and the rule it breaks."""
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value) == message
    assert f"{info.value.field}: {info.value.rule}" == message


def test_value_objects_take_numpy_scalars():
    one, two, half = np.int64(1), np.int64(2), np.float64(0.5)
    assert PeriodicSequence(two, (half, one)).values == (0.5, 1.0)
    assert PeriodicSequence(two, np.array([0.5, 1.0])).period == 2
    assert SeparableExponential(half, two, half) == SeparableExponential(
        0.5, 2.0, 0.5)
    assert FiniteLag(((half, one),)).weights == ((0.5, 1.0),)
    assert History(((half, one),), (two, half)) == History(((0.5, 1.0),),
                                                           (2.0, 0.5))
    assert Nonlinearity("sin", half, two)(1.0) == Nonlinearity(
        "sin", 0.5, 2.0)(1.0)
    assert TruncationPolicy(np.float64(1e-9), two) == TruncationPolicy(1e-9, 2)
    assert SolverOptions(np.float64(1e-9), np.float64(1e-8), two,
                         half) == SolverOptions(1e-9, 1e-8, 2, 0.5)


#: (section of configs/example1.json, its new keys, and the path the
#: config puts before the value object's refusal).
CROSS_CASES = [
    ("kernel_a", {"coef": "a"}, "kernel_a."),
    ("kernel_a", {"row_rate": 0.0}, "kernel_a."),
    ("kernel_a", {"col_rate": math.inf}, "kernel_a."),
    ("kernel_a", {"coef": HUGE}, "kernel_a."),
    ("kernel_a", {"type": "finite_lag", "weights": [[0.5], [math.inf]]},
     "kernel_a."),
    ("kernel_a", {"type": "finite_lag", "weights": [[0.5, 0.1], [0.2]]},
     "kernel_a."),
    ("kernel_a", {"type": "finite_lag", "weights": []}, "kernel_a."),
    ("f", {"kind": "exp"}, "f."),
    ("f", {"amplitude": "1"}, "f."),
    ("f", {"frequency": True}, "f."),
    ("history", {"window": [[0.0, 0.0, 0.0]]}, "history."),
    ("history", {"window": [[0.0, 0.0], [0.0, "a"]]}, "history."),
    ("history", {"window": []}, "history."),
    ("history", {"tail": {"x": 0.0, "y": "a"}}, "history."),
    ("solver", {"tol": -1}, "solver."),
    ("solver", {"residual_tol": math.inf}, "solver."),
    ("solver", {"max_iter": 2.5}, "solver."),
    ("solver", {"max_iter": True}, "solver."),
    ("solver", {"max_iter": 0}, "solver."),
    ("solver", {"damping": 2}, "solver."),
    ("solver", {"damping": "0.5"}, "solver."),
    ("truncation", {"tail_tol": 0}, "truncation."),
    ("truncation", {"tail_tol": math.nan}, "truncation."),
    ("truncation", {"max_terms": 0}, "truncation."),
    ("truncation", {"max_terms": 1.5}, "truncation."),
    ("h", [0.5, "x"], "h"),
    ("h", [0.5, -HUGE], "h"),
    ("h", [0.5, 0.5, 0.5], "h: "),
]


def _library_object(section, obj, period):
    """The value object of a config section, built from the library."""
    if section == "h":
        return PeriodicSequence(period, obj)
    if section == "history":
        tail = obj.get("tail")
        return History(obj["window"], tail if tail in (None, "zero")
                       else (tail["x"], tail["y"]))
    if section == "kernel_a":
        obj = dict(obj)
        kind = obj.pop("type")
        return {"separable_exponential": SeparableExponential,
                "finite_lag": FiniteLag}[kind](**obj)
    return {"f": Nonlinearity, "solver": SolverOptions,
            "truncation": TruncationPolicy}[section](**obj)


@pytest.mark.parametrize("section, value, path", CROSS_CASES,
                         ids=[f"{case[0]}-{i}"
                              for i, case in enumerate(CROSS_CASES)])
def test_config_refuses_what_the_value_object_refuses(example1_path, section,
                                                      value, path):
    """Each bad field is refused once, by its value object: built from the
    library it reads "field: rule", and the same value in a config reads
    that refusal under the section's path."""
    config = json.loads(example1_path.read_text())
    if isinstance(value, dict) and "type" not in value:
        value = {**config[section], **value}
    if section == "history" and value.get("tail") == "zero":
        value["tail"] = None
    with pytest.raises(ConfigError) as library:
        _library_object(section, value, config["period"])
    config[section] = value
    with pytest.raises(ConfigError) as parsed:
        parse_scenario(config)
    assert str(parsed.value) == path + str(library.value)


class TestNonlinearity:
    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_integer_fields_give_the_float_bounds(self, kind):
        """The bounds read the fields as floats: integers give the bounds
        of their floats, and products beyond double range are infinite."""
        given, floats = Nonlinearity(kind, -2, 3), Nonlinearity(kind, -2.0, 3.0)
        assert repr(given) == f"Nonlinearity(kind={kind!r}, amplitude=-2, " \
                              "frequency=3)"
        for bound in ("bound", "lipschitz", "curvature", "monotone"):
            assert type(getattr(given, bound)) is type(getattr(floats, bound))
            assert getattr(given, bound) == getattr(floats, bound)
        huge = Nonlinearity(kind, 10 ** 200, 10 ** 200)
        assert huge.lipschitz == huge.curvature == math.inf

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
    def test_scalar_formula_equals_array_on_dense_grid(self, kind):
        # The scalar formula bound at construction against the array path
        # on a dense grid through the range where tanh saturates and sin
        # and cos turn, for Python floats, ints and np.float64 arguments,
        # called through the nonlinearity and directly as ``scalar``.
        for amplitude, frequency in [(1.7, 0.9), (-2, 3), (0.25, -40.0)]:
            f = Nonlinearity(kind, amplitude, frequency)
            x = np.linspace(-25.0, 25.0, 20001)
            values = f(x).tobytes()
            assert f.apply(x).tobytes() == values
            assert np.array([f(v) for v in x.tolist()]).tobytes() == values
            direct = [f.scalar(v) for v in x.tolist()]
            assert np.array(direct).tobytes() == values
            assert {type(v) for v in direct} == {float}
            assert np.array([f(v) for v in x]).tobytes() == values
            ints = np.arange(-2000, 2001)
            assert np.array([f(int(v)) for v in ints]).tobytes() \
                == f(ints.astype(float)).tobytes()
            assert np.array([f.scalar(int(v)) for v in ints]).tobytes() \
                == f.apply(ints.astype(float)).tobytes()
            assert {type(f(v)) for v in (1.5, 2, True, np.float64(0.5))} \
                == {float}

    def test_math_sin_and_cos_are_numpys(self):
        # The scalar sin and cos formulas call ``math``, their array
        # formulas numpy's ufuncs: the two agree bit for bit only where
        # numpy's float64 sin and cos are the C library's.  Random finite
        # bit patterns, signed zeros, subnormals, |x| up to the largest
        # double and the dense grid of the scalar tests.
        rng = np.random.default_rng(34)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        patterns = bits.view(np.float64)
        subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64)
        x = np.concatenate([
            patterns[np.isfinite(patterns)],
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
             np.finfo(float).max, -np.finfo(float).max],
            subnormal.view(np.float64), -subnormal.view(np.float64),
            rng.choice([-1.0, 1.0], 20_000)
            * 10.0 ** rng.uniform(-308, 308, 20_000),
            np.linspace(-25.0, 25.0, 20001)])
        for name in ("sin", "cos"):
            ours = np.array(list(map(getattr(math, name), x.tolist())))
            theirs = getattr(np, name)(x)
            wrong = np.flatnonzero(ours.view(np.uint64)
                                   != theirs.view(np.uint64))
            assert not len(wrong), (
                f"numpy {np.__version__}'s float64 {name} is not the C "
                f"library's: math.{name} differs from np.{name} at "
                f"{len(wrong)} of {len(x)} values, first at "
                f"x = {float(x[wrong[0]])!r}; the scalar formulas of "
                f"Nonlinearity would not give the array's bits")

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_scalar_formula_equals_array_where_k_x_is_not_finite(self, kind):
        # At +-inf and nan, and where k*x overflows, the scalar formula
        # raises nothing (math.sin and math.cos would raise at +-inf) and
        # gives the array's value bit for bit: nan for sin and cos.
        f = Nonlinearity(kind, -1.5, 3.0)
        x = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            values = f.apply(x)
            scalars = np.array([f.scalar(v) for v in x.tolist()])
        assert scalars.tobytes() == values.tobytes()
        if kind in ("sin", "cos"):
            assert np.isnan(scalars).all()

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_bound_formulas_equal_written_out_formulas(self, kind):
        # The value and slope formulas bound at construction against the
        # kind-by-kind formulas on float64 arrays, bit for bit, on the
        # dense grid of the scalar test.
        for amplitude, frequency in [(1.7, 0.9), (-2, 3), (0.25, -40.0)]:
            f = Nonlinearity(kind, amplitude, frequency)
            x = np.linspace(-25.0, 25.0, 20001)
            for method, reference in ((f, nonlinearity_reference),
                                      (f.slope, derivative_reference)):
                out = method(x)
                assert type(out) is np.ndarray and out.dtype == np.float64
                assert out.tobytes() == reference(f, x).tobytes()
                assert x.tobytes() == np.linspace(-25.0, 25.0, 20001).tobytes()

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_other_inputs_keep_values_and_types(self, kind):
        # Every input other than a float64 array is converted as before:
        # ints, lists, 0-d arrays, float32 arrays and numpy scalars give
        # the written-out formulas' values and return types.
        f = Nonlinearity(kind, -2, 3)
        inputs = [np.arange(-5, 6), [0.5, -1.25, 3], np.array(0.75),
                  np.array([[0.5, 2.0], [-1.0, 0.0]]),
                  np.linspace(-3, 3, 13, dtype=np.float32),
                  np.float64(0.5), np.float32(-1.5), np.int64(4),
                  [[1.0], [2.0]], (0.25,)]
        for x in inputs:
            out, expected = f(x), nonlinearity_reference(f, x)
            assert type(out) is type(expected)
            assert np.asarray(out).tobytes() == np.asarray(expected).tobytes()
            # slope takes the float64 array the input converts to
            assert f.slope(np.asarray(x, dtype=float)).tobytes() \
                == np.asarray(derivative_reference(f, x)).tobytes()

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_pickles_with_its_formulas(self, kind):
        f = Nonlinearity(kind, -2, 0.75)
        x = np.linspace(-4.0, 4.0, 101)
        for clone in pickle.loads(pickle.dumps(f)), copy.deepcopy(f):
            assert clone == f
            assert clone(x).tobytes() == f(x).tobytes()
            assert clone.slope(x).tobytes() == f.slope(x).tobytes()
            assert clone(0.5) == f(0.5)

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_public_bound_formulas_equal_call_and_derivative(self, kind):
        # ``apply`` and ``slope`` are the call and the written-out
        # derivative on a float64 array, slices included; they are not
        # fields.
        f = Nonlinearity(kind, -2, 0.75)
        z = np.linspace(-25.0, 25.0, 2001)
        for x in (z, z[1000:], z[:2], z[::7]):
            assert f.apply(x).tobytes() == f(x).tobytes()
            assert f.slope(x).tobytes() == derivative_reference(f, x).tobytes()
        clone = pickle.loads(pickle.dumps(f))
        assert clone.apply(z).tobytes() == f(z).tobytes()
        assert clone.slope(z).tobytes() == f.slope(z).tobytes()
        assert repr(f) == (f"Nonlinearity(kind={kind!r}, amplitude=-2, "
                           f"frequency=0.75)")

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
            slope = f.slope(x)
            assert np.allclose(slope, central, rtol=0.0, atol=1e-8)
            assert np.all(np.abs(slope) <= f.lipschitz)
        with np.errstate(over="ignore"):  # huge arguments stay finite
            assert np.all(np.isfinite(f.slope(np.array([1e200, -1e200]))))

    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_declared_curvature_holds_on_dense_sample(self, kind):
        """Central differences of ``slope`` stay within the declared
        curvature and, on a grid through the worst point, reach it."""
        rng = np.random.default_rng(10 + NONLINEARITY_KINDS.index(kind))
        for _ in range(3):
            f = Nonlinearity(kind, float(rng.uniform(-2, 2)),
                             float(rng.uniform(-2, 2)))
            x = np.concatenate([rng.uniform(-20, 20, 5000),
                                np.linspace(-3, 3, 200_001) / f.frequency])
            step = 1e-5
            central = (f.slope(x + step) - f.slope(x - step)) / (2.0 * step)
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


class TestEquations:
    def test_order_and_parts(self, example2_spec):
        spec = example2_spec
        (h, a, f), (p, b, g) = spec.equations
        assert all(part is field for part, field in zip(
            (h, a, f, p, b, g), (spec.h, spec.kernel_a, spec.f,
                                 spec.p, spec.kernel_b, spec.g)))

    def test_a_property_not_a_field(self, example1_spec, example2_spec):
        """equations adds nothing to the value: the fields, ==, hash,
        repr, pickling and dataclasses.replace read as before."""
        names = ["period", "h", "p", "kernel_a", "kernel_b", "f", "g"]
        assert [fld.name for fld in dataclasses.fields(SystemSpec)] == names
        spec = example2_spec
        twin = parse_system(spec_to_config(spec))
        assert twin == spec and hash(twin) == hash(spec)
        assert spec != example1_spec
        assert repr(spec) == "SystemSpec(" + ", ".join(
            f"{name}={getattr(spec, name)!r}" for name in names) + ")"
        assert "equations" not in repr(spec)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert dataclasses.replace(spec) == spec
        swapped = dataclasses.replace(spec, f=spec.g, g=spec.f)
        assert swapped.equations == ((spec.h, spec.kernel_a, spec.g),
                                     (spec.p, spec.kernel_b, spec.f))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.equations = ()


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

    def test_readme_library_block_runs(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        section = (root / "README.md").read_text().split("## Library", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        monkeypatch.chdir(root)
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["solve"].converged and namespace["cert"].passed
        assert len(namespace["traj"]) == 41
        assert max(max(pair) for pair in namespace["pairs"]) <= 1e-8

    def test_defaults_and_overrides(self, example1_path, example2_path):
        """Each setting has a default, and the document's value overrides
        it; there is no other way to set one."""
        bare = parse_scenario(spec_to_config(parse_system(
            example1_path.read_text())))
        assert (bare.c1, bare.c2, bare.horizon) == (1.0, 1.0, None)
        assert bare.history == History.zero()
        assert bare.policy == TruncationPolicy()
        assert bare.solver == SolverOptions()
        config = json.loads(example2_path.read_text())
        config.update(solver={"tol": 1e-9}, truncation={"tail_tol": 1e-8},
                      c1=0.5, c2=2, horizon=30)
        written = parse_scenario(config)
        assert written.solver == SolverOptions(tol=1e-9)
        assert written.policy == TruncationPolicy(tail_tol=1e-8)
        assert (written.c1, written.c2, written.horizon) == (0.5, 2.0, 30)
        assert list(inspect.signature(parse_scenario).parameters) == [
            "config"]

    @pytest.mark.parametrize("key, value, field", [
        ("solver", {"tol": math.inf}, "solver.tol: must be finite"),
        ("solver", {"max_iter": 1.5}, "solver.max_iter: expected an integer"),
        ("truncation", {"max_terms": "all"},
         "truncation.max_terms: expected an integer"),
        ("history", [], "history: expected an object"),
        ("solver", {"tol": -1}, "solver.tol: must be positive, got -1.0"),
        ("solver", {"residual_tol": 0},
         "solver.residual_tol: must be positive, got 0.0"),
        ("solver", {"max_iter": 0},
         "solver.max_iter: must be at least 1, got 0"),
        ("solver", {"damping": 2},
         "solver.damping: must be in (0, 1], got 2.0"),
        ("truncation", {"tail_tol": 0},
         "truncation.tail_tol: must be positive, got 0.0"),
        ("truncation", {"max_terms": 0},
         "truncation.max_terms: must be at least 1, got 0"),
        ("horizon", 3, "horizon: must be at least 4 periods (8), got 3"),
        ("horizon", -5, "horizon: must be at least 4 periods (8), got -5"),
        ("c2", -math.inf, "c2: must be finite"),
        ("horizon", 2.5, "horizon: expected an integer"),
        ("truncation", {"tail_tol": math.nan},
         "truncation.tail_tol: must be finite"),
    ] + [pytest.param(*case, id=case[2].split(":")[0] + "-huge")
          for case in HUGE_CASES])
    def test_field_errors_keep_their_path(self, example2_path, key, value,
                                          field):
        config = json.loads(example2_path.read_text())
        config[key] = value
        with pytest.raises(ConfigError) as info:
            parse_scenario(config)
        assert str(info.value).startswith(field)
        assert "9" * 20 not in str(info.value)

    @pytest.mark.parametrize("max_terms", [1, 100_000])
    def test_horizon_is_one_numpy_can_size(self, example2_path, max_terms):
        """The largest horizon whose window of both components, N + 1
        entries each with N up to H + max_terms, numpy can size as one
        float64 array parses; one more is refused under its field."""
        config = json.loads(example2_path.read_text())
        config["truncation"] = {"max_terms": max_terms}
        most = max_horizon(TruncationPolicy(max_terms=max_terms))
        assert 16 * (most + max_terms + 1) <= np.iinfo(np.intp).max
        assert 16 * (most + max_terms + 2) > np.iinfo(np.intp).max
        config["horizon"] = most
        assert parse_scenario(config).horizon == most
        for horizon in (most + 1, 10 ** 20, 2 ** 63):
            config["horizon"] = horizon
            with pytest.raises(ConfigError, match=(
                    f"^horizon: must be at most {most}, the largest window "
                    f"numpy can size, got {horizon}$")):
                parse_scenario(config)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(JSON_ENTRIES, min_size=1, max_size=6),
           where=st.sampled_from(["h", "weights", "window"]))
    def test_lists_match_the_per_entry_reference(self, example2_path,
                                                 entries, where):
        """A list of numbers gives the floats of the per-entry reference,
        or its error message: for h, for a finite-lag weight row (the
        second) and for a history window, whose pairs the drawn entries
        fill in turn (an odd last one paired with 0.0)."""
        config = json.loads(example2_path.read_text())
        width = len(entries)
        if where == "h":
            config.update(period=width, h=entries, p=[0.0] * width)
            path, want = "h", finite_floats_reference(entries, "h")
        elif where == "weights":
            config["kernel_a"] = {"type": "finite_lag",
                                  "weights": [[0.0] * width, entries]}
            path = "kernel_a.weights[1]"
            want = finite_floats_reference(entries, path)
        else:
            pairs = [[*entries[j:j + 2], 0.0][:2]
                     for j in range(0, width, 2)]
            config["history"] = {"window": pairs}
            want = ()
            for j, pair in enumerate(pairs):
                checked = finite_floats_reference(
                    pair, f"history.window[{j}]")
                if isinstance(checked, str):
                    want = checked
                    break
                want += (checked,)
        # the document as json.loads gives it: NaN and Infinity as floats
        config = json.loads(json.dumps(config))
        try:
            scenario = parse_scenario(config)
        except ConfigError as exc:
            assert str(exc) == want
            return
        got = {"h": lambda: scenario.spec.h.values,
               "weights": lambda: scenario.spec.kernel_a.weights[1],
               "window": lambda: scenario.history.window}[where]()
        assert repr(got) == repr(want)


    @pytest.mark.parametrize("path, value, field", [pytest.param(
        *case, id=case[2]) for case in [
        (("tol",), 1e-9, "tol"),
        (("solver", "residual_tl"), 1e-8, "solver.residual_tl"),
        (("solver", "initial_guess"),
         {"x": [0.0, 0.0], "y": [0.0, 0.0], "z": [0.0, 0.0]},
         "solver.initial_guess.z"),
        (("truncation", "tail"), 1e-9, "truncation.tail"),
        (("history", "depth"), 3, "history.depth"),
        (("history", "tail"), {"x": 0.0, "y": 0.0, "z": 0.0},
         "history.tail.z"),
        (("kernel_a", "colrate"), 2.0, "kernel_a.colrate"),
        (("kernel_b",), {"type": "finite_lag", "weights": [[0.1]],
                         "coef": 1.0}, "kernel_b.coef"),
        (("f", "freq"), 1.0, "f.freq"),
        (("g", "phase"), 0.0, "g.phase"),
    ]])
    def test_unknown_field_is_refused_by_its_path(self, example2_path, path,
                                                  value, field):
        """Each object takes only its own keys: a misspelt or removed one
        is an error under its field path, not a silent default."""
        config = json.loads(example2_path.read_text())
        obj = config
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        with pytest.raises(ConfigError) as info:
            parse_scenario(config)
        assert str(info.value) == f"{field}: unknown field"


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


class TestIndexGatherWindows:
    """running_products and the periodic weight bound gather their windows
    by one index table; both equal the strided-window versions bit for bit."""

    @staticmethod
    def sequences(period):
        rng = np.random.default_rng(period)
        values = rng.uniform(-0.9, 1.5, period)
        yield PeriodicSequence(period, tuple(float(v) for v in values))
        values[(period - 1) // 2] = -1.0  # a zero factor
        yield PeriodicSequence(period, tuple(float(v) for v in values))

    @pytest.mark.parametrize("period", [1, 2, 3, 7, 16, 64])
    def test_running_products(self, period):
        for seq in self.sequences(period):
            prods = running_products(seq)
            assert prods.shape == (period, period)
            assert prods.tobytes() \
                == running_products_reference(seq).tobytes()

    @pytest.mark.parametrize("period", [1, 2, 3, 7, 16, 64])
    def test_weight_bound(self, period):
        rng = np.random.default_rng(100 + period)
        kernels = [SeparableExponential(-0.7, 0.3, 0.3),
                   SeparableExponential(1.3, 0.05, 0.05),
                   FiniteLag(tuple(tuple(rng.uniform(-1, 1, 3))
                                   for _ in range(period))),
                   FiniteLag(((0.5, -0.25, 0.125, 2.0),))]
        for seq in self.sequences(period):
            for kernel in kernels:
                for gain in (1.0, -3.7):
                    got = _weight_bound(gain, seq, kernel)
                    assert type(got) is float
                    assert got == weight_bound_reference(gain, seq, kernel)
