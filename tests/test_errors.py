import dataclasses
import math
import re

import numpy as np
import pytest

from copulaproc import (CopulaModel, Empirical, ExperimentConfig, GaussianScale,
                        LognormalMixing, Pareto, ProcessEnsemble, TimeGrid,
                        check_assumption, check_moment_condition, constant_K,
                        gaussian_minorant_params, make_uniform_grid,
                        sample_archimedean_clayton, wasserstein1d_empirical)
from copulaproc.errors import InvalidArgumentError, check_array, check_float, check_int
from copulaproc.rng import path_generator
from copulaproc.robustness import rho


@pytest.mark.parametrize("value, lo, hi", [
    (3, 1, None), (np.int64(3), 1, None), (np.uint64(2**64 - 1), 0, 2**64 - 1),
    (np.int8(-2), -2, -2), (0, 0, 0)])
def test_check_int_returns_a_python_int(value, lo, hi):
    got = check_int(value, "k", lo, hi)
    assert type(got) is int and got == int(value)


@pytest.mark.parametrize("value, lo, hi, span", [
    (True, 0, None, ">= 0"), (False, 0, None, ">= 0"), (np.True_, 0, None, ">= 0"),
    (2.0, 1, None, ">= 1"), (np.float64(2.0), 1, None, ">= 1"), ("2", 1, None, ">= 1"),
    (None, 1, None, ">= 1"), (0, 1, None, ">= 1"), (5, 1, 4, "in [1, 4]"),
    (np.uint64(5), 6, None, ">= 6"), (2**64, 0, 2**64 - 1, f"in [0, {2**64 - 1}]")])
def test_check_int_names_the_argument_and_its_range(value, lo, hi, span):
    with pytest.raises(InvalidArgumentError) as info:
        check_int(value, "the_key", lo, hi)
    assert str(info.value) == f"the_key must be an integer {span}, got {value!r}"


@pytest.mark.parametrize("value, bounds", [
    (3, {}), (-2.5, {}), (np.float32(0.25), {}), (np.float64(-1e300), {}),
    (np.int64(7), {}), (0.0, {"lo": 0.0}), (1, {"lo": 0.0, "hi": 1.0}),
    (0.5, {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True})])
def test_check_float_returns_a_python_float(value, bounds):
    got = check_float(value, "x", **bounds)
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value, bounds, span", [
    (True, {"lo": 0.0, "lo_open": True}, " > 0"), (np.True_, {}, ""),
    ("1.5", {}, ""), (None, {}, ""), (math.nan, {}, ""), (math.inf, {}, ""),
    (-math.inf, {"hi": 1.0}, " <= 1"), (np.array(1.0), {}, ""), (10**400, {}, ""),
    (0.0, {"lo": 0.0, "lo_open": True}, " > 0"), (-0.5, {"lo": 0.0}, " >= 0"),
    (1.0, {"hi": 1.0, "hi_open": True}, " < 1"), (1.5, {"hi": 1.0}, " <= 1"),
    (1.0, {"lo": 0.0, "hi": 1.0, "hi_open": True}, " in [0, 1)"),
    (0.0, {"lo": 0.0, "hi": 1.0, "lo_open": True}, " in (0, 1]"),
    (2.0, {"lo": 0.0, "hi": 1.0}, " in [0, 1]"),
    (np.float32(0.5), {"lo": 0.5, "hi": 2.0, "lo_open": True, "hi_open": True},
     " in (0.5, 2)")])
def test_check_float_names_the_argument_and_its_range(value, bounds, span):
    with pytest.raises(InvalidArgumentError) as info:
        check_float(value, "the_key", **bounds)
    assert str(info.value) == f"the_key must be a finite number{span}, got {value!r}"


@pytest.mark.parametrize("values, bounds", [
    ([], {"lo": 0.0, "hi": 1.0}), (np.empty((0, 3)), {"lo": 0.0, "lo_open": True}),
    (0.5, {"lo": 0.0, "hi": 1.0}), ([0.0, 1.0], {"lo": 0.0, "hi": 1.0}),
    ([[-1e300, 2], [3, 1e300]], {}), ((0, 2), {"lo": 0.0, "hi": 2.0}),
    (np.arange(4, dtype=np.int8), {"lo": 0.0, "hi": 3.0}),
    (np.float32([0.5, 1.5]), {"lo": 0.5, "hi": 2.0, "hi_open": True})])
def test_check_array_returns_a_float64_array(values, bounds):
    got = check_array(values, "x", **bounds)
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert np.array_equal(got, np.asarray(values, dtype=float))


def test_check_array_returns_a_float64_array_as_is():
    values = np.linspace(0.0, 1.0, 5)
    assert check_array(values, "x", 0.0, 1.0) is values


@pytest.mark.parametrize("values, bounds, message", [
    ([0.5, math.nan], {"lo": 0.0, "hi": 1.0},
     "every entry of x must be a finite number in [0, 1], got nan"),
    ([math.nan, 2.0], {}, "every entry of x must be a finite number, got nan"),
    ([1.0, math.inf], {}, "every entry of x must be a finite number, got inf"),
    ([-math.inf, 1.0], {"hi": 2.0}, "every entry of x must be a finite number <= 2, got -inf"),
    ([1.0, math.inf], {"lo": 0.0}, "every entry of x must be a finite number >= 0, got inf"),
    ([[0.5, -0.25], [0.0, 0.75]], {"lo": 0.0, "hi": 1.0},
     "every entry of x must be a finite number in [0, 1], got -0.25"),
    ([0.5, 1.5], {"lo": 0.0, "hi": 1.0},
     "every entry of x must be a finite number in [0, 1], got 1.5"),
    ([0.0, 0.5], {"lo": 0.0, "lo_open": True},
     "every entry of x must be a finite number > 0, got 0.0"),
    ([0.5, 1.0], {"lo": 0.0, "hi": 1.0, "hi_open": True},
     "every entry of x must be a finite number in [0, 1), got 1.0"),
    (2.0, {"hi": 1.0}, "every entry of x must be a finite number <= 1, got 2.0"),
    ("abc", {}, "x must hold numbers, got 'abc'"),
    (["0.5", "a"], {"lo": 0.0, "hi": 1.0}, "x must hold numbers, got ['0.5', 'a']"),
    (np.array(["b"]), {}, "x must hold numbers, got array(['b'], dtype='<U1')"),
    ([[1.0, 2.0], [3.0]], {}, "x must hold numbers, got [[1.0, 2.0], [3.0]]"),
    ([None, 1.0], {}, "every entry of x must be a finite number, got nan"),
    (1 + 2j, {}, "x must hold numbers, got (1+2j)"),
    ([10**400], {}, "x must hold numbers, got [100000000000000000...0000000000000000000]"),
    (["0.5"], {}, "x must hold numbers, got ['0.5']"),
    (np.array([b"1"]), {}, "x must hold numbers, got array([b'1'], dtype='|S1')"),
    ([True, 2], {}, "x must hold numbers, got [True, 2]"),
    ([[0.5], [np.True_]], {}, "x must hold numbers, got [[0.5], [np.True_]]"),
    (np.array([True, False]), {}, "x must hold numbers, got array([ True, False])"),
    (False, {}, "x must hold numbers, got False"),
], ids=["nan_bounded", "nan", "inf", "minus_inf", "inf_half_bounded", "below",
        "above", "lo_open", "hi_open", "scalar", "string", "string_list", "string_array",
        "ragged", "none", "complex", "int_overflow", "numeric_string_list", "bytes_array",
        "bool_in_int_list", "nested_numpy_bool", "bool_array", "bool_scalar"])
def test_check_array_names_the_argument_the_entry_and_the_range(values, bounds, message):
    with pytest.raises(InvalidArgumentError) as info:
        check_array(values, "x", **bounds)
    assert str(info.value) == message


_GRID = make_uniform_grid(1.0, 2.0, 3)
_PARAMS = gaussian_minorant_params(GaussianScale(1.0), _GRID)


#: calls that used to pass a bool, a string, a non-integer or a NaN through,
#: or to raise a bare TypeError or OverflowError, and the argument each must
#: name; a NaN window used to leave monotonicity unchecked and K without its
#: window term
@pytest.mark.parametrize("call, name", [
    (lambda: Pareto(True, 4.0), "x_min"),
    (lambda: Pareto("2", 4.0), "x_min"),
    (lambda: rho(1, True, 2.0, 0.5), "epsilon"),
    (lambda: sample_archimedean_clayton(_GRID, True, 2, 1), "theta"),
    (lambda: check_moment_condition(GaussianScale(1.0), _GRID, True), "p"),
    (lambda: ExperimentConfig(gamma="1"), "gamma"),
    (lambda: make_uniform_grid("0", 1.0, 3), "a"),
    (lambda: TimeGrid(True, 2.0, np.array([1.0, 2.0]), np.array([0.5, 0.5])), "a"),
    (lambda: LognormalMixing("0", 0.5), "mu"),
    (lambda: CopulaModel("clayton", theta="1"), "theta"),
    (lambda: path_generator(1, 1.5), "index"),
    (lambda: path_generator(1, 2**64), "index"),
    (lambda: check_assumption(GaussianScale(1.0), dataclasses.replace(
        _PARAMS, center=lambda t: math.nan), _GRID), "center(1.0)"),
    (lambda: constant_K(dataclasses.replace(_PARAMS, halfwidth=lambda t: math.nan),
                        GaussianScale(1.0), _GRID), "halfwidth(1.0)"),
], ids=["pareto_bool", "pareto_str", "rho_bool", "clayton_bool", "moment_bool",
        "experiment_str", "grid_str", "time_grid_bool", "mixing_str", "model_str",
        "index_float", "index_2_64", "center_nan", "halfwidth_nan"])
def test_library_refuses_bad_numbers(call, name):
    with pytest.raises(InvalidArgumentError, match=rf"^{re.escape(name)} must be "):
        call()


def test_a_constant_is_refused_at_construction_and_a_callable_at_evaluation():
    with pytest.raises(InvalidArgumentError,
                       match=r"^sigma must be a finite number >= 0, got -1.0$"):
        GaussianScale(-1.0)
    family = GaussianScale(lambda t: 1.0 - t)  # negative after t = 1
    assert family.quantile(0.5, 0.5) == 0.0
    with pytest.raises(InvalidArgumentError,
                       match=r"^sigma must be a finite number >= 0, got -0.5 at t=1.5$"):
        family.quantile(1.5, 0.5)


_EMPIRICAL = Empirical(_GRID, np.arange(12.0).reshape(3, 4))


#: array arguments that used to pass a NaN through as a value (NaN, 0.0 or
#: 1.0 from distributional_transform), to raise numpy's bare ValueError on
#: a string or to read a numeric string or a bool as a number, and the
#: message each must start with
@pytest.mark.parametrize("call, message", [
    (lambda: GaussianScale(1.0).distributional_transform(1.0, math.nan, 0.5),
     "distributional_transform x argument must hold numbers other than NaN"),
    (lambda: Pareto(1.0, 3.0).distributional_transform(1.0, [2.0, math.nan], [0.5, 0.5]),
     "distributional_transform x argument must hold numbers other than NaN"),
    (lambda: _EMPIRICAL.distributional_transform(1.5, [math.nan], [0.5]),
     "distributional_transform x argument must hold numbers other than NaN"),
    (lambda: _EMPIRICAL.distributional_transform(1.5, ["a"], [0.5]),
     "distributional_transform x argument must hold numbers other than NaN"),
    (lambda: Pareto(1.0, 3.0).cdf(1.0, "abc"), "cdf argument must hold numbers other than NaN"),
    (lambda: GaussianScale(1.0).quantile(1.0, ["0.5", "x"]), "u must hold numbers, got "),
    (lambda: ProcessEnsemble(_GRID, [["a", "b", "c"]]), "process paths must hold numbers, got "),
    (lambda: wasserstein1d_empirical(["a"], [1.0], 1), "samples_a must hold numbers, got "),
    (lambda: wasserstein1d_empirical([1.0], [math.nan], 1),
     "every entry of samples_b must be a finite number, got nan"),
    (lambda: GaussianScale(1.0).quantile(0.0, ["0.5"]), "u must hold numbers, got "),
    (lambda: GaussianScale(1.0).cdf(0.0, ["0.5"]),
     "cdf argument must hold numbers other than NaN"),
    (lambda: GaussianScale(1.0).pdf(0.0, [True, 2.0]),
     "pdf argument must hold numbers other than NaN"),
    (lambda: Empirical(make_uniform_grid(1.0, 2.0, 2), [["1", "2"], ["3", "4"]]),
     "samples must hold numbers, got "),
], ids=["gaussian_transform_nan", "pareto_transform_nan", "empirical_transform_nan",
        "empirical_transform_str", "pareto_cdf_str", "quantile_str", "process_str",
        "wasserstein_str", "wasserstein_nan", "quantile_numeric_str", "cdf_numeric_str",
        "pdf_bool", "empirical_numeric_str"])
def test_library_refuses_bad_arrays(call, message):
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}"):
        call()


def test_family_evaluation_points_may_be_infinite():
    family = GaussianScale(1.0)
    assert family.cdf(1.0, [-math.inf, math.inf]).tolist() == [0.0, 1.0]
    assert family.distributional_transform(1.0, math.inf, 0.5) == 1.0
