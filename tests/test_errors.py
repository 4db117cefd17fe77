import dataclasses
import math
import re

import numpy as np
import pytest

from copulaproc import (CopulaModel, ExperimentConfig, GaussianScale, LognormalMixing,
                        Pareto, ScaleMixtureGaussian, TimeGrid, check_assumption,
                        check_moment_condition, constant_K, gaussian_minorant_params,
                        make_uniform_grid, sample_archimedean_clayton)
from copulaproc.errors import InvalidArgumentError, check_float, check_int
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
    (lambda: ScaleMixtureGaussian(LognormalMixing(), n_quad=2.5), "n_quad"),
    (lambda: check_assumption(GaussianScale(1.0), dataclasses.replace(
        _PARAMS, center=lambda t: math.nan), _GRID), "center(1.0)"),
    (lambda: constant_K(dataclasses.replace(_PARAMS, halfwidth=lambda t: math.nan),
                        GaussianScale(1.0), _GRID), "halfwidth(1.0)"),
], ids=["pareto_bool", "pareto_str", "rho_bool", "clayton_bool", "moment_bool",
        "experiment_str", "grid_str", "time_grid_bool", "mixing_str", "model_str",
        "index_float", "index_2_64", "n_quad_float", "center_nan", "halfwidth_nan"])
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
