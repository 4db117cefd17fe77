import gc
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from copulaproc import (Empirical, GaussianScale, LognormalMixing, NumericFailureError,
                        Pareto, ScaleMixtureGaussian, Uniform, check_moment_condition,
                        make_uniform_grid, pathspace_wasserstein_same_copula)
from copulaproc import _quadrature
from copulaproc._quadrature import (adaptive_unit_integral, graded_midpoint_nodes,
                                    per_time_integrals, step_gap_integral)
from copulaproc.robustness import _ROBUST_DELTA
from copulaproc.sklar import _MOMENT_DELTA
from copulaproc.transport import _TRANSPORT_DELTA

POINTS = np.array([0.0, 0.5, 1.0])


def _counting(rule):
    calls = []

    def counted(f, delta):
        calls.append(f)
        return rule(f, delta)

    return counted, calls


def test_invariant_integrand_is_integrated_once():
    rule, calls = _counting(lambda f, delta: 2.0)
    per_t = per_time_integrals(POINTS, lambda t: rule(t, 1e-9), True)
    assert calls == [0.0]
    assert np.array_equal(per_t, [2.0, 2.0, 2.0])


def test_varying_integrand_is_integrated_at_every_time():
    rule, calls = _counting(lambda f, delta: f + 1.0)
    per_t = per_time_integrals(POINTS, lambda t: rule(t, 1e-9), False)
    assert calls == list(POINTS)
    assert np.array_equal(per_t, POINTS + 1.0)


def test_first_divergent_time_stops_the_loop():
    rule, calls = _counting(lambda f, delta: np.inf if f >= 0.5 else f)
    assert per_time_integrals(POINTS, lambda t: rule(t, 1e-9), False) is None
    assert calls == [0.0, 0.5]
    rule, calls = _counting(lambda f, delta: np.inf)
    assert per_time_integrals(POINTS, lambda t: rule(t, 1e-9), True) is None
    assert calls == [0.0]


def _fresh_nodes(delta, n_nodes):
    """The node rule built from scratch, as before the ladder was kept."""
    y_max = 0.5 * np.log((1.0 - delta) / delta)
    h = 2.0 * y_max / n_nodes
    y = -y_max + (np.arange(n_nodes) + 0.5) * h
    u = expit(2.0 * y)
    cu = expit(-2.0 * y)
    return u, cu, 2.0 * h * u * cu


@pytest.mark.parametrize("delta", [_TRANSPORT_DELTA, _MOMENT_DELTA, _ROBUST_DELTA])
def test_cached_nodes_equal_a_fresh_build_bitwise(delta):
    for n in (4096, 8192, 2**18):
        fresh = _fresh_nodes(delta, n)
        for _ in range(2):  # the first call builds, the second reads the ladder
            for got, want in zip(graded_midpoint_nodes(delta, n), fresh):
                assert np.array_equal(got, want)


def test_cached_nodes_are_read_only():
    mean = adaptive_unit_integral(lambda u, cu: u, _TRANSPORT_DELTA)
    u, cu, w = graded_midpoint_nodes(_TRANSPORT_DELTA, 4096)
    with pytest.raises(ValueError):
        u[0] = 0.5
    with pytest.raises(ValueError):
        cu *= 2.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    # the nodes and weights lie on immutable bytes, so not even their owner
    # can make them writable again and refill them
    for arr in (u, cu, w):
        with pytest.raises(ValueError):
            arr.setflags(write=True)

    def corrupting(u, cu):
        u *= 0.5
        return u

    with pytest.raises(ValueError):
        adaptive_unit_integral(corrupting, _TRANSPORT_DELTA)
    assert np.array_equal(graded_midpoint_nodes(_TRANSPORT_DELTA, 4096)[0],
                          _fresh_nodes(_TRANSPORT_DELTA, 4096)[0])
    assert adaptive_unit_integral(lambda u, cu: u, _TRANSPORT_DELTA) == mean

    # a quantile against a step receives the interior step nodes and the
    # end nodes, and can make neither writable
    seen = []

    def spy(u, cu):
        seen.append((u, cu))
        return u.copy()

    levels = np.array([0.25, 0.5, 0.75])
    step_gap_integral(levels, np.array([0.1, 0.4, 0.6, 0.9]), spy, lambda x: x, 1.0,
                      _TRANSPORT_DELTA)
    interior, ends = seen[0], seen[-1]
    assert interior[0].size == 2 * 8 + 3 and ends[0].size >= 2 * 4096
    for arr in (*interior, *ends):
        with pytest.raises(ValueError):
            arr.setflags(write=True)


def test_a_new_delta_drops_the_old_ladder():
    u = graded_midpoint_nodes(_MOMENT_DELTA, 4096)[0]
    assert graded_midpoint_nodes(_MOMENT_DELTA, 4096)[0] is u
    kept = weakref.ref(u)
    del u
    graded_midpoint_nodes(_ROBUST_DELTA, 4096)
    gc.collect()
    assert kept() is None
    assert set(_quadrature._ladder(_ROBUST_DELTA)) == {4096}


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_an_end_growing_past_the_exponent_is_divergent(end):
    # h ~ s**(-kappa) at one end: kappa = 0.95 lies past log2(1.9) ~ 0.926,
    # kappa = 0.9 below it and keeps its finite value
    def power(kappa):
        return (lambda u, cu: u ** -kappa) if end == "lower" else (lambda u, cu: cu ** -kappa)

    assert adaptive_unit_integral(power(0.95), _MOMENT_DELTA) == np.inf
    finite = adaptive_unit_integral(power(0.9), _MOMENT_DELTA)
    exact = 10.0 * ((1.0 - _MOMENT_DELTA) ** 0.1 - _MOMENT_DELTA ** 0.1)
    assert_allclose(finite, exact, rtol=1e-5)


def test_bounded_and_vanishing_ends_are_never_divergent():
    u, cu, _ = graded_midpoint_nodes(_MOMENT_DELTA, 4096)
    for vals in (np.ones_like(u), 0.0 * u, np.minimum(u, 0.5), cu * u):
        assert not _quadrature._divergent_ends(u, cu, vals).any()
    assert adaptive_unit_integral(lambda u, cu: 0.0 * u, _MOMENT_DELTA) == 0.0
    assert_allclose(adaptive_unit_integral(lambda u, cu: np.ones_like(u), _MOMENT_DELTA),
                    1.0 - 2.0 * _MOMENT_DELTA, rtol=1e-12)


def test_a_zero_crossing_next_to_the_end_node_is_not_divergent():
    # |log(u / (3.5 u_0))| falls by more than 1.9 from s_0 to s_k, but the
    # bulk beyond s_k rises far above it
    u, cu, _ = graded_midpoint_nodes(_MOMENT_DELTA, 4096)
    assert not _quadrature._divergent_ends(u, cu, np.abs(np.log(u / (3.5 * u[0])))).any()


def test_a_divergent_end_needs_a_tail_diverging_at_the_same_end():
    # (values, tails): the values' verdict at an end stands only where one
    # of the tails reads divergent at that end too
    def rule(*tails):
        return adaptive_unit_integral(
            lambda u, cu: (u ** -0.95, [tail(u, cu) for tail in tails]), _MOMENT_DELTA)

    def ones(u, cu):
        return np.ones_like(u)

    assert adaptive_unit_integral(lambda u, cu: u ** -0.95, _MOMENT_DELTA) == np.inf
    assert rule(ones, lambda u, cu: u ** -0.95) == np.inf
    exact = 20.0 * ((1.0 - _MOMENT_DELTA) ** 0.05 - _MOMENT_DELTA ** 0.05)
    for finite in (rule(ones), rule(lambda u, cu: cu ** -0.95)):
        assert_allclose(finite, exact, rtol=1e-5)


def test_an_overflowing_end_is_divergent_and_nan_still_raises():
    # +inf at the end node and at s_k alike, where the ratio test alone
    # (inf > 1.9 * inf) is false
    def overflowing(u, cu):
        return np.where(cu < 1e-6, np.inf, 1.0)

    assert adaptive_unit_integral(overflowing, _MOMENT_DELTA) == np.inf
    with pytest.raises(NumericFailureError):
        adaptive_unit_integral(lambda u, cu: np.where(cu < 1e-6, np.nan, 1.0), _MOMENT_DELTA)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "inf and -inf"])
def test_a_non_finite_value_inside_raises(bad):
    # the sum is taken before the values are checked: any non-finite value,
    # also +inf and -inf that the sum turns into NaN, makes it non-finite
    def f(u, cu):
        vals = np.ones_like(u)
        if bad == "inf and -inf":
            vals[[u.size // 3, u.size // 2]] = np.inf, -np.inf
        elif u.size > 4096:  # at the second level only
            vals[u.size // 2] = bad
        return vals

    with pytest.raises(NumericFailureError, match="integrand produced non-finite values"):
        adaptive_unit_integral(f, _MOMENT_DELTA)


def test_a_nan_gap_end_is_divergent_only_where_a_tail_is_inf():
    # inf - inf where both quantiles overflow: the NaN end reads divergent
    # when a tail is +inf at its end node, and raises otherwise
    def gap(tail_at_end):
        def f(u, cu):
            end = cu < 1e-6
            return (np.where(end, np.nan, 1.0),
                    [np.ones_like(u), np.where(end, tail_at_end, 1.0)])
        return adaptive_unit_integral(f, _MOMENT_DELTA)

    assert gap(np.inf) == np.inf
    for tail_at_end in (1e300, np.nan):
        with pytest.raises(NumericFailureError):
            gap(tail_at_end)


def test_tail_verdict_calls_the_quantile_only_on_shared_nodes(monkeypatch):
    # the verdict reads the first level's end nodes, so no integrand is
    # called on a separate probe array that would miss the quantile memo
    sizes = []
    unit = ScaleMixtureGaussian._unit_quantile

    def spy(self, u, cu):
        sizes.append(np.size(u))
        return unit(self, u, cu)

    monkeypatch.setattr(ScaleMixtureGaussian, "_unit_quantile", spy)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), lambda t: 1.0 + t)
    rep = check_moment_condition(fam, make_uniform_grid(0.5, 1.5, 9), 2.0)
    assert rep.integral == 6.728742847346352
    assert sizes == [4096, 8192]


@pytest.mark.parametrize("integral", [
    lambda grid: pathspace_wasserstein_same_copula(
        GaussianScale(1e160), Uniform(), grid, 2).integrated,
    lambda grid: check_moment_condition(GaussianScale(1e160), grid, 2.0).integral,
    lambda grid: check_moment_condition(
        Empirical(grid, np.full((grid.m, 4), 1e200)), grid, 2.0).integral,
    lambda grid: pathspace_wasserstein_same_copula(
        Empirical(grid, np.full((grid.m, 4), 1e200)), Pareto(1.0, 0.5), grid, 2).integrated,
], ids=["w2-of-an-overflowing-gaussian", "moment-of-an-overflowing-gaussian",
        "moment-of-an-overflowing-sample", "w2-of-an-overflowing-sample-against-pareto"])
def test_overflowing_integrands_read_inf_without_a_warning(integral):
    # |Q|**2, or the step's gap to Q, overflows; the rule reads the +inf it
    # gets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert integral(make_uniform_grid(0.0, 1.0, 5)) == np.inf
