import gc
import weakref

import numpy as np
import pytest
from scipy.special import expit

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
    w[0] = 0.0  # the weights are the caller's own
    # the nodes lie on immutable bytes, so not even their owner can make
    # them writable again and refill them
    for arr in (u, cu):
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
