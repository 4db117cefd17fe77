import numpy as np

from copulaproc._quadrature import per_time_integrals

POINTS = np.array([0.0, 0.5, 1.0])


def _counting(rule):
    calls = []

    def counted(f, delta):
        calls.append(f)
        return rule(f, delta)

    return counted, calls


def test_invariant_integrand_is_integrated_once():
    rule, calls = _counting(lambda f, delta: 2.0)
    per_t = per_time_integrals(POINTS, lambda t: t, rule, 1e-9, True)
    assert calls == [0.0]
    assert np.array_equal(per_t, [2.0, 2.0, 2.0])


def test_varying_integrand_is_integrated_at_every_time():
    rule, calls = _counting(lambda f, delta: f + 1.0)
    per_t = per_time_integrals(POINTS, lambda t: t, rule, 1e-9, False)
    assert calls == list(POINTS)
    assert np.array_equal(per_t, POINTS + 1.0)


def test_first_divergent_time_stops_the_loop():
    rule, calls = _counting(lambda f, delta: np.inf if f >= 0.5 else f)
    assert per_time_integrals(POINTS, lambda t: t, rule, 1e-9, False) is None
    assert calls == [0.0, 0.5]
    rule, calls = _counting(lambda f, delta: np.inf)
    assert per_time_integrals(POINTS, lambda t: t, rule, 1e-9, True) is None
    assert calls == [0.0]
