"""Midpoint quadrature over the unit probability interval.

Integrals of the form int_0^1 h(F^{-1}(u)) du appear in moment checks,
Wasserstein distances, and robustness constants.  Their integrands are
smooth inside (0, 1) but typically blow up at one or both endpoints, so a
uniform mesh wastes its budget in the bulk.  The midpoint rule is applied
in the variable y with u = (1 + tanh y)/2, which clusters nodes
geometrically near both endpoints while the transformed integrand decays
there for every integrable tail.

Integrands receive both u and 1 - u.  The complement is computed directly
from y through a logistic, so tail quantiles can be evaluated stably even
when u rounds to 1.0 in double precision.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import InvalidArgumentError, NumericFailureError

#: integrand signature: f(u, one_minus_u) -> array of values
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_START_NODES = 4096
_REL_TOL = 1e-6
#: endpoint ratio h(delta) / h(2 delta) = 2**kappa from which a tail counts
#: as divergent: kappa = 1 - log2(1/0.95) ~ 0.926, where halving the cut
#: gains increments that shrink by less than 5% per halving
_TAIL_RATIO_MAX = 2.0 * 0.95

#: node ladder of the most recent delta: n_nodes -> read-only (u, cu).  Node
#: doubling asks for the same few sizes at every grid time and in every
#: integral, so one ladder (4096 ... 2**18 nodes, about 8.3 MB) is kept and a
#: new delta replaces it.
_ladder_delta = None
_ladder = {}


def graded_midpoint_nodes(delta: float, n_nodes: int):
    """Midpoint nodes and weights on (delta, 1 - delta).

    Returns (u, cu, w) with cu = 1 - u held at full relative precision and
    weights summing to 1 - 2*delta up to rounding.  u and cu are shared
    between calls and read-only; w is a fresh array.
    """
    global _ladder_delta
    if not 0.0 < delta < 0.5:
        raise InvalidArgumentError(f"delta must lie in (0, 0.5), got {delta}")
    if n_nodes < 2:
        raise InvalidArgumentError("need at least two nodes")
    # y-range solves (1 + tanh Y)/2 = 1 - delta
    y_max = 0.5 * np.log((1.0 - delta) / delta)
    h = 2.0 * y_max / n_nodes
    if delta != _ladder_delta:
        _ladder.clear()
        _ladder_delta = delta
    if n_nodes not in _ladder:
        y = -y_max + (np.arange(n_nodes) + 0.5) * h
        nodes = (expit(2.0 * y), expit(-2.0 * y))
        for arr in nodes:
            arr.setflags(write=False)
        _ladder[n_nodes] = nodes
    u, cu = _ladder[n_nodes]
    w = 2.0 * h * u * cu
    return u, cu, w


def adaptive_unit_integral(f: Integrand, delta: float, max_nodes: int = 2**18) -> float:
    """int_delta^{1-delta} f(u) du with node doubling.

    Starts at ``_START_NODES`` = 4096 midpoints and doubles until successive
    values agree to ``_REL_TOL`` = 1e-6 relative or the node cap is reached.
    """
    n = _START_NODES
    previous = None
    while True:
        u, cu, w = graded_midpoint_nodes(delta, n)
        vals = np.asarray(f(u, cu), dtype=float)
        if vals.shape != u.shape:
            raise InvalidArgumentError("integrand returned a wrong shape")
        if not np.isfinite(vals).all():
            raise NumericFailureError("integrand produced non-finite values")
        total = float(w @ vals)
        if previous is not None and abs(total - previous) <= _REL_TOL * max(abs(total), 1e-300):
            return total
        if n >= max_nodes:
            return total
        previous = total
        n *= 2


def per_time_integrals(points, integrand_at, rule, delta: float, invariant: bool):
    """``rule(integrand_at(t), delta)`` at every time t in ``points``.

    When ``invariant`` declares that the integrand does not depend on t,
    it is integrated once at the first time and that value is reported at
    every time.  Returns the per-time values, or None as soon as one time
    integrates to +inf, as ``tail_checked_integral`` reports divergence.
    """
    per_t = np.empty(len(points))
    for j, t in enumerate(points[:1] if invariant else points):
        per_t[j] = rule(integrand_at(t), delta)
        if per_t[j] == np.inf:
            return None
    if invariant:
        per_t[1:] = per_t[0]
    return per_t


def tail_checked_integral(f: Integrand, delta: float) -> float:
    """``adaptive_unit_integral(f, delta)``, or +inf for a divergent tail.

    Near an endpoint a power-law integrand h(s) ~ s**(-kappa) has
    h(delta) / h(2 delta) = 2**kappa, and int_0 h diverges for kappa >= 1.
    The tail is declared divergent when h(delta) > 1.9 h(2 delta), that is
    kappa > 0.926, at either end.  The comparison divides by nothing, so a
    bounded or vanishing end (0 against 0) is never divergent.
    """
    cut = np.array([delta, 2.0 * delta])
    h = np.asarray(f(np.r_[cut, 1.0 - cut], np.r_[1.0 - cut, cut]), dtype=float)
    if h[0] > _TAIL_RATIO_MAX * h[1] or h[2] > _TAIL_RATIO_MAX * h[3]:
        return float("inf")
    return adaptive_unit_integral(f, delta)
