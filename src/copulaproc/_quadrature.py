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

A step quantile, such as that of an empirical law, jumps at its levels, and
the midpoint rule converges slowly and falsely across jumps.  Integrals of
step quantiles are therefore taken segment by segment: two step quantiles,
or one alone, give finite sums, and a step against a smooth quantile gets
Gauss-Legendre nodes on each level segment plus the graded rule on the two
end segments (``step_gap_integral``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import expit, roots_legendre

from .errors import InvalidArgumentError, NumericFailureError, check_float, check_int

#: integrand signature: f(u, one_minus_u) -> array of values, or (values, tails)
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_START_NODES = 4096
_REL_TOL = 1e-6
#: kappa past which an end where h(s) ~ s**(-kappa) counts as divergent:
#: log2(1.9) ~ 0.926, where halving the cut gains less than 5% per halving
_TAIL_EXPONENT = np.log2(1.9)


def _frozen(*arrays):
    """Copies of 1-D float ``arrays`` on immutable ``bytes``, which numpy
    never lets become writable."""
    return tuple(np.frombuffer(a.tobytes()) for a in arrays)


@lru_cache(maxsize=1)
def _ladder(delta):
    """n_nodes -> immutable (u, cu, w) for ``delta``.  Node doubling asks
    for the same few sizes at every grid time and in every integral, so the
    ladder of the most recent delta (4096 ... 2**18 nodes, about 12.5 MB)
    is kept and a new delta replaces it."""
    return {}


def graded_midpoint_nodes(delta: float, n_nodes: int):
    """Midpoint nodes and weights on (delta, 1 - delta).

    Returns (u, cu, w) with cu = 1 - u held at full relative precision and
    weights summing to 1 - 2*delta up to rounding.  All three are built
    once per size, shared between calls and immutable.
    """
    check_float(delta, "delta", 0.0, 0.5, lo_open=True, hi_open=True)
    check_int(n_nodes, "n_nodes", 2)
    ladder = _ladder(delta)
    if n_nodes not in ladder:
        # y-range solves (1 + tanh Y)/2 = 1 - delta
        y_max = 0.5 * np.log((1.0 - delta) / delta)
        h = 2.0 * y_max / n_nodes
        y = -y_max + (np.arange(n_nodes) + 0.5) * h
        u, cu = expit(2.0 * y), expit(-2.0 * y)
        ladder[n_nodes] = _frozen(u, cu, 2.0 * h * u * cu)
    return ladder[n_nodes]


@np.errstate(over="ignore", invalid="ignore")
def adaptive_unit_integral(f: Integrand, delta: float, max_nodes: int = 2**18) -> float:
    """int_delta^{1-delta} f(u) du with node doubling, or +inf for a divergent end.

    Starts at ``_START_NODES`` = 4096 midpoints and doubles until successive
    values agree to ``_REL_TOL`` = 1e-6 relative or the node cap is reached.
    An end of the first level (s = u below, 1 - u above) is divergent, and
    the value +inf, when h = +inf at its end node s_0 or h(s_0) exceeds
    (s_k/s_0)**0.926 times every h from the first node s_k >= 2 s_0 to the
    middle, as for h ~ s**(-kappa), kappa > 0.926; a bounded, vanishing or
    zero-crossing end is not.  h is f's values; when f returns (values,
    tails), one tail, read only then, must diverge at that end too: a gap
    |Q_A - Q_B|**p diverges only where |Q_A|**p or |Q_B|**p does (Minkowski).
    An end where such a gap is NaN, as inf - inf where both quantiles
    overflow, is divergent when a tail is +inf at its end node; any other
    NaN raises.  Each level takes its weights from the shared ladder and
    sums first; only a non-finite sum has its values scanned, and a
    non-finite value raises ``NumericFailureError``.  The rule reads every
    such value itself, so f, the divergence test and the sums run with
    overflow and invalid-value warnings off.
    """
    n = _START_NODES
    previous = None
    while True:
        u, cu, w = graded_midpoint_nodes(delta, n)
        vals = f(u, cu)
        vals, tails = vals if isinstance(vals, tuple) else (vals, None)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != u.shape:
            raise InvalidArgumentError("integrand returned a wrong shape")
        if n == _START_NODES:
            ends = _divergent_ends(u, cu, vals)
            lost = np.isnan(vals[[0, -1]]) & (tails is not None)
            if (ends | lost).any() and any(
                    ((ends & _divergent_ends(u, cu, h)) | (lost & (h[[0, -1]] == np.inf))).any()
                    for h in tails or [vals]):
                return float("inf")
        # the weights are positive, so a non-finite value makes the sum so;
        # +inf and -inf sum to NaN, and the check below raises for it as for
        # any other non-finite value
        total = float(w @ vals)
        if not np.isfinite(total) and not np.isfinite(vals).all():
            raise NumericFailureError("integrand produced non-finite values")
        if previous is not None and abs(total - previous) <= _REL_TOL * max(abs(total), 1e-300):
            return total
        if n >= max_nodes:
            return total
        previous = total
        n *= 2


def _divergent_ends(u, cu, h) -> np.ndarray:
    """(lower, upper) end-node verdicts of ``adaptive_unit_integral`` on ``h``."""
    half = u.size // 2
    k = int(np.searchsorted(u[:half], 2.0 * u[0]))
    h0, ratio = h[[0, -1]], np.array([u[k] / u[0], cu[-1 - k] / cu[-1]]) ** _TAIL_EXPONENT
    return (h0 == np.inf) | (h0 > ratio * [h[k:half].max(), h[half:-k].max()])


def abs_power_gap(a: np.ndarray, b: np.ndarray, p, out=None) -> np.ndarray:
    """|a - b|**p in one buffer, fresh or ``out`` (which may be ``a``): the
    difference is taken into it and the absolute value and the power are
    applied in place.  The ufuncs are those of ``np.abs(a - b) ** p``, so
    the values are equal bit for bit.  Where both are +inf, as when two
    quantiles overflow at an end node, the gap is NaN without a warning;
    the quadrature rule judges that node."""
    with np.errstate(invalid="ignore"):
        gap = np.subtract(a, b, out=out)
    np.abs(gap, out=gap)
    gap **= p
    return gap


def per_time_integrals(points, value_at, invariant: bool):
    """``value_at(t)``, one integral, at every time t in ``points``.

    When ``invariant`` declares that the integral does not depend on t,
    it is evaluated once at the first time and that value is reported at
    every time.  Returns the per-time values, or None as soon as one time
    integrates to +inf, as ``adaptive_unit_integral`` reports divergence.
    Step nodes built for these times are dropped when the loop ends.
    """
    per_t = np.empty(len(points))
    try:
        for j, t in enumerate(points[:1] if invariant else points):
            per_t[j] = value_at(t)
            if per_t[j] == np.inf:
                return None
    finally:
        _nodes_for.cache_clear()
    if invariant:
        per_t[1:] = per_t[0]
    return per_t


# ----- step quantiles --------------------------------------------------------

#: Gauss-Legendre nodes on (0, 1), their complements and weights, for one
#: level segment of a step quantile
_SEGMENT_NODES = 8
_GAUSS_X, _GAUSS_W = roots_legendre(_SEGMENT_NODES)
_GAUSS_U, _GAUSS_CU, _GAUSS_W = (1.0 + _GAUSS_X) / 2.0, (1.0 - _GAUSS_X) / 2.0, _GAUSS_W / 2.0


@np.errstate(over="ignore")
def step_power_integral(levels, values, p: float) -> float:
    """int_0^1 |S(u)|**p du for the step function S of ``levels`` and ``values``.

    S equals values[i] on (levels[i-1], levels[i]], with the ends of the
    unit interval taking the places of levels[-1] and levels[n-1], so the
    integral is a finite sum with no endpoint cut, and +inf once a term
    overflows.
    """
    widths = np.diff(levels, prepend=0.0, append=1.0)
    return float(widths @ np.abs(values) ** p)


def merge_steps(levels_a, values_a, levels_b, values_b):
    """(levels, values) of the step function S_A - S_B on the union of levels."""
    levels = np.union1d(levels_a, levels_b)
    right = np.append(levels, 1.0)  # right end of each merged segment
    return levels, (values_a[np.searchsorted(levels_a, right)]
                    - values_b[np.searchsorted(levels_b, right)])


class _StepNodes:
    """Immutable nodes of one set of jump levels and one endpoint cut.

    Interior segments (levels[i-1], levels[i]) get ``_SEGMENT_NODES``
    Gauss-Legendre nodes each, and the levels themselves follow them, so one
    quantile call per time covers both.  The two end segments (delta,
    levels[0]) and (levels[-1], 1 - delta) share one graded rule in s on
    (delta_s, 1 - delta_s): u = c_lo s below and 1 - u = c_hi s above, so
    the complement keeps its relative precision at the upper cut.
    """

    def __init__(self, levels, delta):
        lo, hi = levels[:-1, None], levels[1:, None]
        width = hi - lo
        self.interior = width.size * _SEGMENT_NODES
        self.u, self.cu, self.weights = _frozen(
            np.concatenate([(lo + width * _GAUSS_U).ravel(), levels]),
            np.concatenate([((1.0 - hi) + width * _GAUSS_CU).ravel(), 1.0 - levels]),
            (width * _GAUSS_W).ravel())
        self.c_lo = levels[0] + delta
        self.delta_s = delta / self.c_lo
        self.c_hi = (1.0 - levels[-1]) / (1.0 - self.delta_s)
        self._ends = {}

    def end_nodes(self, s):
        """Immutable (u, cu) of both end segments at the graded nodes s."""
        if s.size not in self._ends:
            below, above = self.c_lo * s, self.c_hi * s
            self._ends[s.size] = _frozen(np.concatenate([below, 1.0 - above]),
                                         np.concatenate([1.0 - below, above]))
        return self._ends[s.size]


@lru_cache(maxsize=1)
def _nodes_for(levels: bytes, delta) -> _StepNodes:
    """Nodes of the most recent step levels and delta.  Every grid time of
    an empirical family has the same levels, so the node set is built once
    per ``per_time_integrals`` loop, which drops it at the end, and handed
    to the other quantile as the same arrays."""
    return _StepNodes(np.frombuffer(levels), delta)


@np.errstate(over="ignore")
def step_gap_integral(levels, values, quantile, cdf, p: float, delta: float) -> float:
    """int_delta^{1-delta} |S(u) - Q(u)|**p du for a step S against a smooth Q.

    S is the step function of ``levels`` and ``values`` (see
    ``step_power_integral``), ``quantile(u, cu)`` a continuous quantile Q
    and ``cdf`` its CDF.  No rule integrates across a jump of S: each
    interior level segment gets 8 fixed Gauss-Legendre nodes, and a segment
    on which S - Q changes sign is split at u* = F(S) into two halves of 8
    nodes each, so the kink of |S - Q| lies on a boundary.  The two end
    segments, where Q may be unbounded, go through
    ``adaptive_unit_integral`` with |Q|**p as tails.  Q is called on shared
    immutable arrays except at the split halves.  A gap that overflows
    reads +inf, without a warning.
    """
    if values.size == 1:
        def one_value(u, cu):
            q = quantile(u, cu)
            return abs_power_gap(values[0], q, p), [np.abs(q) ** p]
        return adaptive_unit_integral(one_value, delta)
    nodes = _nodes_for(levels.tobytes(), delta)
    q = quantile(nodes.u, nodes.cu)
    inner = values[1:-1]
    gaps = abs_power_gap(inner[:, None], q[:nodes.interior].reshape(-1, _SEGMENT_NODES), p)
    # Q rises across a segment and S stays level, so S - Q can only cross
    # zero downwards
    at_levels = q[nodes.interior:]
    crossing = np.flatnonzero((inner > at_levels[:-1]) & (inner < at_levels[1:]))
    gaps[crossing] = 0.0
    total = float(nodes.weights @ gaps.ravel())
    if crossing.size:
        a, b, x = levels[crossing, None], levels[crossing + 1, None], inner[crossing, None]
        star = np.clip(np.asarray(cdf(x[:, 0]), dtype=float)[:, None], a, b)
        halves_u = np.concatenate([a + (star - a) * _GAUSS_U, star + (b - star) * _GAUSS_U])
        halves_cu = np.concatenate([(1.0 - star) + (star - a) * _GAUSS_CU,
                                    (1.0 - b) + (b - star) * _GAUSS_CU])
        halves_w = np.concatenate([star - a, b - star]) * _GAUSS_W
        split = abs_power_gap(np.concatenate([x, x]), quantile(halves_u, halves_cu), p)
        total += float(np.sum(halves_w * split))

    ends = values[[0, -1], None]

    def end_segments(s, cs):
        u, cu = nodes.end_nodes(s)
        q = quantile(u, cu).reshape(2, -1)
        gap = abs_power_gap(ends, q, p)
        return nodes.c_lo * gap[0] + nodes.c_hi * gap[1], (np.abs(row) ** p for row in q)

    return total + adaptive_unit_integral(end_segments, nodes.delta_s)
