"""One-dimensional and path-space Wasserstein distances.

In one dimension W_p has the closed form

    W_p(F_A, F_B)**p = int_0^1 |Q_A(u) - Q_B(u)|**p du,

evaluated here by graded midpoint quadrature on (1e-9, 1 - 1e-9) with node
doubling; W_p reads ``inf`` when |Q_A|**p or |Q_B|**p overflows or grows
like s**(-kappa), kappa > 0.926, at an end node of the first level.  A step
quantile, such as ``Empirical``'s, is integrated segment by segment, never
across a jump: against another step quantile the integral is an exact
finite sum over the merged levels on (0, 1); against a continuous quantile
each level segment gets fixed Gauss-Legendre nodes, split where the gap
changes sign, and the two end segments keep the graded rule.

For processes sharing one copula, the path-space distance factorizes into
the time integral of the per-time distances, and the merge
construction (Q_A(U), Q_B(U)) realizes the optimal coupling; Monte Carlo
coupling costs let both facts be checked against sampled ensembles.

Supported orders are p in {1, 2, 3, 4}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import (abs_power_gap, adaptive_unit_integral, merge_steps,
                          per_time_integrals, step_gap_integral, step_power_integral)
from .errors import InvalidArgumentError, check_array, check_int
from .grid import TimeGrid, integrate
from .marginals import MarginalFamily
from .sklar import ProcessEnsemble

_TRANSPORT_DELTA = 1e-9
#: the highest supported order p
MAX_P = 4


def check_coupled(ens_x: ProcessEnsemble, ens_y: ProcessEnsemble) -> None:
    """Raise unless the ensembles share their grid and path count, as
    ensembles coupled path by path must."""
    if ens_x.grid != ens_y.grid or ens_x.n_paths != ens_y.n_paths:
        raise InvalidArgumentError(
            "ensembles are not coupled: grids or path counts differ")


@dataclass(frozen=True)
class TransportReport:
    """Path-space distance with its per-time profile and optional MC check.

    ``gap`` is signed on the p-th power scale:
    mc_coupling_value**p - integrated**p.
    """

    p: int
    integrated: float
    per_t: np.ndarray
    mc_coupling_value: float | None = None
    gap: float | None = None


def _quantile_gap(family_a: MarginalFamily, family_b: MarginalFamily, p: int):
    """t -> int |Q_A,t(u) - Q_B,t(u)|**p du, by the rule the quantiles call for.

    ``quantile_steps`` tells a step quantile from a continuous one.
    """
    def power_at(t):
        steps_a, steps_b = family_a.quantile_steps(t), family_b.quantile_steps(t)
        if steps_a is None and steps_b is None:
            def integrand(u, cu):
                qa, qb = family_a.quantile_tail(t, u, cu), family_b.quantile_tail(t, u, cu)
                return abs_power_gap(qa, qb, p), (np.abs(q) ** p for q in (qa, qb))
            return adaptive_unit_integral(integrand, _TRANSPORT_DELTA)
        if steps_a is not None and steps_b is not None:
            return step_power_integral(*merge_steps(*steps_a, *steps_b), p)
        steps, smooth = (steps_a, family_b) if steps_b is None else (steps_b, family_a)
        return step_gap_integral(*steps, lambda u, cu: smooth.quantile_tail(t, u, cu),
                                 lambda x: smooth.cdf(t, x), p, _TRANSPORT_DELTA)
    return power_at


def wasserstein1d_quantile(family_a: MarginalFamily, family_b: MarginalFamily,
                           t: float, p: int) -> float:
    """W_p between the time-t marginals via the quantile closed form.

    For two continuous quantiles the quadrature starts at 4096 midpoints
    and doubles until the value settles to 1e-6 relative; one still moving
    at the 2**18 node cap raises ``NumericFailureError``.  A step quantile
    (``quantile_steps``) is integrated segment by segment: exactly over
    (0, 1) against another step quantile, and against a continuous one
    with 8 Gauss-Legendre nodes per level segment, segments where
    Q_A - Q_B changes sign split at the crossing, and the graded rule on
    the two end segments.  A divergent end reads ``inf``.
    """
    p = check_int(p, "p", 1, MAX_P)
    if family_a is family_b:
        return 0.0
    per_t = per_time_integrals([float(t)], _quantile_gap(family_a, family_b, p), True)
    power = float("inf") if per_t is None else float(per_t[0])
    return float(power ** (1.0 / p))


def wasserstein1d_empirical(samples_a, samples_b, p: int) -> float:
    """W_p between two equal-size empirical samples (sorted matching)."""
    p = check_int(p, "p", 1, MAX_P)
    a = check_array(samples_a, "samples_a").ravel()
    b = check_array(samples_b, "samples_b").ravel()
    if a.size != b.size or a.size == 0:
        raise InvalidArgumentError("samples must be nonempty and of equal size")
    diffs = np.abs(np.sort(a) - np.sort(b)) ** p
    return float(np.mean(diffs) ** (1.0 / p))


def pathspace_wasserstein_same_copula(family_a: MarginalFamily,
                                      family_b: MarginalFamily,
                                      grid: TimeGrid, p: int) -> TransportReport:
    """Path-space W_p for processes sharing a copula.

    Computes per_t = W_p(F_A,t, F_B,t) on the grid and integrates the p-th
    powers over time; the Monte Carlo fields stay unset.  An infinite W_p at
    any time makes ``integrated`` and all of ``per_t`` ``inf``.
    """
    p = check_int(p, "p", 1, MAX_P)
    if family_a is family_b:
        return TransportReport(p=p, integrated=0.0, per_t=np.zeros(grid.m))
    power_at = _quantile_gap(family_a, family_b, p)
    per_t = per_time_integrals(grid.points, lambda t: power_at(t) ** (1.0 / p),
                               family_a.time_invariant and family_b.time_invariant)
    if per_t is None:
        return TransportReport(p=p, integrated=float("inf"), per_t=np.full(grid.m, np.inf))
    integrated = integrate(grid, per_t ** p) ** (1.0 / p)
    return TransportReport(p=p, integrated=integrated, per_t=per_t)


def mc_coupling_cost(ens_x: ProcessEnsemble, ens_y: ProcessEnsemble, p: int):
    """Monte Carlo coupling cost E int |X - Y|**p dt from paired paths.

    Returns ``(value, power_mean, power_se)`` where value = power_mean**(1/p)
    and power_se is the standard error of the per-path mean.  The gap
    |X - Y|**p is built in one buffer, reused in place by ``abs_power_gap``.
    """
    p = check_int(p, "p", 1, MAX_P)
    check_coupled(ens_x, ens_y)
    per_path = abs_power_gap(ens_x.paths, ens_y.paths, p) @ ens_x.grid.weights
    power_mean = float(np.mean(per_path))
    if ens_x.n_paths > 1:
        power_se = float(np.std(per_path, ddof=1) / np.sqrt(ens_x.n_paths))
    else:
        power_se = float("nan")
    return float(power_mean ** (1.0 / p)), power_mean, power_se


def attach_mc_check(report: TransportReport, ens_x: ProcessEnsemble,
                    ens_y: ProcessEnsemble) -> TransportReport:
    """Fill the Monte Carlo fields of a path-space report."""
    value, power_mean, _ = mc_coupling_cost(ens_x, ens_y, report.p)
    gap = power_mean - report.integrated ** report.p
    return TransportReport(p=report.p, integrated=report.integrated,
                           per_t=report.per_t, mc_coupling_value=value,
                           gap=float(gap))
