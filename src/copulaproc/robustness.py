"""Distributional robustness bounds for coupled process ensembles.

The central inequality controls the path-space L^p distance of two
processes by a marginal term plus a copula term:

    ||X - Y||_{L^p} <= || W_p(F_X, F_Y) ||_{L^p(T)}
                       + K * || U^X - U^Y ||_{L^q}**rho,

with exponent

    rho = eps q beta / ( p (p + eps) (q + beta) - p q beta )

and a constant K built from a minorant g of the Y-marginal densities:

    K = ( lambda**(-beta) * int_T 1{x0_t > 0} dt
          + 2 || g_t(Y_t)**(-beta) ||_{L^1} )**(rho/beta)
        * ( 2 ||Y||_{L^{p+eps}} )**(1 - rho).

The minorant must sit below the densities on the support, stay above
``lambda_floor`` on the window [m_t - x0_t, m_t + x0_t], and be monotone
on each side outside that window.  ``check_assumption`` verifies these
hypotheses on a lattice and evaluates the tail integral; ``constant_K``
and ``evaluate_bound`` refuse to proceed when the needed integrals
diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from ._quadrature import abs_power_gap, adaptive_unit_integral, per_time_integrals
from .copulas import elliptical_pretransform
from .errors import (AssumptionViolatedError, InvalidArgumentError,
                     NumericFailureError, check_array, check_float, check_int)
from .grid import TimeGrid, integrate, make_uniform_grid
from .kl import kl_from_ensemble, tail_energy, truncate
from .marginals import (GaussianScale, LognormalMixing, MarginalFamily,
                        Pareto, empirical_family_from_ensemble)
from .sklar import ProcessEnsemble, extract_copula, merge
from .transport import (MAX_P, check_coupled, mc_coupling_cost,
                        pathspace_wasserstein_same_copula)

#: endpoint cut for robustness quadratures; the complement form keeps
#: quantiles stable this deep.  A tail h ~ s**(-kappa) loses about
#: c**(1 - kappa) of its mass at the cut c, below 1e-4 only for
#: kappa < 13/15: the Pareto(1, 3) minorant tail at beta = 2/3
#: (kappa = 8/9) loses 4.6e-4
_ROBUST_DELTA = 1e-30
#: fixed auxiliary seeds for internal copula extraction (discarded for
#: continuous marginals, distributional-transform stream otherwise)
_AUX_SEED_X = 0x636F70_01
_AUX_SEED_Y = 0x636F70_02


def rho(p, epsilon: float, q: float, beta: float) -> float:
    """Copula-term exponent; strictly inside (0, 1) on the valid box."""
    p = check_int(p, "p", 1)
    epsilon = check_float(epsilon, "epsilon", 0.0, lo_open=True)
    q = check_float(q, "q", 1.0)
    beta = check_float(beta, "beta", 0.0, 1.0, lo_open=True)
    denom = p * (p + epsilon) * (q + beta) - p * q * beta
    return epsilon * q * beta / denom


@dataclass(frozen=True)
class RobustnessParams:
    """Exponents and density minorant for the robustness inequality.

    ``minorant`` maps (t, x-array) to g_t(x); ``center`` and ``halfwidth``
    give the window [m_t - x0_t, m_t + x0_t] on which g stays above
    ``lambda_floor``.  A zero halfwidth removes the window term from K.
    A minorant whose values do not depend on t may carry the attribute
    ``time_invariant = True``; its tail integral over a time-invariant
    family is then computed once instead of at every grid time.
    """

    p: int
    epsilon: float
    q: float
    beta: float
    lambda_floor: float
    minorant: Callable[[float, np.ndarray], np.ndarray]
    center: Callable[[float], float]
    halfwidth: Callable[[float], float]

    def __post_init__(self):
        rho(self.p, self.epsilon, self.q, self.beta)  # validates the box
        check_float(self.lambda_floor, "lambda_floor", 0.0, lo_open=True)

    @property
    def rho(self) -> float:
        return rho(self.p, self.epsilon, self.q, self.beta)


def gaussian_minorant_params(family: GaussianScale, grid: TimeGrid, p: int = 1,
                             epsilon: float = 1.0, q: float = 2.0,
                             beta: float = 0.5) -> RobustnessParams:
    """Take g = f itself: valid for Gaussian scales with a zero window."""
    if not isinstance(family, GaussianScale):
        raise InvalidArgumentError("gaussian preset requires a GaussianScale family")
    modes = np.array([family.mean(t) for t in grid.points])
    peak = np.array([float(family.pdf(t, mu)) for t, mu in zip(grid.points, modes)])
    return RobustnessParams(
        p=p, epsilon=epsilon, q=q, beta=beta,
        lambda_floor=float(peak.min()),
        minorant=family.pdf,
        center=family.mean,
        halfwidth=lambda t: 0.0)


def pareto_minorant_params(family: Pareto, grid: TimeGrid, x0: float = 0.0,
                           p: int = 1, epsilon: float = 1.0, q: float = 2.0,
                           beta: float = 2.0 / 3.0) -> RobustnessParams:
    """Minorant for Pareto marginals.

    With x0 = 0 the minorant is the density itself, centered at x_min.
    With x0 > x_min it is the piecewise profile: zero below zero, the
    constant lambda = min_t f_t(x0) on [0, x0), and f_t above x0, which is
    monotone outside [-x0, x0] and floored on the window.
    """
    if not isinstance(family, Pareto):
        raise InvalidArgumentError("pareto preset requires a Pareto family")
    x0 = check_float(x0, "x0")
    if x0 == 0.0:
        lam = min(float(family.pdf(t, family.x_min)) for t in grid.points)
        return RobustnessParams(
            p=p, epsilon=epsilon, q=q, beta=beta,
            lambda_floor=lam,
            minorant=family.pdf,
            center=lambda t: family.x_min,
            halfwidth=lambda t: 0.0)
    check_float(x0, "x0 of the piecewise minorant", family.x_min, lo_open=True)
    lam = min(float(family.pdf(t, x0)) for t in grid.points)

    def piecewise(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0,
                        np.where(x < x0, lam, family.pdf(t, x)))

    # the profile depends on t only through the density it follows
    piecewise.time_invariant = family.time_invariant
    return RobustnessParams(
        p=p, epsilon=epsilon, q=q, beta=beta,
        lambda_floor=lam,
        minorant=piecewise,
        center=lambda t: 0.0,
        halfwidth=lambda t: x0)


#: family kind -> the minorant preset that ``check_assumption`` takes for it
MINORANT_PRESETS = {Pareto.kind: pareto_minorant_params,
                    GaussianScale.kind: gaussian_minorant_params}


def _tail_integral(family: MarginalFamily, params: RobustnessParams,
                   grid: TimeGrid):
    """int_T E[g_t(Y_t)**(-beta)] dt, or +inf when any time diverges."""
    def integrand_at(t):
        def integrand(u, cu):
            x = family.quantile_tail(t, u, cu)
            g = np.asarray(params.minorant(t, x), dtype=float)
            if np.any(g <= 0.0):
                raise AssumptionViolatedError(
                    f"minorant vanishes on the support at t={t}")
            return g ** (-params.beta)
        return integrand

    # a custom minorant may depend on t by itself: integrate it at every
    # time unless it is the family's density or declares ``time_invariant``
    minorant_invariant = (params.minorant == family.pdf
                          or getattr(params.minorant, "time_invariant", False))
    per_t = per_time_integrals(
        grid.points, lambda t: adaptive_unit_integral(integrand_at(t), _ROBUST_DELTA),
        family.time_invariant and minorant_invariant)
    return float("inf") if per_t is None else integrate(grid, per_t)


@dataclass(frozen=True)
class AssumptionReport:
    """Lattice verdicts for the minorant hypotheses plus the tail integral."""

    minorant_ok: bool
    floor_ok: bool
    monotone_ok: bool
    tail_integral: float


def check_assumption(family_y: MarginalFamily, params: RobustnessParams,
                     grid: TimeGrid) -> AssumptionReport:
    """Verify the minorant hypotheses on a (t, x) lattice.

    The x-lattice at each time covers the quantile range of levels
    [1e-6, 1 - 1e-6].  Monotonicity is checked branch-wise: nonincreasing
    to the right of the window, nondecreasing to the left.  The tail
    integral is +inf when, at some time, ``adaptive_unit_integral`` finds it
    overflowing or growing like s**(-kappa), kappa > 0.926, at an end node.
    """
    if not family_y.is_continuous:
        raise InvalidArgumentError("assumption check requires a density")
    u_lat = np.linspace(1e-6, 1.0 - 1e-6, 201)
    minorant_ok = floor_ok = monotone_ok = True
    for t in grid.points:
        x = np.asarray(family_y.quantile(t, u_lat), dtype=float)
        f = np.asarray(family_y.pdf(t, x), dtype=float)
        g = np.asarray(params.minorant(t, x), dtype=float)
        scale = max(float(f.max()), 1e-300)
        if np.any(g > f * (1.0 + 1e-9) + 1e-12 * scale) or np.any(g <= 0.0):
            minorant_ok = False
        m_t = check_float(params.center(t), f"center({t})")
        x0_t = check_float(params.halfwidth(t), f"halfwidth({t})", 0.0)
        if x0_t > 0.0:
            lo = max(m_t - x0_t, float(x[0]))
            hi = min(m_t + x0_t, float(x[-1]))
            if lo <= hi:
                window = np.linspace(lo, hi, 101)
                gw = np.asarray(params.minorant(t, window), dtype=float)
                if np.any(gw < params.lambda_floor * (1.0 - 1e-9)):
                    floor_ok = False
        tol = 1e-12 * scale
        # nonincreasing right of the window, nondecreasing left of it
        for lo, hi, sign in ((max(m_t + x0_t, float(x[0])), float(x[-1]), 1.0),
                             (float(x[0]), min(m_t - x0_t, float(x[-1])), -1.0)):
            if lo < hi:
                gv = np.asarray(params.minorant(t, np.linspace(lo, hi, 101)), dtype=float)
                if np.any(sign * np.diff(gv) > tol):
                    monotone_ok = False
    tail = _tail_integral(family_y, params, grid)
    return AssumptionReport(minorant_ok=minorant_ok, floor_ok=floor_ok,
                            monotone_ok=monotone_ok, tail_integral=float(tail))


def constant_K(params: RobustnessParams, family_y: MarginalFamily,
               grid: TimeGrid) -> float:
    """Evaluate the constant K by quantile quadrature.

    Raises ``AssumptionViolatedError`` when the minorant tail integral or
    the (p + epsilon)-th moment of Y diverges.
    """
    r = params.rho
    indicator = np.array([
        1.0 if check_float(params.halfwidth(t), f"halfwidth({t})", 0.0) > 0.0 else 0.0
        for t in grid.points])
    window_term = params.lambda_floor ** (-params.beta) * integrate(grid, indicator)
    tail = _tail_integral(family_y, params, grid)
    if not np.isfinite(tail):
        raise AssumptionViolatedError(
            "minorant tail integral diverges; the bound constant is undefined")
    exponent = params.p + params.epsilon

    per_t = per_time_integrals(
        grid.points, lambda t: adaptive_unit_integral(
            lambda u, cu: np.abs(family_y.quantile_tail(t, u, cu)) ** exponent, _ROBUST_DELTA),
        family_y.time_invariant)
    if per_t is None:
        raise AssumptionViolatedError(
            f"Y lacks the L^{exponent:g} moment required by the bound")
    norm_pe = integrate(grid, per_t) ** (1.0 / exponent)
    return float((window_term + 2.0 * tail) ** (r / params.beta)
                 * (2.0 * norm_pe) ** (1.0 - r))


def pareto_constant_bound(family_y: Pareto, grid: TimeGrid,
                          gamma: float) -> float:
    """Closed-form upper bound on K for Pareto marginals at the preset
    exponents p = epsilon = 1, q = 2, beta = 2/3.

    Uses the tail-index margin min_t alpha_t >= 2 + gamma to bound both
    the fractional-density moment and the squared moment:

        ((6 / gamma) x_min**(2/3) int alpha_t**(1/3) dt)**(1/2)
        * ((2 / gamma) x_min**2 int alpha_t dt)**(2/3).

    The second factor squares the raw moment norm, so this is the loose
    reporting variant; ``constant_K`` evaluates the sharp constant.
    """
    if not isinstance(family_y, Pareto):
        raise InvalidArgumentError("the closed-form bound requires Pareto marginals")
    gamma = check_float(gamma, "gamma", 0.0, lo_open=True)
    alphas = check_array([family_y.alpha(t) for t in grid.points], "alpha_t", 2.0 + gamma)
    x_min = family_y.x_min
    first = (6.0 / gamma) * x_min ** (2.0 / 3.0) * integrate(grid, alphas ** (1.0 / 3.0))
    second = (2.0 / gamma) * x_min ** 2 * integrate(grid, alphas)
    return float(first ** 0.5 * second ** (2.0 / 3.0))


@dataclass(frozen=True)
class RobustnessReport:
    """Evaluated two-term bound for one coupled pair.

    ``lhs`` is the L^p distance (1/p power); ``lhs_power`` is its p-th
    power with Monte Carlo standard error ``lhs_se`` (distance scale).
    ``slack = marginal_term + copula_term - lhs`` and ``holds`` allows
    3 standard errors of Monte Carlo tolerance.
    """

    lhs: float
    marginal_term: float
    copula_term: float
    K: float
    rho: float
    holds: bool
    slack: float
    lhs_power: float
    lhs_se: float


def _distance_se(value: float, power_se: float, p: int) -> float:
    """Delta-method standard error of value = power**(1/p)."""
    return power_se if p == 1 or value <= 0.0 else power_se / (p * value ** (p - 1))


def evaluate_bound(ens_x: ProcessEnsemble, family_x: MarginalFamily,
                   ens_y: ProcessEnsemble, family_y: MarginalFamily,
                   params: RobustnessParams, constant: float | None = None,
                   marginal_term: float | None = None) -> RobustnessReport:
    """Check the robustness inequality on path-coupled ensembles.

    The ensembles must be generated on shared randomness with equal shape.
    ``constant`` and ``marginal_term`` accept precomputed values so sweeps
    can reuse them; both default to fresh evaluation.  The reference to
    ``ens_x`` is dropped once U^X is extracted, before U^Y, so a caller
    that passes its only reference (``evaluate_bound(merge(...), ...)``)
    has X freed there.  The copula gap |U^X - U^Y|**q is built in place
    in U^X's buffer, which no one else references, and U^Y is freed
    before the gap is reduced.
    """
    check_coupled(ens_x, ens_y)
    p = check_int(params.p, "params.p", 1, MAX_P)
    grid = ens_x.grid
    r = params.rho
    k_val = float(constant) if constant is not None else constant_K(params, family_y, grid)

    lhs, lhs_power, power_se = mc_coupling_cost(ens_x, ens_y, p)
    lhs_se = _distance_se(lhs, power_se, p)

    if marginal_term is None:
        marginal_term = pathspace_wasserstein_same_copula(
            family_x, family_y, grid, p).integrated

    gap = extract_copula(ens_x, family_x, _AUX_SEED_X).paths
    del ens_x
    gap.setflags(write=True)
    abs_power_gap(gap, extract_copula(ens_y, family_y, _AUX_SEED_Y).paths,
                  params.q, out=gap)
    dist_power = float(np.mean(gap @ grid.weights))
    copula_term = k_val * dist_power ** (r / params.q)

    slack = marginal_term + copula_term - lhs
    holds = bool(slack >= -3.0 * (lhs_se if np.isfinite(lhs_se) else 0.0))
    return RobustnessReport(lhs=float(lhs), marginal_term=float(marginal_term),
                            copula_term=float(copula_term), K=k_val, rho=float(r),
                            holds=holds, slack=float(slack),
                            lhs_power=float(lhs_power), lhs_se=float(lhs_se))


@dataclass(frozen=True)
class CopulaBoundReport:
    """Copula L^q distance against its density-weighted transport bounds."""

    lhs: float
    bound_two_term: float
    bound_single: float
    f_sup: float
    lhs_se: float


def _density_lattice_sup(family: MarginalFamily, grid: TimeGrid) -> float:
    n_x = max(2, 10_000 // grid.m)
    u_lat = np.linspace(1e-6, 1.0 - 1e-6, n_x)
    best = 0.0
    for t in grid.points:
        x = np.asarray(family.quantile(t, u_lat), dtype=float)
        best = max(best, float(np.max(family.pdf(t, x))))
    return best


def copula_distance_bound(tilde_x: ProcessEnsemble, tilde_y: ProcessEnsemble,
                          family_tx: MarginalFamily, family_ty: MarginalFamily,
                          q: int) -> CopulaBoundReport:
    """Bound ||U^X - U^Y||_{L^q} through the marginals of the tilde pair.

    Uses f_sup >= sup_t ||f_{Y_t}||_inf (analytic bound when the family
    provides one, lattice maximization otherwise) in

        lhs <= f_sup (||X - Y||_{L^q} + (int_T W_q**q dt)**(1/q))
            <= 2 f_sup ||X - Y||_{L^q},

    the second step using that the optimal transport cost never exceeds
    the realized coupling cost.  Both inequalities are verified within
    Monte Carlo tolerance before the report is returned.
    """
    q = check_int(q, "q", 1, MAX_P)
    check_coupled(tilde_x, tilde_y)
    if not family_ty.is_continuous:
        raise InvalidArgumentError(
            "the bound needs a bounded density for the second family")
    grid = tilde_x.grid
    analytic = family_ty.density_sup_bound(grid)
    lattice = _density_lattice_sup(family_ty, grid)
    f_sup = lattice if analytic is None else max(float(analytic), lattice)
    if not np.isfinite(f_sup) or f_sup <= 0.0:
        raise InvalidArgumentError("density bound is not finite and positive")

    u_x = extract_copula(tilde_x, family_tx, _AUX_SEED_X)
    u_y = extract_copula(tilde_y, family_ty, _AUX_SEED_Y)
    lhs, _, lhs_power_se = mc_coupling_cost(u_x, u_y, q)
    lhs_se = _distance_se(lhs, lhs_power_se, q)
    dxy, dxy_power, dxy_power_se = mc_coupling_cost(tilde_x, tilde_y, q)

    w_report = pathspace_wasserstein_same_copula(family_tx, family_ty, grid, q)
    w_term = w_report.integrated
    if w_term == np.inf:
        raise AssumptionViolatedError(f"W_{q} between the marginals is infinite")
    bound_two = f_sup * (dxy + w_term)
    bound_single = 2.0 * f_sup * dxy

    se_budget = 3.0 * (lhs_se if np.isfinite(lhs_se) else 0.0) + 1e-9
    if lhs > bound_two + se_budget:
        raise NumericFailureError(
            f"copula distance {lhs:g} exceeds its bound {bound_two:g}")
    wq_budget = 3.0 * (dxy_power_se if np.isfinite(dxy_power_se) else 0.0) + 1e-9
    if w_term ** q > dxy_power + wq_budget:
        raise NumericFailureError(
            "transport term exceeds the coupled moment; ensembles look uncoupled")
    return CopulaBoundReport(lhs=float(lhs), bound_two_term=float(bound_two),
                             bound_single=float(bound_single),
                             f_sup=float(f_sup), lhs_se=float(lhs_se))


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of the Pareto-on-elliptical truncation experiment."""

    a: float = 1.0
    b: float = 2.0
    m: int = 65
    n_paths: int = 50_000
    seed: int = 20_240
    hurst: float = 0.5
    mixing: LognormalMixing = LognormalMixing()
    x_min: float = 1.0
    alpha: float = 4.0
    gamma: float = 1.0
    n_keep: Sequence[int] = (1, 2, 4, 8, 16)
    marginal_mode: str = "true"
    p: int = 1
    epsilon: float = 1.0
    q: float = 2.0
    beta: float = 2.0 / 3.0

    def __post_init__(self):
        if self.marginal_mode not in ("true", "empirical"):
            raise InvalidArgumentError(
                f"marginal_mode must be 'true' or 'empirical', got {self.marginal_mode!r}")
        # the margin alpha >= 2 + gamma gives the squared-moment control
        gamma = check_float(self.gamma, "gamma", 0.0, lo_open=True)
        check_float(self.alpha, "alpha", 2.0 + gamma)
        if not isinstance(self.mixing, LognormalMixing):
            raise InvalidArgumentError(
                f"mixing must be a LognormalMixing, got {self.mixing!r}")
        check_float(self.x_min, "x_min", 0.0, lo_open=True)
        # the grid the experiment runs on, with a > 0 for the elliptical sampler
        check_float(self.a, "a", 0.0, lo_open=True)
        m = make_uniform_grid(self.a, self.b, self.m).m
        check_float(self.hurst, "hurst", 0.0, 1.0, lo_open=True, hi_open=True)
        check_int(self.n_paths, "n_paths", 1)
        rng.check_seed(self.seed)
        rho(check_int(self.p, "p", 1, MAX_P), self.epsilon, self.q, self.beta)
        # checked here, not by ``truncate`` after the mixture extraction
        listed = isinstance(self.n_keep, (tuple, list)) or (
            isinstance(self.n_keep, np.ndarray) and self.n_keep.ndim == 1)
        if not listed or len(self.n_keep) < 1:
            raise InvalidArgumentError(
                f"n_keep must be a nonempty list of integers, got {self.n_keep!r}")
        for k in self.n_keep:
            check_int(k, "n_keep", 1, m)


@dataclass(frozen=True)
class ExperimentRow:
    """One truncation level of the experiment."""

    n_keep: int
    lhs: float
    marginal_term: float
    copula_term: float
    K: float
    rho: float
    tail_energy: float
    holds: bool


@dataclass(frozen=True)
class ExperimentReport:
    """All truncation levels plus log-log decay slopes against tail energy.

    ``K_bound`` is the loose closed-form constant from
    ``pareto_constant_bound``, present only at the preset exponents.
    """

    rows: tuple
    slope_copula_term: float | None
    slope_lhs: float | None
    K_bound: float | None


def _loglog_slope(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0.0) & (ys > 0.0)
    if keep.sum() < 2 or np.unique(xs[keep]).size < 2:
        return None
    coeffs = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)
    return float(coeffs[0])


def _truncated_copula(tilde_y: ProcessEnsemble, decomposition, n_keep: int,
                      aux_seed: int, aux: np.ndarray):
    """Copula of the n_keep-term KL truncation, through its empirical
    marginals and the auxiliary uniforms ``aux`` of ``aux_seed``, written
    over the truncated paths; they and their family die on return."""
    truncated = truncate(tilde_y, decomposition, n_keep)
    return extract_copula(truncated, empirical_family_from_ensemble(truncated),
                          aux_seed, aux=aux, overwrite_process=True)


def pareto_elliptical_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Truncation study: Pareto marginals on an elliptical copula.

    Builds the pre-transform scale mixture, its copula, and the Pareto
    process Y; expands the pre-transform ensemble and, for each truncation
    level, reconstructs a truncated process through the empirical marginal
    transform and re-merge, then evaluates the robustness bound of Y
    against it.  Marginals for the rebuilt process come from the true
    family or from the empirical CDFs of Y depending on
    ``config.marginal_mode``.  The truncation levels share one matrix of
    auxiliary uniforms, drawn once from ``seed + 211`` and read-only.
    Each other n_paths x m intermediate is freed as soon as it has been
    used, the rebuilt process inside ``evaluate_bound``, so at most five
    are alive at once with the true marginals, V among them: each level's
    copula is written over its truncated paths, and the copula gap in
    ``evaluate_bound`` over the rebuilt process's copula.
    """
    grid = make_uniform_grid(config.a, config.b, int(config.m))
    pre_paths, mix_family = elliptical_pretransform(
        grid, config.hurst, config.mixing, int(config.n_paths), int(config.seed))
    tilde_y = ProcessEnsemble(grid, pre_paths, mix_family.kind,
                              f"elliptical-pre(hurst={config.hurst:g})")
    family_y = Pareto(config.x_min, float(config.alpha))
    ens_y = merge(extract_copula(tilde_y, mix_family, int(config.seed) + 101),
                  family_y)

    params = pareto_minorant_params(family_y, grid, x0=0.0, p=int(config.p),
                                    epsilon=config.epsilon, q=config.q,
                                    beta=config.beta)
    report = check_assumption(family_y, params, grid)
    if not (report.minorant_ok and report.floor_ok and report.monotone_ok
            and np.isfinite(report.tail_integral)):
        raise AssumptionViolatedError(f"minorant hypotheses failed: {report}")
    k_val = constant_K(params, family_y, grid)

    decomposition = kl_from_ensemble(tilde_y)
    if config.marginal_mode == "true":
        family_n = family_y
        marginal_term = 0.0
    else:
        family_n = empirical_family_from_ensemble(ens_y)
        marginal_term = pathspace_wasserstein_same_copula(
            family_n, family_y, grid, int(config.p)).integrated

    aux_seed = int(config.seed) + 211
    aux = rng.uniform_rows(aux_seed, tilde_y.n_paths, grid.m)
    aux.setflags(write=False)
    rows = []
    for k in config.n_keep:
        # no name holds the rebuilt process: evaluate_bound frees it early
        bound = evaluate_bound(
            merge(_truncated_copula(tilde_y, decomposition, int(k), aux_seed, aux),
                  family_n),
            family_n, ens_y, family_y, params,
            constant=k_val, marginal_term=marginal_term)
        rows.append(ExperimentRow(
            n_keep=int(k), lhs=bound.lhs, marginal_term=bound.marginal_term,
            copula_term=bound.copula_term, K=bound.K, rho=bound.rho,
            tail_energy=tail_energy(decomposition, int(k)), holds=bound.holds))

    tails = [row.tail_energy for row in rows]
    slope_c = _loglog_slope(tails, [row.copula_term for row in rows])
    slope_l = _loglog_slope(tails, [row.lhs for row in rows])
    preset = (int(config.p) == 1 and config.epsilon == 1.0 and config.q == 2.0
              and config.beta == 2.0 / 3.0)
    k_bound = (pareto_constant_bound(family_y, grid, config.gamma)
               if preset else None)
    return ExperimentReport(rows=tuple(rows), slope_copula_term=slope_c,
                            slope_lhs=slope_l, K_bound=k_bound)
