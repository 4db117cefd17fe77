"""Copula process samplers on a shared time grid.

A copula ensemble is a matrix of paths whose every time-t column is
Uniform[0, 1]; the dependence across columns carries the model.  Five
samplers are provided:

* independence:   columns are independent uniforms
* comonotone:     all columns share one uniform per path (upper bound
                  of the pointwise Frechet-Hoeffding inequality)
* fbm:            Gaussian copula of fractional Brownian motion,
                  covariance (t**2H + s**2H - |t-s|**2H) / 2
* elliptical:     scale mixture S * V with V a unit-variance Gaussian
                  process sharing the fBm correlation, transformed by
                  its own mixture marginal CDF
* clayton:        Archimedean copula with generator (x**-theta - 1)/theta,
                  sampled by gamma frailty

Every path draws from its own (seed, path index) substream, so path i is
reproduced bit for bit regardless of ensemble size or scheduling.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import rng
from .errors import InvalidArgumentError, NumericFailureError, check_array, check_float
from .grid import TimeGrid, check_paths
from .marginals import LognormalMixing, ScaleMixtureGaussian


@dataclass(frozen=True, eq=False)
class CopulaEnsemble:
    """Immutable bundle of copula paths with their grid and provenance."""

    grid: TimeGrid
    paths: np.ndarray
    seed: int
    model_tag: str
    n_paths: int = field(init=False)

    def __post_init__(self):
        paths = check_paths(self.grid, self.paths, "copula paths", lo=0.0, hi=1.0)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "n_paths", paths.shape[0])


def fbm_covariance(points: np.ndarray, hurst: float) -> np.ndarray:
    """Fractional Brownian covariance matrix on the given times."""
    t = np.asarray(points, dtype=float)
    s, tt = np.meshgrid(t, t, indexing="ij")
    return 0.5 * (s ** (2 * hurst) + tt ** (2 * hurst) - np.abs(s - tt) ** (2 * hurst))


def cholesky_with_jitter(matrix: np.ndarray):
    """Lower Cholesky factor, retrying with escalating diagonal jitter.

    The base jitter is 1e-12 * trace / m, escalated tenfold for up to three
    jittered attempts before giving up.
    """
    matrix = np.asarray(matrix, dtype=float)
    m = matrix.shape[0]
    base = 1e-12 * float(np.trace(matrix)) / m
    jitters = [0.0, base, 10.0 * base, 100.0 * base]
    for jitter in jitters:
        try:
            return np.linalg.cholesky(matrix + jitter * np.eye(m)), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericFailureError(
        f"Cholesky failed after jitter escalation up to {jitters[-1]:g}")


def _check_hurst(hurst: float) -> float:
    return check_float(hurst, "hurst", 0.0, 1.0, lo_open=True, hi_open=True)


def _check_gaussian_args(grid: TimeGrid, hurst: float, variant: str) -> float:
    """Checks shared by the fbm and elliptical samplers; returns hurst."""
    hurst = _check_hurst(hurst)
    if grid.a <= 0.0:
        raise InvalidArgumentError(
            f"{variant} copula needs grid.a > 0, got a={grid.a}")
    return hurst


def sample_independence(grid: TimeGrid, n_paths: int, seed: int) -> CopulaEnsemble:
    """All columns independent Uniform[0, 1]."""
    paths = rng.uniform_rows(seed, n_paths, grid.m)
    return CopulaEnsemble(grid, paths, int(seed), "independence")


def sample_comonotone(grid: TimeGrid, n_paths: int, seed: int) -> CopulaEnsemble:
    """One uniform per path repeated across all columns."""
    u = rng.uniform_rows(seed, n_paths, 1)
    paths = np.repeat(u, grid.m, axis=1)
    return CopulaEnsemble(grid, paths, int(seed), "comonotone")


def sample_fbm_copula(grid: TimeGrid, hurst: float, n_paths: int,
                      seed: int) -> CopulaEnsemble:
    """Copula of fractional Brownian motion observed on the grid.

    Requires grid.a > 0 so that every column has positive variance; the
    Gaussian paths are mapped through their exact marginal CDF with
    standard deviation t**hurst.
    """
    hurst = _check_gaussian_args(grid, hurst, "fbm")
    cov = fbm_covariance(grid.points, hurst)
    factor, _ = cholesky_with_jitter(cov)
    z = rng.normal_rows(seed, n_paths, grid.m)
    gaussians = z @ factor.T
    paths = ndtr(gaussians / grid.points ** hurst)
    return CopulaEnsemble(grid, paths, int(seed), f"fbm(hurst={hurst:g})")


def elliptical_pretransform(grid: TimeGrid, hurst: float, mixing: LognormalMixing,
                            n_paths: int, seed: int):
    """Draw S_i * V_i paths and the matching mixture marginal family.

    V is the unit-variance Gaussian process with the fBm correlation
    R(s, t) = cov(s, t) / (s t)**hurst.  Each path consumes one uniform
    (for S through the mixing quantile) followed by m standard normals.
    That uniform is clipped to [1e-16, 1 - 1e-16] before the quantile, so
    S stays finite and positive.
    """
    hurst = _check_gaussian_args(grid, hurst, "elliptical")
    family = ScaleMixtureGaussian(mixing)  # rejects mixings without E[1/S], E[S**2]
    scale = grid.points ** hurst
    corr = fbm_covariance(grid.points, hurst) / np.outer(scale, scale)
    factor, _ = cholesky_with_jitter(corr)
    mix_u = []

    def draw(gen):
        mix_u.append(gen.random())
        return gen.standard_normal(grid.m)

    normals = rng.path_rows(seed, n_paths, grid.m, draw)
    # one stacked matrix-vector product per row: the bits of factor @ row
    # (Z @ factor.T and einsum sum in another order)
    paths = np.matmul(factor, normals[:, :, None])[:, :, 0]
    s = np.asarray(mixing.quantile(np.clip(mix_u, 1e-16, 1.0 - 1e-16)), dtype=float)
    paths *= s[:, None]
    return paths, family


def sample_elliptical_copula(grid: TimeGrid, hurst: float, mixing: LognormalMixing,
                             n_paths: int, seed: int) -> CopulaEnsemble:
    """Copula of the scale mixture S * V (see elliptical_pretransform)."""
    pre, family = elliptical_pretransform(grid, hurst, mixing, n_paths, seed)
    paths = family.cdf(grid.a, pre)  # unit scale: the same law at every t
    return CopulaEnsemble(grid, paths, int(seed),
                          f"elliptical(hurst={float(hurst):g},{mixing.tag})")


def sample_archimedean_clayton(grid: TimeGrid, theta: float, n_paths: int,
                               seed: int) -> CopulaEnsemble:
    """Clayton copula via gamma frailty.

    With M ~ Gamma(1/theta, 1) and E_j iid standard exponential,
    U_j = (1 + E_j / M)**(-1/theta) has the Clayton law whose generator
    is phi(x) = x**-theta - 1: the marginal CDF is the Laplace transform
    (1 + s)**(-1/theta) of M evaluated at phi(u), which returns u.  Where
    M is so small that E_j / M overflows, U_j = exp(-(log E_j - log M)/theta).
    """
    theta = check_float(theta, "theta", 0.0, lo_open=True)
    m = grid.m
    frailties = []

    def draw(gen):
        frailty = gen.standard_gamma(1.0 / theta)
        while frailty == 0.0:  # guard against underflow for large theta
            frailty = gen.standard_gamma(1.0 / theta)
        frailties.append(frailty)
        return gen.standard_exponential(m)

    paths = rng.path_rows(seed, n_paths, m, draw)
    frailty = np.array(frailties)[:, None]
    with np.errstate(over="ignore"):
        # the rows holding an E / M past the largest float; there the power
        # gives 0.0, while 1 + E / M is E / M to the last bit
        rows = np.flatnonzero(np.isinf(paths.max(axis=1) / frailty[:, 0]))
        exps = paths[rows]
        tiny = np.broadcast_to(frailty[rows], exps.shape)
        over = np.isinf(exps / tiny)
        # the per-path arithmetic on the whole matrix, in the same order
        paths /= frailty
        paths += 1.0
        paths **= -1.0 / theta
    fixed = paths[rows]
    fixed[over] = np.exp(-(np.log(exps[over]) - np.log(tiny[over])) / theta)
    paths[rows] = fixed
    return CopulaEnsemble(grid, paths, int(seed), f"clayton(theta={theta:g})")


def empirical_copula_cdf(ensemble: CopulaEnsemble, time_indices, point) -> float:
    """Fraction of paths lying at or below ``point`` at the given columns."""
    idx = check_array(time_indices, "time_indices", 0, ensemble.grid.m - 1)
    if np.any(idx != np.trunc(idx)):
        raise InvalidArgumentError(
            f"time_indices must hold integers, got {reprlib.repr(time_indices)}")
    idx = idx.astype(int)
    pt = check_array(point, "point", 0.0, 1.0)
    if idx.ndim != 1 or idx.size < 1 or pt.shape != idx.shape:
        raise InvalidArgumentError("time_indices and point must be 1-d of equal length")
    hits = np.all(ensemble.paths[:, idx] <= pt[None, :], axis=1)
    return float(np.mean(hits))


@dataclass(frozen=True)
class CopulaModel:
    """Declarative sampler choice used by config-driven entry points."""

    variant: str
    hurst: float | None = None
    theta: float | None = None
    mixing: LognormalMixing = LognormalMixing()
    t0: float | None = None

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant not in _SAMPLERS:
            raise InvalidArgumentError(
                f"unknown copula variant {self.variant!r}; expected one of {tuple(_SAMPLERS)}")
        if self.variant in ("fbm", "elliptical"):
            _check_hurst(self.hurst)  # None included: both variants need it
        if not isinstance(self.mixing, LognormalMixing):
            raise InvalidArgumentError(
                f"mixing must be a LognormalMixing, got {self.mixing!r}")
        if self.theta is not None or self.variant == "clayton":
            check_float(self.theta, "theta", 0.0, lo_open=True)
        if self.t0 is not None:
            check_float(self.t0, "t0", 0.0, lo_open=True)

    def sample(self, grid: TimeGrid, n_paths: int, seed: int) -> CopulaEnsemble:
        if self.t0 is not None and grid.a < self.t0:
            raise InvalidArgumentError(
                f"grid must start at or after t0={self.t0}, got a={grid.a}")
        return _SAMPLERS[self.variant](self, grid, n_paths, seed)


#: variant -> sampler call; the keys are the valid ``CopulaModel`` variants
_SAMPLERS = {
    "independence": lambda model, grid, n, seed: sample_independence(grid, n, seed),
    "comonotone": lambda model, grid, n, seed: sample_comonotone(grid, n, seed),
    "fbm": lambda model, grid, n, seed: sample_fbm_copula(grid, model.hurst, n, seed),
    "elliptical": lambda model, grid, n, seed: sample_elliptical_copula(
        grid, model.hurst, model.mixing, n, seed),
    "clayton": lambda model, grid, n, seed: sample_archimedean_clayton(
        grid, model.theta, n, seed),
}
