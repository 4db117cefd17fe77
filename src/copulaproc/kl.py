"""Karhunen-Loeve expansion of second-order ensembles on a grid.

The continuous eigenproblem int C(s, t) phi(t) dt = lambda phi(s) is
discretized by the Nystrom device: with W = diag(grid weights), the
symmetric matrix W**(1/2) C W**(1/2) is diagonalized and eigenvectors are
mapped back through W**(-1/2), which makes the eigenfunctions orthonormal
in the weighted inner product.  Truncation keeps the leading eigenpairs;
the expected squared reconstruction error equals the tail eigenvalue sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidArgumentError, NumericFailureError, check_array, check_int
from .grid import TimeGrid
from .sklar import ProcessEnsemble

_SYMMETRY_TOL = 1e-8
_NEGATIVE_EIG_TOL = -1e-10


@dataclass(frozen=True, eq=False)
class KLDecomposition:
    """Eigenpairs of a covariance on a grid, plus the expansion mean."""

    grid: TimeGrid
    eigenvalues: np.ndarray    # descending, length m
    eigenfunctions: np.ndarray  # (m, m), column i is the i-th eigenfunction
    mean: np.ndarray           # (m,)

    def __post_init__(self):
        for name in ("eigenvalues", "eigenfunctions", "mean"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def empirical_covariance(ensemble: ProcessEnsemble) -> np.ndarray:
    """Unbiased (1/(n-1)) sample covariance of the path columns, symmetrized."""
    if ensemble.n_paths < 2:
        raise InvalidArgumentError("need at least two paths for a covariance")
    cov = np.cov(ensemble.paths, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return 0.5 * (cov + cov.T)


def kl_expand(cov: np.ndarray, grid: TimeGrid, mean=None) -> KLDecomposition:
    """Diagonalize a covariance against the grid quadrature.

    Eigenvalues are sorted descending; values in [-1e-10, 0) are clamped to
    zero and anything more negative is treated as a numerical failure.
    ``mean`` defaults to zero and is only used by truncation.
    """
    cov = check_array(cov, "covariance")
    if cov.shape != (grid.m, grid.m):
        raise InvalidArgumentError(
            f"covariance must have shape ({grid.m}, {grid.m}), got {cov.shape}")
    check_array(cov - cov.T, "covariance asymmetry", -_SYMMETRY_TOL, _SYMMETRY_TOL)
    mean = np.zeros(grid.m) if mean is None else check_array(mean, "mean")
    if mean.shape != (grid.m,):
        raise InvalidArgumentError(f"mean must have shape ({grid.m},), got {mean.shape}")

    sqrt_w = np.sqrt(grid.weights)
    sym = sqrt_w[:, None] * (0.5 * (cov + cov.T)) * sqrt_w[None, :]
    sym = 0.5 * (sym + sym.T)
    eigvals, eigvecs = scipy.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if eigvals.min() < _NEGATIVE_EIG_TOL:
        raise NumericFailureError(
            f"covariance has eigenvalue {eigvals.min():g} below {_NEGATIVE_EIG_TOL:g}")
    eigvals = np.maximum(eigvals, 0.0)
    # canonical sign: largest-magnitude component positive
    anchor = np.argmax(np.abs(eigvecs), axis=0)
    signs = np.sign(eigvecs[anchor, np.arange(eigvecs.shape[1])])
    signs[signs == 0.0] = 1.0
    eigvecs = eigvecs * signs[None, :]
    with np.errstate(divide="ignore"):
        inv_sqrt_w = np.where(sqrt_w > 0.0, 1.0 / sqrt_w, 0.0)
    functions = inv_sqrt_w[:, None] * eigvecs
    return KLDecomposition(grid=grid, eigenvalues=eigvals,
                           eigenfunctions=functions, mean=mean)


def kl_from_ensemble(ensemble: ProcessEnsemble) -> KLDecomposition:
    """Expansion of the empirical covariance about the sample mean."""
    cov = empirical_covariance(ensemble)
    mean = ensemble.paths.mean(axis=0)
    return kl_expand(cov, ensemble.grid, mean=mean)


def truncate(ensemble: ProcessEnsemble, kl: KLDecomposition,
             n_keep: int) -> ProcessEnsemble:
    """Project centered paths on the leading eigenfunctions and rebuild.

    Scores are weighted inner products <X - mean, phi_i>; the returned
    ensemble is mean + sum scores_i phi_i over the kept indices.  The
    centered paths are freed once the scores exist and the mean is added
    in place, so one n_paths x m array is alive here at a time, not three;
    the values are those of ``scores @ lead.T + mean`` bit for bit.
    """
    n_keep = check_int(n_keep, "n_keep", 1, kl.grid.m)
    if ensemble.grid != kl.grid:
        raise InvalidArgumentError("ensemble and expansion grids differ")
    lead = kl.eigenfunctions[:, :n_keep]
    scores = (ensemble.paths - kl.mean[None, :]) @ (kl.grid.weights[:, None] * lead)
    rebuilt = scores @ lead.T
    rebuilt += kl.mean[None, :]
    return ProcessEnsemble(kl.grid, rebuilt,
                           marginal_tag=ensemble.marginal_tag,
                           copula_tag=f"{ensemble.copula_tag}|kl(n={n_keep})")


def tail_energy(kl: KLDecomposition, n_keep: int) -> float:
    """Sum of the eigenvalues dropped by keeping n_keep terms."""
    n_keep = check_int(n_keep, "n_keep", 1, kl.grid.m)
    return float(kl.eigenvalues[n_keep:].sum())
