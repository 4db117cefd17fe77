import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulaproc import (GaussianScale, InvalidArgumentError,
                        LognormalMixing, NumericFailureError, ProcessEnsemble,
                        empirical_covariance, integrate, kl_expand,
                        kl_from_ensemble, make_uniform_grid, merge,
                        sample_fbm_copula, tail_energy, truncate)
from copulaproc.copulas import elliptical_pretransform

GRID = make_uniform_grid(1.0, 2.0, 17)


def brownian_cov(points):
    return np.minimum.outer(points, points)


def test_brownian_kernel_eigenvalues():
    # eigenvalues of min(s, t) on [0, 1]: 1 / ((i - 1/2)^2 pi^2)
    g = make_uniform_grid(0.0, 1.0, 513)
    kl = kl_expand(brownian_cov(g.points), g)
    expect = 1.0 / ((np.arange(1, 6) - 0.5) ** 2 * np.pi**2)
    assert_allclose(kl.eigenvalues[:5], expect, rtol=0.02)


def test_eigenfunctions_weighted_orthonormal():
    g = make_uniform_grid(0.0, 1.0, 65)
    kl = kl_expand(brownian_cov(g.points), g)
    gram = kl.eigenfunctions.T @ (g.weights[:, None] * kl.eigenfunctions)
    assert_allclose(gram, np.eye(g.m), atol=1e-8)


def test_eigenvalues_sorted_and_nonnegative():
    g = make_uniform_grid(0.0, 1.0, 33)
    kl = kl_expand(brownian_cov(g.points), g)
    assert np.all(np.diff(kl.eigenvalues) <= 1e-15)
    assert kl.eigenvalues.min() >= 0.0


def test_expansion_reconstructs_covariance():
    g = make_uniform_grid(0.0, 1.0, 33)
    cov = brownian_cov(g.points)
    kl = kl_expand(cov, g)
    # C(s,t) = sum_i lambda_i phi_i(s) phi_i(t)
    rebuilt = (kl.eigenfunctions * kl.eigenvalues) @ kl.eigenfunctions.T
    assert_allclose(rebuilt, cov, atol=1e-8)


def test_eigenvector_sign_canonical():
    g = make_uniform_grid(0.0, 1.0, 33)
    kl1 = kl_expand(brownian_cov(g.points), g)
    kl2 = kl_expand(brownian_cov(g.points) + 0.0, g)
    assert_allclose(kl1.eigenfunctions, kl2.eigenfunctions, rtol=0, atol=0)
    # sign anchored on the weighted eigenvectors sqrt(w) * phi
    vecs = np.sqrt(g.weights)[:, None] * kl1.eigenfunctions
    for j in range(g.m):
        col = vecs[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_empirical_covariance_matches_numpy():
    ens = merge(sample_fbm_copula(GRID, 0.5, 200, seed=3), GaussianScale(1.0))
    cov = empirical_covariance(ens)
    expect = np.cov(ens.paths, rowvar=False, ddof=1)
    assert_allclose(cov, 0.5 * (expect + expect.T), rtol=1e-12)


def test_truncation_error_equals_tail_energy():
    n = 20_000
    pre, _ = elliptical_pretransform(GRID, 0.5, LognormalMixing(0.0, 0.5),
                                      n, seed=29)
    ens = ProcessEnsemble(GRID, pre, "mixture", "elliptical-pre")
    kl = kl_from_ensemble(ens)
    for keep in (1, 3, 8):
        trunc = truncate(ens, kl, keep)
        sq = (ens.paths - trunc.paths) ** 2 @ GRID.weights
        mc = float(np.mean(sq))
        se = float(np.std(sq, ddof=1) / np.sqrt(n))
        tail = tail_energy(kl, keep)
        # in-sample identity carries the (n-1)/n covariance factor
        assert abs(mc - (n - 1) / n * tail) <= max(3.0 * se, 1e-12)


def test_truncate_matches_the_textbook_rebuild_bitwise():
    ens = merge(sample_fbm_copula(GRID, 0.7, 400, seed=33), GaussianScale(1.0, mean=2.0))
    kl = kl_from_ensemble(ens)
    for keep in (1, 3, GRID.m):
        lead = kl.eigenfunctions[:, :keep]
        scores = (ens.paths - kl.mean[None, :]) @ (GRID.weights[:, None] * lead)
        expect = scores @ lead.T + kl.mean[None, :]
        assert np.array_equal(truncate(ens, kl, keep).paths, expect), keep


def test_truncate_full_rank_is_identity():
    ens = merge(sample_fbm_copula(GRID, 0.5, 300, seed=31), GaussianScale(1.0))
    kl = kl_from_ensemble(ens)
    trunc = truncate(ens, kl, GRID.m)
    assert_allclose(trunc.paths, ens.paths, atol=1e-8)


def test_tail_energy_decreases():
    ens = merge(sample_fbm_copula(GRID, 0.5, 500, seed=37), GaussianScale(1.0))
    kl = kl_from_ensemble(ens)
    tails = [tail_energy(kl, k) for k in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert tails[0] < integrate(GRID, np.diag(empirical_covariance(ens)))


def test_mean_is_repinned(tmp_path=None):
    ens = merge(sample_fbm_copula(GRID, 0.5, 400, seed=41), GaussianScale(1.0, mean=2.5))
    kl = kl_from_ensemble(ens)
    assert_allclose(kl.mean, np.mean(ens.paths, axis=0), rtol=1e-12)
    trunc = truncate(ens, kl, 1)
    # truncation keeps the sample mean exactly
    assert_allclose(np.mean(trunc.paths, axis=0), kl.mean, atol=1e-10)


def test_kl_expand_validation():
    g = make_uniform_grid(0.0, 1.0, 5)
    asym = np.eye(5)
    asym[0, 4] = 0.5
    with pytest.raises(InvalidArgumentError):
        kl_expand(asym, g)
    with pytest.raises(NumericFailureError):
        kl_expand(-np.eye(5), g)
    ens = merge(sample_fbm_copula(GRID, 0.5, 50, seed=1), GaussianScale(1.0))
    kl = kl_from_ensemble(ens)
    with pytest.raises(InvalidArgumentError):
        truncate(ens, kl, 0)
    with pytest.raises(InvalidArgumentError):
        truncate(ens, kl, GRID.m + 1)


@pytest.mark.parametrize("call", [
    lambda ens, kl: truncate(ens, kl, True),
    lambda ens, kl: tail_energy(kl, True),
], ids=["truncate", "tail_energy"])
def test_n_keep_must_be_an_integer_not_a_bool(call):
    # n_keep = True used to run as n_keep = 1
    ens = merge(sample_fbm_copula(GRID, 0.5, 50, seed=1), GaussianScale(1.0))
    with pytest.raises(InvalidArgumentError, match="n_keep"):
        call(ens, kl_from_ensemble(ens))
