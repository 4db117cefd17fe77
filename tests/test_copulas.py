import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from copulaproc import (CopulaModel, InvalidArgumentError, LognormalMixing,
                        NumericFailureError, ScaleMixtureGaussian,
                        cholesky_with_jitter,
                        empirical_copula_cdf, fbm_covariance,
                        make_uniform_grid, sample_archimedean_clayton,
                        sample_comonotone, sample_elliptical_copula,
                        sample_fbm_copula, sample_independence)
from copulaproc import rng

GRID = make_uniform_grid(1.0, 2.0, 9)


def ks_threshold(n):
    return 1.63 / np.sqrt(n)


def test_fbm_covariance_formula():
    pts = np.array([1.0, 1.5, 2.0])
    h = 0.7
    cov = fbm_covariance(pts, h)
    expect = np.empty((3, 3))
    for i, s in enumerate(pts):
        for j, t in enumerate(pts):
            expect[i, j] = 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(s - t) ** (2 * h))
    assert_allclose(cov, expect, rtol=1e-14)
    # h = 1/2 reduces to min(s, t)
    assert_allclose(fbm_covariance(pts, 0.5), np.minimum.outer(pts, pts), rtol=1e-14)


def test_cholesky_with_jitter():
    cov = fbm_covariance(GRID.points, 0.5)
    chol, jitter = cholesky_with_jitter(cov)
    assert jitter == 0.0
    assert_allclose(chol @ chol.T, cov, atol=1e-10)
    # rank-one matrix needs the jitter path
    ones = np.ones((4, 4))
    chol2, jitter2 = cholesky_with_jitter(ones)
    assert jitter2 > 0.0
    assert_allclose(chol2 @ chol2.T, ones, atol=1e-5)
    with pytest.raises(NumericFailureError):
        cholesky_with_jitter(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_independence_columns_uncorrelated():
    ens = sample_independence(GRID, 20_000, seed=101)
    assert ens.paths.shape == (20_000, 9)
    assert ens.paths.min() >= 0.0 and ens.paths.max() <= 1.0
    corr = np.corrcoef(ens.paths[:, 0], ens.paths[:, 5])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(20_000)


def test_comonotone_constant_rows():
    ens = sample_comonotone(GRID, 50, seed=3)
    assert np.all(ens.paths == ens.paths[:, :1])


@pytest.mark.parametrize("sampler,kwargs", [
    (sample_independence, {}),
    (sample_comonotone, {}),
    (sample_fbm_copula, {"hurst": 0.5}),
    (sample_elliptical_copula, {"hurst": 0.5, "mixing": LognormalMixing(0.0, 0.5)}),
    (sample_archimedean_clayton, {"theta": 1.0}),
])
def test_columns_uniform(sampler, kwargs):
    n = 20_000
    if kwargs:
        ens = sampler(GRID, n_paths=n, seed=71, **kwargs)
    else:
        ens = sampler(GRID, n, 71)
    for j in range(GRID.m):
        d = stats.kstest(ens.paths[:, j], "uniform").statistic
        assert d <= ks_threshold(n), f"column {j}: {d:.4f}"


def test_path_substream_determinism():
    # path i depends only on (seed, i), not on the ensemble size
    small = sample_fbm_copula(GRID, 0.5, 5, seed=9)
    large = sample_fbm_copula(GRID, 0.5, 40, seed=9)
    assert np.array_equal(small.paths, large.paths[:5])
    again = sample_fbm_copula(GRID, 0.5, 5, seed=9)
    assert np.array_equal(small.paths, again.paths)
    other = sample_fbm_copula(GRID, 0.5, 5, seed=10)
    assert not np.array_equal(small.paths, other.paths)


def test_fbm_positive_association():
    ens = sample_fbm_copula(GRID, 0.7, 20_000, seed=15)
    corr = np.corrcoef(ens.paths[:, 0], ens.paths[:, 1])[0, 1]
    assert corr > 0.5


def test_fbm_pretransform_brownian_correlation():
    # hurst = 1/2: corr of the latent Gaussians at (s, t) is sqrt(s / t)
    grid = make_uniform_grid(1.0, 4.0, 7)
    n = 40_000
    ens = sample_fbm_copula(grid, 0.5, n, seed=57)
    latent = stats.norm.ppf(ens.paths) * grid.points ** 0.5
    corr = np.corrcoef(latent[:, 0], latent[:, -1])[0, 1]
    assert abs(corr - 0.5) <= 0.02


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_fbm_holder_regression_recovers_hurst(hurst):
    # log mean-absolute-increment vs log lag has slope near the Hurst index
    grid = make_uniform_grid(1.0, 2.0, 1025)
    ens = sample_fbm_copula(grid, hurst, 400, seed=61)
    lags = np.array([1, 2, 4, 8, 16, 32])
    mean_abs = np.array([np.mean(np.abs(ens.paths[:, lag:] - ens.paths[:, :-lag]))
                         for lag in lags])
    slope = np.polyfit(np.log(lags), np.log(mean_abs), 1)[0]
    assert abs(slope - hurst) <= 0.15


def test_fbm_requires_positive_start():
    g0 = make_uniform_grid(0.0, 1.0, 5)
    with pytest.raises(InvalidArgumentError):
        sample_fbm_copula(g0, 0.5, 10, seed=1)


def test_clayton_bivariate_cdf():
    # C(u, v) = (u**-theta + v**-theta - 1)**(-1/theta)
    n = 40_000
    ens = sample_archimedean_clayton(GRID, 1.0, n, seed=23)
    got = empirical_copula_cdf(ens, [0, 4], [0.5, 0.5])
    assert abs(got - 1.0 / 3.0) <= 3.0 / np.sqrt(n)


def test_clayton_small_theta_near_independence():
    n = 100_000
    ens = sample_archimedean_clayton(GRID, 0.01, n, seed=29)
    c = empirical_copula_cdf(ens, [0, 4], [0.5, 0.5])
    assert abs(c - 0.25) <= 0.01


def test_clayton_exchangeable_columns():
    n = 20_000
    ens = sample_archimedean_clayton(GRID, 1.5, n, seed=37)
    assert stats.ks_2samp(ens.paths[:, 1], ens.paths[:, 6]).pvalue >= 0.01
    # bivariate law symmetric under swapping the pair
    c_uv = empirical_copula_cdf(ens, [1, 6], [0.3, 0.7])
    c_vu = empirical_copula_cdf(ens, [1, 6], [0.7, 0.3])
    assert abs(c_uv - c_vu) <= 6.0 / np.sqrt(n)


def test_independence_product_cdf():
    n = 40_000
    ens = sample_independence(GRID, n, seed=43)
    c = empirical_copula_cdf(ens, [0, 4], [0.5, 0.5])
    assert abs(c - 0.25) <= 3.0 / np.sqrt(n)


def test_clayton_dependence_increases_with_theta():
    n = 10_000
    weak = sample_archimedean_clayton(GRID, 0.5, n, seed=31)
    strong = sample_archimedean_clayton(GRID, 2.0, n, seed=31)
    c_weak = np.corrcoef(weak.paths[:, 0], weak.paths[:, 8])[0, 1]
    c_strong = np.corrcoef(strong.paths[:, 0], strong.paths[:, 8])[0, 1]
    assert c_strong > c_weak > 0.0


def test_clayton_strong_dependence_keeps_the_overflowing_entries():
    # at theta = 1000 some Gamma(1/theta) frailties M fall below 1e-308, so
    # E / M overflows and (1 + E / M)**(-1/theta) would give exact zeros
    grid, theta = make_uniform_grid(0.0, 1.0, 33), 1000.0
    frailties = []

    def draw(gen):
        frailty = gen.standard_gamma(1.0 / theta)
        while frailty == 0.0:
            frailty = gen.standard_gamma(1.0 / theta)
        frailties.append(frailty)
        return gen.standard_exponential(grid.m)

    e = rng.path_rows(1, 2000, grid.m, draw)
    m = np.array(frailties)[:, None]
    with np.errstate(over="ignore"):
        ratio = e / m
    over = np.isinf(ratio)
    assert over.any()
    got = sample_archimedean_clayton(grid, theta, 2000, seed=1).paths
    assert np.array_equal(got[~over], (1.0 + ratio[~over]) ** (-1.0 / theta))
    # log(1 + E / M) = log E - log M + log1p(M / E)
    exact = np.exp(-(np.log(e) - np.log(m) + np.log1p(m / e)) / theta)
    assert_allclose(got[over], exact[over], rtol=1e-15)
    assert got.min() > 0.4


def test_frechet_upper_bound():
    n = 20_000
    lattice = np.array([0.2, 0.4, 0.6, 0.8])
    slack = 3.0 / np.sqrt(n)
    for ens in (sample_independence(GRID, n, 41),
                sample_comonotone(GRID, n, 41),
                sample_fbm_copula(GRID, 0.5, n, 41)):
        for u in lattice:
            for v in lattice:
                c = empirical_copula_cdf(ens, [1, 6], [u, v])
                assert c <= min(u, v) + slack
    como = sample_comonotone(GRID, n, 41)
    for u in lattice:
        c = empirical_copula_cdf(como, [1, 6], [u, 0.6])
        assert abs(c - min(u, 0.6)) <= slack


def test_elliptical_degenerate_mixing_matches_gaussian_copula():
    # scale factor pinned at 1 collapses the mixture to the Gaussian copula
    n = 20_000
    ell = sample_elliptical_copula(GRID, 0.5, LognormalMixing(0.0, 1e-6), n, seed=83)
    gauss = sample_fbm_copula(GRID, 0.5, n, seed=84)
    for j in range(GRID.m):
        assert stats.ks_2samp(ell.paths[:, j], gauss.paths[:, j]).pvalue >= 0.01
    # pairwise sum is copula-sensitive, unlike the uniform columns alone
    p = stats.ks_2samp(ell.paths[:, 0] + ell.paths[:, 8],
                       gauss.paths[:, 0] + gauss.paths[:, 8]).pvalue
    assert p >= 0.01


def test_elliptical_matches_pretransform_cdf():
    from copulaproc.copulas import elliptical_pretransform
    mixing = LognormalMixing(0.0, 0.5)
    ens = sample_elliptical_copula(GRID, 0.5, mixing, 50, seed=77)
    pre, family = elliptical_pretransform(GRID, 0.5, mixing, 50, seed=77)
    assert_allclose(ens.paths, family.cdf(GRID.points[0], pre), rtol=0, atol=1e-15)


def test_empirical_copula_cdf_validation():
    ens = sample_independence(GRID, 100, seed=1)
    with pytest.raises(InvalidArgumentError):
        empirical_copula_cdf(ens, [0, 99], [0.5, 0.5])
    with pytest.raises(InvalidArgumentError):
        empirical_copula_cdf(ens, [0, 1], [0.5, 1.5])


@pytest.mark.parametrize("indices", [[1.5], [0.999], [0, 2.5], np.array([1.0, 3.25])])
def test_empirical_copula_cdf_refuses_fractional_time_indices(indices):
    # truncated, 1.5 read column 1 and 0.999 column 0
    ens = sample_independence(GRID, 100, seed=1)
    with pytest.raises(InvalidArgumentError, match="time_indices must hold integers"):
        empirical_copula_cdf(ens, indices, [0.5] * len(indices))
    assert empirical_copula_cdf(ens, [1.0, 3.0], [0.5, 0.5]) == \
        empirical_copula_cdf(ens, [1, 3], [0.5, 0.5])


def test_copula_model_dispatch_and_validation():
    model = CopulaModel(variant="fbm", hurst=0.5, t0=1.0)
    ens = model.sample(GRID, 10, seed=2)
    direct = sample_fbm_copula(GRID, 0.5, 10, seed=2)
    assert np.array_equal(ens.paths, direct.paths)
    with pytest.raises(InvalidArgumentError):
        CopulaModel(variant="nope")
    with pytest.raises(InvalidArgumentError):
        CopulaModel(variant="fbm")  # missing hurst
    with pytest.raises(InvalidArgumentError):
        CopulaModel(variant="clayton")  # missing theta
    for bad in ({"variant": "fbm", "hurst": 0.5, "t0": np.nan},
                {"variant": "clayton", "theta": np.nan},
                {"variant": "independence", "theta": np.inf}):
        with pytest.raises(InvalidArgumentError):
            CopulaModel(**bad)
    with pytest.raises(InvalidArgumentError):
        model.sample(make_uniform_grid(0.5, 1.5, 3), 5, seed=1)  # starts before t0


#: a mixing other than a LognormalMixing used to raise a bare AttributeError
#: (the family, and the elliptical sampler when it built one) or to pass
#: unchecked (every other variant)
@pytest.mark.parametrize("call", [
    lambda: ScaleMixtureGaussian(None),
    lambda: CopulaModel("elliptical", hurst=0.5, mixing="x").sample(GRID, 2, 1),
    lambda: CopulaModel("fbm", hurst=0.5, mixing="x"),
    lambda: CopulaModel("independence", mixing=None),
    lambda: CopulaModel("comonotone", mixing=0.5),
    lambda: CopulaModel("clayton", theta=1.0, mixing="x"),
], ids=["family", "elliptical", "fbm", "independence", "comonotone", "clayton"])
def test_mixing_must_be_a_lognormal_mixing(call):
    with pytest.raises(InvalidArgumentError, match=r"^mixing must be a LognormalMixing, got "):
        call()


def test_ensemble_validation():
    from copulaproc import CopulaEnsemble
    bad = np.full((3, GRID.m), 1.5)
    with pytest.raises(InvalidArgumentError):
        CopulaEnsemble(GRID, bad, 0, "bad")
    ens = sample_independence(GRID, 5, seed=1)
    with pytest.raises(ValueError):
        ens.paths[0, 0] = 0.5  # read-only


@pytest.mark.parametrize("n", [1, 2, 3, 4100])
def test_elliptical_pretransform_matches_a_per_row_product_bitwise(n):
    # the stacked product returns the bits of factor @ row, row by row
    from copulaproc import rng
    from copulaproc.copulas import elliptical_pretransform
    grid = make_uniform_grid(1.0, 2.0, 65)
    mixing = LognormalMixing(0.0, 0.5)
    scale = grid.points ** 0.7
    factor, _ = cholesky_with_jitter(fbm_covariance(grid.points, 0.7) / np.outer(scale, scale))
    mix_u = []

    def draw(gen):
        mix_u.append(gen.random())
        return factor @ gen.standard_normal(grid.m)

    want = rng.path_rows(31, n, grid.m, draw)
    want *= mixing.quantile(np.clip(mix_u, 1e-16, 1.0 - 1e-16))[:, None]
    got, _ = elliptical_pretransform(grid, 0.7, mixing, n, 31)
    assert np.array_equal(got, want)
