import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import ndtr, ndtri, roots_legendre

from copulaproc import (Empirical, ExponentialScale, GaussianScale,
                        InvalidArgumentError, LognormalMixing, NumericFailureError, Pareto,
                        ScaleMixtureGaussian, Uniform,
                        UnsupportedOperationError, make_uniform_grid, merge,
                        pathspace_wasserstein_same_copula, sample_comonotone)
from copulaproc import _quadrature, marginals, sklar
from copulaproc.marginals import FAMILY_KINDS

U_LAT = np.linspace(1e-6, 1.0 - 1e-6, 501)


def roundtrip_error(family, t):
    x = family.quantile(t, U_LAT)
    return np.max(np.abs(family.cdf(t, x) - U_LAT))


def test_gaussian_matches_scipy():
    fam = GaussianScale(1.5, mean=0.25)
    x = np.linspace(-5.0, 5.0, 101)
    assert_allclose(fam.cdf(0.0, x), stats.norm.cdf(x, loc=0.25, scale=1.5),
                    rtol=0, atol=1e-14)
    assert_allclose(fam.pdf(0.0, x), stats.norm.pdf(x, loc=0.25, scale=1.5),
                    rtol=1e-13)
    assert roundtrip_error(fam, 0.0) < 1e-12


def test_gaussian_power_law_scale():
    fam = GaussianScale.power_law(0.3)
    for t in (0.5, 1.0, 2.0):
        assert_allclose(fam.quantile(t, 0.975), t**0.3 * stats.norm.ppf(0.975),
                        rtol=1e-12)


def test_gaussian_deep_tail_complement():
    # quantile_tail stays accurate where 1 - u rounds to zero
    fam = GaussianScale(1.0)
    cu = np.array([1e-18])
    z = fam.quantile_tail(0.0, 1.0 - cu, cu)
    assert_allclose(z, stats.norm.isf(1e-18), rtol=1e-12)


def test_gaussian_degenerate_scale():
    fam = GaussianScale(0.0, mean=0.7)
    u = np.array([0.01, 0.5, 0.99])
    assert_allclose(fam.quantile(1.0, u), 0.7)
    assert fam.cdf(1.0, 0.69) == 0.0 and fam.cdf(1.0, 0.71) == 1.0
    with pytest.raises(UnsupportedOperationError):
        fam.pdf(1.0, 0.7)


def test_exponential_closed_form():
    fam = ExponentialScale(2.0)
    u = np.array([0.1, 0.5, 0.9])
    assert_allclose(fam.quantile(0.0, u), -2.0 * np.log1p(-u), rtol=1e-14)
    assert roundtrip_error(fam, 0.0) < 1e-12
    assert fam.cdf(0.0, -1.0) == 0.0


def test_pareto_closed_form():
    fam = Pareto(1.5, 3.0)
    u = np.array([0.1, 0.5, 0.99])
    assert_allclose(fam.quantile(0.0, u), 1.5 * (1.0 - u) ** (-1.0 / 3.0),
                    rtol=1e-14)
    x = fam.quantile(0.0, u)
    assert_allclose(fam.pdf(0.0, x), 3.0 / 1.5 * (x / 1.5) ** (-4.0), rtol=1e-12)
    assert fam.cdf(0.0, 1.0) == 0.0
    assert fam.support(0.0) == (1.5, np.inf)


def test_uniform_identity_exact():
    fam = Uniform()
    u = np.linspace(0.0, 1.0, 33)
    assert np.array_equal(fam.quantile(0.0, u), u)
    assert np.array_equal(fam.cdf(0.0, u), u)


def test_quantile_left_continuity_galois():
    # Q(u) <= x exactly when u <= F(x), checked on an atomic family
    g = make_uniform_grid(0.0, 1.0, 2)
    samples = np.array([[0.0, 0.0, 1.0, 1.0, 1.0], [0.0] * 5])
    fam = Empirical(g, samples)
    for u in np.arange(1, 21) / 20.0:
        q = float(fam.quantile(0.0, u))
        for x in (0.0, 0.5, 1.0):
            assert (q <= x) == (u <= float(fam.cdf(0.0, x)))


def test_empirical_order_statistics():
    g = make_uniform_grid(0.0, 1.0, 2)
    col = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    fam = Empirical(g, np.vstack([col, col]))
    # u in ((k-1)/n, k/n] maps to the k-th order statistic
    assert fam.quantile(0.0, 0.2) == 1.0
    assert fam.quantile(0.0, 0.2000000000000001) == 2.0
    assert fam.quantile(0.0, 1.0) == 5.0
    assert fam.quantile(0.0, 1e-9) == 1.0
    assert fam.cdf(0.0, 2.5) == 0.4
    assert fam.cdf_left(0.0, 2.0) == 0.2


def test_empirical_sorts_its_own_copy_of_the_samples():
    g = make_uniform_grid(0.0, 1.0, 4)
    rng = np.random.default_rng(12)
    # a C-ordered array and the transposed paths view the ensemble helper passes
    for samples in (rng.normal(size=(4, 301)).round(1),
                    rng.exponential(size=(301, 4)).T):
        before = samples.copy()
        fam = Empirical(g, samples)
        assert np.array_equal(samples, before)
        expect = np.sort(samples, axis=1)
        for j, t in enumerate(g.points):
            assert np.array_equal(fam.column(t), expect[j])
            assert not np.shares_memory(fam.column(t), samples)
            assert not fam.column(t).flags.writeable


def test_empirical_ranks_match_plain_searchsorted():
    g = make_uniform_grid(0.0, 1.0, 3)
    rng = np.random.default_rng(8)
    samples = rng.integers(0, 6, size=(3, 500)).astype(float)  # heavy ties
    samples[1] = rng.standard_normal(500)
    fam = Empirical(g, samples)
    for t in g.points:
        col = fam.column(t)
        queries = np.concatenate((
            col[rng.permutation(col.size)],              # every sample value
            rng.uniform(col[0] - 1.0, col[-1] + 1.0, 300),
            [col[0] - 10.0, col[-1] + 10.0, col[0], col[-1]]))  # beyond and at the ends
        rng.shuffle(queries)
        for x in (queries, queries[:400].reshape(20, 20), float(queries[7])):
            right = np.searchsorted(col, x, side="right") / col.size
            left = np.searchsorted(col, x, side="left") / col.size
            assert np.array_equal(fam.cdf(t, x), right)
            assert np.array_equal(fam.cdf_left(t, x), left)
            v = np.asarray(rng.uniform(size=np.shape(x)))
            v = float(v) if np.ndim(x) == 0 else v
            assert np.array_equal(fam.distributional_transform(t, x, v),
                                  left + v * (right - left))
            assert np.shape(fam.cdf(t, x)) == np.shape(x)
    assert isinstance(fam.cdf(0.0, 2.0), float)


@pytest.mark.parametrize("column", [
    np.random.default_rng(9).integers(0, 6, 400).astype(float),  # heavy ties
    np.array([2.5]),
    np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0]),
])
def test_empirical_ranks_of_its_own_sample_need_no_search(column, monkeypatch):
    g = make_uniform_grid(0.0, 1.0, 2)
    fam = Empirical(g, np.vstack([column, column[::-1]]))
    col = fam.column(0.0)
    left = np.searchsorted(col, column, side="left") / col.size
    right = np.searchsorted(col, column, side="right") / col.size
    searches = []
    searchsorted = np.searchsorted

    def counting_searchsorted(a, *args, **kwargs):
        if a is not g.points:  # the grid-time lookup is not a rank search
            searches.append(a)
        return searchsorted(a, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting_searchsorted)
    # the sample in its original order, not sorted, is what a family sees
    # when it transforms the ensemble it was built from
    for t in g.points:
        got_left, got_right = fam._cdf_limits(t, column)
        assert np.array_equal(got_left, left) and np.array_equal(got_right, right)
        assert np.array_equal(fam.cdf(t, column), right)
        assert np.array_equal(fam.cdf_left(t, column), left)
    assert searches == []
    if column.size % 2 == 0:
        square = column.reshape(2, -1)
        assert np.array_equal(fam.cdf(0.0, square), right.reshape(2, -1))


def test_empirical_distributional_transform_sorts_once(monkeypatch):
    g = make_uniform_grid(0.0, 1.0, 2)
    rng = np.random.default_rng(2)
    fam = Empirical(g, rng.integers(0, 5, size=(2, 100)).astype(float))
    x = rng.integers(-1, 6, size=(5, 10)).astype(float)
    v = rng.uniform(size=x.shape)
    sorted_sizes = []
    argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    out = fam.distributional_transform(0.0, x, v)
    assert sorted_sizes == [x.size]
    col = fam.column(0.0)
    left = np.searchsorted(col, x, side="left") / col.size
    right = np.searchsorted(col, x, side="right") / col.size
    assert np.array_equal(out, left + v * (right - left))


def test_distributional_transform_atomic_uniformity():
    # two-point law: mass 0.4 at 0 and 0.6 at 1
    g = make_uniform_grid(0.0, 1.0, 2)
    col = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    fam = Empirical(g, np.vstack([col, col]))
    rng = np.random.default_rng(11)
    n = 100_000
    x = fam.quantile(0.0, rng.uniform(size=n))
    v = rng.uniform(size=n)
    u = fam.distributional_transform(0.0, x, v)
    d = stats.kstest(u, "uniform").statistic
    assert d <= 1.63 / np.sqrt(n)


def test_distributional_transform_two_point_values():
    g = make_uniform_grid(0.0, 1.0, 2)
    col = np.array([0.0, 1.0])
    fam = Empirical(g, np.vstack([col, col]))
    # F(0-) = 0, F(0) = 0.5, F(1-) = 0.5, F(1) = 1
    assert fam.distributional_transform(0.0, 0.0, 0.6) == pytest.approx(0.3)
    assert fam.distributional_transform(0.0, 1.0, 0.5) == pytest.approx(0.75)


def test_pdf_matches_cdf_derivative():
    cases = (
        (GaussianScale(1.0), np.linspace(-3.0, 3.0, 100)),
        (ExponentialScale(2.0), np.linspace(0.1, 8.0, 100)),
        (Pareto(1.0, 4.0), np.linspace(1.01, 5.0, 100)),
    )
    h = 1e-5
    for fam, xs in cases:
        approx = (fam.cdf(0.5, xs + h) - fam.cdf(0.5, xs - h)) / (2.0 * h)
        assert np.abs(approx - fam.pdf(0.5, xs)).max() <= 1e-4


def test_distributional_transform_continuous_reduces_to_cdf():
    fam = GaussianScale(1.0)
    x = np.linspace(-3.0, 3.0, 7)
    v = np.full(7, 0.123)
    assert_allclose(fam.distributional_transform(0.0, x, v), fam.cdf(0.0, x),
                    rtol=0, atol=1e-14)


def test_lognormal_mixing_closed_forms():
    mix = LognormalMixing(0.0, 0.5)
    assert_allclose(mix.mean_inverse, np.exp(0.125), rtol=1e-12)
    assert_allclose(mix.mean_square, np.exp(0.5), rtol=1e-12)
    u = np.array([0.1, 0.5, 0.9])
    assert_allclose(mix.quantile(u), np.exp(0.5 * stats.norm.ppf(u)), rtol=1e-12)


def test_scale_mixture_cdf_against_dense_quadrature():
    mix = LognormalMixing(0.0, 0.5)
    fam = ScaleMixtureGaussian(mix)
    # the same mixture integral on 256 Gauss-Legendre nodes
    nodes, weights = roots_legendre(256)
    scales = mix.quantile(0.5 * (nodes + 1.0))
    z = np.linspace(-8.0, 8.0, 321)
    dense = ndtr(z[:, None] / scales) @ (0.5 * weights)
    assert np.max(np.abs(fam.cdf(0.0, z) - dense)) < 1e-5


#: one row, a few rows, one past a 2048-row block, the 16,385-point quantile
#: table, and one row past one and two runs of 65536
MIXTURE_SIZES = (1, 2, 3, 2049, 16385, 20000, 65537, 131073)


def _mixture_in_65536_row_blocks(path):
    """cdf, pdf and quantile table of the mixture, one product per 65536 rows."""
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=2.0)
    s, w = fam._mix_s, fam._mix_w
    sqrt_2pi = float(np.sqrt(2.0 * np.pi))

    def blocked(z, func):
        out = np.empty_like(z)
        for start in range(0, z.size, 65536):
            block = z[start:start + 65536, None] / s[None, :]
            out[start:start + 65536] = func(block) @ w
        return out

    def density(block):
        return np.exp(-0.5 * block * block) / (sqrt_2pi * s[None, :])

    z_max = float(s.max()) * abs(ndtri(1e-14)) * 1.05
    ref = {"table": blocked(np.linspace(-z_max, z_max, 16385), ndtr)}
    rng = np.random.default_rng(12)
    for n in MIXTURE_SIZES:
        x = 3.0 * rng.standard_normal(n)
        ref[f"x{n}"] = x
        ref[f"cdf{n}"] = blocked(x / 2.0, ndtr)
        ref[f"pdf{n}"] = blocked(x / 2.0, density) / 2.0
    np.savez(path, **ref)


def test_scale_mixture_blocks_keep_the_65536_row_values_bitwise(tmp_path):
    # The reference runs with one BLAS thread: with several, the 65536-row
    # product's own last bits move with how the BLAS splits the rows (on
    # two threads, the last of 16,385 rows moves by one ulp), while 2048-row
    # blocks give the same values on one thread and on several.
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    path = tmp_path / "ref.npz"
    code = (f"import sys; sys.path[:0] = [{tests_dir!r}, {src_dir!r}]; "
            f"import test_marginals; test_marginals._mixture_in_65536_row_blocks({str(path)!r})")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    ref = np.load(path)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=2.0)
    # the quantile table holds the lower half of those nodes
    assert np.array_equal(fam._table[1], ref["table"][:8193])
    for n in MIXTURE_SIZES:
        x = ref[f"x{n}"]
        assert np.array_equal(fam.cdf(0.0, x), ref[f"cdf{n}"]), n
        assert np.array_equal(fam.pdf(0.0, x), ref[f"pdf{n}"]), n


def _cdf0(fam, z):
    """F0(z), the unit mixture CDF, from a pass of its own."""
    return marginals._mixture_average(z, fam._mix_s, fam._mix_w, marginals._normal_cdf)[0]


def _pdf0(fam, z):
    """f0(z), the unit mixture density, from a pass of its own."""
    return marginals._mixture_average(z, fam._mix_s, fam._mix_w, marginals._normal_density)[0]


def _cdf0_pdf0(fam, z):
    """(F0(z), f0(z)) from one fused pass, as the Newton steps take them."""
    return marginals._mixture_average(z, fam._mix_s, fam._mix_w, marginals._normal_cdf,
                                      marginals._normal_density)


def _two_pass_newton_quantile(fam, t, u):
    """The mixture quantile as a reference: a linear interpolation on F0 at
    16,385 nodes over [-z_max, z_max], then 4 Newton steps on every entry,
    with F0(z) and F0(-z) each taken over every entry."""
    u = np.asarray(u, dtype=float)
    cu = 1.0 - u
    z_max = -fam._table[0][0]
    zs = np.linspace(-z_max, z_max, 16385)
    z = np.clip(np.interp(u, _cdf0(fam, zs), zs), zs[0], zs[-1])
    for _ in range(4):
        dens = np.maximum(_pdf0(fam, z), 1e-300)
        resid = np.where(u <= 0.5, _cdf0(fam, z) - u, cu - _cdf0(fam, -z))
        z = np.clip(z - resid / dens, zs[0], zs[-1])
    return fam.scale(t) * z


@pytest.mark.parametrize("n", MIXTURE_SIZES)
def test_scale_mixture_one_pass_residual_matches_two_pass_bitwise(n):
    # the Newton step's F0 and f0 come from one pass over the blocks, with
    # the values of a CDF pass and a density pass
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    z = 8.0 * np.random.default_rng(n).standard_normal(n)
    cdf, pdf = _cdf0_pdf0(fam, z)
    assert np.array_equal(cdf, _cdf0(fam, z))
    assert np.array_equal(pdf, _pdf0(fam, z))


@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5])
def test_scale_mixture_newton_step_takes_one_fused_pass(monkeypatch, sigma):
    fam = ScaleMixtureGaussian(LognormalMixing(0.1, sigma))
    calls = []
    kernel = marginals._mixture_average

    def spy(z, scales, weights, *funcs):
        calls.append((np.size(z), len(funcs)))
        return kernel(z, scales, weights, *funcs)

    monkeypatch.setattr(marginals, "_mixture_average", spy)
    u = np.random.default_rng(3).uniform(0.0, 1.0, 5000)
    fam.quantile(0.0, u)
    # the table start is close enough that one Newton step, F0 and f0
    # from one pass, finishes every entry
    assert calls == [(5000, 2)]


#: u from 1e-18 to 1 - 1e-15 through both tails, and uniform draws
QUANTILE_SWEEP = np.concatenate([
    np.logspace(-18.0, np.log10(0.5), 1000), 1.0 - np.logspace(-15.0, np.log10(0.5), 1000),
    np.random.default_rng(29).uniform(0.0, 1.0, 20000)])


def _agrees_with_the_four_step_reference(fam, u):
    """Each quantile within 4 eps * (|z| + F0/f0) of the reference: |z| for
    the rounding of z, F0/f0 for how far F0's own rounding moves the root."""
    got = fam.quantile(0.0, u)
    ref = _two_pass_newton_quantile(fam, 0.0, u)
    tail, dens = _cdf0_pdf0(fam, -np.abs(ref))
    return np.abs(got - ref) <= 4.0 * np.finfo(float).eps * (np.abs(ref) + tail / dens)


@pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5, 1.0, 1.5])
def test_scale_mixture_quantile_matches_the_four_step_reference(sigma):
    assert np.all(_agrees_with_the_four_step_reference(
        ScaleMixtureGaussian(LognormalMixing(0.0, sigma)), QUANTILE_SWEEP))


def test_scale_mixture_quantile_clips_below_the_table():
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    zs, cdf = fam._table[:2]
    u = np.array([cdf[0] / 2.0, cdf[0] * 0.999, 1e-300])
    assert np.all(fam.quantile(0.0, u) == zs[0])
    assert np.all(fam.quantile_tail(0.0, 1.0 - u, u) == -zs[0])
    assert fam.quantile(0.0, cdf[0] * 1.001) > zs[0]


def test_scale_mixture_upper_tail_mirrors_the_lower_tail():
    # 1 - F0(z) = F0(-z), and cu is solved as accurately as u.  A start
    # interpolated in u, where 1 - cu rounds to 1, left four Newton steps
    # about 1.0 off for cu below 5e-16
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    c = np.logspace(-18.0, -1.0, 69)
    assert np.array_equal(fam.quantile_tail(0.0, 1.0 - c, c), -fam.quantile(0.0, c))


def test_scale_mixture_quantile_converges_for_sigma_2():
    # four Newton steps from a linear start left relative residuals up to
    # 2.6e-3 here
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 2.0))
    rng = np.random.default_rng(8)
    u = np.concatenate([10.0 ** -rng.uniform(0.0, 18.0, 12500), rng.uniform(0.0, 1.0, 12500)])
    z = fam.quantile(0.0, u)
    tail = _cdf0(fam, -np.abs(z))
    v = np.minimum(u, 1.0 - u)
    assert np.all(np.abs(z) < -fam._table[0][0])
    assert np.max(np.abs(tail - v) / v) <= 1e-13


def test_scale_mixture_quantile_that_does_not_converge_raises():
    # four Newton steps left relative residuals up to 1.87 here, unreported
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 3.0))
    u = np.random.default_rng(8).uniform(0.0, 1.0, 25000)
    with pytest.raises(NumericFailureError, match=r"LognormalMixing\(mu=0.0, sigma=3.0\)"):
        fam.quantile(0.0, u)


@pytest.mark.parametrize("mu, sigma", [(0.0, 30.0), (400.0, 0.5), (-800.0, 0.5)])
def test_scale_mixture_refuses_mixings_whose_moments_overflow(mu, sigma):
    # E[S**2] = exp(2 mu + 2 sigma**2) or E[1/S] = exp(sigma**2 / 2 - mu)
    # lies past the float range; the refusal comes before any exp overflows
    # (the warning filter would raise it) and before its law is built
    marginals._unit_law.cache_clear()
    with pytest.raises(InvalidArgumentError, match=r"finite E\[1/S\] and E\[S\*\*2\]"):
        ScaleMixtureGaussian(LognormalMixing(mu, sigma))
    assert marginals._unit_law.cache_info().misses == 0


def test_scale_mixture_merge_stores_no_quantile():
    # merge columns are fresh writable arrays that never recur, so the
    # quantile memo neither copies nor compares them
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    grid = make_uniform_grid(0.0, 1.0, 33)
    merge(sample_comonotone(grid, 2048, seed=1), fam)
    assert fam._q0_memo == {}


def test_scale_mixture_merge_builds_its_quantile_table_once(monkeypatch):
    # the family builds its table on the calling thread; the column groups
    # of a two-CPU merge only read it
    monkeypatch.setattr(sklar, "usable_cpus", lambda: 2)
    marginals._unit_law.cache_clear()
    builds = _counting_table_builds(monkeypatch)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=lambda t: t)
    assert len(builds) == 1 and builds[0] is fam._mix_s
    merge(sample_comonotone(make_uniform_grid(1.0, 2.0, 33), 4096, seed=0), fam)
    assert len(builds) == 1


def test_scale_mixture_quadrature_reuses_its_quantile_across_times(monkeypatch):
    # c_t only scales the unit quantile, so the shared quadrature nodes are
    # inverted once per node count: one table pass plus one Newton pass for
    # each of the 4096 and 8192 node rules, as before the memo matched by
    # identity
    calls = []
    kernel = marginals._mixture_average

    def spy(z, scales, weights, *funcs):
        calls.append(np.size(z))
        return kernel(z, scales, weights, *funcs)

    monkeypatch.setattr(marginals, "_mixture_average", spy)
    marginals._unit_law.cache_clear()
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=lambda t: t ** 0.5)
    rep = pathspace_wasserstein_same_copula(
        fam, GaussianScale(lambda t: 0.8 * t ** 0.5), make_uniform_grid(1.0, 2.0, 9), 2)
    assert calls == [8193, 4096, 8192]
    assert rep.integrated == 0.6539161710866062


def _counting_table_builds(monkeypatch):
    """A list that gains the mixture scales each time a quantile table is
    built on them."""
    builds = []
    kernel = marginals._mixture_average

    def spy(z, scales, weights, *funcs):
        if np.size(z) == 8193:
            builds.append(scales)
        return kernel(z, scales, weights, *funcs)

    monkeypatch.setattr(marginals, "_mixture_average", spy)
    return builds


def test_scale_mixtures_with_equal_mixings_share_one_table(monkeypatch):
    # the table is the unit law's, so another scale builds none, and its
    # unit quantiles are the first family's bit for bit
    marginals._unit_law.cache_clear()
    builds = _counting_table_builds(monkeypatch)
    first = ScaleMixtureGaussian(LognormalMixing(0.2, 0.4), scale=2.0)
    u = np.random.default_rng(17).uniform(0.0, 1.0, 3000)
    want = first.quantile(0.0, u) / 2.0
    second = ScaleMixtureGaussian(LognormalMixing(0.2, 0.4), scale=lambda t: 0.5 + t)
    assert np.array_equal(second.quantile(0.5, u), want)
    assert len(builds) == 1 and builds[0] is first._mix_s
    assert second._table is first._table
    assert second._mix_s is first._mix_s and second._mix_w is first._mix_w
    for arr in (*first._table[:4], *first._table[4], first._mix_s, first._mix_w):
        assert not arr.flags.writeable


def test_scale_mixture_keeps_its_table_after_the_cache_drops_its_mixing(monkeypatch):
    marginals._unit_law.cache_clear()
    builds = _counting_table_builds(monkeypatch)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    table = fam._table
    other = ScaleMixtureGaussian(LognormalMixing(0.0, 0.6))
    assert len(builds) == 2 and builds[0] is fam._mix_s and builds[1] is other._mix_s
    assert other._table[0][0] != table[0][0]
    # 16 other mixings push the first out of the cache ...
    for k in range(16):
        ScaleMixtureGaussian(LognormalMixing(0.01 * (k + 1), 0.5))
    assert marginals._unit_law.cache_info().currsize == 16
    # ... but the live family still holds its law and table, while a new
    # family of that mixing builds the table again, to the same bits
    assert fam._table is table
    fresh = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    assert fresh._table is not table
    assert len(builds) == 2 + 16 + 1 and builds[-1] is fresh._mix_s
    for got, want in zip(fresh._table[:4], table[:4]):
        assert np.array_equal(got, want)


def _gaussian_pair():
    return (GaussianScale(lambda t: t ** 0.4, mean=lambda t: 0.3 * t),
            GaussianScale(lambda t: 0.7 * t ** 0.6))


def _exponential_pair():
    return ExponentialScale(lambda t: t ** 0.5), ExponentialScale(lambda t: 1.5 * t ** 0.3)


def _check_one_inversion_per_ladder_size(monkeypatch, pair, sizes, per_size):
    """W_2 of a time-varying pair records ``per_size`` spied calls per node
    count, and equals bitwise the value from writable node copies, which
    no memo keeps."""
    grid = make_uniform_grid(0.5, 1.5, 33)
    rep = pathspace_wasserstein_same_copula(*pair(), grid, 2)
    ladder = sorted(set(sizes))
    assert ladder[0] == 4096 and len(ladder) >= 2
    assert sorted(sizes) == sorted(ladder * per_size)
    shared = _quadrature.graded_midpoint_nodes

    def writable(delta, n_nodes):
        u, cu, w = shared(delta, n_nodes)
        return u.copy(), cu.copy(), w

    monkeypatch.setattr(_quadrature, "graded_midpoint_nodes", writable)
    sizes.clear()
    ref = pathspace_wasserstein_same_copula(*pair(), grid, 2)
    assert len(sizes) > per_size * grid.m
    assert ref.integrated == rep.integrated
    assert np.array_equal(ref.per_t, rep.per_t)


def test_gaussian_quadrature_inverts_each_ladder_size_once(monkeypatch):
    # mean and sigma only shift and scale the unit quantile, so each of the
    # two families takes its two ndtri passes once per node count, not once
    # per time
    sizes = []
    real_ndtri = marginals.ndtri

    def spy(x):
        sizes.append(np.size(x))
        return real_ndtri(x)

    monkeypatch.setattr(marginals, "ndtri", spy)
    _check_one_inversion_per_ladder_size(monkeypatch, _gaussian_pair, sizes, 4)


def test_exponential_quadrature_inverts_each_ladder_size_once(monkeypatch):
    sizes = []
    unit = ExponentialScale._unit_quantile

    def spy(self, u, cu):
        sizes.append(np.size(u))
        return unit(self, u, cu)

    monkeypatch.setattr(ExponentialScale, "_unit_quantile", spy)
    _check_one_inversion_per_ladder_size(monkeypatch, _exponential_pair, sizes, 2)


def test_gaussian_merge_stores_no_quantile():
    fam = GaussianScale(lambda t: 1.0 + t)
    merge(sample_comonotone(make_uniform_grid(0.0, 1.0, 33), 2048, seed=1), fam)
    assert fam._q0_memo == {}


@pytest.mark.parametrize("make", [lambda: ScaleMixtureGaussian(LognormalMixing(0.0, 0.5)),
                                  lambda: GaussianScale(1.5, mean=0.2),
                                  lambda: ExponentialScale(2.0)])
def test_quantile_memo_never_keeps_read_only_views(make):
    # a read-only view still changes with its writable base, so a memo
    # matched by identity would return the quantile of the old values
    base_u, base_cu = np.full(8, 0.3), np.full(8, 0.7)
    u, cu = base_u[:], base_cu[:]
    u.setflags(write=False)
    cu.setflags(write=False)
    fam = make()
    fam.quantile_tail(1.0, u, cu)
    base_u[:], base_cu[:] = 0.9, 0.1
    assert np.array_equal(fam.quantile_tail(1.0, u, cu), make().quantile_tail(1.0, u, cu))
    # nor does the write flag of an owning array: it can be cleared again
    # after a refill
    u, cu = np.full(8, 0.3), np.full(8, 0.7)
    for arr in (u, cu):
        arr.setflags(write=False)
    fam.quantile_tail(1.0, u, cu)
    for arr, value in ((u, 0.9), (cu, 0.1)):
        arr.setflags(write=True)
        arr[:] = value
        arr.setflags(write=False)
    assert np.array_equal(fam.quantile_tail(1.0, u, cu), make().quantile_tail(1.0, u, cu))


def test_scale_mixture_density_in_place_rounds_as_the_textbook_order():
    # below 2048 rows the mixture takes one product, as the textbook form
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    s, w = fam._mix_s, fam._mix_w
    z = np.array([0.0, 1e-300, 1e-170, 3e-155, 1e-150, 0.3, 1.0, 2.5, 7.0, 38.0,
                  40.0, 1e10, 1e154, 1e155, 1e200, np.inf])
    z = np.concatenate([z, -z, np.random.default_rng(5).normal(0.0, 3.0, 500)])
    block = z[:, None] / s[None, :]
    with np.errstate(over="ignore"):
        textbook = (np.exp(-0.5 * block * block) / (np.sqrt(2.0 * np.pi) * s[None, :])) @ w
        assert np.array_equal(_pdf0(fam, z), textbook)


def test_scale_mixture_symmetry_and_roundtrip():
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    z = np.linspace(0.1, 6.0, 25)
    assert_allclose(fam.cdf(0.0, -z), 1.0 - fam.cdf(0.0, z), rtol=0, atol=1e-13)
    assert roundtrip_error(fam, 0.0) < 1e-9


def test_scale_mixture_density_bound():
    g = make_uniform_grid(1.0, 2.0, 3)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    bound = fam.density_sup_bound(g)
    z = np.linspace(-4.0, 4.0, 2001)
    assert np.max(fam.pdf(1.0, z)) <= bound
    # the mixture density peaks at zero, where the bound is attained
    assert_allclose(fam.pdf(1.0, 0.0), bound, rtol=1e-12)


def test_quantile_clamps_only_at_open_ends():
    fam = Pareto(1.0, 2.0)
    assert np.isfinite(fam.quantile(0.0, 1.0))  # finite surrogate for sup
    assert fam.quantile(0.0, 0.0) == 1.0
    fam2 = Uniform()
    assert fam2.quantile(0.0, 1.0) == 1.0  # closed end stays exact
    # open ends clamp at the fixed level 1e-12
    eps = 1e-12
    for fam in (GaussianScale(2.0, -1.0), ExponentialScale(1.5), Pareto(1.0, 2.0),
                ScaleMixtureGaussian(LognormalMixing(0.1, 0.3), 2.0)):
        assert fam.quantile(0.5, 1.0) == fam.quantile_tail(0.5, 1.0 - eps, eps)
        if np.isinf(fam.support(0.5)[0]):
            assert fam.quantile(0.5, 0.0) == fam.quantile_tail(0.5, eps, 1.0 - eps)


def test_family_validation():
    # scale parameters may be callables, so sign checks fire at evaluation
    with pytest.raises(InvalidArgumentError):
        GaussianScale(-1.0).quantile(0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        ExponentialScale(-0.5).quantile(0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        Pareto(0.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        Pareto(1.0, -2.0).quantile(0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        Uniform(1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        GaussianScale(1.0).quantile(0.0, 1.5)
    with pytest.raises(UnsupportedOperationError):
        g = make_uniform_grid(0.0, 1.0, 2)
        Empirical(g, np.zeros((2, 3))).pdf(0.0, 0.0)


@pytest.mark.parametrize("family, name, t", [
    (GaussianScale.power_law(-0.5), "sigma", 0.0),  # 0.0 ** -0.5
    (ExponentialScale.power_law(2000.0), "scale", 2.0),  # 2.0 ** 2000
    (Pareto(1.0, lambda t: 1.0 / t), "alpha", 0.0),
])
def test_time_function_that_raises_an_arithmetic_error_is_refused(family, name, t):
    for call in (lambda: family.cdf(t, 1.0), lambda: family.quantile(t, 0.5)):
        with pytest.raises(InvalidArgumentError, match=rf"^{name} cannot be evaluated at t={t}: "):
            call()


#: continuous kind -> (a family whose law moves with t, its mode at time t)
DENSITY_MODES = {
    "gaussian_scale": (lambda: GaussianScale(lambda t: t ** 0.5, mean=lambda t: 0.3 * t),
                       lambda t: 0.3 * t),
    "exponential_scale": (lambda: ExponentialScale(lambda t: 1.5 * t), lambda t: 0.0),
    "pareto": (lambda: Pareto(1.5, lambda t: 2.0 + t), lambda t: 1.5),
    "uniform": (lambda: Uniform(-1.0, 2.0), lambda t: 0.5),
    "scale_mixture_gaussian": (
        lambda: ScaleMixtureGaussian(LognormalMixing(0.1, 0.3), scale=lambda t: t),
        lambda t: 0.0),
}


def test_density_modes_cover_every_continuous_kind():
    assert set(DENSITY_MODES) == {k for k, cls in FAMILY_KINDS.items() if cls.is_continuous}


@pytest.mark.parametrize("kind", sorted(DENSITY_MODES))
def test_density_sup_bound_holds_on_a_lattice_and_is_attained_at_the_mode(kind):
    make, mode = DENSITY_MODES[kind]
    fam = make()
    grid = make_uniform_grid(1.0, 2.0, 5)
    bound = fam.density_sup_bound(grid)
    for t in grid.points:
        assert np.all(fam.pdf(t, fam.quantile(t, U_LAT)) <= bound * (1.0 + 1e-12))
    peak = max(fam.pdf(t, mode(t)) for t in grid.points)
    assert_allclose(peak, bound, rtol=1e-12)


#: kind -> (numeric constructor arguments, the ones that are functions of t)
NUMERIC_FAMILIES = {
    "gaussian_scale": ({"sigma": 2.0, "mean": -1.0}, ("sigma", "mean")),
    "exponential_scale": ({"scale": 1.5}, ("scale",)),
    "pareto": ({"x_min": 1.5, "alpha": 3.0}, ("alpha",)),
    "uniform": ({"lo": -1.0, "hi": 2.0}, ()),
    "scale_mixture_gaussian": ({"mixing": LognormalMixing(0.1, 0.3), "scale": 2.0},
                               ("scale",)),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_numeric_parameters_declare_time_invariance(kind):
    cls = FAMILY_KINDS[kind]
    kwargs, time_keys = NUMERIC_FAMILIES[kind]
    assert cls(**kwargs).time_invariant
    for key in time_keys:
        value = kwargs[key]
        # time functions are public and return the constant
        assert getattr(cls(**kwargs), key)(0.3) == value
        # a callable is not inspected, even when it is constant
        varying = cls(**dict(kwargs, **{key: lambda t, v=value: v}))
        assert not varying.time_invariant
    if cls.power_law_key is not None:
        assert not cls.power_law(0.5).time_invariant


def test_empirical_is_never_time_invariant():
    grid = make_uniform_grid(0.0, 1.0, 2)
    assert not Empirical(grid, np.ones((2, 3))).time_invariant
