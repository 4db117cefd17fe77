import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import ndtr, ndtri

from copulaproc import (Empirical, ExponentialScale, GaussianScale,
                        InvalidArgumentError, LognormalMixing, Pareto,
                        ScaleMixtureGaussian, Uniform,
                        UnsupportedOperationError, empirical_family_from_csv,
                        empirical_family_to_csv, make_uniform_grid, merge,
                        pathspace_wasserstein_same_copula, sample_comonotone)
from copulaproc import _parallel, _quadrature, marginals
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


def _every_text_layout(rng):
    """Negative values, 0.000ddd, d.ddde-XX and e+XX forms, integers, >= 1e16."""
    return np.concatenate([
        -rng.exponential(size=(3, 5)), rng.uniform(1e-4, 1e-3, (3, 5)),
        rng.uniform(0.0, 1e-4, (3, 5)), -rng.uniform(0.0, 1e-12, (3, 5)),
        rng.integers(-10**6, 10**6, (3, 5)).astype(float),
        1e16 * (1.0 + 9.0 * rng.uniform(size=(3, 5))), 1e17 * rng.uniform(1.0, 1e3, (3, 5)),
        rng.standard_normal((3, 5)) * 10.0 ** rng.integers(-12, 19, (3, 5))], axis=1)


def test_empirical_csv_roundtrip_exact(tmp_path):
    g = make_uniform_grid(0.25, 0.75, 3)
    rng = np.random.default_rng(5)
    for draw in (rng.standard_normal((3, 40)), _every_text_layout(rng)):
        fam = Empirical(g, draw)
        path = tmp_path / "emp.csv"
        empirical_family_to_csv(fam, path)
        back = empirical_family_from_csv(path)
        assert back.grid == fam.grid
        for t in g.points:
            assert np.array_equal(back.column(t), fam.column(t))


@pytest.mark.parametrize("text, message", [
    ("0.25,0.5,0.75\n1,2,3\n4,5\n", "inconsistent column count"),
    ("0.25,0.5,0.75\n1,2,3\n4,x,6\n", "must hold numbers"),
], ids=["ragged row", "text cell"])
def test_empirical_csv_refuses_a_ragged_row_or_a_text_cell(tmp_path, text, message):
    # numpy's own ValueError used to escape before either check
    path = tmp_path / "emp.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidArgumentError, match=message) as info:
        empirical_family_from_csv(path)
    assert str(path) in str(info.value)


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
    dense = ScaleMixtureGaussian(mix, n_quad=256)
    z = np.linspace(-8.0, 8.0, 321)
    assert np.max(np.abs(fam.cdf(0.0, z) - dense.cdf(0.0, z))) < 1e-5


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
    assert np.array_equal(fam._quantile_table()[1], ref["table"])
    for n in MIXTURE_SIZES:
        x = ref[f"x{n}"]
        assert np.array_equal(fam.cdf(0.0, x), ref[f"cdf{n}"]), n
        assert np.array_equal(fam.pdf(0.0, x), ref[f"pdf{n}"]), n


#: MIXTURE_SIZES, one whole block, two blocks with the fold, and one run
#: of 65536 (32 blocks)
WORKER_SIZES = (*MIXTURE_SIZES, 2048, 4097, 65536)


def _mixture_values(seed):
    """cdf, pdf and quantile of a fresh mixture, its table included."""
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=2.0)
    rng = np.random.default_rng(seed)
    shapes = [(n,) for n in WORKER_SIZES] + [(3, 4097)]
    values = []
    for shape in shapes:
        x = 3.0 * rng.standard_normal(shape)
        u = rng.uniform(0.0, 1.0, shape)
        values += [fam.cdf(0.5, x), fam.pdf(0.5, x), fam.quantile(0.5, u)]
    return values


@pytest.fixture(scope="module")
def one_cpu_mixture_values():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_parallel, "usable_cpus", lambda: 1)
        return _mixture_values(31)


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_scale_mixture_values_do_not_depend_on_the_cpu_count(
        monkeypatch, one_cpu_mixture_values, cpus):
    # each row's value depends only on its 2048-row block, so cutting the
    # block list into one run per CPU changes no bit.  Runs share only the
    # output array; a short switch interval makes their threads interleave
    # often, so rows written by the wrong run, or not at all, would show.
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
    started = []
    thread = threading.Thread

    def spy(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(_parallel.threading, "Thread", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        values = _mixture_values(31)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(values, one_cpu_mixture_values, strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert started


def test_scale_mixture_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 3)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    caller = threading.get_ident()
    raised = []
    worker_raised = threading.Event()

    def func(block):
        if threading.get_ident() != caller:
            raised.append(LookupError("raised in a worker"))
            worker_raised.set()
            raise raised[-1]
        # blocks go to whichever thread asks first: the caller holds its
        # first one until a worker has taken another
        worker_raised.wait(10.0)
        return block

    running = threading.active_count()
    with pytest.raises(LookupError, match="raised in a worker") as info:
        fam._f0_block(np.zeros(3 * 2048), func)
    assert any(info.value is exc for exc in raised)
    assert threading.active_count() == running


def _two_pass_newton_quantile(fam, t, u):
    """The mixture quantile with F0(z) and F0(-z) each taken over every entry."""
    u = np.asarray(u, dtype=float)
    cu = 1.0 - u
    zs, Fs = fam._quantile_table()
    z = np.clip(np.interp(u, Fs, zs), zs[0], zs[-1])
    for _ in range(4):
        dens = np.maximum(fam._pdf0(z), 1e-300)
        resid = np.where(u <= 0.5, fam._cdf0(z) - u, cu - fam._cdf0(-z))
        z = np.clip(z - resid / dens, zs[0], zs[-1])
    return fam.scale(t) * z


@pytest.mark.parametrize("n", [1, 2, 3, 2049, 5000, 16385, 65537])
def test_scale_mixture_one_pass_residual_matches_two_pass_bitwise(n):
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=2.0)
    rng = np.random.default_rng(n)
    u = rng.uniform(0.0, 1.0, n)
    # one entry above the median, then the median, which takes the lower branch
    u[:2] = [0.8, 0.5][:n]
    assert np.array_equal(fam.quantile(0.0, u), _two_pass_newton_quantile(fam, 0.0, u))
    u2 = rng.uniform(0.0, 1.0, (3, 700))
    assert np.array_equal(fam.quantile(0.0, u2), _two_pass_newton_quantile(fam, 0.0, u2))


def test_scale_mixture_newton_step_takes_two_mixture_passes(monkeypatch):
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    fam._quantile_table()
    calls = []
    block = ScaleMixtureGaussian._f0_block

    def spy(self, z, func):
        calls.append(np.size(z))
        return block(self, z, func)

    monkeypatch.setattr(ScaleMixtureGaussian, "_f0_block", spy)
    u = np.random.default_rng(3).uniform(0.0, 1.0, 5000)
    fam.quantile(0.0, u)
    # four Newton steps, each one density and one CDF pass
    assert calls == [5000] * 8
    calls.clear()
    _two_pass_newton_quantile(fam, 0.0, u)
    assert len(calls) == 12


def test_scale_mixture_merge_stores_no_quantile():
    # merge columns are fresh writable arrays that never recur, so the
    # quantile memo neither copies nor compares them
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    grid = make_uniform_grid(0.0, 1.0, 33)
    merge(sample_comonotone(grid, 2048, seed=1), fam)
    assert fam._q0_memo == {}


def test_scale_mixture_merge_builds_its_quantile_table_once(monkeypatch):
    # on two CPUs the first column group of each thread asks for the table
    # at the same time; both used to build it
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    tables = []
    cdf0 = ScaleMixtureGaussian._cdf0

    def spy(self, z):
        if np.size(z) == 16385:
            tables.append(1)
        return cdf0(self, z)

    monkeypatch.setattr(ScaleMixtureGaussian, "_cdf0", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(3):
            tables.clear()
            fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=lambda t: t)
            merge(sample_comonotone(make_uniform_grid(1.0, 2.0, 33), 4096, seed=seed), fam)
            assert len(tables) == 1
    finally:
        sys.setswitchinterval(interval)


def test_scale_mixture_quadrature_reuses_its_quantile_across_times(monkeypatch):
    # c_t only scales the unit quantile, so the shared quadrature nodes are
    # inverted once per node count: one table pass plus eight passes for
    # each of the 4096 and 8192 node rules, as before the memo matched by
    # identity
    calls = []
    block = ScaleMixtureGaussian._f0_block

    def spy(self, z, func):
        calls.append(np.size(z))
        return block(self, z, func)

    monkeypatch.setattr(ScaleMixtureGaussian, "_f0_block", spy)
    fam = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=lambda t: t ** 0.5)
    rep = pathspace_wasserstein_same_copula(
        fam, GaussianScale(lambda t: 0.8 * t ** 0.5), make_uniform_grid(1.0, 2.0, 9), 2)
    assert len(calls) == 17
    assert rep.integrated == 0.6539161710866062


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
        assert np.array_equal(fam._pdf0(z), textbook)


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
