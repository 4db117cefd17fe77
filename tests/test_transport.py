import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulaproc import (Empirical, ExponentialScale, GaussianScale,
                        InvalidArgumentError, LognormalMixing, Pareto,
                        ScaleMixtureGaussian, Uniform, attach_mc_check,
                        basis_path_consistency_check, check_moment_condition,
                        make_uniform_grid,
                        mc_coupling_cost, merge, optimal_coupling,
                        pathspace_wasserstein_same_copula, sample_comonotone,
                        sample_fbm_copula, wasserstein1d_empirical,
                        wasserstein1d_quantile, weighted_cosine_basis)
from copulaproc import _quadrature

GRID = make_uniform_grid(1.0, 2.0, 9)


def test_w2_unit_mean_shift():
    a = GaussianScale(1.0)
    b = GaussianScale(1.0, mean=1.0)
    w = wasserstein1d_quantile(a, b, t=1.0, p=2)
    assert_allclose(w, 1.0, rtol=0, atol=1e-6)


def test_w2_gaussian_scale_pair():
    # W_2(N(0, s1^2), N(0, s2^2)) = |s1 - s2|
    a = GaussianScale(1.0)
    b = GaussianScale(2.0)
    w = wasserstein1d_quantile(a, b, t=1.0, p=2)
    assert_allclose(w, 1.0, rtol=1e-6)


def test_w1_exponential_pair():
    # quantiles scale linearly in theta, so W_1 = |t1 - t2| * E[Exp(1)]
    a = ExponentialScale(1.0)
    b = ExponentialScale(3.0)
    w = wasserstein1d_quantile(a, b, t=1.0, p=1)
    assert_allclose(w, 2.0, rtol=1e-5)


def test_identical_families_zero():
    fam = Pareto(1.0, 4.0)
    assert wasserstein1d_quantile(fam, fam, t=1.0, p=2) == 0.0
    rep = pathspace_wasserstein_same_copula(fam, fam, GRID, p=2)
    assert rep.integrated == 0.0
    assert np.all(rep.per_t == 0.0)


def test_pathspace_per_time_values_do_not_alias_across_times():
    # 0/1 columns with P(1) = 0.50 and 0.51: the two laws differ, but a
    # quantile probe on coarse nodes cannot tell them apart
    grid = make_uniform_grid(0.0, 1.0, 2)
    columns = np.zeros((2, 100))
    columns[0, :50] = 1.0
    columns[1, :51] = 1.0
    emp, uni = Empirical(grid, columns), Uniform()
    rep = pathspace_wasserstein_same_copula(emp, uni, grid, p=1)
    for j, t in enumerate(grid.points):
        assert_allclose(rep.per_t[j], wasserstein1d_quantile(emp, uni, t=t, p=1),
                        rtol=1e-12)
    assert rep.per_t[1] > rep.per_t[0]


def test_step_quantile_against_uniform_is_exact():
    # Q_A is a step and Q_B(u) = u, so each segment is integrated exactly;
    # node doubling across the jump used to stop at 0.25010233, 9.3e-6
    # relative off
    grid = make_uniform_grid(0.0, 1.0, 2)
    col = np.array([1.0] * 51 + [0.0] * 49)
    emp = Empirical(grid, np.stack([col, col]))
    w1 = wasserstein1d_quantile(emp, Uniform(), t=0.0, p=1)
    assert abs(w1 - (0.49 ** 2 / 2 + 0.51 ** 2 / 2)) <= 1e-12
    assert wasserstein1d_quantile(Uniform(), emp, t=0.0, p=1) == w1


@pytest.mark.parametrize("column", [[0.3], [0.25, 0.75]])
def test_short_step_quantiles_meet_the_quadrature_tolerance(column):
    # one step has no jump; with two, each end segment holds a kink of
    # |Q_A - u| that node doubling resolves to its 1e-6 target
    grid = make_uniform_grid(0.0, 1.0, 2)
    col = np.array(column)
    emp = Empirical(grid, np.stack([col, col]))
    edges = np.linspace(0.0, 1.0, col.size + 1)
    exact = sum(((x - lo) ** 2 + (hi - x) ** 2) / 2
                for x, lo, hi in zip(col, edges[:-1], edges[1:]))
    assert_allclose(wasserstein1d_quantile(emp, Uniform(), t=0.0, p=1), exact, rtol=1e-6)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_two_step_quantiles_sum_exactly(p):
    rng = np.random.default_rng(11)
    grid = make_uniform_grid(0.0, 1.0, 2)
    xs, ys = rng.standard_normal((2, 40)), rng.standard_normal((2, 40)) + 0.5
    rep = pathspace_wasserstein_same_copula(Empirical(grid, xs), Empirical(grid, ys), grid, p)
    for j in range(grid.m):
        assert_allclose(rep.per_t[j], wasserstein1d_empirical(xs[j], ys[j], p),
                        rtol=1e-12)
    # unequal sizes: the merged levels i/3 and j/4, summed in exact fractions
    a, b = np.sort(rng.standard_normal(3)), np.sort(rng.standard_normal(4))
    levels = sorted({Fraction(i, 3) for i in range(4)} | {Fraction(j, 4) for j in range(5)})
    brute = sum(float(hi - lo) * abs(a[math.ceil(hi * 3) - 1] - b[math.ceil(hi * 4) - 1]) ** p
                for lo, hi in zip(levels, levels[1:]))
    got = wasserstein1d_quantile(Empirical(grid, np.stack([a, a])),
                                 Empirical(grid, np.stack([b, b])), t=1.0, p=p)
    assert_allclose(got, brute ** (1.0 / p), rtol=1e-12)


def test_step_quantile_against_varying_pareto_matches_closed_form():
    # reference: on each level segment, in r = 1 - u, the Pareto quantile
    # r**(-1/alpha) has the antiderivative r**a / a with a = 1 - 1/alpha,
    # split where it crosses the step; scipy's quad misses the segment at
    # the singular end by 3e-7 here
    rng = np.random.default_rng(12)
    grid = make_uniform_grid(0.5, 1.5, 3)
    samples = rng.lognormal(0.3, 0.4, (grid.m, 60))
    emp, par = Empirical(grid, samples), Pareto(1.0, lambda t: 3.5 + 0.5 * t)
    rep = pathspace_wasserstein_same_copula(emp, par, grid, 1)
    delta = 1e-9
    for j, t in enumerate(grid.points):
        col, alpha = np.sort(samples[j]), 3.5 + 0.5 * t
        a = 1.0 - 1.0 / alpha
        r_edges = np.r_[1.0 - delta, 1.0 - np.arange(1, col.size) / col.size, delta]
        ref = 0.0
        for x, hi, lo in zip(col, r_edges[:-1], r_edges[1:]):
            # x - r**(-1/alpha) is negative below the crossing and positive above
            cross = min(max(x ** -alpha, lo), hi)
            ref += -(x * (cross - lo) - (cross ** a - lo ** a) / a)
            ref += x * (hi - cross) - (hi ** a - cross ** a) / a
        assert_allclose(rep.per_t[j], ref, rtol=1e-7)


def test_step_quantile_integrals_stay_below_the_node_cap(monkeypatch):
    seen = []
    nodes = _quadrature.graded_midpoint_nodes

    def spy(delta, n_nodes):
        seen.append(n_nodes)
        return nodes(delta, n_nodes)

    monkeypatch.setattr(_quadrature, "graded_midpoint_nodes", spy)
    rng = np.random.default_rng(13)
    grid = make_uniform_grid(0.5, 1.5, 3)
    samples = rng.uniform(0.8, 1.2, (grid.m, 1)) * rng.lognormal(0.3, 0.4, (grid.m, 2000))
    pathspace_wasserstein_same_copula(Empirical(grid, samples),
                                      Pareto(1.0, lambda t: 3.5 + 0.5 * t), grid, 1)
    assert seen and max(seen) < 2**18


@pytest.mark.parametrize("alpha_a, p", [(0.9, 1), (1.5, 2)])
def test_infinite_moment_pair_reads_inf(alpha_a, p):
    # |Q_A - Q_B|**p ~ (1 - u)**(-p / alpha_a) with p / alpha_a > 1 at the
    # upper end: W_1 used to read 79.50 and W_2 54.39
    heavy, light = Pareto(1.0, alpha_a), Pareto(1.0, 3.0)
    assert wasserstein1d_quantile(heavy, light, t=1.0, p=p) == np.inf
    assert wasserstein1d_quantile(light, heavy, t=1.0, p=p) == np.inf
    rep = pathspace_wasserstein_same_copula(heavy, light, GRID, p)
    assert rep.integrated == np.inf
    assert np.array_equal(rep.per_t, np.full(GRID.m, np.inf))


def test_pair_overflowing_at_the_same_end_reads_inf():
    # both quantiles overflow to +inf near u = 1, so the gap there is
    # inf - inf = nan; it used to raise NumericFailureError
    a, b = Pareto(1.0, 0.005), Pareto(1.0, 0.006)
    with np.errstate(over="ignore", invalid="ignore"):
        assert wasserstein1d_quantile(a, b, 1.0, 1) == np.inf
        rep = pathspace_wasserstein_same_copula(a, b, GRID, 1)
    assert rep.integrated == np.inf
    assert np.array_equal(rep.per_t, np.full(GRID.m, np.inf))


def test_overflowing_quantiles_read_inf_without_a_warning():
    # the Pareto quantile overflowing to +inf, and inf - inf in the gap at
    # the end node, are how these integrals reach their verdict: they used
    # to leak "overflow encountered in power" and "invalid value
    # encountered in subtract" to the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein1d_quantile(Pareto(1.0, 0.005), Pareto(1.0, 0.006), 1.0, 1) == np.inf
        assert check_moment_condition(Pareto(1.0, 0.03), GRID, 1).integral == np.inf


@pytest.mark.parametrize("n_samples", [7, 1], ids=["end_segments", "one_value"])
def test_step_quantile_against_infinite_mean_pareto_reads_inf(n_samples):
    # 7 samples reach the Pareto tail through the end segments of
    # step_gap_integral (they used to read 79.26), one sample through its
    # one-value branch
    grid = make_uniform_grid(0.0, 1.0, 3)
    samples = np.random.default_rng(3).lognormal(0.3, 0.4, (grid.m, n_samples))
    emp, heavy = Empirical(grid, samples), Pareto(1.0, 0.9)
    assert wasserstein1d_quantile(emp, heavy, t=0.5, p=1) == np.inf
    rep = pathspace_wasserstein_same_copula(heavy, emp, grid, 1)
    assert rep.integrated == np.inf
    assert np.array_equal(rep.per_t, np.full(grid.m, np.inf))


def test_finite_pareto_pair_keeps_its_value_bitwise():
    # exact 1/12; the tail verdict leaves every finite value as it was
    assert wasserstein1d_quantile(Pareto(1.0, 4.0), Pareto(1.0, 5.0), 1.0, 1) \
        == 0.08333317509916845


@pytest.mark.parametrize("make_a, make_b, p, value", [
    # the quantiles cross near the node s_k ~ 2e-9 from the upper end
    (lambda: GaussianScale(1.0, mean=5.8825), lambda: GaussianScale(2.0), 1,
     5.882499988339369),
    # |Q_A - Q_B|**p grows faster at s ~ 1e-9 than at its limit p / 6
    (lambda: GaussianScale(2.0, mean=0.3), lambda: Pareto(1.0, 6.0), 4,
     2.6896153281529993),
    (lambda: ScaleMixtureGaussian(LognormalMixing(0.0, 0.5)), lambda: Pareto(1.0, 6.0), 2,
     1.6147416008477513),
], ids=["gaussians_crossing", "gaussian_pareto6", "mixture_pareto6"])
def test_finite_moment_pair_is_judged_by_its_marginals(make_a, make_b, p, value):
    # comparing the gap's end node with its neighbour s_k alone read these
    # as divergent: the crossing is cleared by the larger gap further in,
    # the overshoots by |Q_A|**p and |Q_B|**p; the values stay bit for bit
    assert wasserstein1d_quantile(make_a(), make_b(), 1.0, p) == value


def test_infinite_moment_law_against_an_equal_copy_reads_zero():
    # the gap vanishes, so its end test never fires, whatever the marginals'
    heavy = Pareto(1.0, 0.9)
    assert wasserstein1d_quantile(heavy, Pareto(1.0, 0.9), 1.0, 1) == 0.0


def test_empirical_estimator_matches_quantile_form():
    rng = np.random.default_rng(3)
    n = 100_000
    xs = rng.standard_normal(n)
    ys = rng.standard_normal(n) + 1.0
    w = wasserstein1d_empirical(xs, ys, p=2)
    assert abs(w - 1.0) < 0.03


def test_empirical_estimator_permutation_invariant():
    rng = np.random.default_rng(4)
    xs, ys = rng.standard_normal(50), rng.standard_normal(50)
    w1 = wasserstein1d_empirical(xs, ys, p=1)
    w2 = wasserstein1d_empirical(np.sort(xs), ys[::-1], p=1)
    assert_allclose(w1, w2, rtol=1e-14)


def test_metric_symmetry_and_triangle():
    a = GaussianScale(1.0)
    b = GaussianScale(2.0, mean=0.5)
    c = Pareto(1.0, 4.0)
    for p in (1, 2):
        d_ab = pathspace_wasserstein_same_copula(a, b, GRID, p).integrated
        d_ba = pathspace_wasserstein_same_copula(b, a, GRID, p).integrated
        assert d_ab == d_ba
        d_ac = pathspace_wasserstein_same_copula(a, c, GRID, p).integrated
        d_bc = pathspace_wasserstein_same_copula(b, c, GRID, p).integrated
        assert d_ac <= d_ab + d_bc + 2e-6 * (d_ab + d_bc)


def test_pathspace_constant_pair():
    a = GaussianScale(1.0)
    b = GaussianScale(2.0)
    rep = pathspace_wasserstein_same_copula(a, b, GRID, p=2)
    assert_allclose(rep.per_t, np.ones(GRID.m), rtol=1e-6)
    assert_allclose(rep.integrated, 1.0, rtol=1e-6)
    assert rep.mc_coupling_value is None and rep.gap is None


def test_optimal_coupling_attains_wasserstein():
    # the monotone coupling realizes the distance within MC error
    n = 40_000
    cop = sample_comonotone(GRID, n, seed=7)
    a = GaussianScale(1.0)
    b = GaussianScale(2.0)
    ex, ey = optimal_coupling(cop, a, b)
    value, power_mean, power_se = mc_coupling_cost(ex, ey, p=2)
    rep = pathspace_wasserstein_same_copula(a, b, GRID, p=2)
    assert abs(power_mean - rep.integrated**2) <= 3.0 * power_se


def test_mc_coupling_cost_matches_the_textbook_gap_bitwise():
    # the in-place gap applies the ufuncs of np.abs(x - y) ** p @ w
    ex = merge(sample_fbm_copula(GRID, 0.5, 3_000, seed=21), Pareto(1.0, 4.0))
    ey = merge(sample_fbm_copula(GRID, 0.8, 3_000, seed=21), GaussianScale(1.5))
    for p in (1, 2, 3, 4):
        per_path = np.abs(ex.paths - ey.paths) ** p @ GRID.weights
        power_mean = float(np.mean(per_path))
        power_se = float(np.std(per_path, ddof=1) / np.sqrt(ex.n_paths))
        assert mc_coupling_cost(ex, ey, p) == (float(power_mean ** (1.0 / p)),
                                               power_mean, power_se), p


def test_nonoptimal_coupling_costs_more():
    # fBm coupling is not monotone across paths, so its cost exceeds W_p
    n = 40_000
    cop = sample_fbm_copula(GRID, 0.5, n, seed=7)
    a = GaussianScale(1.0)
    b = GaussianScale(1.0, mean=1.0)
    indep_x = merge(sample_fbm_copula(GRID, 0.5, n, seed=8), a)
    indep_y = merge(cop, b)
    value, power_mean, power_se = mc_coupling_cost(indep_x, indep_y, p=2)
    rep = pathspace_wasserstein_same_copula(a, b, GRID, p=2)
    assert power_mean > rep.integrated**2 + 3.0 * power_se


def test_attach_mc_check_fills_fields():
    n = 20_000
    cop = sample_comonotone(GRID, n, seed=11)
    a = ExponentialScale(1.0)
    b = Pareto(1.0, 4.0)
    rep = pathspace_wasserstein_same_copula(a, b, GRID, p=1)
    rep2 = attach_mc_check(rep, merge(cop, a), merge(cop, b))
    assert rep2.mc_coupling_value is not None
    assert abs(rep2.gap) < 0.05
    assert rep2.integrated == rep.integrated


def test_weighted_cosine_basis_orthonormal():
    basis = weighted_cosine_basis(GRID, 6)
    gram = basis.T @ (GRID.weights[:, None] * basis)
    assert_allclose(gram, np.eye(6), atol=1e-10)
    # leading function is constant
    assert np.ptp(basis[:, 0]) < 1e-12


def test_basis_path_consistency():
    n = 5_000
    cop = sample_fbm_copula(GRID, 0.5, n, seed=21)
    ex = merge(cop, GaussianScale(1.0))
    ey = merge(cop, GaussianScale(2.0))
    rep = basis_path_consistency_check(ex, ey, n_basis=GRID.m)
    # with a complete basis both sides agree up to quadrature error
    assert rep.path_side > 0.0
    assert abs(rep.gap) <= 0.02 * rep.path_side
    partial = basis_path_consistency_check(ex, ey, n_basis=3)
    assert partial.basis_side <= rep.path_side + 1e-12


def test_p_validation():
    fam = GaussianScale(1.0)
    with pytest.raises(InvalidArgumentError):
        wasserstein1d_quantile(fam, fam, t=1.0, p=5)
    with pytest.raises(InvalidArgumentError):
        wasserstein1d_quantile(fam, fam, t=1.0, p=0)
    with pytest.raises(InvalidArgumentError):
        wasserstein1d_empirical(np.ones(3), np.ones(4), p=1)


@pytest.mark.parametrize("call", [
    lambda fam, ens: weighted_cosine_basis(GRID, True),
    lambda fam, ens: pathspace_wasserstein_same_copula(fam, GaussianScale(2.0), GRID, p=True),
    lambda fam, ens: pathspace_wasserstein_same_copula(fam, GaussianScale(2.0), GRID, p=2.0),
    lambda fam, ens: wasserstein1d_quantile(fam, GaussianScale(2.0), t=1.0, p=True),
    lambda fam, ens: mc_coupling_cost(ens, ens, True),
    lambda fam, ens: basis_path_consistency_check(ens, ens, n_basis=True),
], ids=["cosine_basis", "pathspace_bool", "pathspace_float", "quantile_bool",
        "mc_cost_bool", "consistency_bool"])
def test_integer_arguments_refuse_bools_and_floats(call):
    # each of these used to run with True as 1, and p = 2.0 as 2
    fam = GaussianScale(1.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, 8, seed=1), fam)
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        call(fam, ens)


def test_uncoupled_ensembles_get_one_message():
    from copulaproc.transport import check_coupled
    fam = GaussianScale(1.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, 8, seed=1), fam)
    fewer = merge(sample_fbm_copula(GRID, 0.5, 6, seed=1), fam)
    coarser = merge(sample_fbm_copula(make_uniform_grid(1.0, 2.0, 5), 0.5, 8, seed=1), fam)
    for other in (fewer, coarser):
        for call in (lambda: check_coupled(ens, other),
                     lambda: mc_coupling_cost(ens, other, 1),
                     lambda: basis_path_consistency_check(ens, other, 3)):
            with pytest.raises(InvalidArgumentError, match="ensembles are not coupled"):
                call()
    check_coupled(ens, merge(sample_fbm_copula(GRID, 0.5, 8, seed=2), fam))
