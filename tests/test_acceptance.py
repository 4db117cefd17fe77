"""End-to-end acceptance checks with frozen seeds.

Each test prints one PASS/FAIL line (see conftest) and pins a user-facing
guarantee: uniform copula marginals, the Frechet upper bound, merge and
extraction round trips, coupling-cost equalities, eigen-expansion
truncation identities, the closed-form constants, the two-term robustness
bound, and byte-identical CLI reruns.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from copulaproc import (Empirical, ExperimentConfig,
                        ExponentialScale, GaussianScale, LognormalMixing,
                        Pareto, ProcessEnsemble,
                        constant_K, copula_distance_bound,
                        empirical_copula_cdf, empirical_family_from_ensemble,
                        evaluate_bound, extract_copula, gaussian_minorant_params,
                        kl_expand, kl_from_ensemble, make_uniform_grid,
                        mc_coupling_cost, merge, pareto_elliptical_experiment,
                        pareto_minorant_params, pathspace_wasserstein_same_copula,
                        rho, sample_archimedean_clayton, sample_comonotone,
                        sample_elliptical_copula, sample_fbm_copula,
                        sample_independence, tail_energy, truncate,
                        wasserstein1d_empirical, wasserstein1d_quantile)
from copulaproc.cli import main
from copulaproc.copulas import elliptical_pretransform

GRID33 = make_uniform_grid(0.5, 1.5, 33)
MIXING = LognormalMixing(0.0, 0.5)
N_BIG = 100_000


@pytest.fixture(scope="module")
def sampler_ensembles():
    """Nine copula ensembles at n = 1e5, m = 33, frozen seeds."""
    n = N_BIG
    out = {
        "independence": sample_independence(GRID33, n, seed=101),
        "comonotone": sample_comonotone(GRID33, n, seed=102),
        "fbm_h03": sample_fbm_copula(GRID33, 0.3, n, seed=103),
        "fbm_h05": sample_fbm_copula(GRID33, 0.5, n, seed=104),
        "fbm_h07": sample_fbm_copula(GRID33, 0.7, n, seed=105),
        "elliptical": sample_elliptical_copula(GRID33, 0.5, MIXING, n, seed=106),
        "clayton_05": sample_archimedean_clayton(GRID33, 0.5, n, seed=107),
        "clayton_1": sample_archimedean_clayton(GRID33, 1.0, n, seed=109),
        "clayton_2": sample_archimedean_clayton(GRID33, 2.0, n, seed=109),
    }
    return out


@pytest.fixture(scope="module")
def experiment_report():
    """Full truncation sweep at default production sizes."""
    return pareto_elliptical_experiment(ExperimentConfig())


def _ks_statistics(paths):
    """Columnwise KS distance to Uniform[0,1]."""
    n = paths.shape[0]
    ranked = np.sort(paths, axis=0)
    upper = np.arange(1, n + 1)[:, None] / n
    lower = np.arange(0, n)[:, None] / n
    return np.maximum(upper - ranked, ranked - lower).max(axis=0)


def test_uniform_marginals_all_samplers(sampler_ensembles):
    bound = 1.63 / np.sqrt(N_BIG)
    for name, ens in sampler_ensembles.items():
        worst = float(_ks_statistics(ens.paths).max())
        assert worst <= bound, f"{name}: KS {worst:.5f} > {bound:.5f}"


def test_frechet_upper_bound_lattice(sampler_ensembles):
    tol = 3.0 / np.sqrt(N_BIG)
    levels = (0.1, 0.3, 0.5, 0.7, 0.9)
    pairs = ((0, 16), (8, 24), (16, 32))
    for name, ens in sampler_ensembles.items():
        for pair in pairs:
            for u1 in levels:
                for u2 in levels:
                    value = empirical_copula_cdf(ens, pair, (u1, u2))
                    cap = min(u1, u2)
                    assert value <= cap + tol, (name, pair, u1, u2, value)
                    if name == "comonotone":
                        assert abs(value - cap) <= tol, (pair, u1, u2, value)


def test_sklar_roundtrip_and_merged_marginals():
    n = 50_000
    grid = make_uniform_grid(0.5, 1.5, 17)
    copula = sample_fbm_copula(grid, 0.5, n, seed=201)
    families = (GaussianScale(1.0), ExponentialScale(1.0), Pareto(1.0, 4.0))
    for family in families:
        ens = merge(copula, family)
        back = extract_copula(ens, family, aux_seed=7)
        assert np.abs(back.paths - copula.paths).max() <= 1e-9
        for j, t in enumerate(grid.points):
            p_value = stats.kstest(ens.paths[:, j],
                                   lambda x: family.cdf(t, x)).pvalue
            assert p_value >= 0.01, (family.kind, j, p_value)


def test_distributional_transform_uniformizes_atoms():
    grid = make_uniform_grid(0.0, 1.0, 3)
    atoms = np.tile(np.concatenate([np.zeros(6), np.ones(4)]), (3, 1))
    family = Empirical(grid, atoms)
    copula = sample_independence(grid, N_BIG, seed=301)
    ens = merge(copula, family)
    assert set(np.unique(ens.paths)) == {0.0, 1.0}
    back = extract_copula(ens, family, aux_seed=302)
    for j in range(grid.m):
        p_value = stats.kstest(back.paths[:, j], "uniform").pvalue
        assert p_value >= 0.01, (j, p_value)


def test_optimal_coupling_matches_integrated_distance():
    n = N_BIG
    copulas = {
        "comonotone": sample_comonotone(GRID33, n, seed=401),
        "fbm_h05": sample_fbm_copula(GRID33, 0.5, n, seed=402),
    }
    pairs = {
        "gauss_1_vs_2": (GaussianScale(1.0), GaussianScale(2.0)),
        "expon_vs_pareto4": (ExponentialScale(1.0), Pareto(1.0, 4.0)),
    }
    for pair_name, (fam_a, fam_b) in pairs.items():
        for p in (1, 2):
            report = pathspace_wasserstein_same_copula(fam_a, fam_b, GRID33, p)
            for cop_name, copula in copulas.items():
                ens_a = merge(copula, fam_a)
                ens_b = merge(copula, fam_b)
                _, power_mean, power_se = mc_coupling_cost(ens_a, ens_b, p)
                gap = abs(power_mean - report.integrated ** p)
                assert gap <= 3.0 * power_se, (pair_name, cop_name, p, gap)
    w2 = pathspace_wasserstein_same_copula(GaussianScale(1.0),
                                           GaussianScale(2.0), GRID33, 2)
    assert abs(w2.integrated - 1.0) <= 1e-4


def test_gaussian_unit_shift_wasserstein_closed_form():
    standard = GaussianScale(1.0)
    shifted = GaussianScale(1.0, mean=1.0)
    w2 = wasserstein1d_quantile(standard, shifted, t=1.0, p=2)
    assert abs(w2 - 1.0) <= 1e-6
    rng = np.random.default_rng(501)
    a = rng.standard_normal(N_BIG)
    b = rng.standard_normal(N_BIG) + 1.0
    assert abs(wasserstein1d_empirical(a, b, 2) - w2) <= 0.03


def test_kl_truncation_identity_and_brownian_eigenvalues():
    n = 50_000
    grid = make_uniform_grid(1.0, 2.0, 65)
    pre, _ = elliptical_pretransform(grid, 0.5, MIXING, n, seed=601)
    ens = ProcessEnsemble(grid, pre, "mixture", "elliptical-pre")
    kl = kl_from_ensemble(ens)
    for keep in (1, 2, 4, 8):
        trunc = truncate(ens, kl, keep)
        sq = (ens.paths - trunc.paths) ** 2 @ grid.weights
        mc = float(np.mean(sq))
        se = float(np.std(sq, ddof=1) / np.sqrt(n))
        assert abs(mc - tail_energy(kl, keep)) <= 3.0 * se, keep

    unit = make_uniform_grid(0.0, 1.0, 513)
    cov = np.minimum.outer(unit.points, unit.points)
    brownian = kl_expand(cov, unit)
    for i in range(1, 6):
        exact = 1.0 / ((i - 0.5) ** 2 * np.pi ** 2)
        assert abs(brownian.eigenvalues[i - 1] - exact) <= 0.02 * exact, i


def test_rho_and_pareto_constant_values():
    assert rho(1, 1.0, 2.0, 2.0 / 3.0) == 1.0 / 3.0
    grid = make_uniform_grid(1.0, 2.0, 9)
    family = Pareto(1.0, 4.0)
    params = pareto_minorant_params(family, grid, x0=0.0, p=1, epsilon=1.0,
                                    q=2.0, beta=2.0 / 3.0)
    k_value = constant_K(params, family, grid)
    # analytic moment evaluation collapses to 4**(2/3) * sqrt(3)
    assert_allclose(k_value, 4.364494543886885, rtol=5e-3)


def test_robustness_bound_holds_same_copula_gaussian():
    n = 20_000
    copula = sample_fbm_copula(GRID33, 0.5, n, seed=701)
    fam_x, fam_y = GaussianScale(1.0), GaussianScale(2.0)
    params = gaussian_minorant_params(fam_y, GRID33)
    report = evaluate_bound(merge(copula, fam_x), fam_x,
                            merge(copula, fam_y), fam_y, params)
    assert report.holds
    assert report.copula_term == 0.0
    assert abs(report.slack) <= 3.0 * report.lhs_se


def test_robustness_bound_holds_full_pipeline(experiment_report):
    rows = experiment_report.rows
    assert [row.n_keep for row in rows] == [1, 2, 4, 8, 16]
    for row in rows:
        assert row.holds, row.n_keep
        assert row.marginal_term + row.copula_term > row.lhs, row.n_keep


def test_copula_distance_bound_cases():
    n = 20_000
    copula = sample_fbm_copula(GRID33, 0.5, n, seed=801)
    fam_x = GaussianScale(1.0)
    fam_y = GaussianScale(1.0, mean=0.4)
    shift = copula_distance_bound(merge(copula, fam_x), merge(copula, fam_y),
                                  fam_x, fam_y, q=2)
    assert shift.lhs <= shift.bound_single + 3.0 * shift.lhs_se
    assert_allclose(shift.f_sup, 1.0 / np.sqrt(2.0 * np.pi), rtol=1e-12)

    pre, family = elliptical_pretransform(GRID33, 0.5, MIXING, n, seed=802)
    ens = ProcessEnsemble(GRID33, pre, family.kind, "elliptical-pre")
    trunc = truncate(ens, kl_from_ensemble(ens), 2)
    fam_trunc = empirical_family_from_ensemble(trunc)
    trunc_rep = copula_distance_bound(trunc, ens, fam_trunc, family, q=2)
    assert trunc_rep.lhs > 0.0
    assert trunc_rep.lhs <= trunc_rep.bound_single + 3.0 * trunc_rep.lhs_se
    closed = np.exp(0.125) / np.sqrt(2.0 * np.pi)
    assert trunc_rep.f_sup <= closed * (1.0 + 1e-4)
    assert_allclose(trunc_rep.f_sup, closed, rtol=1e-3)


def test_copula_term_rate_slope(experiment_report):
    assert experiment_report.slope_copula_term == pytest.approx(1.0 / 6.0,
                                                                abs=0.05)


CLI_CONFIGS = {
    "simulate": {
        "grid": {"a": 0.5, "b": 1.5, "m": 5},
        "model": {"variant": "clayton", "theta": 1.0},
        "family": {"kind": "pareto", "x_min": 1.0, "alpha": 4.0},
        "n_paths": 500,
        "seed": 901,
    },
    "wasserstein": {
        "grid": {"a": 0.5, "b": 1.5, "m": 5},
        "p": 2,
        "family_a": {"kind": "gaussian_scale", "sigma": 1.0},
        "family_b": {"kind": "gaussian_scale", "sigma": 2.0},
        "mc": {"model": {"variant": "fbm", "hurst": 0.5}, "n_paths": 400},
        "seed": 902,
    },
    "robustness": {
        "a": 1.0, "b": 2.0, "m": 9, "n_paths": 400, "seed": 903,
        "n_keep": [1, 2],
    },
    "klexpand": {
        "grid": {"a": 0.5, "b": 1.5, "m": 9},
        "model": {"variant": "fbm", "hurst": 0.5},
        "n_paths": 300,
        "seed": 904,
        "n_keep": [1, 2],
    },
    "check": {
        "mode": "assumption",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "pareto", "x_min": 1.0, "alpha": 4.0},
        "params": {"beta": 0.6666666666666666},
    },
}


def test_cli_outputs_deterministic(tmp_path):
    for command, cfg in CLI_CONFIGS.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        contents = []
        for label, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            outdir = tmp_path / f"{command}_{label}"
            rc = main([command, "--config", str(cfg_path),
                       "--out", str(outdir), "--threads", threads])
            assert rc == 0, command
            files = sorted(f.name for f in outdir.iterdir())
            contents.append({name: (outdir / name).read_bytes()
                             for name in files})
        assert contents[0] == contents[1] == contents[2], command
