import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulaproc import (AssumptionViolatedError, Empirical, ExperimentConfig,
                        GaussianScale, InvalidArgumentError, LognormalMixing,
                        Pareto, ProcessEnsemble, RobustnessParams,
                        check_assumption, constant_K, copula_distance_bound,
                        empirical_family_from_ensemble, evaluate_bound,
                        extract_copula, kl_from_ensemble, make_uniform_grid,
                        merge, pareto_constant_bound,
                        pareto_elliptical_experiment,
                        gaussian_minorant_params, pareto_minorant_params, rho,
                        sample_fbm_copula, truncate)
from copulaproc import rng, robustness
from copulaproc._quadrature import adaptive_unit_integral
from copulaproc.copulas import elliptical_pretransform

GRID = make_uniform_grid(1.0, 2.0, 9)

# int phi(x)**(1/2) dx = 2 sqrt(pi) / (2 pi)**(1/4)
GAUSS_HALF_POWER = 2.0 * np.sqrt(np.pi) / (2.0 * np.pi) ** 0.25
# E[f(Y)**(-2/3)] for Pareto(1, 4): E[Y**(10/3)] / 4**(2/3) = 6 / 4**(2/3)
PARETO_TAIL_BETA23 = 6.0 / 4.0 ** (2.0 / 3.0)
# closed form of the bound constant for that family on a unit-length span:
# (2 * 6 / 4**(2/3))**(1/2) * (2 * sqrt(2))**(2/3)
PARETO_K = np.sqrt(2.0 * PARETO_TAIL_BETA23) * (2.0 * np.sqrt(2.0)) ** (2.0 / 3.0)


def test_rho_exact_value():
    assert rho(1, 1.0, 2.0, 2.0 / 3.0) == 1.0 / 3.0
    assert rho(1, 1.0, 2.0, 0.5) == 0.25


def test_rho_monotone_in_epsilon_and_beta():
    base = rho(2, 1.0, 2.0, 0.5)
    assert rho(2, 2.0, 2.0, 0.5) > base
    assert rho(2, 1.0, 2.0, 0.8) > base
    assert 0.0 < base < 1.0


def test_rho_validation():
    with pytest.raises(InvalidArgumentError):
        rho(0, 1.0, 2.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        rho(1, -1.0, 2.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        rho(1, 1.0, 0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        rho(1, 1.0, 2.0, 1.5)


def test_pareto_tail_integral_closed_form():
    fam = Pareto(1.0, 4.0)
    params = pareto_minorant_params(fam, GRID)
    rep = check_assumption(fam, params, GRID)
    assert rep.minorant_ok and rep.floor_ok and rep.monotone_ok
    assert_allclose(rep.tail_integral, PARETO_TAIL_BETA23, rtol=5e-5)


def test_gaussian_tail_integral_closed_form():
    fam = GaussianScale(1.0)
    params = gaussian_minorant_params(fam, GRID)
    rep = check_assumption(fam, params, GRID)
    assert rep.minorant_ok and rep.floor_ok and rep.monotone_ok
    assert_allclose(rep.tail_integral, GAUSS_HALF_POWER, rtol=1e-4)


def test_pareto_constant_closed_form():
    fam = Pareto(1.0, 4.0)
    params = pareto_minorant_params(fam, GRID)
    k = constant_K(params, fam, GRID)
    assert_allclose(k, PARETO_K, rtol=1e-4)
    # closed form reduces to 4**(2/3) * sqrt(3)
    assert_allclose(PARETO_K, 4.364494543886885, rtol=1e-12)


def test_gaussian_constant_closed_form():
    fam = GaussianScale(2.0)
    params = gaussian_minorant_params(fam, GRID)
    k = constant_K(params, fam, GRID)
    expect = np.sqrt(2.0 * np.sqrt(2.0) * GAUSS_HALF_POWER) * 4.0 ** 0.75
    assert_allclose(k, expect, rtol=1e-4)


def test_piecewise_minorant_passes_checks():
    fam = Pareto(1.0, 4.0)
    params = pareto_minorant_params(fam, GRID, x0=2.0)
    rep = check_assumption(fam, params, GRID)
    assert rep.minorant_ok and rep.floor_ok and rep.monotone_ok
    assert np.isfinite(rep.tail_integral)
    # the window contributes lambda**(-beta) * |T| to the constant
    k_window = constant_K(params, fam, GRID)
    k_plain = constant_K(pareto_minorant_params(fam, GRID), fam, GRID)
    assert k_window != k_plain


@pytest.mark.parametrize("alpha, expected_calls", [(4.0, 1), (lambda t: 4.0, GRID.m)],
                         ids=["constant", "callable"])
def test_piecewise_minorant_tail_integrated_once_when_invariant(
        monkeypatch, alpha, expected_calls):
    fam = Pareto(1.0, alpha)
    params = pareto_minorant_params(fam, GRID, x0=2.0)
    calls = []

    def counted(f, delta):
        calls.append(delta)
        return adaptive_unit_integral(f, delta)

    monkeypatch.setattr(robustness, "adaptive_unit_integral", counted)
    rep = check_assumption(fam, params, GRID)
    assert len(calls) == expected_calls
    # the value is the one integrated at every time
    monkeypatch.setattr(params.minorant, "time_invariant", False)
    assert check_assumption(fam, params, GRID).tail_integral == rep.tail_integral


def test_minorant_violations_detected():
    fam = Pareto(1.0, 4.0)
    good = pareto_minorant_params(fam, GRID)
    too_big = RobustnessParams(
        p=good.p, epsilon=good.epsilon, q=good.q, beta=good.beta,
        lambda_floor=good.lambda_floor,
        minorant=lambda t, x: 2.0 * fam.pdf(t, x),
        center=good.center, halfwidth=good.halfwidth)
    assert not check_assumption(fam, too_big, GRID).minorant_ok
    bumpy = RobustnessParams(
        p=good.p, epsilon=good.epsilon, q=good.q, beta=good.beta,
        lambda_floor=good.lambda_floor,
        minorant=lambda t, x: fam.pdf(t, x) * (0.5 + 0.25 * np.sin(3.0 * np.asarray(x))),
        center=good.center, halfwidth=good.halfwidth)
    assert not check_assumption(fam, bumpy, GRID).monotone_ok
    high_floor = RobustnessParams(
        p=good.p, epsilon=good.epsilon, q=good.q, beta=good.beta,
        lambda_floor=1.0,
        minorant=lambda t, x: np.where(np.asarray(x) < 0.0, 0.0,
                                       np.minimum(0.5, fam.pdf(t, x))),
        center=lambda t: 0.0, halfwidth=lambda t: 2.0)
    assert not check_assumption(fam, high_floor, GRID).floor_ok


def test_divergent_tail_integral_reported_and_raised():
    fam = Pareto(1.0, 4.0)
    # (alpha + 1) * beta > alpha makes E[f(Y)**(-beta)] infinite
    params = pareto_minorant_params(fam, GRID, beta=0.9)
    rep = check_assumption(fam, params, GRID)
    assert rep.tail_integral == np.inf
    with pytest.raises(AssumptionViolatedError):
        constant_K(params, fam, GRID)


def test_missing_moment_raises():
    fam = Pareto(1.0, 1.8)
    params = pareto_minorant_params(fam, GRID, p=1, epsilon=1.0)
    with pytest.raises(AssumptionViolatedError):
        constant_K(params, fam, GRID)  # p + epsilon = 2 > alpha


def test_evaluate_bound_same_copula_gaussian():
    n = 4_000
    cop = sample_fbm_copula(GRID, 0.5, n, seed=5)
    fam_x = GaussianScale(1.0)
    fam_y = GaussianScale(2.0)
    ens_x = merge(cop, fam_x)
    ens_y = merge(cop, fam_y)
    params = gaussian_minorant_params(fam_y, GRID)
    rep = evaluate_bound(ens_x, fam_x, ens_y, fam_y, params)
    assert rep.holds
    assert rep.copula_term == 0.0  # identical copulas
    assert rep.rho == 0.25
    # monotone coupling attains the marginal term, so slack is pure noise
    assert abs(rep.slack) <= 3.0 * rep.lhs_se
    assert_allclose(rep.lhs, rep.lhs_power, rtol=0, atol=0)  # p = 1


def test_evaluate_bound_identical_ensembles():
    cop = sample_fbm_copula(GRID, 0.5, 300, seed=8)
    fam = GaussianScale(1.5)
    ens = merge(cop, fam)
    params = gaussian_minorant_params(fam, GRID)
    rep = evaluate_bound(ens, fam, ens, fam, params)
    assert rep.lhs == 0.0
    assert rep.marginal_term == 0.0
    assert rep.copula_term == 0.0
    assert rep.holds
    assert rep.slack == 0.0


def test_evaluate_bound_reuses_precomputed_terms():
    n = 500
    cop = sample_fbm_copula(GRID, 0.5, n, seed=6)
    fam_x = GaussianScale(1.0)
    fam_y = GaussianScale(2.0)
    ens_x, ens_y = merge(cop, fam_x), merge(cop, fam_y)
    params = gaussian_minorant_params(fam_y, GRID)
    fresh = evaluate_bound(ens_x, fam_x, ens_y, fam_y, params)
    reused = evaluate_bound(ens_x, fam_x, ens_y, fam_y, params,
                            constant=fresh.K, marginal_term=fresh.marginal_term)
    assert reused == fresh


def test_evaluate_bound_copula_term_matches_the_textbook_gap_bitwise():
    # the in-place gap applies the ufuncs of np.abs(u_x - u_y) ** q
    fam_y = Pareto(1.0, 4.0)
    ens_x = merge(sample_fbm_copula(GRID, 0.8, 2_000, seed=12), fam_y)
    ens_y = merge(sample_fbm_copula(GRID, 0.5, 2_000, seed=12), fam_y)
    # an atomic family draws the auxiliary uniforms of its fixed seed
    fam_x = empirical_family_from_ensemble(ens_x)
    u_x = extract_copula(ens_x, fam_x, robustness._AUX_SEED_X).paths
    u_y = extract_copula(ens_y, fam_y, robustness._AUX_SEED_Y).paths
    for q in (1.0, 1.5, 2.0, 3.0):
        params = pareto_minorant_params(fam_y, GRID, q=q)
        rep = evaluate_bound(ens_x, fam_x, ens_y, fam_y, params,
                             constant=1.7, marginal_term=0.0)
        dist_power = float(np.mean(np.abs(u_x - u_y) ** q @ GRID.weights))
        assert rep.copula_term == 1.7 * dist_power ** (params.rho / q), q


def test_evaluate_bound_rejects_uncoupled_shapes():
    cop = sample_fbm_copula(GRID, 0.5, 10, seed=1)
    other = sample_fbm_copula(GRID, 0.5, 20, seed=1)
    fam = GaussianScale(1.0)
    params = gaussian_minorant_params(fam, GRID)
    with pytest.raises(InvalidArgumentError):
        evaluate_bound(merge(cop, fam), fam, merge(other, fam), fam, params)


def test_copula_bound_shared_noise_mean_shift():
    n = 4_000
    cop = sample_fbm_copula(GRID, 0.5, n, seed=9)
    fam_x = GaussianScale(1.0)
    fam_y = GaussianScale(1.0, mean=0.4)
    tx, ty = merge(cop, fam_x), merge(cop, fam_y)
    rep = copula_distance_bound(tx, ty, fam_x, fam_y, q=2)
    # a deterministic shift leaves the copula untouched up to rounding
    assert rep.lhs < 1e-12
    assert rep.bound_single > 0.0
    assert rep.lhs <= rep.bound_two_term <= rep.bound_single + 1e-12
    assert_allclose(rep.f_sup, 1.0 / np.sqrt(2.0 * np.pi), rtol=1e-12)


def test_copula_bound_elliptical_truncation():
    n = 4_000
    mixing = LognormalMixing(0.0, 0.5)
    pre, family = elliptical_pretransform(GRID, 0.5, mixing, n, seed=12)
    ens = ProcessEnsemble(GRID, pre, family.kind, "elliptical-pre")
    kl = kl_from_ensemble(ens)
    trunc = truncate(ens, kl, 2)
    fam_trunc = empirical_family_from_ensemble(trunc)
    rep = copula_distance_bound(trunc, ens, fam_trunc, family, q=2)
    assert rep.lhs > 0.0
    assert rep.lhs <= rep.bound_two_term + 3.0 * rep.lhs_se
    # mixture density bound stays below E[1/S] / sqrt(2 pi)
    closed = np.exp(0.125) / np.sqrt(2.0 * np.pi)
    assert rep.f_sup <= closed * (1.0 + 1e-4)
    assert_allclose(rep.f_sup, closed, rtol=1e-3)


def test_copula_bound_needs_density():
    cop = sample_fbm_copula(GRID, 0.5, 100, seed=2)
    fam = GaussianScale(1.0)
    ens = merge(cop, fam)
    emp = empirical_family_from_ensemble(ens)
    with pytest.raises(InvalidArgumentError):
        copula_distance_bound(ens, ens, fam, emp, q=2)


def test_copula_bound_names_an_infinite_transport_term():
    # Pareto(1, 1.5) has no second moment, so W_2 is infinite; the check
    # against the coupled moment used to blame uncoupled ensembles
    cop = sample_fbm_copula(GRID, 0.5, 200, seed=2)
    fam_x, fam_y = Pareto(1.0, 1.5), GaussianScale(1.0)
    with pytest.raises(AssumptionViolatedError, match="W_2 between the marginals is infinite"):
        copula_distance_bound(merge(cop, fam_x), merge(cop, fam_y), fam_x, fam_y, q=2)


def test_pareto_constant_bound_closed_form():
    grid = make_uniform_grid(1.0, 2.0, 33)
    family = Pareto(1.0, 4.0)
    # tight margin gamma = alpha - 2: ((6/2) 4^(1/3))^(1/2) * ((2/2) 4)^(2/3)
    value = pareto_constant_bound(family, grid, gamma=2.0)
    assert_allclose(value, np.sqrt(3.0) * 4.0 ** (5.0 / 6.0), rtol=1e-12)
    params = pareto_minorant_params(family, grid)
    assert value >= constant_K(params, family, grid)
    # looser margins only enlarge the bound
    assert pareto_constant_bound(family, grid, gamma=1.0) > value


def test_pareto_constant_bound_validation():
    grid = make_uniform_grid(1.0, 2.0, 5)
    with pytest.raises(InvalidArgumentError):
        pareto_constant_bound(GaussianScale(1.0), grid, gamma=1.0)
    with pytest.raises(InvalidArgumentError):
        pareto_constant_bound(Pareto(1.0, 4.0), grid, gamma=2.5)
    with pytest.raises(InvalidArgumentError):
        pareto_constant_bound(Pareto(1.0, 4.0), grid, gamma=0.0)


def test_experiment_small_run():
    cfg = ExperimentConfig(n_paths=800, m=9, n_keep=(1, 2, 4), seed=44)
    rep = pareto_elliptical_experiment(cfg)
    assert len(rep.rows) == 3
    tails = [r.tail_energy for r in rep.rows]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    for row in rep.rows:
        assert row.holds
        assert row.marginal_term == 0.0  # true-marginal mode
        assert row.rho == pytest.approx(1.0 / 3.0, abs=0)
        assert row.K == rep.rows[0].K
        assert row.copula_term > row.lhs
    assert rep.slope_copula_term is not None
    assert rep.slope_lhs is not None
    assert rep.K_bound is not None
    assert rep.K_bound > rep.rows[0].K


def test_experiment_full_rank_truncation_degenerates():
    config = ExperimentConfig(m=9, n_paths=2_000, n_keep=(2, 9), seed=91)
    rep = pareto_elliptical_experiment(config)
    partial, full = rep.rows
    # keeping every component reproduces the field, so only the empirical
    # re-uniformization noise is left on either side
    assert full.tail_energy <= 1e-10
    assert full.marginal_term == 0.0
    assert full.lhs <= 0.1
    assert full.lhs < partial.lhs
    assert full.copula_term < partial.copula_term
    assert full.holds


def test_experiment_empirical_marginal_mode():
    cfg = ExperimentConfig(n_paths=400, m=5, n_keep=(1, 2), seed=46,
                           marginal_mode="empirical")
    rep = pareto_elliptical_experiment(cfg)
    for row in rep.rows:
        assert row.marginal_term >= 0.0
        assert row.holds


def test_experiment_config_validation():
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig(alpha=2.5, gamma=1.0)  # violates alpha >= 2 + gamma
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig(marginal_mode="other")
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig(n_keep=())
    with pytest.raises(InvalidArgumentError):
        ExperimentConfig(gamma=-1.0)


@pytest.mark.parametrize("n_keep", [(1, 2, 100), (2.7,), (1, 2.0), (True,), (0, 3),
                                    5, None, np.int64(5), np.array(5)])
def test_experiment_config_rejects_bad_n_keep_up_front(n_keep):
    # an entry above m used to fail in truncate after the mixture
    # extraction, and a float entry ran truncated by int(); a bare integer
    # or None raised a TypeError from len()
    with pytest.raises(InvalidArgumentError, match="n_keep"):
        ExperimentConfig(m=65, n_keep=n_keep)
    assert ExperimentConfig(m=9, n_keep=(1, np.int64(9))).n_keep[1] == 9
    assert ExperimentConfig(m=9, n_keep=[1, 9]).n_keep[1] == 9
    assert ExperimentConfig(m=9, n_keep=np.array([1, 9])).n_keep[1] == 9


@pytest.mark.parametrize("field, value", [
    ("m", 9.7), ("m", 9.0), ("m", True), ("m", 0),
    ("n_paths", 300.9), ("n_paths", False), ("n_paths", -5), ("n_paths", "300")])
def test_experiment_config_rejects_bad_sizes_up_front(field, value):
    # a float m or n_paths used to run truncated by int(): m = 9.7 gave
    # m = 9 and an n_keep = 9 row with tail energy 0.0
    kwargs = {"m": 9, "n_paths": 300, "n_keep": (1, 2), "seed": 4, field: value}
    with pytest.raises(InvalidArgumentError, match=field):
        ExperimentConfig(**kwargs)
    assert ExperimentConfig(m=np.int64(9), n_paths=np.int64(300), n_keep=(1, 9)).m == 9


@pytest.mark.parametrize("field, value", [
    ("x_min", 0.0), ("x_min", -1.0), ("x_min", np.inf), ("x_min", np.nan),
    ("epsilon", -1.0), ("epsilon", 0.0), ("epsilon", np.inf), ("q", 0.5),
    ("q", np.nan), ("beta", 1.5), ("beta", 0.0), ("mixing", "x"), ("mixing", None)])
def test_experiment_config_rejects_bad_marginal_and_exponent_inputs_up_front(field, value):
    # x_min = 0 used to fail after the path draw, a bad epsilon, q or beta
    # after the mixture extraction and merge, and mixing = "x" raised an
    # AttributeError that named no field
    kwargs = {"m": 9, "n_paths": 300, "n_keep": (1, 2), "seed": 4, field: value}
    with pytest.raises(InvalidArgumentError, match=field):
        ExperimentConfig(**kwargs)
    assert ExperimentConfig(x_min=0.5, epsilon=2.0, q=1.0, beta=1.0,
                            mixing=LognormalMixing(0.0, 0.0)).x_min == 0.5


@pytest.mark.parametrize("kwargs, field", [
    ({"hurst": 2.0}, "hurst"), ({"hurst": True}, "hurst"), ({"a": "x"}, "a"),
    ({"a": 0.0}, "a"), ({"a": np.nan}, "a"), ({"a": 2.0, "b": 1.5}, "b"),
    ({"m": 1, "n_keep": (1,)}, "m")])
def test_experiment_config_rejects_a_grid_or_hurst_that_cannot_run(kwargs, field):
    # each used to construct and fail only when the experiment ran: in
    # make_uniform_grid or in the elliptical sampler, which needs a > 0
    with pytest.raises(InvalidArgumentError, match=f"^{field} "):
        ExperimentConfig(**{"n_paths": 300, "n_keep": (1, 2), **kwargs})


def test_experiment_draws_the_truncation_auxiliary_uniforms_once(monkeypatch):
    # the five truncation levels share one matrix of seed + 211
    seeds = []
    draw = rng.uniform_rows

    def spy(seed, n_paths, n_cols):
        seeds.append(seed)
        return draw(seed, n_paths, n_cols)

    config = ExperimentConfig(n_paths=300, m=17, seed=5)
    want = pareto_elliptical_experiment(config)
    monkeypatch.setattr(rng, "uniform_rows", spy)
    assert pareto_elliptical_experiment(config) == want
    assert len(config.n_keep) == 5
    assert seeds.count(5 + 211) == 1


def _experiment_peak(n, m, marginal_mode):
    """Traced peak of one experiment run, in n x m float64 matrices."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pareto_elliptical_experiment(ExperimentConfig(
            n_paths=n, m=m, seed=3, marginal_mode=marginal_mode))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak / (n * m * 8)


def test_experiment_holds_at_most_six_ensembles():
    # every n_paths x m intermediate dies once it has been used and each
    # level's copula and copula gap are written over buffers that die with
    # them, so five are alive at the peak; the rest of the bound covers
    # the column groups and smaller temporaries
    peak = _experiment_peak(4_000, 33, "true")
    assert peak <= 6, peak


def test_experiment_in_empirical_mode_holds_at_most_eight_ensembles():
    # the empirical family of Y adds one matrix: 7.0 in file order on two
    # CPUs and on one; it read 8.2 while the step-quantile nodes of its
    # marginal term stayed cached after their loop
    peak = _experiment_peak(4_000, 33, "empirical")
    assert peak <= 8, peak


@pytest.mark.parametrize("mode", ["true", "empirical"])
def test_experiment_report_equals_one_extracted_without_overwriting(monkeypatch, mode):
    # writing each level's copula over its truncated paths moves no value
    config = ExperimentConfig(n_paths=300, m=17, seed=5, marginal_mode=mode)
    want = pareto_elliptical_experiment(config)
    overwrites = []

    def keep_process(*args, overwrite_process=False, **kwargs):
        overwrites.append(overwrite_process)
        return extract_copula(*args, **kwargs)

    monkeypatch.setattr(robustness, "extract_copula", keep_process)
    assert pareto_elliptical_experiment(config) == want
    assert overwrites.count(True) == len(config.n_keep)
    # the pre-transform's copula, then per level the truncated copula and
    # the two of the copula gap
    assert len(overwrites) == 1 + 3 * len(config.n_keep)


def test_minorant_param_validation():
    fam = Pareto(1.0, 4.0)
    with pytest.raises(InvalidArgumentError):
        pareto_minorant_params(fam, GRID, x0=0.5)  # inside (0, x_min]
    with pytest.raises(InvalidArgumentError):
        gaussian_minorant_params(fam, GRID)
    with pytest.raises(InvalidArgumentError):
        pareto_minorant_params(GaussianScale(1.0), GRID)


@pytest.mark.parametrize("q", [True, 2.0])
def test_copula_distance_bound_needs_an_integer_q(q):
    # q = True used to run as q = 1, and q = 2.0 as q = 2
    cop = sample_fbm_copula(GRID, 0.5, 100, seed=2)
    fam_x, fam_y = GaussianScale(1.0), GaussianScale(1.0, mean=0.4)
    with pytest.raises(InvalidArgumentError, match="q must be an integer"):
        copula_distance_bound(merge(cop, fam_x), merge(cop, fam_y), fam_x, fam_y, q=q)


@pytest.mark.parametrize("field, value", [
    ("seed", 7.9), ("seed", True), ("seed", -1), ("p", 1.0), ("p", True), ("p", 5)])
def test_experiment_config_rejects_a_bad_seed_or_p_up_front(field, value):
    # seed = 7.9 used to run as seed 7 and p = 1.0 or True as p = 1, while
    # p = 5 failed in evaluate_bound after the sampling and the extraction
    with pytest.raises(InvalidArgumentError, match=field):
        ExperimentConfig(m=9, n_paths=300, n_keep=(1, 2), **{field: value})
    assert ExperimentConfig(seed=np.uint64(2**64 - 1), p=np.int64(2)).p == 2
