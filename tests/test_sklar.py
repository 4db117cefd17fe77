import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from copulaproc import (Empirical, ExponentialScale, GaussianScale,
                        InvalidArgumentError, LognormalMixing, Pareto,
                        ProcessEnsemble, ScaleMixtureGaussian, Uniform,
                        check_moment_condition, empirical_family_from_ensemble,
                        extract_copula, make_uniform_grid, merge,
                        sample_comonotone, sample_fbm_copula)
from copulaproc import _parallel, rng, sklar

GRID = make_uniform_grid(1.0, 2.0, 9)


def test_merge_comonotone_uniform_constant_rows():
    cop = sample_comonotone(GRID, 4, seed=1)
    ens = merge(cop, Uniform())
    assert ens.paths.shape == (4, 9)
    assert np.all(ens.paths == ens.paths[:, :1])
    assert np.array_equal(ens.paths, cop.paths)


def test_merge_applies_quantile_columnwise():
    cop = sample_fbm_copula(GRID, 0.5, 20, seed=5)
    fam = GaussianScale.power_law(0.3)
    ens = merge(cop, fam)
    for j, t in enumerate(GRID.points):
        assert np.array_equal(ens.paths[:, j], fam.quantile(t, cop.paths[:, j]))
    assert ens.marginal_tag == fam.kind


def _loop_merge(copula, family):
    out = np.empty_like(copula.paths)
    for j, t in enumerate(copula.grid.points):
        out[:, j] = family.quantile(t, copula.paths[:, j])
    return out


def _loop_extract(process, family, aux_seed):
    out = np.empty_like(process.paths)
    if family.is_continuous:
        for j, t in enumerate(process.grid.points):
            out[:, j] = family.cdf(t, process.paths[:, j])
    else:
        aux = rng.uniform_rows(aux_seed, process.n_paths, process.grid.m)
        for j, t in enumerate(process.grid.points):
            out[:, j] = family.distributional_transform(
                t, process.paths[:, j], aux[:, j])
    return np.clip(out, 0.0, 1.0)


def _column_group_families(grid):
    ties = np.round(np.random.default_rng(grid.m).normal(size=(grid.m, 40)), 1)
    return [GaussianScale.power_law(0.3), Pareto(1.0, 4.0),
            ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=lambda t: t),
            Empirical(grid, ties)]


# a grid has at least two points; 7, 8, 9 and 17 sit around the 8-column
# groups.  2500 rows give the mixture kernel two blocks.
@pytest.mark.parametrize("m", [2, 7, 8, 9, 17])
def test_column_groups_match_a_per_column_loop_bitwise(m):
    grid = make_uniform_grid(1.0, 2.0, m)
    cop = sample_fbm_copula(grid, 0.5, 2500, seed=m)
    for family in _column_group_families(grid):
        ens = merge(cop, family)
        assert np.array_equal(ens.paths, _loop_merge(cop, family)), family.kind
        back = extract_copula(ens, family, aux_seed=7)
        assert np.array_equal(back.paths, _loop_extract(ens, family, 7)), family.kind


@pytest.fixture
def short_switch_interval():
    # threads interleave often, so columns written by the wrong group, or
    # not at all, would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.fixture
def started_threads(monkeypatch):
    started = []
    thread = threading.Thread

    def spy(*args, **kwargs):
        started.append(1)
        return thread(*args, **kwargs)

    monkeypatch.setattr(_parallel.threading, "Thread", spy)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("m", [2, 7, 8, 9, 17])
def test_column_groups_match_the_loop_for_any_cpu_count(
        monkeypatch, short_switch_interval, m, cpus):
    # groups of 8 // cpus columns of 4096 rows or more go to one thread
    # per CPU; the loop runs on one CPU
    grid = make_uniform_grid(1.0, 2.0, m)
    cop = sample_fbm_copula(grid, 0.5, 4100, seed=m)
    for family in _column_group_families(grid):
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: 1)
        want = _loop_merge(cop, family)
        want_back = _loop_extract(ProcessEnsemble(grid, want), family, 7)
        monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
        ens = merge(cop, family)
        assert np.array_equal(ens.paths, want), family.kind
        back = extract_copula(ens, family, aux_seed=7)
        assert np.array_equal(back.paths, want_back), family.kind


def test_shared_work_writes_no_thread_affinity(monkeypatch, started_threads):
    # the scheduler places the threads; neither the caller's mask nor a
    # worker's is ever set
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda *args: calls.append(args), raising=False)
    cop = sample_fbm_copula(make_uniform_grid(1.0, 2.0, 9), 0.5, 4096, seed=2)
    merge(cop, GaussianScale(1.5))
    family = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5))
    family.cdf(0.0, np.zeros(4 * 2048))
    # one executor worker beside the caller in each call
    assert len(started_threads) == 2
    assert calls == []


def test_column_group_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 3)
    caller = threading.get_ident()
    raised = []
    worker_raised = threading.Event()

    def sigma(t):
        if threading.get_ident() != caller:
            raised.append(LookupError("raised in a worker"))
            worker_raised.set()
            raise raised[-1]
        # groups go to whichever thread asks first: the caller holds its
        # first one until a worker has taken another
        worker_raised.wait(10.0)
        return 1.0

    cop = sample_fbm_copula(make_uniform_grid(1.0, 2.0, 17), 0.5, 4096, seed=1)
    running = threading.active_count()
    with pytest.raises(LookupError, match="raised in a worker") as info:
        merge(cop, GaussianScale(sigma))
    assert any(info.value is exc for exc in raised)
    assert threading.active_count() == running


@pytest.mark.parametrize("rows, threads", [(4095, 0), (4096, 1)])
def test_column_groups_are_shared_from_4096_rows(monkeypatch, started_threads,
                                                 rows, threads):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    cop = sample_comonotone(make_uniform_grid(1.0, 2.0, 9), rows, seed=1)
    merge(cop, Pareto(1.0, 4.0))
    assert len(started_threads) == threads


def test_mixture_inside_a_column_group_starts_no_threads(monkeypatch, started_threads):
    # 4100 rows are three mixture blocks, which the kernel alone would
    # split between the two CPUs; inside a column group it runs them inline
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 2)
    grid = make_uniform_grid(1.0, 2.0, 17)
    family = ScaleMixtureGaussian(LognormalMixing(0.0, 0.5), scale=lambda t: t)
    family.cdf(1.0, np.zeros(4100))
    assert len(started_threads) == 1
    started_threads.clear()
    ens = merge(sample_fbm_copula(grid, 0.5, 4100, seed=3), family)
    extract_copula(ens, family, aux_seed=1)
    # one executor worker per call beside the caller
    assert len(started_threads) == 2


def test_atomic_extraction_writes_over_its_auxiliary_uniforms():
    # the output is the auxiliary matrix, overwritten column by column, so
    # the peak is one n x m matrix plus the column groups and temporaries
    n, m = 4_000, 33
    grid = make_uniform_grid(1.0, 2.0, m)
    paths = np.round(np.random.default_rng(5).normal(size=(n, m)), 1)
    family = Empirical(grid, paths.T)
    ens = ProcessEnsemble(grid, paths)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = extract_copula(ens, family, aux_seed=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert np.array_equal(back.paths, _loop_extract(ens, family, 2))
    assert peak < 2.5 * n * m * 8, peak / (n * m * 8)


def _tied_ensemble(n, m, seed=3):
    # rounded normals: many ties within each column
    grid = make_uniform_grid(1.0, 2.0, m)
    return ProcessEnsemble(grid, np.round(np.random.default_rng(seed).normal(size=(n, m)), 1))


def _shared_aux_families(ens):
    # the ensemble's own family, and one of other tied samples
    return [empirical_family_from_ensemble(ens),
            _column_group_families(ens.grid)[-1]]


def _read_only_aux(aux_seed, ens):
    aux = rng.uniform_rows(aux_seed, ens.n_paths, ens.grid.m)
    aux.setflags(write=False)
    return aux, aux.copy()


@pytest.mark.parametrize("n", [1, 4100])
@pytest.mark.parametrize("m", [7, 8, 9, 17])
def test_shared_aux_matches_the_seeded_draw_bitwise(n, m):
    ens = _tied_ensemble(n, m)
    aux, before = _read_only_aux(7, ens)
    for family in _shared_aux_families(ens):
        seeded = extract_copula(ens, family, aux_seed=7)
        shared = extract_copula(ens, family, aux_seed=7, aux=aux)
        assert np.array_equal(shared.paths, seeded.paths), family.kind
        assert shared.seed == 7 and shared.model_tag == seeded.model_tag
        assert np.array_equal(aux, before)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("rows", [4095, 4100])
def test_shared_aux_matches_the_loop_for_any_cpu_count(
        monkeypatch, short_switch_interval, rows, cpus):
    # 4095 rows stay on the caller; 4100 go to column groups on each thread
    ens = _tied_ensemble(rows, 17)
    aux, before = _read_only_aux(7, ens)
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: cpus)
    for family in _shared_aux_families(ens):
        shared = extract_copula(ens, family, aux_seed=7, aux=aux)
        assert np.array_equal(shared.paths, _loop_extract(ens, family, 7)), family.kind
        assert np.array_equal(aux, before)


def test_shared_aux_of_another_shape_or_seed_is_rejected():
    ens = _tied_ensemble(50, 9)
    family = empirical_family_from_ensemble(ens)
    aux = rng.uniform_rows(7, 50, 9)
    last_changed = aux.copy()
    last_changed[-1, 4] = 0.5
    for bad in (rng.uniform_rows(7, 50, 10), rng.uniform_rows(7, 49, 9), aux.T,
                aux.astype(np.float32), aux.tolist(), rng.uniform_rows(8, 50, 9),
                last_changed):
        with pytest.raises(InvalidArgumentError, match="aux"):
            extract_copula(ens, family, aux_seed=7, aux=bad)
    # the first rows of a longer draw are the same substreams
    longer = rng.uniform_rows(7, 60, 9)[:50]
    assert np.array_equal(extract_copula(ens, family, 7, aux=longer).paths,
                          extract_copula(ens, family, 7).paths)


@pytest.mark.parametrize("rows", [50, 4100])
def test_overwrite_process_matches_the_default_bitwise(rows):
    # a continuous family, an atomic one drawing its uniforms and an atomic
    # one reading a passed matrix; 4100 rows go to column groups on threads
    ens = _tied_ensemble(rows, 9)
    atomic = empirical_family_from_ensemble(ens)
    aux, _ = _read_only_aux(7, ens)
    for family, kwargs in ((GaussianScale(1.0), {}), (atomic, {}), (atomic, {"aux": aux})):
        want = extract_copula(ens, family, 7, **kwargs)
        process = _tied_ensemble(rows, 9)
        got = extract_copula(process, family, 7, overwrite_process=True, **kwargs)
        assert np.array_equal(got.paths, want.paths), family.kind
        assert np.shares_memory(got.paths, process.paths)
        assert got.seed == want.seed and got.model_tag == want.model_tag
        assert not got.paths.flags.writeable


def test_overwrite_process_rejects_paths_that_view_another_array():
    grid = make_uniform_grid(1.0, 2.0, 9)
    wide = np.random.default_rng(3).normal(size=(50, 10))
    before = wide.copy()
    ens = ProcessEnsemble(grid, wide[:, :9])
    with pytest.raises(InvalidArgumentError, match="overwrite_process"):
        extract_copula(ens, GaussianScale(1.0), 7, overwrite_process=True)
    assert np.array_equal(wide, before) and not ens.paths.flags.writeable


def _tie_pattern(pattern, grid, n, seed):
    u = sample_fbm_copula(grid, 0.5, n, seed=seed).paths.copy()
    if pattern == "distinct":
        return u
    if pattern == "seven levels":
        return np.floor(7.0 * u)
    if pattern == "two levels":
        return (u > 0.3).astype(float)
    if pattern == "one level":
        return np.full_like(u, 2.5)
    # columns alternate between distinct values and three levels
    u[:, ::2] = np.floor(3.0 * u[:, ::2])
    return u


TIE_PATTERNS = ["distinct", "seven levels", "two levels", "one level", "mixed"]


def _atomic_copulas(ens, family, aux_seeds):
    # each seed's draw, extracted from the seed and from a passed matrix
    for s in aux_seeds:
        yield s, extract_copula(ens, family, s)
        aux = rng.uniform_rows(s, ens.n_paths, ens.grid.m)
        yield s, extract_copula(ens, family, s, aux=aux)


# Sklar's theorem for atomic marginals (Rueschendorf 2009): the
# distributional transform U of X satisfies X = F^{-1}(U) exactly, and the
# copula of U agrees with the joint law of X on the range of the marginals
@pytest.mark.parametrize("m", [2, 9, 17])
@pytest.mark.parametrize("pattern", TIE_PATTERNS)
def test_merge_inverts_atomic_extraction_exactly(pattern, m):
    grid = make_uniform_grid(0.5, 3.0, m)
    ens = ProcessEnsemble(grid, _tie_pattern(pattern, grid, 2000, seed=m))
    family = empirical_family_from_ensemble(ens)
    for s, copula in _atomic_copulas(ens, family, (0, 1, 2, 99, 2**64 - 1)):
        assert np.array_equal(merge(copula, family).paths, ens.paths), s


@pytest.mark.parametrize("v", [0.0, 1e-13, 5e-324])
def test_a_tiny_auxiliary_uniform_keeps_its_atom(v):
    # 0.75 + v / 20,000 rounds to F(15,000-) = 0.75, whose quantile is
    # 14,999; so does v = 0
    grid = make_uniform_grid(1.0, 2.0, 2)
    col = np.arange(20_000.0)
    family = Empirical(grid, np.stack([col, col]))
    x = np.array([15_000.0, 19_999.0])
    u = family.distributional_transform(1.0, x, np.full(2, v))
    assert np.array_equal(u, np.nextafter(x / 20_000, 1.0))
    assert np.array_equal(family.quantile(1.0, u), x)


def _joint_counts(a, levels_a, b, levels_b):
    """#{k : a_k <= levels_a[i], b_k <= levels_b[j]} for every (i, j)."""
    below_a = (a[:, None] <= levels_a[None, :]).astype(float)
    below_b = (b[:, None] <= levels_b[None, :]).astype(float)
    return below_a.T @ below_b


@pytest.mark.parametrize("m", [2, 9])
@pytest.mark.parametrize("pattern", TIE_PATTERNS)
def test_empirical_copula_counts_the_joint_empirical_cdf(pattern, m):
    grid = make_uniform_grid(0.5, 3.0, m)
    ens = ProcessEnsemble(grid, _tie_pattern(pattern, grid, 2000, seed=m + 40))
    family = empirical_family_from_ensemble(ens)
    pairs = sorted({(0, m - 1), (m // 2 - 1, m // 2), (m - 1, m - 1)})
    levels = {}
    for j in {j for pair in pairs for j in pair}:
        values = np.unique(ens.paths[:, j])
        # at most 25 levels, both ends included
        values = values[np.unique(np.linspace(0, values.size - 1, 25).astype(int))]
        t = grid.points[j]
        levels[j] = values, family.cdf(t, values)
    for s, copula in _atomic_copulas(ens, family, (1, 2, 99)):
        for i, j in pairs:
            (x_i, f_i), (x_j, f_j) = levels[i], levels[j]
            want = _joint_counts(ens.paths[:, i], x_i, ens.paths[:, j], x_j)
            got = _joint_counts(copula.paths[:, i], f_i, copula.paths[:, j], f_j)
            assert np.array_equal(got, want), (s, i, j)


@pytest.mark.parametrize("family", [
    GaussianScale(1.0),
    GaussianScale.power_law(0.5),
    ExponentialScale(2.0),
    Pareto(1.0, 4.0),
])
def test_extract_merge_roundtrip(family):
    cop = sample_fbm_copula(GRID, 0.5, 500, seed=13)
    ens = merge(cop, family)
    back = extract_copula(ens, family, aux_seed=99)
    assert np.max(np.abs(back.paths - cop.paths)) < 1e-9


def test_extract_continuous_ignores_aux_seed():
    fam = GaussianScale(1.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, 50, seed=2), fam)
    a = extract_copula(ens, fam, aux_seed=1)
    b = extract_copula(ens, fam, aux_seed=2)
    assert np.array_equal(a.paths, b.paths)
    # a passed matrix of auxiliary uniforms is not even checked
    c = extract_copula(ens, fam, aux_seed=1, aux=np.zeros((1, 1)))
    assert np.array_equal(a.paths, c.paths)


@pytest.mark.parametrize("aux_seed", [-1, 2**64, True, 1.5])
def test_extract_continuous_validates_aux_seed(aux_seed):
    fam = GaussianScale(1.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, 5, seed=2), fam)
    with pytest.raises(InvalidArgumentError):
        extract_copula(ens, fam, aux_seed=aux_seed)


def test_extract_continuous_draws_no_auxiliary_uniforms(monkeypatch):
    fam = GaussianScale(1.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, 50, seed=2), fam)
    expected = extract_copula(ens, fam, aux_seed=3)

    def refuse(*args):
        raise AssertionError("continuous extraction drew auxiliary uniforms")

    monkeypatch.setattr(rng, "uniform_rows", refuse)
    back = extract_copula(ens, fam, aux_seed=3)
    assert np.array_equal(back.paths, expected.paths)
    assert back.seed == 3


def test_extract_atomic_uses_aux_seed():
    # a two-point marginal needs the auxiliary uniforms to spread atoms
    col = np.array([0.0, 0.0, 1.0])
    fam = Empirical(GRID, np.tile(col, (GRID.m, 1)))
    paths = np.tile(col[[0, 2]], (GRID.m, 1)).T.copy()  # 2 paths hitting both atoms
    ens = ProcessEnsemble(GRID, paths, "empirical", "test")
    a = extract_copula(ens, fam, aux_seed=1)
    b = extract_copula(ens, fam, aux_seed=2)
    assert not np.array_equal(a.paths, b.paths)
    assert a.paths.min() >= 0.0 and a.paths.max() <= 1.0
    c = extract_copula(ens, fam, aux_seed=1)
    assert np.array_equal(a.paths, c.paths)


def test_extracted_copula_is_uniform():
    n = 20_000
    fam = Pareto(1.0, 3.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, n, seed=17), fam)
    back = extract_copula(ens, fam, aux_seed=5)
    for j in (0, 4, 8):
        d = stats.kstest(back.paths[:, j], "uniform").statistic
        assert d <= 1.63 / np.sqrt(n)


def test_merged_marginals_follow_family():
    n = 20_000
    fam = ExponentialScale(2.0)
    ens = merge(sample_fbm_copula(GRID, 0.5, n, seed=19), fam)
    for j in (0, 8):
        d = stats.kstest(ens.paths[:, j], "expon", args=(0.0, 2.0)).statistic
        assert d <= 1.63 / np.sqrt(n)


def test_moment_condition_closed_forms():
    rep = check_moment_condition(GaussianScale(1.0), GRID, 2.0)
    assert rep.satisfied
    assert_allclose(rep.integral, 1.0, rtol=1e-5)  # E Z**2 * |T|
    rep = check_moment_condition(Pareto(1.0, 4.0), GRID, 2.0)
    assert rep.satisfied
    assert_allclose(rep.integral, 2.0, rtol=1e-4)  # alpha/(alpha-2) * |T|


def test_moment_condition_divergent():
    rep = check_moment_condition(Pareto(1.0, 2.0), GRID, 2.0)
    assert not rep.satisfied
    assert rep.integral == np.inf
    rep = check_moment_condition(Pareto(1.0, 1.0), GRID, 2.0)
    assert not rep.satisfied
    # endpoint exponents p / alpha on either side of the 0.926 margin
    rep = check_moment_condition(Pareto(1.0, 1.1), GRID, 1.0)
    assert rep.satisfied and np.isfinite(rep.integral)
    rep = check_moment_condition(Pareto(1.0, 1.05), GRID, 1.0)
    assert not rep.satisfied
    assert rep.integral == np.inf


@pytest.mark.parametrize("alpha, p", [(0.03, 1.0), (0.05, 2.0)])
def test_moment_condition_overflowing_quantile_is_divergent(alpha, p):
    # the quantile overflows to +inf at the upper end nodes; that end is
    # divergent, where inf > 1.9 * inf used to let the value reach the
    # non-finite check and raise NumericFailureError
    with np.errstate(over="ignore"):
        rep = check_moment_condition(Pareto(1.0, alpha), GRID, p)
    assert not rep.satisfied
    assert rep.integral == np.inf


def test_moment_condition_quantile_crossing_zero_near_the_cut_is_finite():
    # Q = 6.9 + z crosses zero between the lower end nodes, so the end node
    # alone grows by more than 1.9 against its neighbour; the bulk, where
    # |Q| is larger, clears it (this used to read inf)
    rep = check_moment_condition(GaussianScale(1.0, mean=6.9), GRID, 1.0)
    assert rep.satisfied
    assert rep.integral == 6.899999999986384


def test_moment_condition_integrates_once_per_time(monkeypatch):
    calls = []
    integral = sklar.adaptive_unit_integral

    def counted(f, delta):
        calls.append(delta)
        return integral(f, delta)

    monkeypatch.setattr(sklar, "adaptive_unit_integral", counted)
    rep = check_moment_condition(Pareto(1.0, lambda t: 3.0 + t), GRID, 1.0)
    assert rep.satisfied
    assert len(calls) == GRID.m


def test_moment_condition_slow_but_convergent():
    rep = check_moment_condition(Pareto(1.0, 2.5), GRID, 2.0)
    assert rep.satisfied
    assert_allclose(rep.integral, 5.0, rtol=5e-3)


def test_moment_condition_bounded_support_is_finite():
    # a step quantile's moment is the finite sum over its level segments;
    # node doubling across the jump at 0.49 used to give 0.5101174
    grid = make_uniform_grid(0.0, 1.0, 2)
    col = np.array([1.0] * 51 + [0.0] * 49)
    rep = check_moment_condition(Empirical(grid, np.stack([col, col])), grid, 1.0)
    assert rep.satisfied
    assert abs(rep.integral - 0.51) < 1e-12


def test_merge_shape_mismatch_rejected():
    cop = sample_comonotone(GRID, 4, seed=1)
    other = make_uniform_grid(0.0, 1.0, 9)
    fam = Empirical(other, np.zeros((9, 3)))
    ens = merge(cop, Uniform())
    with pytest.raises(InvalidArgumentError):
        extract_copula(ens, fam, aux_seed=0)
