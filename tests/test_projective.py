"""Projective consistency: restricting to the first k grid points commutes
with sampling and with copula extraction, and sampling on a sub-grid gives
the law of the matching columns.

The finite-dimensional copulas of a process on path space must agree under
coordinate projection.  Every sampler draws a path's coordinates in grid
order from its own substream, and the Cholesky factor of a leading block
of a covariance is the leading block of its factor, so a prefix grid gives
the prefix columns: bitwise for the non-Gaussian samplers, up to rounding
in the matrix products for the Gaussian ones.
"""

import numpy as np
import pytest

from copulaproc import (Empirical, GaussianScale, LognormalMixing,
                        ProcessEnsemble, extract_copula, grid_from_points,
                        make_uniform_grid, merge, sample_archimedean_clayton,
                        sample_comonotone, sample_elliptical_copula,
                        sample_fbm_copula, sample_independence)

GRID = make_uniform_grid(1.0, 2.0, 33)
N_PATHS = 2000
SEED = 11
PREFIXES = (5, 17, 32)

#: sampler name -> (draw on a grid, absolute tolerance against the prefix)
SAMPLERS = {
    "independence": (lambda g: sample_independence(g, N_PATHS, SEED), 0.0),
    "comonotone": (lambda g: sample_comonotone(g, N_PATHS, SEED), 0.0),
    "clayton": (lambda g: sample_archimedean_clayton(g, 1.5, N_PATHS, SEED), 0.0),
    "fbm": (lambda g: sample_fbm_copula(g, 0.3, N_PATHS, SEED), 1e-12),
    "elliptical": (lambda g: sample_elliptical_copula(
        g, 0.7, LognormalMixing(0.0, 0.5), N_PATHS, SEED), 1e-12),
}


def _prefix(k):
    return grid_from_points(GRID.points[:k])


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_sampling_on_a_prefix_grid_gives_the_prefix_columns(name):
    sample, atol = SAMPLERS[name]
    full = sample(GRID).paths
    for k in PREFIXES:
        restricted = sample(_prefix(k)).paths
        if atol == 0.0:
            assert np.array_equal(restricted, full[:, :k])
        else:
            assert np.max(np.abs(restricted - full[:, :k])) <= atol


def _restrict(process, k):
    return ProcessEnsemble(_prefix(k), process.paths[:, :k])


def test_extraction_commutes_with_restriction_continuous():
    family = GaussianScale(lambda t: t ** 0.3, lambda t: 0.5 * t)
    process = merge(sample_fbm_copula(GRID, 0.3, N_PATHS, SEED), family)
    full = extract_copula(process, family, aux_seed=5).paths
    for k in PREFIXES:
        restricted = extract_copula(_restrict(process, k), family, aux_seed=5)
        assert np.array_equal(restricted.paths, full[:, :k])


def test_extraction_commutes_with_restriction_empirical():
    # few distinct values per column, so the distributional transform
    # spreads every atom with the auxiliary uniforms
    samples = np.random.default_rng(3).integers(0, 4, (GRID.m, 50)).astype(float)
    family = Empirical(GRID, samples)
    process = merge(sample_independence(GRID, N_PATHS, SEED), family)
    full = extract_copula(process, family, aux_seed=5).paths
    for k in PREFIXES:
        restricted = extract_copula(_restrict(process, k),
                                    Empirical(_prefix(k), samples[:k]), aux_seed=5)
        assert np.array_equal(restricted.paths, full[:, :k])


#: paths for the sub-grid law comparison
N_LAW = 4000
#: v for the empirical copula CDF C(v, ..., v) on the 17-point sub-grid
LEVELS = (0.3, 0.5, 0.7, 0.9)


@pytest.mark.parametrize("name", ["fbm", "elliptical"])
def test_sampling_on_an_every_other_point_grid_gives_the_law_of_those_columns(name):
    # The Gaussian samplers draw through a Cholesky factor of the grid's
    # covariance, so a sub-grid that is not a prefix gives other paths of
    # the same law.  Bound: 3 standard errors of a difference of two
    # proportions, treating the samples as independent, although both draw
    # from the same per-path streams.
    sample = {
        "fbm": lambda g: sample_fbm_copula(g, 0.3, N_LAW, SEED),
        "elliptical": lambda g: sample_elliptical_copula(
            g, 0.7, LognormalMixing(0.0, 0.5), N_LAW, SEED),
    }[name]
    columns = sample(GRID).paths[:, ::2]
    sub = sample(grid_from_points(GRID.points[::2])).paths
    for v in LEVELS:
        a = np.mean(np.all(sub <= v, axis=1))
        b = np.mean(np.all(columns <= v, axis=1))
        pooled = 0.5 * (a + b)
        assert abs(a - b) <= 3.0 * np.sqrt(2.0 * pooled * (1.0 - pooled) / N_LAW), (v, a, b)
