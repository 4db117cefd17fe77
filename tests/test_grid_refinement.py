"""Grid refinement towards the function-space limits.

Grid quantities are trapezoid sums over the time grid, so on smooth
integrands their error falls by 4 when the spacing h is halved.  These
tests pin that ratio for a path-space Wasserstein distance and for the
Brownian Karhunen-Loeve eigenvalues, on the grids where it holds.  The 2%
check of the eigenvalues themselves is in test_acceptance.py.
"""

import numpy as np
import pytest

from copulaproc import (GaussianScale, kl_expand, make_uniform_grid,
                        pathspace_wasserstein_same_copula)

#: ratio of successive errors when h halves: m -> 2m - 1 points
RATIO, RATIO_TOL = 4.0, 0.02


def _ratios(errors):
    return [a / b for a, b in zip(errors, errors[1:])]


def test_w2_between_gaussian_scales_converges_at_second_order():
    # W_2^2 of N(0, t) against N(0, 1) is (sqrt t - 1)^2, whose integral
    # over [1, 2] is 4 - (4/3) 2^1.5 - 1/6.  Beyond m = 65 the ratio drifts
    # (4.009 at 129) as the 1e-6 quadrature tolerance starts to show.
    exact = 4.0 - (4.0 / 3.0) * 2.0 ** 1.5 - 1.0 / 6.0
    errors = []
    for m in (5, 9, 17, 33, 65):
        grid = make_uniform_grid(1.0, 2.0, m)
        report = pathspace_wasserstein_same_copula(
            GaussianScale(np.sqrt), GaussianScale(1.0), grid, 2)
        errors.append(report.integrated ** 2 - exact)
    for ratio in _ratios(errors):
        assert ratio == pytest.approx(RATIO, abs=RATIO_TOL)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_brownian_kl_eigenvalues_converge_at_second_order(k):
    # the Brownian covariance min(s, t) on [0, 1] has eigenvalues
    # 1 / ((k - 1/2)^2 pi^2)
    exact = 1.0 / ((k - 0.5) ** 2 * np.pi ** 2)
    errors = []
    for m in (33, 65, 129, 257):
        grid = make_uniform_grid(0.0, 1.0, m)
        cov = np.minimum.outer(grid.points, grid.points)
        errors.append(kl_expand(cov, grid).eigenvalues[k - 1] - exact)
    for ratio in _ratios(errors):
        assert ratio == pytest.approx(RATIO, abs=RATIO_TOL)
