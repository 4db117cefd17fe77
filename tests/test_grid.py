import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulaproc import (CopulaEnsemble, InvalidArgumentError, NumericFailureError,
                        ProcessEnsemble, TimeGrid, grid_from_points, integrate,
                        make_uniform_grid)
from copulaproc.grid import trapezoid_weights


def test_uniform_grid_endpoints_exact():
    g = make_uniform_grid(0.1, 0.7, 7)
    assert g.points[0] == 0.1
    assert g.points[-1] == 0.7
    assert g.m == 7
    assert g.a == 0.1 and g.b == 0.7


def test_trapezoid_weights_uniform():
    g = make_uniform_grid(0.0, 1.0, 5)
    h = 0.25
    assert_allclose(g.weights, [h / 2, h, h, h, h / 2])
    assert_allclose(g.weights.sum(), 1.0, rtol=0, atol=1e-15)


def test_trapezoid_weights_nonuniform():
    pts = np.array([0.0, 0.1, 0.4, 1.0])
    w = trapezoid_weights(pts)
    assert_allclose(w, [0.05, 0.2, 0.45, 0.3])
    assert_allclose(w.sum(), 1.0, rtol=0, atol=1e-15)


def test_integrate_linear_exact():
    # trapezoid rule is exact on affine integrands
    g = make_uniform_grid(0.0, 2.0, 11)
    vals = 3.0 * g.points + 1.0
    assert_allclose(integrate(g, vals), 3.0 * 2.0 + 2.0, rtol=1e-14)


def test_integrate_quadratic_converges():
    exact = 1.0 / 3.0
    errs = []
    for m in (9, 17, 33):
        g = make_uniform_grid(0.0, 1.0, m)
        errs.append(abs(integrate(g, g.points**2) - exact))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    # halving h divides the trapezoid error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_grid_from_points_matches_uniform():
    g1 = make_uniform_grid(1.0, 2.0, 9)
    g2 = grid_from_points(g1.points)
    assert g1 == g2
    assert hash(g1) == hash(g2)


def test_grid_arrays_read_only():
    g = make_uniform_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        g.points[0] = 5.0
    with pytest.raises(ValueError):
        g.weights[0] = 5.0


def test_grid_validation():
    with pytest.raises(InvalidArgumentError):
        make_uniform_grid(0.0, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        make_uniform_grid(1.0, 1.0, 4)
    with pytest.raises(InvalidArgumentError):
        grid_from_points([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(InvalidArgumentError):
        grid_from_points([0.0, np.nan, 1.0])


def test_weight_consistency_enforced():
    pts = np.linspace(0.0, 1.0, 5)
    bad = trapezoid_weights(pts).copy()
    bad[0] += 0.5
    with pytest.raises(InvalidArgumentError):
        TimeGrid(0.0, 1.0, pts, bad)


def test_integrate_rejects_bad_values():
    g = make_uniform_grid(0.0, 1.0, 5)
    with pytest.raises(InvalidArgumentError):
        integrate(g, np.ones(4))
    with pytest.raises(NumericFailureError):
        integrate(g, np.array([1.0, 2.0, np.inf, 0.0, 1.0]))


@pytest.mark.parametrize("make", [
    lambda grid, paths: CopulaEnsemble(grid, paths, 1, "tag"),
    lambda grid, paths: ProcessEnsemble(grid, paths),
], ids=["copula", "process"])
def test_ensembles_check_their_paths_alike(make):
    grid = make_uniform_grid(0.0, 1.0, 3)
    for paths, message in ((np.full((2, 4), 0.5), "paths must have shape (n, 3), got (2, 4)"),
                           (np.full(3, 0.5), "paths must have shape (n, 3), got (3,)"),
                           (np.empty((0, 3)), "ensemble needs at least one path")):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            make(grid, paths)
    paths = np.full((2, 3), 0.5)
    ensemble = make(grid, paths)
    assert ensemble.paths is paths and not paths.flags.writeable
    assert ensemble.n_paths == 2
