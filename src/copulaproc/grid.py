"""Time grids on a compact interval and quadrature against them.

A grid carries strictly increasing points t_1 < ... < t_m spanning [a, b]
together with nonnegative trapezoid weights that sum to b - a.  All
integrals over the time axis elsewhere in the package are weighted sums
against these weights, so every module shares one notion of ``dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidArgumentError, NumericFailureError, check_array, check_float,
                     check_int)

_WEIGHT_SUM_RTOL = 1e-12


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights for arbitrary strictly increasing points.

    For a uniform grid with spacing h this reduces to (h/2, h, ..., h, h/2).
    """
    points = np.asarray(points, dtype=float)
    w = np.empty_like(points)
    w[0] = 0.5 * (points[1] - points[0])
    w[-1] = 0.5 * (points[-1] - points[-2])
    if len(points) > 2:
        w[1:-1] = 0.5 * (points[2:] - points[:-2])
    return w


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Immutable time grid on [a, b] with quadrature weights."""

    a: float
    b: float
    points: np.ndarray
    weights: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        points = check_array(self.points, "grid points")
        weights = check_array(self.weights, "grid weights", 0.0)
        if points.ndim != 1 or points.size < 2:
            raise InvalidArgumentError("grid needs at least two points")
        if weights.shape != points.shape:
            raise InvalidArgumentError("points and weights must have equal length")
        a = check_float(self.a, "a")
        check_float(self.b, "b", a, lo_open=True)
        check_array(np.diff(points), "grid spacings", 0.0, lo_open=True)
        if points[0] != self.a or points[-1] != self.b:
            raise InvalidArgumentError("grid points must start at a and end at b")
        length = self.b - self.a
        if abs(weights.sum() - length) > _WEIGHT_SUM_RTOL * max(1.0, length):
            raise InvalidArgumentError(
                f"weights sum to {weights.sum()!r}, expected b - a = {length!r}")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "m", points.size)

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.a, self.b, self.m))


def make_uniform_grid(a: float, b: float, m: int) -> TimeGrid:
    """Uniform grid with m points on [a, b] and trapezoid weights."""
    m = check_int(m, "m", 2)
    a = check_float(a, "a")
    b = check_float(b, "b", a, lo_open=True)
    points = np.linspace(a, b, m)
    # endpoints must be exact despite linspace rounding
    points[0], points[-1] = a, b
    return TimeGrid(a, b, points, trapezoid_weights(points))


def grid_from_points(points) -> TimeGrid:
    """Grid over given strictly increasing points with trapezoid weights."""
    points = check_array(points, "grid points")
    if points.ndim != 1 or points.size < 2:
        raise InvalidArgumentError("need a 1-d array of at least two points")
    return TimeGrid(float(points[0]), float(points[-1]), points,
                    trapezoid_weights(points))


def integrate(grid: TimeGrid, values) -> float:
    """Weighted sum of per-point values: the trapezoid integral over [a, b]."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.m,):
        raise InvalidArgumentError(
            f"values must have shape ({grid.m},), got {values.shape}")
    if not np.isfinite(values).all():
        raise NumericFailureError("cannot integrate non-finite values")
    return float(grid.weights @ values)
