import numpy as np
import pytest

from copulaproc import InvalidArgumentError
from copulaproc.rng import normal_rows, path_generator, path_rows, uniform_rows


def test_uniform_rows_prefix_stable():
    a = uniform_rows(7, 5, 4)
    b = uniform_rows(7, 50, 4)
    assert np.array_equal(a, b[:5])
    assert a.shape == (5, 4)
    assert a.min() >= 0.0 and a.max() < 1.0


def test_rows_match_per_path_generators():
    rows = normal_rows(12, 3, 6)
    for i in range(3):
        gen = path_generator(12, i)
        assert np.array_equal(rows[i], gen.standard_normal(6))


def _scalar_then_normals(gen, n):
    # elliptical sampler: one uniform for the mixing scale, then m normals
    scale = gen.random()
    return scale * gen.standard_normal(n)


def _gamma_then_exponentials(gen, n):
    # Clayton sampler: one gamma frailty, then m exponentials
    frailty = gen.standard_gamma(0.5)
    return gen.standard_exponential(n) / frailty


def _int32_then_uniforms(gen, n):
    # an odd count of 32-bit integers leaves half a 64-bit word buffered
    # (has_uint32), which the next path must not inherit
    return np.concatenate((gen.integers(0, 1000, size=3, dtype=np.int32),
                           gen.random(n - 3)))


ROW_DRAWS = {
    "random": lambda gen, n: gen.random(n),
    "standard_normal": lambda gen, n: gen.standard_normal(n),
    "scalar_then_normals": _scalar_then_normals,
    "gamma_then_exponentials": _gamma_then_exponentials,
    "int32": lambda gen, n: gen.integers(-50, 50, size=n, dtype=np.int32),
    "int32_then_uniforms": _int32_then_uniforms,
}


@pytest.mark.parametrize("seed", [0, 12, 2**64 - 1])
@pytest.mark.parametrize("name", sorted(ROW_DRAWS))
def test_path_rows_match_path_generator(name, seed):
    draw = ROW_DRAWS[name]
    n_paths, n_cols = 57, 7  # a row width that is not a multiple of 4
    rows = path_rows(seed, n_paths, n_cols, lambda gen: draw(gen, n_cols))
    assert rows.shape == (n_paths, n_cols)
    for i in range(n_paths):
        assert np.array_equal(rows[i], draw(path_generator(seed, i), n_cols))


def test_path_rows_validation():
    draw = lambda gen: gen.random(2)  # noqa: E731
    for seed in (-1, 2**64, True, 1.0):
        with pytest.raises(InvalidArgumentError):
            path_rows(seed, 3, 2, draw)
    for n in (0, -1, True, 2.0):
        with pytest.raises(InvalidArgumentError):
            path_rows(1, n, 2, draw)
        with pytest.raises(InvalidArgumentError):
            path_rows(1, 3, n, draw)


def test_distinct_seeds_and_indices_differ():
    assert not np.array_equal(uniform_rows(1, 4, 8), uniform_rows(2, 4, 8))
    rows = uniform_rows(1, 4, 8)
    assert not np.array_equal(rows[0], rows[1])


def test_seed_validation():
    with pytest.raises(InvalidArgumentError):
        path_generator(-1, 0)
    with pytest.raises(InvalidArgumentError):
        path_generator(2**64, 0)
    with pytest.raises(InvalidArgumentError):
        path_generator(True, 0)
    with pytest.raises(InvalidArgumentError):
        path_generator(0, -3)
