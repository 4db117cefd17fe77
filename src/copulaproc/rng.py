"""Deterministic per-path random streams.

Every sampled path draws from its own counter-based substream keyed by
``(master_seed, path_index)``.  Path ``i`` therefore receives the same
variates no matter how many paths are requested, in what order they are
generated, or how work is scheduled.  Philox is used because its key fully
determines the stream without any sequential seeding state.

``path_generator`` defines the stream of one path; ``path_rows`` draws
the same streams from one generator per call, re-keyed for each path,
which is far cheaper than constructing a generator per path.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int

#: a fresh Philox has used none of its 4-word output block
_PHILOX_BUFFER_SIZE = 4


def check_seed(seed: int) -> int:
    """Validate a master seed (an integer in [0, 2**64)) and return it."""
    return check_int(seed, "seed", 0, 2**64 - 1)


def path_generator(seed: int, index: int) -> np.random.Generator:
    """Return the dedicated generator for path ``index`` under ``seed``.

    The 128-bit Philox key is the pair (seed, index), so distinct paths use
    provably disjoint streams and regenerating any single path is O(1).
    """
    key = np.array([check_seed(seed), check_int(index, "index", 0, 2**64 - 1)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def path_rows(seed: int, n_paths: int, n_cols: int, draw) -> np.ndarray:
    """(n_paths, n_cols) array whose row i is ``draw(path_generator(seed, i))``.

    ``draw`` receives the path's generator and returns the row's n_cols
    values; this is the single per-path loop behind every sampler.  One
    generator serves all rows: before each row its Philox is re-keyed to
    (seed, i) with a zero counter, an empty output buffer and no cached
    32-bit half, exactly the state of a new ``path_generator(seed, i)``.
    """
    seed = check_seed(seed)
    n_paths, n_cols = check_int(n_paths, "n_paths", 1), check_int(n_cols, "n_cols", 1)
    gen = path_generator(seed, 0)
    bit_generator = gen.bit_generator
    key = [seed, 0]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0] * _PHILOX_BUFFER_SIZE, "buffer_pos": _PHILOX_BUFFER_SIZE,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((n_paths, n_cols))
    for i in range(n_paths):
        key[1] = i
        bit_generator.state = fresh
        out[i] = draw(gen)
    return out


def uniform_rows(seed: int, n_paths: int, n_cols: int) -> np.ndarray:
    """(n_paths, n_cols) uniforms; row i comes from substream (seed, i)."""
    return path_rows(seed, n_paths, n_cols, lambda gen: gen.random(n_cols))


def uniform_row(seed: int, index: int, n_cols: int) -> np.ndarray:
    """Row ``index`` of every ``uniform_rows(seed, n, n_cols)`` with n > index,
    drawn alone in O(n_cols)."""
    return path_generator(seed, index).random(check_int(n_cols, "n_cols", 1))


def normal_rows(seed: int, n_paths: int, n_cols: int) -> np.ndarray:
    """(n_paths, n_cols) standard normals; row i from substream (seed, i)."""
    return path_rows(seed, n_paths, n_cols, lambda gen: gen.standard_normal(n_cols))
