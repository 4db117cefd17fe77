import numpy as np
import pytest

from copulaproc import InvalidArgumentError
from copulaproc.serialize import format_float, write_matrix_csv

#: signed zeros, the smallest subnormal, a deeper subnormal, a huge value,
#: two inexact fractions and every non-finite value, the sign of nan included
SPECIAL_ROW = [0.0, -0.0, 5e-324, 1e-320, 1e308, 0.1, 1.0 / 3.0,
               np.inf, -np.inf, np.nan, -np.nan]


def _reference_bytes(times, matrix):
    """Header and every cell through format_float, one line per row."""
    lines = [",".join(format_float(t) for t in times)]
    lines += [",".join(format_float(x) for x in row) for row in matrix]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _assert_matches_reference(path, times, matrix):
    write_matrix_csv(path, times, matrix)
    assert path.read_bytes() == _reference_bytes(times, matrix)


# one and two rows, both sides of one 1024-row block, and one past two blocks
@pytest.mark.parametrize("n_rows", [1, 2, 1023, 1024, 1025, 2049])
def test_matrix_csv_matches_format_float_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    times = np.linspace(0.5, 1.5, 7)
    matrix = rng.standard_normal((n_rows, 7)) * 10.0 ** rng.integers(-300, 300, (n_rows, 7))
    matrix[n_rows // 2, 3] = np.nan
    _assert_matches_reference(tmp_path / "m.csv", times, matrix)


def test_matrix_csv_special_values_match_format_float_bytes(tmp_path):
    row = np.array(SPECIAL_ROW)
    matrix = np.vstack([row, -row, row[::-1]])
    times = np.arange(row.size) / 3.0
    _assert_matches_reference(tmp_path / "special.csv", times, matrix)
    # the header row takes the special values too
    _assert_matches_reference(tmp_path / "header.csv", row, matrix)
    assert format_float(-np.nan) == "nan"
    assert format_float(np.inf) == "inf"
    assert format_float(-np.inf) == "-inf"
    assert format_float(-0.0) == "-0"


def test_matrix_csv_shape_mismatch_raises(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_matrix_csv(tmp_path / "bad.csv", [0.0, 1.0, 2.0], np.zeros((4, 2)))
    with pytest.raises(InvalidArgumentError):
        write_matrix_csv(tmp_path / "bad.csv", [0.0, 1.0], np.zeros(2))
