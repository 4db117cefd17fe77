import dataclasses

import numpy as np
import pytest

from copulaproc import InvalidArgumentError
from copulaproc.serialize import dumps_json, format_float, write_matrix_csv

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


# one and two rows, both sides of one 1170-row block (2**13 // 7 rows at
# m = 7), and one past two blocks
@pytest.mark.parametrize("n_rows", [1, 2, 1169, 1170, 1171, 2341])
def test_matrix_csv_matches_format_float_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    times = np.linspace(0.5, 1.5, 7)
    # a checkerboard of decimal exponents: in [-12, 18], where the exact
    # integer path writes most cells, and in [-300, 299], where %.17g does
    window = np.add.outer(np.arange(n_rows), np.arange(7)) % 2 == 0
    exponents = np.where(window, rng.integers(-12, 19, (n_rows, 7)),
                         rng.integers(-300, 300, (n_rows, 7)))
    matrix = rng.standard_normal((n_rows, 7)) * 10.0 ** exponents
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


def _exact_window_values():
    """Values in and around the exact window 1e-10 <= |x| < 1e17, both signs."""
    rng = np.random.default_rng(24)
    powers = 10.0 ** np.arange(-12, 19)
    ties = [k / 2.0 ** j for j in range(0, 60, 3) for k in (1, 3, 5, 7, 99, 12345)]
    short = [round(x, d) for x in rng.uniform(-1e5, 1e5, 100) for d in range(12)]
    # the doubles whose 17 digits round up into the next decade lie outside
    # the window; the largest double below each power of ten lies inside
    carries = [1e-14, 1e-79, 1e98, 1e153]
    integers = np.concatenate([np.arange(-64, 64, 2.0) + 1e16, np.arange(-512, 512, 16.0) + 1e17])
    # fixed point with and without a fraction, 0.000ddd, d.ddde-XX
    layouts = [1234.5, 1200.0, 99999999999999984.0, 0.5, 0.1, 0.00012, 0.000123456789,
               1.5e-5, 1e-5, 3e-10, 1e-10, 7.25, 2.0 ** 52 + 1]
    values = np.concatenate([
        10.0 ** rng.uniform(-12, 18, 4000),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, short, carries, integers, layouts])
    values = np.concatenate([values, -values])
    return values[rng.permutation(values.size)]


#: m = 1 and m = 7 on both sides of their block boundaries (8192 and 1170
#: rows of 2**13 cells), a few rows, and rows longer than one block
@pytest.mark.parametrize("n_rows, m", [(1, 1), (5, 3), (8191, 1), (8193, 1),
                                       (1170, 7), (1171, 7), (2, 40000)])
def test_matrix_csv_matches_format_float_bytes_in_the_exact_window(tmp_path, n_rows, m):
    times = np.linspace(0.5, 1.5, m)
    matrix = np.resize(_exact_window_values(), (n_rows, m))
    _assert_matches_reference(tmp_path / "window.csv", times, matrix)


@dataclasses.dataclass
class _Row:
    flag: np.bool_
    count: np.int64
    values: np.ndarray
    pair: tuple


def test_json_reads_dataclasses_numpy_values_and_tuples():
    obj = {1: _Row(np.True_, np.int64(3), np.array([[0.1, np.inf]]), (np.float32(0.5), None)),
           "empty": [np.array([]), {}]}
    assert dumps_json(obj) == (
        '{\n'
        '  "1": {\n'
        '    "flag": true,\n'
        '    "count": 3,\n'
        '    "values": [\n'
        '      [\n'
        '        0.10000000000000001,\n'
        '        "inf"\n'
        '      ]\n'
        '    ],\n'
        '    "pair": [\n'
        '      0.5,\n'
        '      null\n'
        '    ]\n'
        '  },\n'
        '  "empty": [\n'
        '    [],\n'
        '    {}\n'
        '  ]\n'
        '}\n')


@pytest.mark.parametrize("obj", [{1, 2}, [np.complex128(1j)], {"x": _Row}])
def test_json_refuses_other_types(obj):
    with pytest.raises(InvalidArgumentError, match=r"^cannot serialize object of type "):
        dumps_json(obj)
