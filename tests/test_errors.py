import numpy as np
import pytest

from copulaproc.errors import InvalidArgumentError, check_int


@pytest.mark.parametrize("value, lo, hi", [
    (3, 1, None), (np.int64(3), 1, None), (np.uint64(2**64 - 1), 0, 2**64 - 1),
    (np.int8(-2), -2, -2), (0, 0, 0)])
def test_check_int_returns_a_python_int(value, lo, hi):
    got = check_int(value, "k", lo, hi)
    assert type(got) is int and got == int(value)


@pytest.mark.parametrize("value, lo, hi, span", [
    (True, 0, None, ">= 0"), (False, 0, None, ">= 0"), (np.True_, 0, None, ">= 0"),
    (2.0, 1, None, ">= 1"), (np.float64(2.0), 1, None, ">= 1"), ("2", 1, None, ">= 1"),
    (None, 1, None, ">= 1"), (0, 1, None, ">= 1"), (5, 1, 4, "in [1, 4]"),
    (np.uint64(5), 6, None, ">= 6"), (2**64, 0, 2**64 - 1, f"in [0, {2**64 - 1}]")])
def test_check_int_names_the_argument_and_its_range(value, lo, hi, span):
    with pytest.raises(InvalidArgumentError) as info:
        check_int(value, "the_key", lo, hi)
    assert str(info.value) == f"the_key must be an integer {span}, got {value!r}"
