"""Exception hierarchy shared by all modules, and the integer, float and
array checks every module validates its number arguments with.

Each class corresponds to one of the failure categories the command line
interface maps to a distinct exit code.  Library code raises these instead
of bare builtins so callers can tell a bad argument from a numerical
breakdown without parsing messages.
"""

import math
import numbers
import reprlib

import numpy as np


class CopulaProcessError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(CopulaProcessError, ValueError):
    """An argument is out of range, malformed, or inconsistent."""


class UnsupportedOperationError(CopulaProcessError, TypeError):
    """The operation is not defined for the given object (e.g. a density
    query on a purely empirical family)."""


class NumericFailureError(CopulaProcessError, RuntimeError):
    """A numerical routine failed to produce a trustworthy result
    (factorization breakdown, non-finite intermediate, failed check)."""


class AssumptionViolatedError(CopulaProcessError, RuntimeError):
    """A mathematical hypothesis required by a bound does not hold for the
    supplied inputs (divergent integral, missing moment)."""


def check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """Return ``value`` as an ``int`` if it is a Python or numpy integer,
    not a bool, in [lo, hi] (unbounded above when ``hi`` is None); raise
    ``InvalidArgumentError`` naming ``name`` otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
        if lo <= number and (hi is None or number <= hi):
            return number
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise InvalidArgumentError(f"{name} must be an integer {span}, got {value!r}")


def check_float(value, name: str, lo: float = -math.inf, hi: float = math.inf, *,
                lo_open: bool = False, hi_open: bool = False) -> float:
    """Return ``value`` as a ``float`` if it is a finite Python or numpy real,
    not a bool, between ``lo`` and ``hi`` (a bound is excluded when its
    ``*_open`` flag is set); raise ``InvalidArgumentError`` naming ``name``
    otherwise."""
    # floats, numpy's float64 among them, skip the slower ABC check
    if isinstance(value, float) or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool)):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if (math.isfinite(number) and (lo < number if lo_open else lo <= number)
                and (number < hi if hi_open else number <= hi)):
            return number
    if hi == math.inf:
        span = "" if lo == -math.inf else f" {'>' if lo_open else '>='} {lo:g}"
    elif lo == -math.inf:
        span = f" {'<' if hi_open else '<='} {hi:g}"
    else:
        span = f" in {'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
    raise InvalidArgumentError(f"{name} must be a finite number{span}, got {value!r}")


def holds_text_or_bool(values) -> bool:
    """Whether ``values`` is, or as an array, list or tuple holds, a string,
    bytes or a bool, which numpy would read as floats: one dtype test for
    an array, one test per entry of a list or tuple."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "USb"
    if isinstance(values, (list, tuple)):
        return any(map(holds_text_or_bool, values))
    return isinstance(values, (str, bytes, bool, np.bool_))


def check_array(values, name: str, lo: float = -math.inf, hi: float = math.inf, *,
                lo_open: bool = False, hi_open: bool = False) -> np.ndarray:
    """Return ``values`` as a float64 array, not copied if it is one, if
    every entry is a finite number within the bounds, as ``check_float``
    reads them; an empty array passes.  Raise ``InvalidArgumentError``
    naming ``name`` and the least or greatest entry, whichever is refused,
    otherwise, or naming the input when it holds text or bools or numpy
    cannot read it as floats.  Bounds cost one ``min`` and one ``max``,
    through which a NaN propagates; no bounds, one ``np.isfinite`` pass."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or holds_text_or_bool(values):
        raise InvalidArgumentError(f"{name} must hold numbers, got {reprlib.repr(values)}")
    if arr.size and not (lo == -math.inf and hi == math.inf and np.isfinite(arr).all()):
        for entry in (float(arr.min()), float(arr.max())):
            check_float(entry, f"every entry of {name}", lo, hi,
                        lo_open=lo_open, hi_open=hi_open)
    return arr
