"""Exception hierarchy shared by all modules, and the integer check
every module validates its integer arguments with.

Each class corresponds to one of the failure categories the command line
interface maps to a distinct exit code.  Library code raises these instead
of bare builtins so callers can tell a bad argument from a numerical
breakdown without parsing messages.
"""

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
