"""The in-library Kolmogorov-Smirnov p-value has scipy's bits on every branch."""

import ast
import inspect
import sys
import textwrap

import numpy as np
import pytest
from scipy import stats

from copulaproc import _kstest
from copulaproc._kstest import ks_uniform_pvalue


def _shifted(n, d):
    """n points at (i - 1/2)/n moved up by d - 1/(2n) and capped at 1, so
    that D_n is d up to rounding."""
    return np.minimum((np.arange(1, n + 1) - 0.5) / n + (d - 0.5 / n), 1.0)


# (n, d) inside each region of the survival function
BRANCH_CASES = [
    (10, 0.08),       # n d <= 1, n <= 140: Ruben-Gambino product
    (500, 0.0015),    # n d <= 1, n > 140: Ruben-Gambino by Stirling
    (10, 0.95),       # n d >= n - 1: Ruben-Gambino
    (10, 0.6),        # d >= 0.5: 2 smirnov, exact
    (100, 0.05),      # n <= 140, n d^2 <= 0.754693: Durbin matrix
    (100, 0.15),      # n <= 140, n d^2 <= 4: Pomeranz
    (100, 0.3),       # n <= 140, n d^2 > 4: 2 smirnov
    (2000, 0.45),     # n > 140, n d^2 >= 370: 0
    (2000, 0.05),     # n > 140, n d^2 >= 2.2: 2 smirnov
    (2000, 0.005),    # n > 140, n d^1.5 <= 1.4: Durbin matrix
    (2000, 0.02),     # n > 140, n d^1.5 > 1.4: Pelz-Good
    (200_001, 5e-5),  # n > 100000, Pelz-Good's q underflows: 1
]


def _lines_run(run):
    """Line numbers of ``_kstest`` executed by ``run()``."""
    hit, path = set(), _kstest.__file__

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hit


def _return_lines(func):
    lines, start = inspect.getsourcelines(func)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {start + node.lineno - 1 for node in ast.walk(tree) if isinstance(node, ast.Return)}


def test_every_branch_of_the_survival_function_has_scipys_bits():
    # d just above 1/(2n) whose n d still rounds to 1/2; no sample of n = 3
    # was found with this statistic, so it goes to the survival function alone
    band_n = 3
    band_d = np.nextafter(0.5 / band_n, 1.0)
    assert band_d > 0.5 / band_n and band_n * np.asarray(band_d) <= 0.5

    def sweep():
        for n, d in BRANCH_CASES:
            x = _shifted(n, d)
            assert ks_uniform_pvalue(x) == stats.kstest(x, "uniform").pvalue, (n, d)
        for x, want in ((np.array([0.25, 0.75]), 1.0),  # d = 1/(2n)
                        (np.zeros(3), 0.0), (np.ones(4), 0.0)):  # d = 1
            assert ks_uniform_pvalue(x) == stats.kstest(x, "uniform").pvalue == want
        x = np.array([0.2, np.nan, 0.7])
        assert np.isnan(ks_uniform_pvalue(x)) and np.isnan(stats.kstest(x, "uniform").pvalue)
        assert _kstest._kstwo_sf(band_n, band_d) == stats.kstwo.sf(band_d, band_n) == 1.0

    hit = _lines_run(sweep)
    branches = set().union(*(_return_lines(f) for f in (
        _kstest._kstwo_sf, _kstest._survival, _kstest._kolmogn_PelzGood)))
    assert len(branches) == 4 + 11 + 2
    missed = branches - hit
    assert not missed, f"branches never taken: lines {sorted(missed)}"


@pytest.mark.parametrize("law", ["uniform", "beta", "power", "squeezed"])
def test_random_samples_have_scipys_bits(law):
    rng = np.random.default_rng(["uniform", "beta", "power", "squeezed"].index(law))
    draw = {"uniform": lambda n: rng.random(n),
            "beta": lambda n: rng.beta(1.2, 1.0, n),
            "power": lambda n: rng.random(n) ** 1.05,
            "squeezed": lambda n: 0.02 + 0.97 * rng.random(n)}[law]
    for n in [*range(1, 41), 70, 139, 140, 141, 142, 300, 1_000, 5_000, 20_000, 100_001]:
        for _ in range(2):
            x = draw(n)
            assert ks_uniform_pvalue(x) == stats.kstest(x, "uniform").pvalue, (law, n)
