"""Merging copulas with marginals and extracting copulas back.

The merge direction builds process paths X_t = Q_t(U_t) column by column
through the generalized inverse of the marginal family.  The extraction
direction recovers a copula ensemble from process paths: continuous
marginals apply F_t directly, atomic ones apply the distributional
transform with auxiliary uniforms.  Only atomic families draw them, one
per entry from the per-path substreams of ``aux_seed``, or read the
caller's copy of that matrix; continuous families draw nothing.  Because
every path has its own key, skipping the draws moves no other stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from ._parallel import share, threads_for
from ._quadrature import adaptive_unit_integral, per_time_integrals, step_power_integral
from .copulas import CopulaEnsemble
from .errors import InvalidArgumentError, check_array, check_float
from .grid import TimeGrid, integrate
from .marginals import Empirical, MarginalFamily

#: endpoint cut for the moment-condition quadrature
_MOMENT_DELTA = 1e-12
#: columns in flight at once: 8 float64 are one 64-byte cache line of a row
_COLUMN_GROUP = 8
#: fewest rows whose columns are shared among threads: on two CPUs, a merge
#: of 2,000 rows took 3.3-5.9 ms shared against 1.1-3.8 ms on one thread,
#: and Gaussian columns gain from 5,000 rows on
_SHARED_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ProcessEnsemble:
    """Real-valued paths on a grid, tagged with their construction."""

    grid: TimeGrid
    paths: np.ndarray
    marginal_tag: str = ""
    copula_tag: str = ""
    n_paths: int = field(init=False)

    def __post_init__(self):
        paths = check_array(self.paths, "process paths")
        if paths.ndim != 2 or paths.shape[1] != self.grid.m:
            raise InvalidArgumentError(
                f"paths must have shape (n, {self.grid.m}), got {paths.shape}")
        if paths.shape[0] < 1:
            raise InvalidArgumentError("ensemble needs at least one path")
        paths.setflags(write=False)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "n_paths", paths.shape[0])


def _check_family_grid(family: MarginalFamily, grid: TimeGrid) -> None:
    if isinstance(family, Empirical) and family.grid != grid:
        raise InvalidArgumentError(
            "empirical family is defined on a different grid")


def _columnwise(points, fn, out, *arrays) -> np.ndarray:
    """Column j of ``out`` becomes fn(points[j], arrays[0][:, j], ...).

    From 4096 rows on, the columns go in groups shared through
    ``_parallel.share`` among one thread per CPU, at most 8 columns in
    flight in all: 8 per group on one CPU, 4 on two, 1 from eight CPUs
    on; fewer rows run in groups of 8 on the caller.  A thread
    copies its group's columns into contiguous rows, so each paths row is
    read once per group rather than once per column, calls fn once per
    column on a contiguous copy of it and writes the values straight into
    their column of ``out``.  Elementwise families give the values of a
    loop over strided columns bit for bit, for any CPU count.  ``out`` may
    be one of ``arrays``: a group has copied its columns before it writes
    them, and no other group reads them.
    """
    cpus = threads_for(len(points)) if len(out) >= _SHARED_ROWS else 1
    group = max(1, _COLUMN_GROUP // cpus)
    tops = range(0, len(points), group)

    def run(_, top):
        cols = slice(top, top + group)
        copies = [a[:, cols].T.copy() for a in arrays]
        for k, t in enumerate(points[cols]):
            out[:, top + k] = fn(t, *(c[k] for c in copies))

    share(tops, run, min(cpus, len(tops)))
    return out


def merge(copula: CopulaEnsemble, family: MarginalFamily) -> ProcessEnsemble:
    """Apply the marginal quantile column-wise: X_t = Q_t(U_t).

    With Uniform[0, 1] marginals the output reproduces the copula paths
    bit for bit, because the identity quantile is exact.  The quantile is
    called once per grid time on a contiguous copy of the column; from
    4096 paths on, groups of columns are shared among one thread per CPU
    in the affinity mask (``taskset`` is the only control), and the values
    are those of a loop over the strided columns for any CPU count.  The
    family's hooks, and callables such as a ``scale`` or ``mean`` of t,
    may therefore run on several threads at once and must be pure.
    """
    _check_family_grid(family, copula.grid)
    out = _columnwise(copula.grid.points, family.quantile,
                      np.empty_like(copula.paths), copula.paths)
    return ProcessEnsemble(copula.grid, out, family.kind, copula.model_tag)


def extract_copula(process: ProcessEnsemble, family: MarginalFamily,
                   aux_seed: int, *, aux: np.ndarray | None = None,
                   overwrite_process: bool = False) -> CopulaEnsemble:
    """Recover a copula ensemble via F_t or the distributional transform.

    Continuous families use U_t = F_t(X_t); families with atoms use
    F_t(x-) + V (F_t(x) - F_t(x-)) with per-entry auxiliary uniforms V
    from per-path substreams of ``aux_seed``.  Without ``aux`` they draw V
    as ``rng.uniform_rows(aux_seed, n_paths, m)`` and write the result
    over it.  A caller that extracts several ensembles of the same shape
    under one seed may draw that matrix once and pass it as ``aux``: it is
    read, never written, and the result goes to a fresh matrix, with the
    same values bit for bit.  A wrong shape, or a first or last row other
    than a fresh draw of that path's substream, is rejected.  Continuous
    families ignore ``aux``.  ``aux_seed`` is validated, and recorded as
    the ensemble seed, for every family.  As in ``merge``, the family is
    called once per grid time on contiguous copies of the columns, in
    groups shared among one thread per CPU in the affinity mask, with the
    values of a loop over the strided columns; the hooks and time
    callables may run on several threads at once and must be pure.  The
    result is clipped to [0, 1] in place.

    With ``overwrite_process`` set, in the manner of SciPy's
    ``overwrite_a``, the result is written over ``process.paths`` instead,
    with the same values bit for bit for every family; the process then
    holds the copula and must not be used again.  A caller whose process
    dies on return saves one n_paths x m matrix this way.  Paths that do
    not own their memory, such as a view of another array, are rejected.
    """
    _check_family_grid(family, process.grid)
    aux_seed = rng.check_seed(aux_seed)
    paths = process.paths
    if overwrite_process and not paths.flags.owndata:
        raise InvalidArgumentError(
            "overwrite_process needs paths that own their memory, got a view")
    out = None
    if family.is_continuous:
        fn, arrays = family.cdf, (paths,)
    else:
        if aux is None:
            aux = out = rng.uniform_rows(aux_seed, *paths.shape)
        else:
            _check_aux(aux, aux_seed, paths.shape)
        fn, arrays = family.distributional_transform, (paths, aux)
    if overwrite_process:
        paths.setflags(write=True)
        out = paths
    out = _columnwise(process.grid.points, fn,
                      np.empty_like(paths) if out is None else out, *arrays)
    np.clip(out, 0.0, 1.0, out=out)
    return CopulaEnsemble(process.grid, out, aux_seed,
                          f"extracted({family.kind})")


def _check_aux(aux, aux_seed: int, shape) -> None:
    """``aux`` must be ``rng.uniform_rows(aux_seed, *shape)``: its shape and
    its first and last rows are checked, in O(m)."""
    if not isinstance(aux, np.ndarray) or aux.shape != shape or aux.dtype != float:
        got = (f"{aux.dtype} array of shape {aux.shape}"
               if isinstance(aux, np.ndarray) else type(aux).__name__)
        raise InvalidArgumentError(
            f"aux must be a float64 array of shape {shape}, got {got}")
    for i in (0, shape[0] - 1):
        if not np.array_equal(aux[i], rng.uniform_row(aux_seed, i, shape[1])):
            raise InvalidArgumentError(
                f"aux row {i} is not the draw of aux_seed {aux_seed}")


@dataclass(frozen=True)
class MomentReport:
    """Time-integrated p-th absolute moment and whether it is finite."""

    integral: float
    satisfied: bool


def check_moment_condition(family: MarginalFamily, grid: TimeGrid,
                           p: float) -> MomentReport:
    """Evaluate int_T E|X_t|**p dt by quantile quadrature.

    Each per-time integral int_0^1 |Q_t(u)|**p du runs on
    u in [delta, 1 - delta] with delta = 1e-12 through
    ``adaptive_unit_integral``.  A time whose integrand overflows or grows
    like s**(-kappa) with kappa > 0.926 at an end node of the rule's first
    level diverges and reports ``integral = inf`` and ``satisfied = False``.
    A step quantile (``quantile_steps``, e.g. ``Empirical``) has the exact
    finite moment sum over its level segments, the sample mean of |x|**p.
    """
    check_float(p, "p", 0.0, lo_open=True)

    def moment_at(t):
        steps = family.quantile_steps(t)
        if steps is not None:
            return step_power_integral(*steps, p)
        return adaptive_unit_integral(
            lambda u, cu: np.abs(family.quantile_tail(t, u, cu)) ** p, _MOMENT_DELTA)

    per_t = per_time_integrals(grid.points, moment_at, family.time_invariant)
    if per_t is None:
        return MomentReport(integral=float("inf"), satisfied=False)
    return MomentReport(integral=integrate(grid, per_t), satisfied=True)
