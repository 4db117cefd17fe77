"""Configuration-driven batch runner.

Subcommands (all driven by a single JSON config):

* ``simulate``    sample a copula model, optionally merge marginals, write paths
* ``wasserstein`` path-space distance between two marginal families
* ``robustness``  the Pareto-on-elliptical truncation experiment
* ``klexpand``    empirical covariance eigendecomposition of sampled paths
* ``check``       moment or minorant-assumption diagnostics

Every run writes its data files plus ``manifest.json`` holding the
command name, the echoed config, the effective seed, library versions,
and SHA-256 checksums of the outputs.  Outputs carry no timestamps and
all floats are written with 17 significant digits, so a rerun with the
same config and seed is byte-identical.

Exit codes: 0 success, 2 invalid config or arguments, 3 numeric
failure, 4 violated model assumption.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from collections.abc import Sequence

import numpy as np
import scipy

from . import __version__
from ._kstest import ks_uniform_pvalue
from .copulas import CopulaModel
from .errors import (AssumptionViolatedError, InvalidArgumentError,
                     NumericFailureError, UnsupportedOperationError, check_int)
from .grid import TimeGrid, make_uniform_grid
from .kl import kl_from_ensemble, tail_energy
from .marginals import FAMILY_KINDS, LognormalMixing, MarginalFamily
from .rng import check_seed
from .robustness import (MINORANT_PRESETS, ExperimentConfig, check_assumption,
                         pareto_elliptical_experiment)
from .serialize import sha256_file, write_csv, write_json, write_matrix_csv
from .sklar import ProcessEnsemble, check_moment_condition, merge
from .transport import attach_mc_check, pathspace_wasserstein_same_copula

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_ASSUMPTION = 4


def _check_keys(section, allowed, context: str) -> dict:
    """``section``, which must be an object holding only ``allowed`` keys;
    unknown keys are hard errors, since silent typos corrupt experiments."""
    if not isinstance(section, dict):
        raise InvalidArgumentError(f"config section {context!r} must be an object")
    for key in section:
        if key not in allowed:
            raise InvalidArgumentError(
                f"unknown config key {context}.{key}" if context else
                f"unknown config key {key}")
    return section


def _float(value, where: str) -> float:
    """A JSON number or numeric string as a float; never a JSON boolean."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidArgumentError(f"config key {where} must be a number, got {value!r}")


def _int(value, where: str) -> int:
    """A JSON integer, never a boolean or a float; the library checks its range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidArgumentError(f"config key {where} must be an integer, got {value!r}")


def _int_tuple(value, where: str) -> tuple:
    """A JSON list of integers as a tuple."""
    if not isinstance(value, list):
        raise InvalidArgumentError(f"config key {where} must be a list of integers")
    return tuple(_int(k, where) for k in value)


def _parse_grid(section, context: str) -> TimeGrid:
    def grid(a: float, b: float, m: int):
        return make_uniform_grid(a, b, check_int(m, f"config key {context}.m", 2))

    return _build(grid, section, context)


def _parse_family(section, context: str) -> MarginalFamily:
    """Build a ``FAMILY_KINDS`` family from its constructor's keywords; for
    families with a ``power_law_key``, ``power_law_hurst`` replaces it."""
    if "kind" not in _check_keys(section, section, context):
        raise InvalidArgumentError(f"missing config key {context}.kind")
    kind = section["kind"]
    cls = FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidArgumentError(f"unknown marginal kind {context}.kind = {kind!r}")
    power_key = cls.power_law_key
    extra = ("kind", "power_law_hurst") if power_key else ("kind",)
    if power_key and "power_law_hurst" in section:
        if power_key in section:
            raise InvalidArgumentError(
                f"{context}: give either {power_key} or power_law_hurst, not both")
        hurst = _float(section["power_law_hurst"], f"{context}.power_law_hurst")
        return _build(functools.partial(cls.power_law, hurst), section, context, extra=extra)
    return _build(cls, section, context, extra)


#: annotation text -> reader of a config value for a parameter so annotated;
#: any other annotation, or none, reads a number
_READERS = {
    "int": _int,
    "str": lambda value, where: value,
    "dict": lambda value, where: _check_keys(value, value, where),  # any object
    "Sequence[int]": _int_tuple,
    "TimeGrid": _parse_grid,
    "CopulaModel": lambda value, where: _build(CopulaModel, value, where),
    "LognormalMixing": lambda value, where: _build(LognormalMixing, value, where),
    "MarginalFamily": _parse_family,
}


def _build(fn, section, context: str, extra=()):
    """Call ``fn`` with a config section holding its parameters and
    ``extra``; a parameter without a default is required.  A value is
    read by the text of its parameter's annotation (every module defers
    annotations), and ``X | None`` also takes a JSON null."""
    params = inspect.signature(fn).parameters
    _check_keys(section, (*params, *extra), context)
    kwargs = {}
    for key in params:
        where = f"{context}.{key}" if context else key
        if key in section:
            value, annotation = section[key], str(params[key].annotation)
            read = _READERS.get(annotation.removesuffix(" | None"), _float)
            null = value is None and annotation.endswith(" | None")
            kwargs[key] = None if null else read(value, where)
        elif params[key].default is inspect.Parameter.empty:
            raise InvalidArgumentError(f"missing config key {where}")
    return fn(**kwargs)


# A runner's parameters after ``outdir`` are its subcommand's config keys.

def _run_simulate(outdir, grid: TimeGrid, model: CopulaModel, n_paths: int, seed: int,
                  family: MarginalFamily = None):
    copula = model.sample(grid, n_paths, seed)
    ks_p = [ks_uniform_pvalue(copula.paths[:, j]) for j in range(grid.m)]
    paths = copula.paths if family is None else merge(copula, family).paths
    write_matrix_csv(os.path.join(outdir, "ensemble.csv"), grid.points, paths)
    extras = {
        "model": copula.model_tag,
        "marginal": None if family is None else family.kind,
        "grid": {"a": grid.a, "b": grid.b, "m": grid.m},
        "n_paths": copula.n_paths,
        "column_ks_p": ks_p,
    }
    return extras, ["ensemble.csv"]


def _run_wasserstein(outdir, grid: TimeGrid, p: int, family_a: MarginalFamily,
                     family_b: MarginalFamily, mc: dict = None, seed: int = None):
    def sample(model: CopulaModel, n_paths: int):
        if seed is None:
            raise InvalidArgumentError("missing config key seed")
        return model.sample(grid, n_paths, seed)

    report = pathspace_wasserstein_same_copula(family_a, family_b, grid, p)
    if mc is not None:
        copula = _build(sample, mc, "mc")
        report = attach_mc_check(report, merge(copula, family_a),
                                 merge(copula, family_b))
    write_json(os.path.join(outdir, "report.json"), report)
    rows = np.column_stack([grid.points, report.per_t])
    write_csv(os.path.join(outdir, "per_t.csv"), ("t", "w_p"), rows)
    return {}, ["report.json", "per_t.csv"]


def _run_robustness(outdir, config: ExperimentConfig):
    report = pareto_elliptical_experiment(config)
    write_json(os.path.join(outdir, "report.json"), report)
    header = ("n_keep", "lhs", "marginal_term", "copula_term", "K", "rho",
              "tail_energy", "holds")
    rows = [[getattr(row, name) for name in header] for row in report.rows]
    write_csv(os.path.join(outdir, "rows.csv"), header, rows)
    return {}, ["report.json", "rows.csv"]


def _run_klexpand(outdir, grid: TimeGrid, model: CopulaModel, n_paths: int, seed: int,
                  family: MarginalFamily = None, n_keep: Sequence[int] = ()):
    copula = model.sample(grid, n_paths, seed)
    if family is None:
        ensemble = ProcessEnsemble(grid, copula.paths, "uniform", copula.model_tag)
    else:
        ensemble = merge(copula, family)
    decomposition = kl_from_ensemble(ensemble)
    tails = {str(k): tail_energy(decomposition, k) for k in n_keep}
    report = {
        "eigenvalues": decomposition.eigenvalues,
        "mean": decomposition.mean,
        "tail_energy": tails,
    }
    write_json(os.path.join(outdir, "report.json"), report)
    write_csv(os.path.join(outdir, "eigenvalues.csv"), ("index", "eigenvalue"),
              [(i, v) for i, v in enumerate(decomposition.eigenvalues)])
    functions = np.column_stack([grid.points, decomposition.eigenfunctions])
    header = ["t"] + [f"phi{i}" for i in range(grid.m)]
    write_csv(os.path.join(outdir, "eigenfunctions.csv"), header, functions)
    return {}, ["report.json", "eigenvalues.csv", "eigenfunctions.csv"]


def _run_check(outdir, mode: str, grid: TimeGrid, family: MarginalFamily, p: float = None,
               params: dict = None, seed: int = None):
    """``seed`` is unused; it is a key here since ``--seed`` sets it."""
    for key, value, other_mode in (("params", params, "moment"), ("p", p, "assumption")):
        if mode == other_mode and value is not None:
            raise InvalidArgumentError(f"config key {key} does not apply to {mode} mode")
    if mode == "moment":
        if p is None:
            raise InvalidArgumentError("missing config key p")
        report = check_moment_condition(family, grid, p)
    elif mode == "assumption":
        preset = MINORANT_PRESETS.get(family.kind)
        if preset is None:
            raise InvalidArgumentError(
                f"assumption mode supports {' and '.join(MINORANT_PRESETS)} families")
        params = _build(functools.partial(preset, family, grid), params or {}, "params")
        report = check_assumption(family, params, grid)
    else:
        raise InvalidArgumentError(f"mode must be 'moment' or 'assumption', got {mode!r}")
    write_json(os.path.join(outdir, "report.json"), report)
    return {}, ["report.json"]


#: subcommand -> (runner, help text)
_COMMANDS = {
    "simulate": (_run_simulate, "sample a copula model and optionally merge marginals"),
    "wasserstein": (_run_wasserstein,
                    "path-space Wasserstein distance between marginal families"),
    "robustness": (_run_robustness, "Pareto-on-elliptical truncation experiment"),
    "klexpand": (_run_klexpand, "empirical covariance eigendecomposition"),
    "check": (_run_check, "moment and minorant-assumption diagnostics"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulaproc",
        description="Copula-process sampling, transport distances, and "
                    "robustness bound evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's master seed (u64)")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted for interface stability and ignored; merge "
                              "and extract_copula share their columns over the CPUs "
                              "in the process's affinity mask, and outputs are "
                              "byte-identical for any CPU count, BLAS thread count "
                              "or value of this flag")
    return parser


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, too long an int
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidArgumentError(f"config {path} must hold a JSON object")
    return cfg


def _new_dirs(path) -> list:
    """``path`` and those of its parents that do not exist yet, deepest first."""
    new = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        new.append(path)
        path = os.path.dirname(path)
    return new


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    new_dirs = _new_dirs(args.out)
    rc = 1  # an escaping exception exits 1
    try:
        rc = _main(args)
        return rc
    finally:
        # a failed run takes back the directories it made while they are
        # empty; one that existed before is never removed
        if rc != 0:
            for path in new_dirs:
                try:
                    os.rmdir(path)
                except OSError:
                    break


def _main(args) -> int:
    try:
        check_int(args.threads, "--threads", 1)
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = check_seed(args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot make output directory {args.out}: {exc}") from exc
        run = functools.partial(_COMMANDS[args.command][0], args.out)
        if args.command == "robustness":  # the whole config is the experiment's
            extras, files = run(_build(ExperimentConfig, cfg, ""))
        else:
            extras, files = _build(run, cfg, "")
        manifest = {
            "command": args.command,
            "config_echo": cfg,
            "seed": cfg.get("seed"),
            "versions": {
                "copulaproc": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
            },
            "output_files": [
                {"name": name, "sha256": sha256_file(os.path.join(args.out, name))}
                for name in files
            ],
        }
        manifest.update(extras)
        write_json(os.path.join(args.out, "manifest.json"), manifest)
        return 0
    except (InvalidArgumentError, UnsupportedOperationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except AssumptionViolatedError as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return _EXIT_ASSUMPTION
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
