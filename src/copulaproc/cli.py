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
import inspect
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from ._kstest import ks_uniform_pvalue
from .copulas import CopulaModel
from .errors import (AssumptionViolatedError, InvalidArgumentError,
                     NumericFailureError, UnsupportedOperationError, check_int)
from .grid import TimeGrid, make_uniform_grid
from .kl import kl_from_ensemble, tail_energy
from .marginals import FAMILY_KINDS, LognormalMixing
from .rng import check_seed
from .robustness import (MINORANT_PRESETS, ExperimentConfig, check_assumption,
                         pareto_elliptical_experiment)
from .serialize import sha256_file, write_csv, write_json, write_matrix_csv
from .sklar import ProcessEnsemble, check_moment_condition, merge
from .transport import attach_mc_check, pathspace_wasserstein_same_copula

_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_ASSUMPTION = 4


def _check_keys(section: dict, allowed, context: str) -> None:
    """Unknown keys are hard errors; silent typos corrupt experiments."""
    if not isinstance(section, dict):
        raise InvalidArgumentError(f"config section {context!r} must be an object")
    for key in section:
        if key not in allowed:
            raise InvalidArgumentError(
                f"unknown config key {context}.{key}" if context else
                f"unknown config key {key}")


def _require(section: dict, key: str, context: str):
    if key not in section:
        where = f"{context}.{key}" if context else key
        raise InvalidArgumentError(f"missing config key {where}")
    return section[key]


def _float(value, where: str) -> float:
    """A JSON number or numeric string as a float; never a JSON boolean."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InvalidArgumentError(f"config key {where} must be a number, got {value!r}")


def _int(value, where: str, minimum: int = 0) -> int:
    """A JSON integer (never a boolean or a float) of at least ``minimum``."""
    return check_int(value, f"config key {where}", minimum)


def _int_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise InvalidArgumentError(f"config key {where} must be a list of integers")
    return [_int(k, where) for k in value]


def _parse_grid(section, context="grid") -> TimeGrid:
    _check_keys(section, ("a", "b", "m"), context)
    a, b = (_float(_require(section, key, context), f"{context}.{key}") for key in ("a", "b"))
    return make_uniform_grid(a, b, _int(_require(section, "m", context), f"{context}.m", 2))


def _parse_mixing(section, context="mixing") -> LognormalMixing:
    _check_keys(section, ("mu", "sigma"), context)
    return LognormalMixing(_float(section.get("mu", 0.0), f"{context}.mu"),
                           _float(section.get("sigma", 0.5), f"{context}.sigma"))


def _parse_family(section, context="family"):
    """Build a ``FAMILY_KINDS`` family from the keys its class declares.

    A key is required when the constructor gives it no default; for
    families with a ``power_law_key``, ``power_law_hurst`` replaces it.
    """
    kind = _require(section, "kind", context)
    cls = FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidArgumentError(f"unknown marginal kind {context}.kind = {kind!r}")
    power_key = cls.power_law_key
    _check_keys(section, ("kind", *cls.config_keys)
                + (("power_law_hurst",) if power_key else ()), context)
    defaults = inspect.signature(cls).parameters
    kwargs = {}
    for key in cls.config_keys:
        where = f"{context}.{key}"
        if key == "mixing":
            kwargs[key] = _parse_mixing(section.get(key, {}), where)
        elif key in section:
            kwargs[key] = _float(section[key], where)
        elif defaults[key].default is inspect.Parameter.empty:
            raise InvalidArgumentError(f"missing config key {where}")
    if "power_law_hurst" in section:
        if power_key in section:
            raise InvalidArgumentError(
                f"{context}: give either {power_key} or power_law_hurst, not both")
        return cls.power_law(_float(section["power_law_hurst"], f"{context}.power_law_hurst"),
                             **kwargs)
    return cls(**kwargs)


def _parse_model(section, context="model") -> CopulaModel:
    _check_keys(section, ("variant", "hurst", "theta", "mixing", "t0"), context)
    variant = _require(section, "variant", context)
    mixing = None
    if "mixing" in section:
        mixing = _parse_mixing(section["mixing"], f"{context}.mixing")
    numbers = {key: None if section.get(key) is None
               else _float(section[key], f"{context}.{key}")
               for key in ("hurst", "theta", "t0")}
    return CopulaModel(variant=variant, mixing=mixing, **numbers)


def _sample(cfg, grid, context=""):
    """Sample the model and n_paths of cfg, or of its ``context`` block,
    on grid at the config seed."""
    section, prefix = (cfg[context], f"{context}.") if context else (cfg, "")
    model = _parse_model(_require(section, "model", context), prefix + "model")
    n_paths = _int(_require(section, "n_paths", context), prefix + "n_paths", 1)
    seed = _int(_require(cfg, "seed", ""), "seed")
    return model.sample(grid, n_paths, seed)


def _run_simulate(cfg, outdir):
    _check_keys(cfg, ("grid", "model", "family", "n_paths", "seed"), "")
    grid = _parse_grid(_require(cfg, "grid", ""))
    copula = _sample(cfg, grid)
    family = _parse_family(cfg["family"]) if "family" in cfg else None
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


def _run_wasserstein(cfg, outdir):
    _check_keys(cfg, ("grid", "p", "family_a", "family_b", "mc", "seed"), "")
    grid = _parse_grid(_require(cfg, "grid", ""))
    p = _int(_require(cfg, "p", ""), "p", 1)
    family_a = _parse_family(_require(cfg, "family_a", ""), "family_a")
    family_b = _parse_family(_require(cfg, "family_b", ""), "family_b")
    report = pathspace_wasserstein_same_copula(family_a, family_b, grid, p)
    if "mc" in cfg:
        _check_keys(cfg["mc"], ("model", "n_paths"), "mc")
        copula = _sample(cfg, grid, "mc")
        report = attach_mc_check(report, merge(copula, family_a),
                                 merge(copula, family_b))
    write_json(os.path.join(outdir, "report.json"), report)
    rows = np.column_stack([grid.points, report.per_t])
    write_csv(os.path.join(outdir, "per_t.csv"), ("t", "w_p"), rows)
    return {}, ["report.json", "per_t.csv"]


#: robustness config key -> coercion into its ExperimentConfig field
_ROBUSTNESS_KEYS = {
    "a": _float, "b": _float, "m": _int, "n_paths": _int, "seed": _int,
    "hurst": _float, "mixing": _parse_mixing, "x_min": _float, "alpha": _float,
    "gamma": _float, "n_keep": lambda value, where: tuple(_int_list(value, where)),
    "marginal_mode": lambda value, where: value, "p": _int, "epsilon": _float,
    "q": _float, "beta": _float,
}


def _run_robustness(cfg, outdir):
    _check_keys(cfg, _ROBUSTNESS_KEYS, "")
    kwargs = {key: parse(cfg[key], key) for key, parse in _ROBUSTNESS_KEYS.items()
              if key in cfg}
    report = pareto_elliptical_experiment(ExperimentConfig(**kwargs))
    write_json(os.path.join(outdir, "report.json"), report)
    header = ("n_keep", "lhs", "marginal_term", "copula_term", "K", "rho",
              "tail_energy", "holds")
    rows = [[getattr(row, name) for name in header] for row in report.rows]
    write_csv(os.path.join(outdir, "rows.csv"), header, rows)
    return {}, ["report.json", "rows.csv"]


def _run_klexpand(cfg, outdir):
    _check_keys(cfg, ("grid", "model", "family", "n_paths", "seed", "n_keep"), "")
    grid = _parse_grid(_require(cfg, "grid", ""))
    copula = _sample(cfg, grid)
    family = _parse_family(cfg["family"]) if "family" in cfg else None
    if family is None:
        ensemble = ProcessEnsemble(grid, copula.paths, "uniform", copula.model_tag)
    else:
        ensemble = merge(copula, family)
    decomposition = kl_from_ensemble(ensemble)
    n_keep = _int_list(cfg.get("n_keep", []), "n_keep")
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


def _run_check(cfg, outdir):
    _check_keys(cfg, ("mode", "grid", "family", "p", "params", "seed"), "")
    mode = _require(cfg, "mode", "")
    grid = _parse_grid(_require(cfg, "grid", ""))
    family = _parse_family(_require(cfg, "family", ""))
    for key, other_mode in (("params", "moment"), ("p", "assumption")):
        if mode == other_mode and key in cfg:
            raise InvalidArgumentError(f"config key {key} does not apply to {mode} mode")
    if mode == "moment":
        report = check_moment_condition(family, grid, _float(_require(cfg, "p", ""), "p"))
    elif mode == "assumption":
        preset = MINORANT_PRESETS.get(family.kind)
        if preset is None:
            raise InvalidArgumentError(
                f"assumption mode supports {' and '.join(MINORANT_PRESETS)} families")
        # the preset's keywords after (family, grid)
        keys = [*inspect.signature(preset).parameters][2:]
        section = cfg.get("params", {})
        _check_keys(section, keys, "params")
        common = {key: _float(section[key], f"params.{key}")
                  for key in keys if key in section and key != "p"}
        common["p"] = _int(section.get("p", 1), "params.p", 1)
        report = check_assumption(family, preset(family, grid, **common), grid)
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
                         help="accepted for interface stability and ignored; merge, "
                              "extract_copula and the scale-mixture kernel share their "
                              "work over the CPUs in the process's affinity mask, and "
                              "outputs are byte-identical for any CPU count, BLAS "
                              "thread count or value of this flag")
    return parser


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidArgumentError(f"config {path} must hold a JSON object")
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        check_int(args.threads, "--threads", 1)
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = check_seed(args.seed)
        os.makedirs(args.out, exist_ok=True)
        extras, files = _COMMANDS[args.command][0](cfg, args.out)
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
