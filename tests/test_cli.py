import csv
import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from copulaproc import (CopulaModel, ExperimentConfig, ExponentialScale, GaussianScale,
                        LognormalMixing, Pareto, ScaleMixtureGaussian, Uniform,
                        kl_from_ensemble, make_uniform_grid, merge, sample_comonotone,
                        sample_elliptical_copula)
from copulaproc import cli, sklar
from copulaproc.cli import main
from copulaproc.marginals import FAMILY_KINDS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def _run(tmp_path, name, cfg, extra_args=(), outname="out"):
    cfg_path = _write_config(tmp_path / f"{name}.json", cfg)
    outdir = tmp_path / outname
    rc = main([name, "--config", cfg_path, "--out", str(outdir), *extra_args])
    return rc, outdir


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


SIMULATE_CFG = {
    "grid": {"a": 0.0, "b": 1.0, "m": 3},
    "model": {"variant": "comonotone"},
    "family": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "n_paths": 4,
    "seed": 7,
}

WASSERSTEIN_CFG = {
    "grid": {"a": 0.0, "b": 1.0, "m": 3}, "p": 1,
    "family_a": {"kind": "gaussian_scale", "sigma": 1.0},
    "family_b": {"kind": "gaussian_scale", "sigma": 2.0},
}
CHECK_CFG = {
    "mode": "moment", "p": 1, "grid": {"a": 1.0, "b": 2.0, "m": 3},
    "family": {"kind": "pareto", "x_min": 1.0, "alpha": 3.0},
}


def test_simulate_comonotone_constant_rows(tmp_path):
    rc, outdir = _run(tmp_path, "simulate", SIMULATE_CFG)
    assert rc == 0
    with open(outdir / "ensemble.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["0", "0.5", "1"]
    data = np.array(rows[1:], dtype=float)
    assert data.shape == (4, 3)
    # comonotone paths merged through the identity map are constant in time
    assert np.all(data == data[:, :1])

    manifest = _read_json(outdir / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["config_echo"] == SIMULATE_CFG
    assert manifest["model"] == "comonotone"
    assert manifest["marginal"] == "uniform"
    assert manifest["grid"] == {"a": 0.0, "b": 1.0, "m": 3}
    assert manifest["n_paths"] == 4
    assert len(manifest["column_ks_p"]) == 3
    for key in ("copulaproc", "numpy", "scipy", "python"):
        assert key in manifest["versions"]
    names = [entry["name"] for entry in manifest["output_files"]]
    assert names == ["ensemble.csv"]
    assert "manifest.json" not in names


def test_manifest_hashes_match_outputs(tmp_path):
    rc, outdir = _run(tmp_path, "simulate", SIMULATE_CFG)
    assert rc == 0
    for entry in _read_json(outdir / "manifest.json")["output_files"]:
        with open(outdir / entry["name"], "rb") as fh:
            assert entry["sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_outputs_use_lf_line_endings(tmp_path):
    rc, outdir = _run(tmp_path, "simulate", SIMULATE_CFG)
    assert rc == 0
    for name in ("ensemble.csv", "manifest.json"):
        with open(outdir / name, "rb") as fh:
            assert b"\r" not in fh.read()


def test_rerun_is_byte_identical_across_thread_counts(tmp_path):
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 5},
        "model": {"variant": "fbm", "hurst": 0.3},
        "family": {"kind": "exponential_scale", "scale": 2.0},
        "n_paths": 64,
        "seed": 11,
    }
    _, out1 = _run(tmp_path, "simulate", cfg, outname="run1")
    _, out2 = _run(tmp_path, "simulate", cfg, ("--threads", "4"), outname="run2")
    for name in ("ensemble.csv", "manifest.json"):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read()


def test_simulate_scale_mixture_is_byte_identical_on_one_and_two_cpus(tmp_path, monkeypatch):
    # 4,099 paths are shared in column groups on two CPUs, and the elliptical
    # sampler calls the mixture kernel on the whole matrix
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 9},
        "model": {"variant": "elliptical", "hurst": 0.4},
        "family": {"kind": "scale_mixture_gaussian", "scale": 1.5},
        "n_paths": 4099,
        "seed": 5,
    }
    written = []
    for cpus in (1, 2):
        monkeypatch.setattr(sklar, "usable_cpus", lambda: cpus)
        rc, outdir = _run(tmp_path, "simulate", cfg, outname=f"cpus{cpus}")
        assert rc == 0
        with open(outdir / "ensemble.csv", "rb") as fh:
            written.append(fh.read())
    assert written[0] == written[1]


def test_seed_override_lands_in_manifest(tmp_path):
    # check takes the seed key, which it does not use, since --seed sets it
    for command, cfg in (("simulate", SIMULATE_CFG), ("check", CHECK_CFG)):
        rc, outdir = _run(tmp_path, command, cfg, ("--seed", "999"), outname=command)
        assert rc == 0
        manifest = _read_json(outdir / "manifest.json")
        assert manifest["seed"] == 999
        assert manifest["config_echo"]["seed"] == 999


def test_simulate_without_family_emits_uniform_paths(tmp_path):
    cfg = {
        "grid": {"a": 0.0, "b": 1.0, "m": 4},
        "model": {"variant": "independence"},
        "n_paths": 50,
        "seed": 3,
    }
    rc, outdir = _run(tmp_path, "simulate", cfg)
    assert rc == 0
    data = np.loadtxt(outdir / "ensemble.csv", delimiter=",", skiprows=1)
    assert data.shape == (50, 4)
    assert np.all((data > 0.0) & (data < 1.0))
    assert _read_json(outdir / "manifest.json")["marginal"] is None


def test_simulate_column_ks_p_are_scipys(tmp_path):
    # without a family ensemble.csv holds the copula columns, and both files
    # carry 17 significant digits, which read back to the same float64
    from scipy import stats
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 5},
        "model": {"variant": "clayton", "theta": 2.0},
        "n_paths": 300,
        "seed": 23,
    }
    rc, outdir = _run(tmp_path, "simulate", cfg)
    assert rc == 0
    paths = np.loadtxt(outdir / "ensemble.csv", delimiter=",", skiprows=1)
    want = [float(stats.kstest(paths[:, j], "uniform").pvalue) for j in range(5)]
    assert _read_json(outdir / "manifest.json")["column_ks_p"] == want


def test_simulate_fbm_columns_pass_ks(tmp_path):
    cfg = {
        "grid": {"a": 1.0, "b": 2.0, "m": 9},
        "model": {"variant": "fbm", "hurst": 0.5},
        "n_paths": 100_000,
        "seed": 17,
    }
    rc, outdir = _run(tmp_path, "simulate", cfg)
    assert rc == 0
    ks_p = _read_json(outdir / "manifest.json")["column_ks_p"]
    assert len(ks_p) == 9
    assert all(p >= 0.01 for p in ks_p)


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # no module of the package imports scipy.stats, whose import costs a
    # process about 0.7 s and 38 MB
    code = ("import sys, copulaproc.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
    assert done.returncode == 0, "importing copulaproc.cli loaded scipy.stats"


def test_simulate_leaves_scipy_stats_unloaded(tmp_path):
    # the column KS p-values are computed in the library
    code = ("import sys; from copulaproc.cli import main; "
            "rc = main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "sys.exit(rc or 10 * ('scipy.stats' in sys.modules))")
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.join(REPO_ROOT, "configs", "simulate.json"),
         str(tmp_path / "out")], timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
    assert done.returncode != 10, "simulate loaded scipy.stats"
    assert done.returncode == 0


def test_unknown_key_is_named_and_exits_2(tmp_path, capsys):
    cfg = dict(SIMULATE_CFG, typo_key=1)
    rc, _ = _run(tmp_path, "simulate", cfg)
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_unknown_nested_key_is_named_with_context(tmp_path, capsys):
    cfg = json.loads(json.dumps(SIMULATE_CFG))
    cfg["grid"]["extra"] = 1
    rc, _ = _run(tmp_path, "simulate", cfg)
    assert rc == 2
    assert "grid.extra" in capsys.readouterr().err


#: one config per family kind, with the family it must build
FAMILY_CASES = [
    ({"kind": "gaussian_scale", "sigma": 2.0, "mean": -1.0},
     lambda: GaussianScale(2.0, -1.0)),
    ({"kind": "gaussian_scale", "power_law_hurst": 0.3, "mean": 2.0},
     lambda: GaussianScale.power_law(0.3, mean=2.0)),
    ({"kind": "exponential_scale", "scale": "1.5"},
     lambda: ExponentialScale(1.5)),
    ({"kind": "exponential_scale", "power_law_hurst": 0.7},
     lambda: ExponentialScale.power_law(0.7)),
    ({"kind": "pareto", "x_min": 1.5, "alpha": 3.0},
     lambda: Pareto(1.5, 3.0)),
    ({"kind": "uniform", "lo": -1.0, "hi": 2.0},
     lambda: Uniform(-1.0, 2.0)),
    ({"kind": "scale_mixture_gaussian", "mixing": {"mu": 0.1, "sigma": 0.3},
      "scale": 2.0},
     lambda: ScaleMixtureGaussian(LognormalMixing(0.1, 0.3), 2.0)),
]


def test_family_cases_cover_every_registered_kind():
    assert {section["kind"] for section, _ in FAMILY_CASES} == set(FAMILY_KINDS)


@pytest.mark.parametrize("section, build", FAMILY_CASES,
                         ids=[c[0]["kind"] + ("_power_law" if "power_law_hurst" in c[0] else "")
                              for c in FAMILY_CASES])
def test_every_family_kind_builds_from_config(tmp_path, section, build):
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 3},
        "model": {"variant": "comonotone"},
        "family": section,
        "n_paths": 16,
        "seed": 3,
    }
    rc, outdir = _run(tmp_path, "simulate", cfg)
    assert rc == 0
    written = np.loadtxt(outdir / "ensemble.csv", delimiter=",", skiprows=1)
    copula = sample_comonotone(make_uniform_grid(0.5, 1.5, 3), 16, seed=3)
    assert np.array_equal(written, merge(copula, build()).paths)


@pytest.mark.parametrize("section, named", [
    ({"kind": "gaussian_scale", "sigma": 1.0, "power_law_hurst": 0.5},
     "power_law_hurst"),
    ({"kind": "exponential_scale", "scale": 1.0, "power_law_hurst": 0.5},
     "power_law_hurst"),
    ({"kind": "pareto", "alpha": 3.0}, "family.x_min"),
    ({"kind": "uniform", "bogus": 1.0}, "family.bogus"),
    ({"kind": "pareto", "x_min": 1.0, "alpha": 3.0, "power_law_hurst": 0.5},
     "family.power_law_hurst"),
    (None, "config section 'family' must be an object"),
    (5, "config section 'family' must be an object"),
])
def test_family_config_errors_exit_2(tmp_path, capsys, section, named):
    rc, _ = _run(tmp_path, "simulate", dict(SIMULATE_CFG, family=section))
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, named", [
    ("check", {"mode": "moment", "p": 1, "grid": {"a": 1.0, "b": 2.0, "m": 3},
               "family": {"kind": "pareto", "x_min": "abc", "alpha": 3.0}},
     "family.x_min"),
    ("simulate", dict(SIMULATE_CFG, grid={"a": "abc", "b": 1.0, "m": 3}), "grid.a"),
    ("robustness", {"m": 5, "n_paths": 10, "seed": 1, "x_min": [1]}, "x_min"),
    ("check", {"mode": "assumption", "grid": {"a": 1.0, "b": 2.0, "m": 3},
               "family": {"kind": "pareto", "x_min": 1.0, "alpha": 3.0},
               "params": {"p": "1"}},
     "params.p"),
    ("wasserstein", {"grid": {"a": 0.0, "b": 1.0, "m": 3}, "p": True,
                     "family_a": {"kind": "gaussian_scale", "sigma": 1.0},
                     "family_b": {"kind": "gaussian_scale", "sigma": 2.0}},
     "config key p "),
    ("wasserstein", {"grid": {"a": 0.0, "b": 1.0, "m": 3}, "p": 2.0,
                     "family_a": {"kind": "gaussian_scale", "sigma": 1.0},
                     "family_b": {"kind": "gaussian_scale", "sigma": 2.0}},
     "config key p "),
    ("check", {"mode": "moment", "p": 1, "grid": {"a": True, "b": 2.0, "m": 3},
               "family": {"kind": "pareto", "x_min": 1.0, "alpha": 3.0}},
     "grid.a"),
    ("simulate", dict(SIMULATE_CFG, family={"kind": "gaussian_scale", "sigma": True}),
     "family.sigma"),
    ("simulate", dict(SIMULATE_CFG, grid={"a": 0.0, "b": 1.0, "m": 1}),
     "config key grid.m must be an integer >= 2, got 1"),
    ("check", {"mode": "assumption", "grid": {"a": 1.0, "b": 2.0, "m": 3},
               "family": {"kind": "pareto", "x_min": 1.0, "alpha": 3.0},
               "params": {"x0": "abc"}},
     "config key params.x0 must be a number, got 'abc'"),
    ("wasserstein", {"grid": {"a": 0.0, "b": 1.0, "m": 3}, "p": 1,
                     "family_a": [{"kind": "uniform"}], "family_b": {"kind": "uniform"}},
     "config section 'family_a' must be an object"),
    ("wasserstein", {"grid": {"a": 0.0, "b": 1.0, "m": 3}, "p": 1,
                     "family_a": {"kind": "gaussian_scale", "sigma": 10 ** 400},
                     "family_b": {"kind": "gaussian_scale", "sigma": -(10 ** 400)}},
     "config key family_a.sigma must be a number"),
])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, command, cfg, named):
    rc, _ = _run(tmp_path, command, cfg)
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("grid, family, named", [
    ({"a": 0.0, "b": 1.0, "m": 3}, {"kind": "gaussian_scale", "power_law_hurst": -0.5},
     "sigma cannot be evaluated at t=0.0: "),
    ({"a": 1.0, "b": 2.0, "m": 2}, {"kind": "exponential_scale", "power_law_hurst": 2000},
     "scale cannot be evaluated at t=2.0: "),
    ({"a": 0.0, "b": 1.0, "m": 3},
     {"kind": "scale_mixture_gaussian", "mixing": {"sigma": 30}}, "finite E[1/S]"),
    ({"a": 0.0, "b": 1.0, "m": 3},
     {"kind": "scale_mixture_gaussian", "mixing": {"mu": 400}}, "finite E[1/S]"),
], ids=["hurst-below-0-at-0", "hurst-2000-overflows", "mixing-sigma-30", "mixing-mu-400"])
def test_family_that_cannot_be_evaluated_exits_2(tmp_path, capsys, grid, family, named):
    # the warning filter turns a leaked RuntimeWarning into an error
    rc, outdir = _run(tmp_path, "simulate", dict(SIMULATE_CFG, grid=grid, family=family))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and named in err
    assert not outdir.exists()


def test_overflowing_mixing_exits_2_where_no_family_uses_it(tmp_path, capsys):
    # an fbm model never reads its mixing, which is refused where it is built
    model = {"variant": "fbm", "hurst": 0.3, "mixing": {"sigma": 30}}
    rc, outdir = _run(tmp_path, "simulate",
                      dict(SIMULATE_CFG, grid={"a": 0.5, "b": 1.5, "m": 3}, model=model))
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: mixing must have finite E[1/S] and E[S**2]\n")
    assert not outdir.exists()


def test_numeric_failure_exits_3_and_leaves_no_output(tmp_path, capsys):
    # four Newton steps leave the sigma = 3 mixture quantile moving
    family = {"kind": "scale_mixture_gaussian", "mixing": {"sigma": 3}}
    rc, outdir = _run(tmp_path, "simulate", dict(SIMULATE_CFG, n_paths=64, family=family))
    assert rc == 3
    assert capsys.readouterr().err.startswith("numeric failure: scale-mixture quantile: ")
    assert not outdir.exists()


@pytest.mark.parametrize("model, named", [
    ({"variant": "comonotone", "t0": "nan"}, "t0"),
    ({"variant": "clayton", "theta": "nan"}, "theta"),
])
def test_non_finite_model_value_exits_2(tmp_path, capsys, model, named):
    rc, _ = _run(tmp_path, "simulate", dict(SIMULATE_CFG, model=model))
    assert rc == 2
    assert named in capsys.readouterr().err


def test_elliptical_sections_without_mixing_use_the_default_lognormal(tmp_path):
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 3},
        "model": {"variant": "elliptical", "hurst": 0.4},
        "family": {"kind": "scale_mixture_gaussian"},
        "n_paths": 16,
        "seed": 3,
    }
    rc, outdir = _run(tmp_path, "simulate", cfg)
    assert rc == 0
    mixing = LognormalMixing(0.0, 0.5)
    copula = sample_elliptical_copula(make_uniform_grid(0.5, 1.5, 3), 0.4, mixing, 16, 3)
    written = np.loadtxt(outdir / "ensemble.csv", delimiter=",", skiprows=1)
    assert np.array_equal(written, merge(copula, ScaleMixtureGaussian(mixing)).paths)
    assert _read_json(outdir / "manifest.json")["model"] == copula.model_tag
    # LognormalMixing states the default; the objects the sections build take it
    assert (CopulaModel("elliptical", hurst=0.4).mixing == ScaleMixtureGaussian().mixing
            == ExperimentConfig().mixing == mixing)


def test_robustness_config_reaches_the_experiment_as_its_config(tmp_path, monkeypatch):
    cfg = {
        "a": 0.5, "b": 1.5, "m": 9, "n_paths": 10, "seed": 3, "hurst": 0.3,
        "mixing": {"mu": 0.1, "sigma": 0.2}, "x_min": 2.0, "alpha": 5.0, "gamma": 0.5,
        "n_keep": [1, 3], "marginal_mode": "empirical", "p": 2, "epsilon": 0.5,
        "q": 3.0, "beta": 0.5,
    }
    want = ExperimentConfig(**dict(cfg, mixing=LognormalMixing(0.1, 0.2), n_keep=(1, 3)))
    # every field is set, and to a value other than its default
    default = ExperimentConfig()
    assert sorted(cfg) == sorted(field.name for field in dataclasses.fields(ExperimentConfig))
    assert all(getattr(want, key) != getattr(default, key) for key in cfg)
    seen = []

    class Reached(Exception):
        pass

    def experiment(config):
        seen.append(config)
        raise Reached

    monkeypatch.setattr(cli, "pareto_elliptical_experiment", experiment)
    with pytest.raises(Reached):
        _run(tmp_path, "robustness", cfg)
    assert seen == [want]


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


def test_invalid_threads_exits_2(tmp_path):
    rc, _ = _run(tmp_path, "simulate", SIMULATE_CFG, ("--threads", "0"))
    assert rc == 2


def _long_int_config():
    # Python reads no integer of more than 4300 digits, nor writes one, so
    # the JSON text is edited rather than dumped
    with open(os.path.join(REPO_ROOT, "configs", "wasserstein.json"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count('"sigma": 1.0') == 2
    return text.replace('"sigma": 1.0', '"sigma": 1' + "0" * 5000, 1).encode()


@pytest.mark.parametrize("content", [
    _long_int_config(),
    json.dumps(SIMULATE_CFG).encode("utf-16"),
    b'{"grid": ',
], ids=["5001-digit-int", "not-utf8", "not-json"])
def test_unreadable_config_exits_2_naming_its_path(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    rc = main(["wasserstein", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg_path = _write_config(tmp_path / "c.json", SIMULATE_CFG)
    rc = main(["simulate", "--config", cfg_path, "--out", str(taken)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot make output directory {taken}: ")


def test_refused_config_leaves_no_new_output_directory(tmp_path):
    # the run makes --out and its missing parents, and takes them back
    # once the config is refused; a directory that was there stays
    cfg_path = _write_config(tmp_path / "c.json", {"bogus": 1})
    out = tmp_path / "new" / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["c.json"]
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["simulate", "--config", cfg_path, "--out", str(kept / "out")]) == 2
    assert os.listdir(kept) == []
    assert main(["simulate", "--config", cfg_path, "--out", str(kept)]) == 2
    assert kept.is_dir()


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate", dict(SIMULATE_CFG, n_paths=0), "n_paths must be an integer >= 1, got 0"),
    ("simulate", dict(SIMULATE_CFG, grid={"a": 0.0, "b": 1.0, "m": -1}),
     "config key grid.m must be an integer >= 2, got -1"),
    ("wasserstein", dict(WASSERSTEIN_CFG, p=0), "p must be an integer in [1, 4], got 0"),
    ("wasserstein", dict(WASSERSTEIN_CFG, mc={"model": {"variant": "comonotone"},
                                              "n_paths": 8}),
     "missing config key seed"),
    ("check", dict(CHECK_CFG, seed=1.5), "config key seed must be an integer, got 1.5"),
    ("check", {key: value for key, value in CHECK_CFG.items() if key != "p"},
     "missing config key p"),
], ids=["n_paths-0", "grid.m-negative", "p-0", "mc-without-seed", "check-float-seed",
        "moment-without-p"])
def test_config_value_messages(tmp_path, capsys, command, cfg, message):
    rc, _ = _run(tmp_path, command, cfg)
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_wasserstein_identical_families_is_zero(tmp_path):
    cfg = {
        "grid": {"a": 0.0, "b": 1.0, "m": 5},
        "p": 2,
        "family_a": {"kind": "gaussian_scale", "sigma": 1.0},
        "family_b": {"kind": "gaussian_scale", "sigma": 1.0},
    }
    rc, outdir = _run(tmp_path, "wasserstein", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert report["p"] == 2
    assert report["integrated"] == 0.0
    assert report["mc_coupling_value"] is None
    with open(outdir / "per_t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "w_p"]
    assert len(rows) == 6
    assert all(float(row[1]) == 0.0 for row in rows[1:])


def test_wasserstein_mean_shift_with_mc_check(tmp_path):
    cfg = {
        "grid": {"a": 0.0, "b": 1.0, "m": 5},
        "p": 2,
        "family_a": {"kind": "gaussian_scale", "sigma": 1.0},
        "family_b": {"kind": "gaussian_scale", "sigma": 1.0, "mean": 1.0},
        "mc": {"model": {"variant": "comonotone"}, "n_paths": 2000},
        "seed": 5,
    }
    rc, outdir = _run(tmp_path, "wasserstein", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert report["integrated"] == pytest.approx(1.0, abs=1e-6)
    assert report["mc_coupling_value"] == pytest.approx(1.0, abs=0.05)
    assert report["gap"] is not None


def test_wasserstein_divergent_pair_writes_inf(tmp_path):
    # Pareto(1, 0.9) has no mean, so W_1 against Pareto(1, 3) is infinite
    cfg = {
        "grid": {"a": 0.0, "b": 1.0, "m": 5},
        "p": 1,
        "family_a": {"kind": "pareto", "x_min": 1.0, "alpha": 0.9},
        "family_b": {"kind": "pareto", "x_min": 1.0, "alpha": 3.0},
    }
    rc, outdir = _run(tmp_path, "wasserstein", cfg)
    assert rc == 0
    assert _read_json(outdir / "report.json")["integrated"] == "inf"
    with open(outdir / "per_t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    assert all(row[1] == "inf" for row in rows[1:])


def test_klexpand_outputs(tmp_path):
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 9},
        "model": {"variant": "fbm", "hurst": 0.5},
        "n_paths": 400,
        "seed": 21,
        "n_keep": [1, 2],
    }
    rc, outdir = _run(tmp_path, "klexpand", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert len(report["eigenvalues"]) == 9
    assert sorted(report["tail_energy"]) == ["1", "2"]
    assert report["tail_energy"]["1"] > report["tail_energy"]["2"]
    with open(outdir / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    assert len(rows) == 10
    with open(outdir / "eigenfunctions.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t"] + [f"phi{i}" for i in range(9)]


def test_klexpand_with_a_family_expands_the_merged_process(tmp_path):
    cfg = {
        "grid": {"a": 0.5, "b": 1.5, "m": 9},
        "model": {"variant": "fbm", "hurst": 0.5},
        "family": {"kind": "exponential_scale", "scale": 2.0},
        "n_paths": 400,
        "seed": 21,
    }
    rc, outdir = _run(tmp_path, "klexpand", cfg)
    assert rc == 0
    copula = CopulaModel("fbm", hurst=0.5).sample(make_uniform_grid(0.5, 1.5, 9), 400, 21)
    want = kl_from_ensemble(merge(copula, ExponentialScale(2.0)))
    assert _read_json(outdir / "report.json")["eigenvalues"] == want.eigenvalues.tolist()


def test_check_moment_divergent_pareto(tmp_path):
    cfg = {
        "mode": "moment",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "pareto", "x_min": 1.0, "alpha": 2.0},
        "p": 2,
    }
    rc, outdir = _run(tmp_path, "check", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert report["satisfied"] is False
    assert report["integral"] == "inf"


def test_check_moment_overflowing_pareto_exits_0(tmp_path):
    # the quantile overflows at the end nodes, which reads divergent
    cfg = {
        "mode": "moment",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "pareto", "x_min": 1.0, "alpha": 0.03},
        "p": 1,
    }
    with np.errstate(over="ignore"):
        rc, outdir = _run(tmp_path, "check", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert report["satisfied"] is False
    assert report["integral"] == "inf"


def test_check_moment_finite_gaussian(tmp_path):
    cfg = {
        "mode": "moment",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "gaussian_scale", "sigma": 1.0},
        "p": 2,
    }
    rc, outdir = _run(tmp_path, "check", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert report["satisfied"] is True
    assert report["integral"] == pytest.approx(1.0, rel=1e-6)


def test_check_moment_power_law_gaussian_keeps_mean(tmp_path):
    cfg = {
        "mode": "moment",
        "grid": {"a": 0.5, "b": 1.5, "m": 5},
        "family": {"kind": "gaussian_scale", "power_law_hurst": 0.5, "mean": 5.0},
        "p": 1,
    }
    rc, outdir = _run(tmp_path, "check", cfg)
    assert rc == 0
    # E|X_t| for X_t ~ N(5, t) on [0.5, 1.5] is 5 up to about 1e-4
    assert _read_json(outdir / "report.json")["integral"] == pytest.approx(5.0, abs=1e-3)


def test_check_assumption_pareto(tmp_path):
    cfg = {
        "mode": "assumption",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "pareto", "x_min": 1.0, "alpha": 4.0},
        "params": {"p": 1, "epsilon": 1.0, "q": 2.0, "beta": 0.6666666666666666},
    }
    rc, outdir = _run(tmp_path, "check", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert report["minorant_ok"] is True
    assert report["floor_ok"] is True
    assert report["monotone_ok"] is True
    assert report["tail_integral"] > 0.0


def test_check_assumption_rejects_unsupported_family(tmp_path, capsys):
    cfg = {
        "mode": "assumption",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "uniform"},
    }
    rc, _ = _run(tmp_path, "check", cfg)
    assert rc == 2
    assert "assumption" in capsys.readouterr().err


def test_check_assumption_x0_is_pareto_only(tmp_path):
    cfg = {
        "mode": "assumption",
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "gaussian_scale", "sigma": 1.0},
        "params": {"x0": 0.5},
    }
    rc, _ = _run(tmp_path, "check", cfg)
    assert rc == 2


@pytest.mark.parametrize("mode, keys, key", [
    ("assumption", {"p": 2}, "p"),
    ("moment", {"p": 1, "params": {"p": 1, "epsilon": 1.0, "q": 2.0, "beta": 0.5}},
     "params"),
], ids=["assumption-p", "moment-params"])
def test_check_rejects_the_other_modes_key(tmp_path, capsys, mode, keys, key):
    cfg = {
        "mode": mode,
        "grid": {"a": 1.0, "b": 2.0, "m": 5},
        "family": {"kind": "pareto", "x_min": 1.0, "alpha": 4.0},
        **keys,
    }
    rc, _ = _run(tmp_path, "check", cfg)
    assert rc == 2
    assert f"config key {key} does not apply to {mode} mode" in capsys.readouterr().err


def test_robustness_small_run(tmp_path):
    cfg = {
        "a": 1.0, "b": 2.0, "m": 9,
        "n_paths": 800,
        "seed": 44,
        "n_keep": [1, 2],
    }
    rc, outdir = _run(tmp_path, "robustness", cfg)
    assert rc == 0
    report = _read_json(outdir / "report.json")
    assert len(report["rows"]) == 2
    assert all(row["holds"] is True for row in report["rows"])
    with open(outdir / "rows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n_keep", "lhs", "marginal_term", "copula_term", "K",
                      "rho", "tail_energy", "holds"]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert all(row[-1] == "true" for row in rows[1:])


def test_robustness_divergent_tail_exits_4(tmp_path, capsys):
    cfg = {
        "a": 1.0, "b": 2.0, "m": 5,
        "n_paths": 100,
        "seed": 1,
        "n_keep": [1],
        "beta": 0.9,
    }
    rc, _ = _run(tmp_path, "robustness", cfg)
    assert rc == 4
    assert capsys.readouterr().err.startswith("assumption violated")


def test_out_directory_is_created(tmp_path):
    cfg_path = _write_config(tmp_path / "c.json", SIMULATE_CFG)
    nested = tmp_path / "deep" / "nested" / "out"
    rc = main(["simulate", "--config", cfg_path, "--out", str(nested)])
    assert rc == 0
    assert os.path.exists(nested / "manifest.json")


def test_committed_configs_match_golden_hashes(tmp_path):
    """Every non-manifest output of configs/*.json keeps its recorded SHA-256.

    The hashes in perfbench/golden_cli_sha256.json were recorded on Python
    3.11.7, numpy 2.4.6 and scipy 1.17.1.  Manifests are left out because
    they name the library versions.
    """
    with open(os.path.join(REPO_ROOT, "perfbench", "golden_cli_sha256.json")) as fh:
        golden = {name: digest for name, digest in json.load(fh).items()
                  if not name.endswith("/manifest.json")}
    actual = {}
    for config in sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.json"))):
        command = os.path.splitext(os.path.basename(config))[0]
        outdir = tmp_path / command
        assert main([command, "--config", config, "--out", str(outdir)]) == 0
        for name in os.listdir(outdir):
            if name != "manifest.json":
                with open(outdir / name, "rb") as fh:
                    actual[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    assert len(golden) == 9
    assert actual == golden
