"""Tests of the benchmark itself, at tiny sizes.

Each workload runs untraced and traced without a failed check, the tracer
accounts for all traced time and restores what it wrapped, and every output
check rejects a deliberately perturbed value.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(REPO, "src"), BENCH_DIR]

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import copulaproc as cp  # noqa: E402


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_runner()


@pytest.fixture(params=sorted(bw.BUILDERS))
def workload(request, tmp_path):
    built = bw.BUILDERS[request.param](5, "tiny", str(tmp_path))
    yield built
    built.cleanup()


def test_workload_runs_untraced_and_traced(workload):
    untraced = runner.run_phase(workload, passes=1)
    assert untraced["failures"] == []
    tracer = bench_trace.Tracer()
    original = cp.merge
    tracer.install()
    try:
        assert cp.merge is not original
        traced = runner.run_phase(workload, passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert cp.merge is original
    assert traced["failures"] == []
    # self times cover each op's root span; the rest is the root span's own
    # bookkeeping, a few microseconds per op
    total = sum(traced["pass_times"])
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-3)
    metrics = runner.per_layer_metrics(tracer, workload, untraced, traced)
    assert set(metrics) >= {f"{layer}.self_s" for layer in runner.LAYER_TIMES}
    if workload.name == "quadrature":
        assert metrics["rng.streams"]["value"] == 0
        assert metrics["quadrature.integrals"]["value"] > 0
    if workload.name == "experiment":
        assert metrics["robustness.extract_calls"]["value"] == 16
        assert metrics["sklar.aux_used_ratio"]["value"] == 5 / 16
    if workload.name == "cli":
        assert metrics["serialize.bytes"]["value"] > 0


def test_reported_metrics_match_benchmark_json(tmp_path):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    built = bw.build_experiment(5, "tiny", str(tmp_path))
    phase = runner.run_phase(built, passes=1)
    end_to_end = runner.end_to_end_metrics([1.0], phase)
    assert {k: v["unit"] for k, v in end_to_end.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    tracer = bench_trace.Tracer()
    per_layer = runner.per_layer_metrics(tracer, built, phase, phase)
    assert {k: v["unit"] for k, v in per_layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_counters_repeat_for_a_fixed_seed(tmp_path):
    counts = []
    for _ in range(2):
        built = bw.build_quadrature(9, "tiny", str(tmp_path))
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            runner.run_phase(built, passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]


def _perturbations(out):
    """Outputs that must each fail the check that accepts ``out``."""
    if isinstance(out, cp.ExperimentReport):
        rows = list(out.rows)
        yield dataclasses.replace(out, rows=(dataclasses.replace(rows[0], holds=False),
                                             *rows[1:]))
        yield dataclasses.replace(out, rows=tuple(reversed(rows)))
        yield dataclasses.replace(out, rows=tuple(
            dataclasses.replace(r, K=r.K * 1.01) for r in rows))
        yield dataclasses.replace(out, K_bound=rows[0].K * 0.5)
    elif isinstance(out, cp.TransportReport):
        yield dataclasses.replace(out, integrated=out.integrated * 1.05,
                                  per_t=out.per_t * 100.0)
    elif isinstance(out, cp.MomentReport):
        if out.satisfied:
            yield dataclasses.replace(out, integral=out.integral * 1.01)
            yield dataclasses.replace(out, satisfied=False)
        else:
            yield cp.MomentReport(integral=1.0, satisfied=True)
    elif isinstance(out, cp.AssumptionReport):
        yield dataclasses.replace(out, tail_integral=out.tail_integral * 1.01)
        yield dataclasses.replace(out, monotone_ok=False)
    elif isinstance(out, tuple):
        k_val, k_bound = out
        yield (k_val * 1.01, k_bound)
        yield (k_val, k_val * 0.5)
    elif isinstance(out, float):
        yield out * 1.01
    else:
        raise AssertionError(f"no perturbation for {type(out).__name__}")


@pytest.mark.parametrize("name", ["experiment", "quadrature"])
def test_checks_reject_perturbed_values(name, tmp_path):
    built = bw.BUILDERS[name](7, "tiny", str(tmp_path))
    for op in built.ops:
        out = op.run()
        op.check(out)
        for bad in _perturbations(out):
            with pytest.raises(bw.CheckFailed):
                op.check(bad)


def test_cli_check_rejects_bad_exit_and_altered_file(tmp_path):
    built = bw.build_cli(7, "tiny", str(tmp_path))
    try:
        op = built.ops[0]
        code = op.run()
        op.check(code)
        with pytest.raises(bw.CheckFailed):
            op.check(2)
        outdir = os.path.join(str(tmp_path), "cli-tiny", "tiny_check")
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            name = json.load(fh)["output_files"][0]["name"]
        with open(os.path.join(outdir, name), "a", encoding="utf-8") as fh:
            fh.write("0")
        with pytest.raises(bw.CheckFailed):
            op.check(code)
    finally:
        built.cleanup()


def test_cli_golden_count(tmp_path):
    (tmp_path / "a.json").write_text("{}\n")
    digest = bw.sha256_of(tmp_path / "a.json")
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"output_files": [{"name": "a.json", "sha256": digest}]}))
    stats = {}
    golden = {"x/a.json": digest, "x/manifest.json": "0" * 64}
    bw.check_cli(str(tmp_path), 0, "x", golden, stats)
    assert stats["identical"] == {"x": 1}


def test_runner_fails_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
