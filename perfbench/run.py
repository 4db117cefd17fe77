"""Benchmark of copulaproc: one workload per process, run as a closed loop.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 15 --trace 0

Run it from the root of a copulaproc checkout; the package is imported from
``src/``.  One caller runs the workload's ops back to back, each op starting
when the previous one returns, in whole passes (one op of each kind), until
``--seconds`` have elapsed.  Every output is checked after its op's timer
stops.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the same passes run once more
with every layer entry point wrapped (see ``bench_trace``), and the JSON
holds the per-layer metrics instead, per pass, with the tracing overhead.
Spans and a result record with the environment go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

WORKLOADS = ("experiment", "cli", "quadrature")
#: set-up runs per benchmark run, whose median is ``setup_s``; all but the
#: first run in child processes, since only a fresh interpreter pays imports
SETUP_SAMPLES = 3
#: the shortest run that still gives op_p90_s ten samples beyond it.  Op
#: latency percentiles are printed, not put in the result: in a mix of op
#: kinds the median is one kind's latency, too noisy between runs to gate on
P90_MIN_OPS = 100
OUT_DIR = os.path.join("perfbench", "out")
#: BLAS runs single-threaded so that runs on a shared machine stay steady
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ("rng", "copulas", "marginals", "sklar", "quadrature", "transport",
               "kl", "robustness", "serialize", "cli", "bench")
COUNTERS = ("rng.calls", "rng.streams", "copulas.paths", "marginals.entries",
            "sklar.merge_entries", "sklar.extract_entries", "sklar.aux_draws",
            "quadrature.integrals", "quadrature.nodes", "quadrature.cap_hits",
            "kl.calls", "robustness.extract_calls", "serialize.floats")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print setup_s and exit (one set-up sample)")
    return parser.parse_args(argv)


def _import_library(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "copulaproc", "__init__.py")):
        raise SystemExit(f"run.py: no copulaproc sources under {src}; "
                         "run from the root of a copulaproc checkout")
    sys.path.insert(0, src)
    import copulaproc
    if os.path.dirname(os.path.dirname(os.path.abspath(copulaproc.__file__))) != src:
        raise SystemExit(f"run.py: imported copulaproc from {copulaproc.__file__}, not {src}")
    return copulaproc


def set_up(name, seed, root, workdir, size="full"):
    """Import, generate inputs and run one warm-up op of each kind.

    The warm-up ops are the same kinds at the tiny size, so that a set-up
    is cheap enough to repeat.  Returns ``(seconds, workload, warm-up op
    count, warm-up failures)``.
    """
    start = perf_counter()
    _import_library(root)
    import bench_workloads
    workload = bench_workloads.BUILDERS[name](seed, size, workdir)
    warm = bench_workloads.BUILDERS[name](seed, "tiny", workdir)
    failures = []
    for op in warm.ops:
        failures += _run_op(op, None, -1)[2]
    warm.cleanup()
    return perf_counter() - start, workload, len(warm.ops), failures


def _run_op(op, tracer, op_id):
    """Run and check one op; returns (latency, output, failure messages)."""
    start = perf_counter()
    try:
        out = tracer.run_op(op_id, op.run) if tracer else op.run()
    except Exception:  # the loop must go on: an op that raises counts as failed
        return perf_counter() - start, None, [f"{op.kind}: {traceback.format_exc()}"]
    latency = perf_counter() - start
    try:
        op.check(out)
    except Exception as exc:  # a check that cannot read its output fails it too
        return latency, out, [f"{op.kind}: {type(exc).__name__}: {exc}"]
    return latency, out, []


def run_phase(workload, seconds=None, passes=None, tracer=None):
    """Whole passes until ``seconds`` elapse, or exactly ``passes`` passes."""
    latencies, pass_times, failures = [], [], []
    start = perf_counter()
    while (len(pass_times) < passes if passes is not None
           else not pass_times or perf_counter() - start < seconds):
        pass_time = 0.0
        for op in workload.ops:
            latency, _, failed = _run_op(op, tracer, len(latencies))
            latencies.append(latency)
            pass_time += latency
            failures += failed
        pass_times.append(pass_time)
    return {"latencies": latencies, "pass_times": pass_times, "failures": failures}


def _setup_in_child(args, root):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up run failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment(args, ops_per_pass, op_count):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": ops_per_pass,
        "op_count": op_count,
    }


def end_to_end_metrics(setup_samples, phase):
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(phase["pass_times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer_metrics(tracer, workload, untraced, traced):
    passes = len(traced["pass_times"])
    counts = tracer.counts
    metrics = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0) / passes, "s")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0.0) / passes, "count")
    metrics["serialize.bytes"] = (counts.get("serialize.bytes", 0.0) / passes, "B")
    draws = counts.get("sklar.aux_draws", 0.0)
    metrics["sklar.aux_used_ratio"] = (
        counts.get("sklar.atomic_entries", 0.0) / draws if draws else 0.0, "ratio")
    metrics["copulas.jitter_max"] = (tracer.jitter_max, "value")
    metrics["transport.max_rel_err"] = (workload.stats.get("max_rel_err", 0.0), "ratio")
    metrics["cli.outputs_identical"] = (
        float(sum(workload.stats.get("identical", {}).values())), "count")
    traced_total = sum(traced["pass_times"])
    metrics["trace.wall_s"] = (traced_total / passes, "s")
    metrics["trace.overhead_ratio"] = (traced_total / sum(untraced["pass_times"]) - 1.0,
                                       "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _report(args, env, metrics, phases, setup_samples, attempted, failures):
    untraced = phases[0]
    latencies = untraced["latencies"]
    print(f"workload {args.workload}: {len(untraced['pass_times'])} passes of "
          f"{env['ops_per_pass']} ops, {len(latencies)} ops timed, closed loop, 1 caller")
    print(f"  setup_s is the median of {len(setup_samples)} set-ups: "
          + ", ".join(f"{x:.4f}" for x in setup_samples))
    print(f"  op_p50_s {statistics.median(latencies):.4f} s (over {len(latencies)} ops)")
    if len(latencies) >= P90_MIN_OPS:
        print(f"  op_p90_s {_percentile(latencies, 90):.4f} s (over {len(latencies)} ops)")
    print(f"  fail_ratio {len(failures) / attempted:.4f} ({len(failures)} of {attempted} ops)")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print("  env " + json.dumps(env))
    for failure in failures[:20]:
        print("  FAILED " + failure.strip().replace("\n", "\n    "))


def main(argv=None):
    args = _parse_args(argv)
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    root = os.getcwd()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
    try:
        setup_s, workload, warm_ops, failures = set_up(args.workload, args.seed, root,
                                                       workdir)
        if args.setup_only:
            # warm-up failures are counted by the run that asked for this sample
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s] + [_setup_in_child(args, root)
                                     for _ in range(SETUP_SAMPLES - 1)]
        phases = [run_phase(workload, seconds=args.seconds)]
        if args.trace:
            import bench_trace
            tracer = bench_trace.Tracer()
            tracer.install()
            try:
                phases.append(run_phase(workload, passes=len(phases[0]["pass_times"]),
                                        tracer=tracer))
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(root, OUT_DIR,
                                            f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = per_layer_metrics(tracer, workload, phases[0], phases[1])
        else:
            metrics = end_to_end_metrics(setup_samples, phases[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for phase in phases:
        failures += phase["failures"]
    attempted = warm_ops + sum(len(p["latencies"]) for p in phases)
    env = environment(args, len(workload.ops), attempted)
    _report(args, env, metrics, phases, setup_samples, attempted, failures)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    with open(os.path.join(root, OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, setup_samples=setup_samples,
                       pass_times=[p["pass_times"] for p in phases],
                       latencies=[p["latencies"] for p in phases],
                       failures=failures), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
