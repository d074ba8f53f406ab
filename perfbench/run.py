"""The expacc benchmark: whole `expacc run` jobs on seeded synthetic inputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload is one closed-loop batch
job: the inputs are generated from `--seed`, then `expacc.cli.main(["run",
config])` runs again and again, each time in a fresh process (default
`--jobs`, default BLAS threads), until `--seconds` have passed and at least
`MIN_RUNS` runs are done.  Every run goes through the correctness gate
(`check_outputs`); medians over the runs are reported.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates plain
runs with runs whose layer boundaries are wrapped in spans (see
`tracer.py`) and reports the per-layer metrics, including what tracing
itself costs.  Human-readable lines (machine record, each run, every metric
with its unit) come first; the last line is one JSON object.  The exit code
is 0 only when the gate passed.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_RUNS = 3
# Extra runs that stop where training starts, so that the set-up time
# median rests on more samples than whole runs could give.
SETUP_PROBES = 4
# Traced mode: at least one plain run and two traced ones, so the traced
# counts can be compared with each other and run time with the plain run.
MIN_PLAIN, MIN_TRACED = 1, 2
# A one-workload invocation must end within 180 s: no run of a workload
# starts unless it would end this long after the workload began.
HARD_LIMIT_S = 165.0

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "losses.loss_grad_preact.calls": "count",
    "losses.loss_grad_preact.s": "s",
    "losses.loss_grad_preact.us_per_call": "us",
    "optim.adam_step.calls": "count",
    "optim.adam_step.s": "s",
    "optim.adam_step.us_per_call": "us",
    "optim.adam_step.mb_moved": "MB",
    "optim.minibatches.s": "s",
    "models.forward.calls": "count",
    "models.forward.s": "s",
    "models.backward.calls": "count",
    "models.backward.s": "s",
    "models.gflop": "GFLOP",
    "models.gflop_per_s": "GFLOP/s",
    "numerics.rng_uniform.calls": "count",
    "numerics.rng_uniform.s": "s",
    "data.subset.calls": "count",
    "data.subset.s": "s",
    "data.subset.mb_copied": "MB",
    "data.inject_label_noise.calls": "count",
    "data.inject_label_noise.s": "s",
    "data.load.s": "s",
    "data.make_folds.s": "s",
    "harness.train_run.calls": "count",
    "harness.train_run.self_s": "s",
    "harness.accuracy.calls": "count",
    "harness.accuracy.s": "s",
    "harness.epochs": "count",
    "harness.useful_epoch_ratio": "ratio",
    "harness.grid_useful_ratio": "ratio",
    "stats.summarize.s": "s",
    "cli.artifacts.s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Per-layer metrics that are times: they vary from run to run and are
# reported as medians.  Everything else is a count or a size computed from
# array shapes and must repeat exactly between traced runs.
TIMED = {name for name, unit in PER_LAYER.items() if unit in ("s", "us", "GFLOP/s")}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def blas_threads():
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(workload: inputs.Workload, out_dir: str):
    """The correctness gate for one run's `out_dir`.

    Returns (failed cells, problems, manifest digest, artifact bytes).  A
    cell that is missing or carries an error counts as failed; every other
    finding is a problem that fails the run.
    """
    problems = []
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        return workload.cells, ["no manifest.json"], None, 0
    with open(manifest_path) as fh:
        listed = json.load(fh)["files"]
    on_disk = {
        os.path.relpath(os.path.join(d, f), out_dir)
        for d, _, files in os.walk(out_dir)
        for f in files
    } - {"manifest.json"}
    if set(listed) != on_disk:
        problems.append(f"manifest lists {sorted(set(listed) ^ on_disk)} differently from disk")
    for rel, digest in listed.items():
        path = os.path.join(out_dir, rel)
        if os.path.isfile(path) and sha256(path) != digest:
            problems.append(f"{rel}: hash differs from manifest")

    with open(os.path.join(out_dir, "runs.csv"), newline="") as fh:
        ok = [r for r in csv.DictReader(fh) if not r["error"]]
    failed = workload.cells - len(ok)
    for r in ok:
        if not float(r["test_error"]) < workload.chance:
            problems.append(f"{r['loss']} fold {r['fold']}: test error {r['test_error']} not below chance")
    summary = os.path.join(out_dir, "summary.csv")
    if not os.path.isfile(summary):
        problems.append("no summary.csv: the paired comparison did not run")
    else:
        with open(summary, newline="") as fh:
            for r in csv.DictReader(fh):
                if not 0.0 < float(r["mean"]) < workload.chance:
                    problems.append(f"{r['loss']}: mean test error {r['mean']} not in (0, chance)")
    size = sum(os.path.getsize(os.path.join(out_dir, rel)) for rel in on_disk)
    size += os.path.getsize(manifest_path)
    return failed, problems, sha256(manifest_path), size


def child(work_dir: str, config: str, run_id: str, flags, timeout: float):
    """Run child.py once; returns its record, or None when it failed."""
    record_path = os.path.join(work_dir, f"{run_id}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
        "--config", os.path.basename(config), "--record", record_path, *flags,
    ]
    proc = subprocess.run(cmd, cwd=work_dir, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not os.path.isfile(record_path):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    with open(record_path) as fh:
        return json.load(fh)


def run_once(workload, work_dir, config, traced: bool, run_id: str, timeout: float) -> dict:
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    flags = ["--trace"] if traced else []
    before = cpu_ticks()
    rec = child(work_dir, config, run_id, flags, timeout)
    after = cpu_ticks()
    if rec is None:
        return {"traced": traced, "failed_cells": workload.cells,
                "problems": [f"{run_id}: the run failed"], "digest": None}
    failed, problems, digest, size = check_outputs(workload, out_dir)
    rec.update(traced=traced, failed_cells=failed, digest=digest, artifact_bytes=size,
               problems=[f"{run_id}: {p}" for p in problems])
    rec["steps_per_s"] = rec["steps"] / rec["run_s"]
    if before and after:
        steal, total = after[0] - before[0], after[1] - before[1]
        rec["steal_ticks"] = steal
        rec["steal_share"] = steal / total if total else 0.0
    return rec


def describe(i: int, rec: dict) -> str:
    if "run_s" not in rec:
        return f"# run {i} {'traced' if rec['traced'] else 'plain'}: failed"
    return (
        f"# run {i} {'traced' if rec['traced'] else 'plain'}: run_s={rec['run_s']:.3f}"
        f" cpu_s={rec['cpu_s']:.3f} setup_s={rec['setup_s']:.4f}"
        f" peak_rss_mb={rec['peak_rss_mb']:.1f} steps={rec['steps']}"
        f" steal_ticks={rec.get('steal_ticks')} steal_share={rec.get('steal_share', 0.0):.4f}"
    )


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    work_dir = os.path.join(WORK, workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    config = inputs.prepare(workload, work_dir, seed)
    # Untimed warm-up: compile the package's bytecode and pull its files and
    # the inputs into the page cache, which every later user run finds warm.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import expacc.cli", SRC],
        check=True, timeout=60,
    )

    t0 = time.perf_counter()
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        rec = child(work_dir, config, f"setup{i + 1}", ["--setup-only"], timeout=60)
        if rec is not None:
            setups.append(rec["setup_s"])
    if setups:
        print("# set-up probes: " + " ".join(f"{v:.4f}" for v in setups), flush=True)

    runs = []
    while True:
        plain = [r for r in runs if not r["traced"]]
        traced_runs = [r for r in runs if r["traced"]]
        if trace:
            need = len(plain) < MIN_PLAIN or len(traced_runs) < MIN_TRACED
            traced = len(plain) >= MIN_PLAIN and len(traced_runs) <= len(plain)
        else:
            need = len(runs) < MIN_RUNS
            traced = False
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r.get("run_s", 0.0) for r in runs) if runs else 0.0
        left = HARD_LIMIT_S - (time.perf_counter() - started)
        if not need and elapsed + typical > seconds:
            break
        if left < 2 * typical + 1.0:
            break
        rec = run_once(workload, work_dir, config, traced, f"run{len(runs) + 1}", timeout=left)
        runs.append(rec)
        print(describe(len(runs), rec), flush=True)
        if "run_s" not in rec:
            break
    return summarize_runs(workload, runs, setups, trace)


def summarize_runs(workload, runs, setups, trace: bool) -> dict:
    problems = []
    if not trace and len(setups) < SETUP_PROBES:
        problems.append("a set-up probe failed")
    failed = sum(r["failed_cells"] for r in runs)
    digests = {r["digest"] for r in runs}
    if len(digests) != 1 or None in digests:
        problems.append(f"manifest digests differ between runs: {sorted(map(str, digests))}")
    plain = [r for r in runs if not r["traced"] and "run_s" in r]
    traced = [r for r in runs if r["traced"] and "run_s" in r]
    if trace and (len(plain) < MIN_PLAIN or len(traced) < MIN_TRACED):
        problems.append("too few completed runs for a traced comparison")
    if not trace and len(plain) < MIN_RUNS:
        problems.append("too few completed runs")

    # A run whose check failed counts once, like a failed cell; so does
    # each finding about the invocation as a whole.
    failed += sum(1 for r in runs if r["problems"]) + len(problems)
    problems = [p for r in runs for p in r["problems"]] + problems

    metrics = {}
    if not problems and not trace:
        for name in END_TO_END:
            metrics[name] = statistics.median(r[name] for r in plain)
        metrics["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])
    if not problems and trace:
        # The self-test of the tracing: every wrapped boundary did work, and
        # counts and computed sizes repeat exactly between traced runs.
        for name in sorted(tracer.SPAN_NAMES - {k for k, v in traced[0]["span_calls"].items() if v}):
            problems.append(f"traced run saw no calls of {name}")
        for r in traced[1:]:
            for name in r["layers"].keys() - TIMED:
                if r["layers"][name] != traced[0]["layers"][name]:
                    problems.append(f"{name} differs between traced runs")
        for name, value in traced[0]["layers"].items():
            metrics[name] = (
                statistics.median(r["layers"][name] for r in traced) if name in TIMED else value
            )
        metrics["cli.artifact_bytes"] = traced[0]["artifact_bytes"]
        metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
            r["run_s"] for r in plain
        )
        failed += len(problems)
    return {
        "problems": problems,
        "attempted": workload.cells * max(len(runs), 1),
        "failed": failed,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "expacc", "cli.py")):
        print(f"no expacc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    print("# machine " + json.dumps(machine_record(), sort_keys=True), flush=True)

    results = {}
    for name in names:
        print(f"# workload {name} seed {args.seed} trace {args.trace}", flush=True)
        res = run_workload(inputs.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(f"{name} manifest_digest {res['digest']}")
        print(f"{name} failed_cell_frac {res['failed'] / res['attempted']} ratio")
        for metric, value in res["metrics"].items():
            print(f"{name} {metric} {value} {units[metric]}")
        for problem in res["problems"]:
            print(f"{name} FAILED {problem}")

    correct = not any(r["problems"] for r in results.values())
    single = len(names) == 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (m if single else f"{w}.{m}"): {"value": v, "unit": units[m]}
            for w, r in results.items() for m, v in r["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
