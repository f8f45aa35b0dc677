"""The varlat benchmark: cold CLI runs of four workloads, outputs checked.

Run from the root of a source tree (nothing needs installing; varlat is
imported from src/):

    python3 perfbench/run.py --workload depth-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload, one table

For --seconds, closed loop, one client: samples run one after another, each
a fresh worker process (worker.py) that imports varlat.cli cold, calls
varlat.cli.run(argv) for each of the workload's commands and checks every
output.  A sample with any failed check is a failed run.  --trace 0 reports
the end-to-end metrics as medians over the samples; --trace 1 adds one
traced sample after the untimed ones and reports the per-layer metrics.
The last stdout line is the result object; the line before it is a JSON
record with quartiles, sample counts, failures, ratio drift and the
environment.  See README.md for each metric and workload.
"""
from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its samples do

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def environment(root: str, workers: int | None, loadavg: tuple) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cli_workers": workers,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(loadavg),
    }


def run_sample(root: str, workload: str, seed: int, out: str, values: str | None,
               trace: bool, deadline: float) -> dict:
    """One worker process; a worker that fails to report is a failed run."""
    os.makedirs(out)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--out", out]
    if values:
        cmd += ["--values", values]
    if trace:
        cmd.append("--trace")
    env = {k: v for k, v in os.environ.items() if k != "VARLAT_CACHE"}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"worker exited {proc.returncode}: {tail[0]}"]}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"failures": [f"worker printed no result: {lines[-1][:200]}"]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def aggregate(samples: list[dict], traced: dict | None = None) -> dict:
    """attempted/failed over every sample; medians over untraced samples that timed."""
    every = samples + ([traced] if traced is not None else [])
    timed = [s for s in samples if "wall_s" in s]
    failed = sum(1 for s in every if s.get("failures"))
    return {
        "attempted": len(every),
        "failed": failed,
        "fail_ratio": failed / len(every),
        "stats": {name: summary([s[name] for s in timed]) for name in END_TO_END} if timed else {},
        "ratio_drift_max": max((s.get("ratio_drift_max", 0.0) for s in timed), default=None),
        "drift_compared": min((s.get("drift_compared", 0) for s in timed), default=0),
        "failures": sorted({f for s in every for f in s.get("failures", [])})[:20],
    }


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result object, record) for one workload run."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    loadavg = os.getloadavg()
    scratch = os.path.join(root, ".perfbench_out", f"run-{os.getpid()}-{workload}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        values = None
        if workload == "long-series":
            values = os.path.join(scratch, "values.txt")
            worker.write_values(values, worker.long_series_values(seed))
        samples: list[dict] = []
        while not samples or time.monotonic() - start < seconds:
            out = os.path.join(scratch, f"sample-{len(samples)}")
            samples.append(run_sample(root, workload, seed, out, values, False, deadline))
        traced = None
        if trace:
            traced = run_sample(root, workload, seed, os.path.join(scratch, "traced"), values, True, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    agg = aggregate(samples, traced)
    if not agg["stats"]:
        raise RuntimeError(f"{workload}: no sample completed: {agg['failures']}")
    workers = next((s["cli_workers"] for s in samples if "cli_workers" in s), None)
    env = environment(root, workers, loadavg)
    record = {
        "workload": workload,
        "why": worker.WORKLOADS[workload],
        "seed": seed,
        "inputs": worker.INPUTS[workload],
        "seconds": seconds,
        "loop": "closed, one client; every sample a fresh process",
        "end_to_end": {name: {"unit": unit, **agg["stats"][name]} for name, unit in END_TO_END.items()},
        "fail_ratio": agg["fail_ratio"],
        "ratio_drift_max": agg["ratio_drift_max"],
        "drift_compared": agg["drift_compared"],
        "failures": agg["failures"],
        "environment": env,
    }
    if trace:
        if traced is None or "layers" not in traced:
            raise RuntimeError(f"{workload}: the traced sample failed: {traced and traced.get('failures')}")
        layers = dict(traced["layers"])
        layers["trace_overhead_s"] = traced["wall_s"] - agg["stats"]["wall_s"]["median"]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
        record["trace"] = {"top_layer": traced["top_layer"], "self_sum_gap": traced["self_sum_gap"],
                           "traced_wall_s": traced["wall_s"]}
    else:
        metrics = {name: {"value": agg["stats"][name]["median"], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": agg["failed"] == 0, "attempted": agg["attempted"], "failed": agg["failed"],
              "metrics": metrics}
    return result, record


def print_table(workload: str, result: dict, record: dict) -> None:
    print(f"== {workload}: {result['attempted'] - result['failed']}/{result['attempted']} runs passed "
          f"(fail_ratio {record['fail_ratio']:.3g}), seed {record['seed']}, "
          f"ratio_drift_max {record['ratio_drift_max']!r} over {record['drift_compared']} figures")
    for name, stats in record["end_to_end"].items():
        print(f"   {name:<12} {stats['median']:10.4f} {stats['unit']:<3} "
              f"(q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, n={stats['n']})")
    if "trace" in record:
        print(f"   top layer by self time: {record['trace']['top_layer']}")
        for name, metric in sorted(result["metrics"].items()):
            print(f"   {name:<44} {metric['value']:14.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*worker.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src", "varlat")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"perfbench: no varlat sources under {src}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    # byte-compile once, as an installed package is, so no sample pays for it
    if not compileall.compile_dir(src, quiet=1):
        print("perfbench: varlat does not compile", file=sys.stderr)
        return 2

    names = list(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, record = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print_table(name, result, record)
        print(json.dumps({"perfbench": record}))
        if len(names) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0

if __name__ == "__main__":
    sys.exit(main())
