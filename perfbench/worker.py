"""One timed sample: a fresh process that imports varlat and runs a workload.

Run by run.py, once per sample, from the root of a source tree:

    python3 perfbench/worker.py --workload depth-sweep --seed 0 --out DIR [--values FILE] [--trace]

The import of varlat.cli is the first thing timed, so it is as cold as a
`varlat` command's.  Every command of the workload is then called through
varlat.cli.run(argv) at the CLI defaults, one at a time, and its outputs are
checked.  The last stdout line is a JSON object with the timings, the
failures found and, with --trace, the per-layer figures.

Importing this module (as run.py and the self-tests do) loads only the
standard library.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_PATH = os.path.join(HERE, "frozen.json")
LONG_SERIES_LENGTH = 20_000
NORM_TRANSFER_TRIALS = 100  # the CLI default
KEY_ESTIMATE_ROWS = 31  # j = 0 .. j_max at the default j_max = 30

WORKLOADS = {
    "depth-sweep": "deepest scale window in the ROADMAP: erf sums, per-row variation DP and sliding_sup; witnesses idle",
    "exponent-sweep": "exponents to r=64: the halving-radius scan in witnesses dominates; profile pipeline via sliding_power_sum",
    "long-series": "one DP over 20,000 seeded normal values; no operator or witness code runs",
    "small-commands": "many tiny calls: norm-transfer, 2048-node quadrature, hilbert-growth, key-estimate",
}

# Which inputs come from --seed; the rest is the paper configuration.
INPUTS = {
    "depth-sweep": "fixed by the paper configuration; the seed is not used",
    "exponent-sweep": "fixed by the paper configuration; the seed is not used",
    "long-series": f"{LONG_SERIES_LENGTH} standard-normal values from random.Random(seed)",
    "small-commands": "norm-transfer --seed is the workload seed; the other commands are fixed by the paper configuration",
}


def commands(workload: str, seed: int, out: str, values_path: str | None = None) -> list[dict]:
    """The CLI calls of a workload, each with what its outputs must show.

    `rows` is the number of params the command was asked for; `bounds` marks
    the commands whose ratios must clear extras.bounds.
    """
    if workload == "depth-sweep":
        return [cli_command("linf-blowup", ["--kmin", "-300", "--j1-list", "6,10,18,34,66,130,258"], out, 7)]
    if workload == "exponent-sweep":
        return [cli_command("lr-growth", ["--kmin", "-300", "--r-list", "4,8,16,32,64"], out, 5, bounds=True)]
    if workload == "long-series":
        return [{"name": "variation", "argv": ["variation", "--values", values_path, "--q", "3"],
                 "q": 3.0, "values": values_path, "seed": seed}]
    if workload == "small-commands":
        return [
            cli_command("norm-transfer", ["--trials", str(NORM_TRANSFER_TRIALS), "--seed", str(seed)], out,
                 NORM_TRANSFER_TRIALS),
            cli_command("reduction-constant", [], out, 1),
            # the README's r-list: the default one exits 1 (a known defect)
            cli_command("hilbert-growth", ["--r-list", "8,16,32,64"], out, 4, bounds=True),
            cli_command("key-estimate", [], out, KEY_ESTIMATE_ROWS),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cli_command(name: str, flags: list[str], out: str, rows: int, bounds: bool = False) -> dict:
    return {"name": name, "argv": [name, *flags, "--out", out], "out": out, "rows": rows, "bounds": bounds}


def long_series_values(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.gauss(0.0, 1.0) for _ in range(LONG_SERIES_LENGTH)]


def write_values(path: str, values: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(repr(v) for v in values) + "\n")


def read_values(path: str) -> list[float]:
    with open(path, "r", encoding="utf-8") as fh:
        return [float(tok) for tok in fh.read().split()]


# ---------------------------------------------------------------------------
# output checks


def read_csv(path: str) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _check_variation(cmd: dict, stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    if len(lines) != 2:
        return [f"variation: expected 2 output lines, got {len(lines)}"]
    try:
        printed = float(lines[0])
        witness = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        return [f"variation: unreadable output ({exc})"]
    values = read_values(cmd["values"])
    if any(b <= a for a, b in zip(witness, witness[1:])):
        return ["variation: witness indices are not strictly increasing"]
    if witness and not 0 <= witness[0] <= witness[-1] < len(values):
        return ["variation: witness index out of range"]
    q = cmd["q"]
    total = math.fsum(abs(values[j] - values[i]) ** q for i, j in zip(witness, witness[1:]))
    ours = total ** (1.0 / q)
    # the printed value carries 12 significant digits: half a unit in the
    # 12th digit, plus a few ulps for the different summation order
    tol = 0.5 * 10.0 ** (math.floor(math.log10(abs(printed))) - 11) if printed else 0.0
    if abs(ours - printed) > tol + 4 * math.ulp(ours):
        return [f"variation: printed {printed!r} but the witness gives {ours!r}"]
    return []


def check_command(cmd: dict, rc: int | None, stdout: str, schema: dict) -> list[str]:
    """Every reason this command's outputs are wrong; empty when they are right."""
    name = cmd["name"]
    if rc != 0:
        return [f"{name}: exit code {rc}"]
    if name == "variation":
        return _check_variation(cmd, stdout)
    failures = []
    try:
        with open(os.path.join(cmd["out"], f"{name}.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        rows = read_csv(os.path.join(cmd["out"], f"{name}.csv"))
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable output ({exc})"]
    import jsonschema

    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        failures.append(f"{name}: report does not validate ({exc.message})")
    if report.get("pass") is not True:
        failures.append(f"{name}: pass is {report.get('pass')!r}")
    if len(rows) != cmd["rows"]:
        failures.append(f"{name}: {len(rows)} CSV rows for {cmd['rows']} params")
    if cmd.get("bounds"):
        bounds = report.get("extras", {}).get("bounds", [])
        if len(bounds) != len(rows):
            failures.append(f"{name}: {len(bounds)} bounds for {len(rows)} rows")
        for row, bound in zip(rows, bounds):
            if not float(row[3]) >= bound:
                failures.append(f"{name}: ratio {row[3]} at param {row[0]} below its bound {bound!r}")
    return failures


def drift(cmd: dict, stdout: str, frozen: dict) -> tuple[float, int]:
    """Largest relative drift from the frozen figures, and how many were compared."""
    name = cmd["name"]
    table = frozen.get(name, {})
    if name == "variation":
        pairs = []
        if str(cmd["seed"]) in table:
            pairs.append((float(stdout.split()[0]), table[str(cmd["seed"])]))
    else:
        pairs = []
        for row in read_csv(os.path.join(cmd["out"], f"{name}.csv")):
            ref = table.get(row[0])
            if ref is not None:
                pairs.extend(zip((float(v) for v in row[1 : 1 + len(ref)]), ref))
    worst = 0.0
    for new, old in pairs:
        if new != old:
            worst = max(worst, abs(new - old) / abs(old) if old else math.inf)
    return worst, len(pairs)


# ---------------------------------------------------------------------------
# the sample


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a crash is a failed run, not a crashed benchmark
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def sample(workload: str, seed: int, out: str, values_path: str | None, trace: bool) -> dict:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import varlat.cli

    setup_s = time.perf_counter() - t0
    defaults = getattr(varlat.cli, "_builtin_defaults", None)
    result = {"setup_s": setup_s, "cli_workers": defaults()["workers"] if defaults else None}

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder().install()
    cmds = commands(workload, seed, out, values_path)
    outcomes = []
    try:
        for cmd in cmds:
            outcomes.append(run_cli(varlat.cli, cmd["argv"]))
    finally:
        if recorder is not None:
            recorder.uninstall()
    result["wall_s"] = sum(o[3] for o in outcomes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        layers = spans.layer_metrics(recorder)
        bundle = getattr(sys.modules["varlat.experiments"], "_profile_bundle", None)
        info = bundle.cache_info() if hasattr(bundle, "cache_info") else None
        layers["experiments.profile_bundle.hits"] = info.hits if info else 0
        layers["experiments.profile_bundle.misses"] = info.misses if info else 0
        result["layers"] = layers
        result["top_layer"] = spans.top_layer(layers)
        result["self_sum_gap"] = spans.self_sum_gap(layers)

    with open(FROZEN_PATH, "r", encoding="utf-8") as fh:
        frozen = json.load(fh)
    failures, worst, compared = [], 0.0, 0
    for cmd, (rc, stdout, stderr, _) in zip(cmds, outcomes):
        found = check_command(cmd, rc, stdout, varlat.cli.REPORT_SCHEMA)
        if stderr.strip():
            found = [f"{f} ({stderr.strip().splitlines()[-1]})" for f in found]
        failures.extend(found)
        if not found:
            d, n = drift(cmd, stdout, frozen)
            worst, compared = max(worst, d), compared + n
    result.update(failures=failures, ratio_drift_max=worst, drift_compared=compared)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--values")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = sample(args.workload, args.seed, args.out, args.values, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
