"""Write frozen.json: the reference figures ratio_drift_max is measured from.

Run from the root of a source tree, at the commit whose numbers become the
reference (the frozen file in the repository was written at the commit that
added the benchmark):

    python3 perfbench/freeze.py

It records the CSV numerators, denominators and ratios (for key-estimate, the
D_j column) of every fixed command, norm-transfer rows for trial seeds
0..NORM_TRANSFER_SEEDS-1, and the printed long-series value for workload
seeds 0..LONG_SERIES_SEEDS-1.  Seeds outside those ranges are reported with
fewer (or no) compared figures, never as drift.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import worker

NORM_TRANSFER_SEEDS = 1300
LONG_SERIES_SEEDS = 64


def _rows(out: str, name: str) -> dict:
    return {row[0]: [float(v) for v in row[1:4] if v] for row in worker.read_csv(os.path.join(out, f"{name}.csv"))}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import varlat.cli

    out = os.path.join(os.getcwd(), ".perfbench_out", "freeze")
    os.makedirs(out, exist_ok=True)
    frozen = {}
    try:
        fixed = worker.commands("depth-sweep", 0, out) + worker.commands("exponent-sweep", 0, out)
        fixed += worker.commands("small-commands", 0, out)[1:]
        fixed.append(worker.cli_command("norm-transfer", ["--trials", str(NORM_TRANSFER_SEEDS), "--seed", "0"],
                                 out, NORM_TRANSFER_SEEDS))
        for cmd in fixed:
            rc, stdout, _, _ = worker.run_cli(varlat.cli, cmd["argv"])
            if worker.check_command(cmd, rc, stdout, varlat.cli.REPORT_SCHEMA):
                raise SystemExit(f"{cmd['name']} failed its checks; nothing frozen")
            frozen[cmd["name"]] = _rows(out, cmd["name"])
        path = os.path.join(out, "values.txt")
        frozen["variation"] = {}
        for seed in range(LONG_SERIES_SEEDS):
            worker.write_values(path, worker.long_series_values(seed))
            (cmd,) = worker.commands("long-series", seed, out, path)
            rc, stdout, _, _ = worker.run_cli(varlat.cli, cmd["argv"])
            if worker.check_command(cmd, rc, stdout, varlat.cli.REPORT_SCHEMA):
                raise SystemExit(f"long-series seed {seed} failed its checks; nothing frozen")
            frozen["variation"][str(seed)] = float(stdout.split()[0])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(worker.FROZEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
