"""Every subcommand's output, pinned against checked-in expected files.

Each case runs one subcommand at a cheap configuration (the argvs of
EXPERIMENT_COMMANDS, and variation on a short file) and compares what it
leaves behind with tests/pinned/<subcommand>.json: the exit code, the words
and numbers of stdout, the names of the files written, CSV columns 1-4 and
the JSON report without the manifest's wall_clock_seconds and out_dir.  Keys,
types, strings, ints and bools must match exactly.  Floats must match within
1e-12 relative, so that a different numpy SIMD path does not fail the test;
the discrepancy norm-transfer reports is itself a rounding error, so it (and
stdout, which prints it) may also differ by 1e-15 absolute.

After a deliberate change of output, rewrite the files with
``PYTHONPATH=src python tests/test_pinned_reports.py``.
"""
import contextlib
import io
import json
import math
import os
import pathlib
import re
import tempfile

import pytest

from test_cli import EXPERIMENT_COMMANDS
from varlat.cli import SUBCOMMANDS, run

PINNED = pathlib.Path(__file__).parent / "pinned"

#: variation's input: a short sequence with turning points of several sizes
VARIATION_VALUES = "0 1.5 -2 0.25 3 -1 2.5 0.5 0.75 -0.5\n"

CASES = [*EXPERIMENT_COMMANDS, ("variation", ["--q", "2.5"])]

#: record keys whose floats may differ by ROUNDING_TOLERANCE absolute
ROUNDING_LEVEL = {"max_rel_discrepancy", "stdout"}
ROUNDING_TOLERANCE = 1e-15


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def observe(name: str, flags: list, work: pathlib.Path) -> dict:
    """Run one subcommand in the directory work and record its outputs."""
    out = work / "out"
    argv = [name, *flags, "--out", str(out)]
    if name == "variation":
        values = work / "values.txt"
        values.write_text(VARIATION_VALUES)
        argv += ["--values", str(values)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    files = sorted(os.listdir(out)) if out.exists() else []
    record = {"exit": code, "stdout": stdout.getvalue(), "files": files, "csv": None, "report": None}
    if f"{name}.csv" in files:
        lines = (out / f"{name}.csv").read_text().splitlines()
        record["csv"] = [[_cell(text) for text in line.split(",")[:4]] for line in lines]
    if f"{name}.json" in files:
        report = json.loads((out / f"{name}.json").read_text())
        del report["manifest"]["wall_clock_seconds"], report["manifest"]["out_dir"]
        record["report"] = report
    return record


def assert_same(got, want, where: str = "$", abs_tol: float = 0.0) -> None:
    assert type(got) is type(want), f"{where}: {type(got).__name__} is not {type(want).__name__}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), f"{where}: keys {sorted(got)} are not {sorted(want)}"
        for key in want:
            tol = ROUNDING_TOLERANCE if key in ROUNDING_LEVEL else abs_tol
            assert_same(got[key], want[key], f"{where}.{key}", tol)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} entries, not {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]", abs_tol)
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=abs_tol), f"{where}: {got!r} is not {want!r}"
    else:
        assert got == want, f"{where}: {got!r} is not {want!r}"


@pytest.mark.parametrize("name, flags", CASES, ids=[name for name, _ in CASES])
def test_output_matches_the_pinned_file(tmp_path, name, flags):
    want = json.loads((PINNED / f"{name}.json").read_text())
    got = observe(name, flags, tmp_path)
    for record in (got, want):
        record["stdout"] = [_cell(word) for word in re.split(r"[\s=]+", record["stdout"].strip())]
    assert_same(got, want)


def test_every_subcommand_is_pinned():
    assert sorted(name for name, _ in CASES) == sorted(SUBCOMMANDS)
    assert sorted(path.stem for path in PINNED.glob("*.json")) == sorted(SUBCOMMANDS)


if __name__ == "__main__":
    PINNED.mkdir(exist_ok=True)
    for name, flags in CASES:
        with tempfile.TemporaryDirectory() as work:
            record = observe(name, flags, pathlib.Path(work))
        (PINNED / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {record['exit']}")
