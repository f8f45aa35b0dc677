"""Self-tests of the benchmark: span arithmetic, output checks, wrapper restore.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

MS = 1_000_000  # span times are in ns


def _span(name, start, end, parent, tid=1):
    return [name, start * MS, end * MS, parent, tid]


def test_self_time_single_thread():
    tree = [
        _span("cli.run", 0, 100, -1),
        _span("experiments.exp_linf_blowup", 10, 90, 0),
        _span("variation.variation_profile", 20, 60, 1),
        _span("operators.family_value_matrix", 25, 45, 2),
        _span("corefn.sliding_sup", 70, 80, 1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([0.020, 0.030, 0.020, 0.020, 0.010])
    assert sum(own) == pytest.approx(0.100)


def test_self_time_splits_concurrent_leaves():
    # two pool tasks on other threads share the wall time they overlap; the
    # parent accrues nothing while either runs
    tree = [
        _span("cli.run", 0, 100, -1),
        _span("experiments.exp_lr_growth", 0, 100, 0),
        _span("experiments.lr_numerator", 10, 60, 1, tid=2),
        _span("experiments.lr_numerator", 30, 80, 1, tid=3),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([0.0, 0.030, 0.035, 0.035])
    assert sum(own) == pytest.approx(0.100)


def test_layer_metrics_sum_to_traced_wall():
    rec = spans.Recorder()
    rec.spans = [
        _span("cli.run", 0, 50, -1),
        _span("experiments.exp_hilbert_growth", 5, 45, 0),
        _span("corefn.make_grid", 10, 20, 1),
        _span("cli.run", 60, 70, -1),
    ]
    rec.counts = {"variation.prune.raw": 10, "variation.prune.kept": 4}
    metrics = spans.layer_metrics(rec)
    assert metrics["trace.wall_s"] == pytest.approx(0.060)
    assert metrics["cli.self_s"] == pytest.approx(0.020)
    assert metrics["experiments.self_s"] == pytest.approx(0.030)
    assert metrics["experiments.exp.s"] == pytest.approx(0.040)
    assert metrics["variation.prune_kept_ratio"] == pytest.approx(0.4)
    assert spans.self_sum_gap(metrics) < 1e-12
    assert spans.top_layer(metrics) == "experiments"


def test_busy_time_counts_overlap_once():
    assert spans.busy_time([(0, 10 * MS), (5 * MS, 20 * MS), (30 * MS, 40 * MS)]) == pytest.approx(0.030)


# ---------------------------------------------------------------------------
# output checks: each failure mode makes a failed run

SCHEMA = {
    "type": "object",
    "required": ["config", "certified_C", "fit", "pass", "manifest"],
    "properties": {"pass": {"type": "boolean"}, "certified_C": {"type": "number"}},
}


def _good_growth(tmp_path):
    cmd = worker.cli_command("lr-growth", [], str(tmp_path), 2, bounds=True)
    report = {"config": {}, "certified_C": 0.1, "fit": None, "pass": True, "manifest": {},
              "extras": {"bounds": [0.001, 0.002]}}
    rows = ["param,numerator,denominator,ratio,seconds", "4.0,1.0,2.0,0.5,0.1", "8.0,1.0,1.0,1.0,0.1"]
    return cmd, report, rows


def _write(tmp_path, name, report, rows):
    (tmp_path / f"{name}.json").write_text(json.dumps(report))
    (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")


def test_good_outputs_pass(tmp_path):
    cmd, report, rows = _good_growth(tmp_path)
    _write(tmp_path, "lr-growth", report, rows)
    assert worker.check_command(cmd, 0, "", SCHEMA) == []


@pytest.mark.parametrize("breakage", ["exit", "schema", "pass", "bound", "rows"])
def test_each_growth_failure_is_caught(tmp_path, breakage):
    cmd, report, rows = _good_growth(tmp_path)
    rc = 1 if breakage == "exit" else 0
    if breakage == "schema":
        del report["certified_C"]
    if breakage == "pass":
        report["pass"] = False
    if breakage == "bound":
        report["extras"]["bounds"][1] = 2.0
    if breakage == "rows":
        rows = rows[:-1]
    _write(tmp_path, "lr-growth", report, rows)
    failures = worker.check_command(cmd, rc, "", SCHEMA)
    assert failures
    sample = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 50.0, "failures": failures}
    agg = run.aggregate([sample, {**sample, "failures": []}])
    assert (agg["attempted"], agg["failed"], agg["fail_ratio"]) == (2, 1, 0.5)


def _variation(tmp_path, values):
    path = tmp_path / "values.txt"
    worker.write_values(str(path), values)
    return {"name": "variation", "q": 3.0, "values": str(path), "seed": 0}


def test_variation_checks(tmp_path):
    cmd = _variation(tmp_path, [0.0, 2.0, -1.0, 0.5])
    value = (2.0**3 + 3.0**3 + 1.5**3) ** (1 / 3)
    assert worker.check_command(cmd, 0, f"{value:.12g}\n0 1 2 3\n", SCHEMA) == []
    assert worker.check_command(cmd, 0, f"{value:.12g}\n0 2 1 3\n", SCHEMA)
    assert worker.check_command(cmd, 0, f"{value * (1 + 1e-10):.12g}\n0 1 2 3\n", SCHEMA)
    assert worker.check_command(cmd, 2, "", SCHEMA)


def test_worker_failure_is_a_failed_run():
    agg = run.aggregate([{"failures": ["worker exited 1: boom"]}])
    assert (agg["attempted"], agg["failed"], agg["stats"]) == (1, 1, {})


def test_drift_is_relative_and_counts_compared_figures(tmp_path):
    cmd, report, rows = _good_growth(tmp_path)
    _write(tmp_path, "lr-growth", report, rows)
    frozen = {"lr-growth": {"4.0": [1.0, 2.0, 0.5], "16.0": [1.0, 1.0, 1.0]}}
    assert worker.drift(cmd, "", frozen) == (0.0, 3)
    frozen["lr-growth"]["4.0"][2] = 0.25
    assert worker.drift(cmd, "", frozen) == (1.0, 3)


# ---------------------------------------------------------------------------
# wrappers


def test_wrappers_restore_originals():
    varlat = pytest.importorskip("varlat")
    for layer in spans.LAYERS:
        __import__(f"varlat.{layer}")

    modules = [m for k, m in sys.modules.items() if k == "varlat" or k.startswith("varlat.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    original = varlat.variation.family_value_matrix
    rec = spans.Recorder().install()
    try:
        assert varlat.operators.family_value_matrix is not original
        assert varlat.variation.family_value_matrix is varlat.operators.family_value_matrix
        assert varlat.family_value_matrix is varlat.operators.family_value_matrix
        assert varlat.variation.qvariation([0.0, 1.0, 0.0], 2.0).value > 0
        assert [s[0] for s in rec.spans] == ["variation.qvariation"]
    finally:
        rec.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert varlat.variation.family_value_matrix is original
