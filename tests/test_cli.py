import json
import math
import os

import jsonschema
import pytest

import varlat
from varlat import EmptyInput, RatioReport
from varlat.cli import REPORT_SCHEMA, emit_svg_loglog, run


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExitCodes:
    def test_missing_subcommand(self):
        assert run([]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert run(["reduction-constant", "--does-not-exist", "1"]) == 2
        # the thread count is os.cpu_count(), not an option
        assert run(["linf-blowup", "--workers", "2"]) == 2

    def test_variation_requires_values(self):
        assert run(["variation"]) == 2

    def test_version_is_the_package_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out == f"varlat {varlat.__version__}\n"

    def test_help_exits_clean(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
            raise SystemExit(0)  # pragma: no cover - run swallows help itself
        assert exc.value.code == 0


class TestVariationCommand:
    def test_quadratic_example(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("0, 1, 0.9, 2\n")
        assert run(["variation", "--values", str(values), "--q", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(2.0, rel=1e-12)
        assert out[1] == "0 3"

    def test_total_variation_example(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("0 1 0.9 2")
        assert run(["variation", "--values", str(values), "--q", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(2.2, rel=1e-12)
        assert out[1] == "0 1 2 3"

    def test_empty_file_is_an_error(self, tmp_path):
        values = tmp_path / "empty.txt"
        values.write_text("  \n")
        assert run(["variation", "--values", str(values)]) == 2

    def test_non_numeric_value_is_an_error(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("0 1 two 3")
        assert run(["variation", "--values", str(values)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["variation", "--values", str(tmp_path / "nope.txt")]) == 2


class TestReductionCommand:
    def test_prints_value_and_writes_reports(self, tmp_path, capsys):
        code = run(["reduction-constant", "--out", str(tmp_path)])
        assert code == 0
        printed = float(capsys.readouterr().out.splitlines()[0])
        assert printed == pytest.approx(0.5, abs=1e-8)

        csv_path = tmp_path / "reduction-constant.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "param,numerator,denominator,ratio,seconds"
        assert len(lines) == 2

        report = _read_json(tmp_path / "reduction-constant.json")
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["pass"] is True
        assert report["extras"]["value"] == pytest.approx(0.5, abs=1e-8)
        assert report["manifest"]["subcommand"] == "reduction-constant"

    def test_creates_nested_out_dir(self, tmp_path):
        out = tmp_path / "deep" / "er"
        assert run(["reduction-constant", "--out", str(out)]) == 0
        assert (out / "reduction-constant.json").exists()


class TestKeyEstimateCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        code = run(["key-estimate", "--out", str(tmp_path)])
        assert code == 0
        assert "pass=True" in capsys.readouterr().out

        lines = (tmp_path / "key-estimate.csv").read_text().strip().splitlines()
        assert lines[0] == "j,D_j"
        assert len(lines) == 32  # header + D_0 .. D_30

        report = _read_json(tmp_path / "key-estimate.json")
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["certified_C"] == pytest.approx(0.0173073522282, abs=1e-10)

    def test_near_unit_base_fails_cleanly(self, tmp_path, capsys):
        code = run(["key-estimate", "--a", "1.000000001", "--out", str(tmp_path)])
        assert code == 1
        assert "pass=False" in capsys.readouterr().out

        lines = (tmp_path / "key-estimate.csv").read_text().strip().splitlines()
        assert lines == ["j,D_j"]

        report = _read_json(tmp_path / "key-estimate.json")
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["pass"] is False
        assert report["certified_C"] == 0.0
        assert "reason" in report["extras"]

    def test_j_max_flag_controls_table(self, tmp_path):
        assert run(["key-estimate", "--j-max", "5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "key-estimate.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + D_0 .. D_5


class TestConfigLayers:
    def test_config_file_sets_q(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("0 1 0 1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nq = 4.0\n")
        assert run(["variation", "--values", str(values), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(3.0**0.25, rel=1e-11)

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("0 1 0 1")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 4.0\n")
        code = run(
            ["variation", "--values", str(values), "--config", str(cfg), "--q", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(3.0, rel=1e-12)

    def test_dashed_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j-max = 5\n")
        assert run(["key-estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "key-estimate.csv").read_text().strip().splitlines()
        assert len(lines) == 7

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        assert run(["key-estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 3\n")
        assert run(["key-estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestParameterCache:
    def test_passing_run_writes_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["key-estimate", "--out", str(tmp_path)]) == 0
        data = _read_json(cache)
        assert data["a"] == 2.0
        assert data["k_min"] == -120
        assert data["j0"] == 2
        assert data["key_constant"] == pytest.approx(0.0173073522282, abs=1e-10)

    def test_cache_feeds_later_runs(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"a": 4.0, "k_min": -120, "j0": 2}))
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["key-estimate", "--out", str(tmp_path)]) == 0
        assert "a=4" in capsys.readouterr().out

    def test_failing_run_does_not_write_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["key-estimate", "--a", "1.000000001", "--out", str(tmp_path)]) == 1
        assert not cache.exists()

    def test_passing_run_replaces_cache_atomically(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache = cache_dir / "cache.json"
        cache.write_text(json.dumps({"a": 2.0, "k_min": -120, "j0": 2, "stale": True}))
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["key-estimate", "--out", str(tmp_path / "out")]) == 0
        data = _read_json(cache)
        assert "stale" not in data
        assert data["key_constant"] == pytest.approx(0.0173073522282, abs=1e-10)
        assert os.listdir(cache_dir) == ["cache.json"]

    def test_failed_cache_replace_keeps_old_cache(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache = cache_dir / "cache.json"
        old = json.dumps({"a": 2.0, "k_min": -120, "j0": 2})
        cache.write_text(old)
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        real_replace = os.replace

        def replace(src, dst):
            if os.fspath(dst) == str(cache):
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert run(["key-estimate", "--out", str(tmp_path / "out")]) == 2
        assert cache.read_text() == old
        assert os.listdir(cache_dir) == ["cache.json"]

    def test_flag_beats_cache(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"a": 4.0, "k_min": -120, "j0": 2}))
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["key-estimate", "--a", "3", "--out", str(tmp_path)]) == 0
        assert "a=3" in capsys.readouterr().out


class TestNormTransferCommand:
    def test_small_run_and_csv_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert run(["norm-transfer", "--trials", "3", "--out", str(out1)]) == 0
        assert run(["norm-transfer", "--trials", "3", "--out", str(out2)]) == 0
        assert "pass=True" in capsys.readouterr().out

        def data_columns(path):
            lines = (path / "norm-transfer.csv").read_text().strip().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert data_columns(out1) == data_columns(out2)
        report = _read_json(out1 / "norm-transfer.json")
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["extras"]["max_rel_discrepancy"] <= 1e-10


class TestSvgEmitter:
    REPORTS = (
        RatioReport(4.0, 2.0, 1.0, 2.0, 0.1),
        RatioReport(8.0, 3.0, 1.0, 3.0, 0.2),
        RatioReport(16.0, 4.5, 1.0, 4.5, 0.3),
    )

    def test_bytes_deterministic_and_time_independent(self, tmp_path):
        slow = tuple(
            RatioReport(r.param, r.numerator, r.denominator, r.ratio, r.seconds + 5.0)
            for r in self.REPORTS
        )
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_loglog(self.REPORTS, str(a))
        emit_svg_loglog(slow, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_slope_annotation_matches_fit(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg_loglog(self.REPORTS, str(path))
        text = path.read_text()
        # ratios 2, 3, 4.5 over params 4, 8, 16: exact doubling law
        slope = math.log(1.5) / math.log(2.0)
        assert f"slope={slope:.3f}" in text
        assert text.startswith("<svg ")
        assert text.count("<circle") == 3

    def test_two_points_use_secant_slope(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg_loglog(self.REPORTS[:2], str(path))
        slope = math.log(3.0 / 2.0) / math.log(2.0)
        assert f"slope={slope:.3f}" in path.read_text()

    def test_rejects_single_report(self, tmp_path):
        with pytest.raises(EmptyInput):
            emit_svg_loglog(self.REPORTS[:1], str(tmp_path / "plot.svg"))


class TestMalformedInput:
    @pytest.mark.parametrize(
        "flags, config, cache",
        [
            (["--r-list", "4,abc"], None, None),
            (["--seed", "-1"], None, None),
            ([], "p = x\n", None),
            ([], None, "{not json"),
            ([], None, '{"a": "two"}'),
        ],
        ids=["r-list-token", "negative-seed", "config-value", "cache-json", "cache-value"],
    )
    def test_exits_2_with_one_line_error(self, tmp_path, monkeypatch, capsys, flags, config, cache):
        argv = ["lr-growth", *flags, "--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        if cache is not None:
            (tmp_path / "cache.json").write_text(cache)
            monkeypatch.setenv("VARLAT_CACHE", str(tmp_path / "cache.json"))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm-transfer", "--trials", "0"],
            ["norm-transfer", "--trials", "-3"],
            ["linf-blowup", "--j1-list", "6,10"],
            ["lr-growth", "--r-list", "4,8"],
            ["hilbert-growth", "--r-list", "8,16"],
        ],
    )
    def test_vacuous_run_rejected_before_computing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestExperimentCommands:
    @pytest.mark.parametrize(
        "name, flags, rows",
        [
            ("linf-blowup", ["--j1-list", "6,10,18"], 3),
            ("maximal-contrast", ["--j1-list", "6,18,66"], 3),
            ("lr-growth", ["--r-list", "4,8,16"], 3),
            ("hilbert-growth", ["--r-list", "8,16,32,64"], 4),
        ],
    )
    def test_small_run_writes_reports(self, tmp_path, capsys, name, flags, rows):
        assert run([name, *flags, "--out", str(tmp_path)]) == 0
        assert "pass=True" in capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == [f"{name}.csv", f"{name}.json", f"{name}.svg"]

        lines = (tmp_path / f"{name}.csv").read_text().strip().splitlines()
        assert lines[0] == "param,numerator,denominator,ratio,seconds"
        assert len(lines) == rows + 1

        report = _read_json(tmp_path / f"{name}.json")
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["pass"] is True
        assert report["manifest"]["subcommand"] == name
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg ")

    def test_bare_hilbert_growth_passes(self, tmp_path, capsys):
        assert run(["hilbert-growth", "--out", str(tmp_path)]) == 0
        assert "pass=True" in capsys.readouterr().out
        report = _read_json(tmp_path / "hilbert-growth.json")
        assert report["config"]["r_list"] == [8.0, 16.0, 32.0, 64.0]
