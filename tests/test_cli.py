import inspect
import json
import math
import os
import random
import subprocess
import sys

import jsonschema
import pytest

import varlat
from varlat import (
    DEFAULT_J_WINDOW,
    HILBERT_R_LIST,
    EmptyInput,
    ExperimentConfig,
    RatioReport,
    default_lacunary,
    exp_reduction_constant,
)
from varlat import witnesses
from varlat.corefn import fit_power_law
from varlat.cli import _PARAMS, REPORT_SCHEMA, SUBCOMMANDS, _parser, emit_svg_loglog, run


#: The seven experiment subcommands, each with flags for a short run.
EXPERIMENT_COMMANDS = [
    ("reduction-constant", []),
    ("key-estimate", []),
    ("linf-blowup", ["--j1-list", "6,10,18"]),
    ("maximal-contrast", ["--j1-list", "6,10,18"]),
    ("lr-growth", ["--r-list", "4,8,16"]),
    ("hilbert-growth", []),
    ("norm-transfer", ["--trials", "2"]),
]


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
        # there is no thread pool to size
        assert run(["linf-blowup", "--workers", "2"]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--q", "2", "experiments run under the standing hypothesis q > 2"),
            ("--p", "1", "outer exponent must satisfy p > 1"),
        ],
    )
    def test_norm_transfer_takes_the_experiment_exponent_range(self, tmp_path, capsys, flag, value, message):
        # the library runs norm_transfer_trials at p = 1 and q = 2; the CLI
        # checks norm-transfer's exponents as it checks every experiment's
        assert run(["norm-transfer", flag, value, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_variation_requires_values(self, tmp_path, capsys):
        # neither a flag nor a config line names the file
        (tmp_path / "run.cfg").write_text("q = 2\n")
        for argv in (["variation"], ["variation", "--config", str(tmp_path / "run.cfg")]):
            assert run([*argv, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err == "error: variation needs a --values file\n"
        assert not (tmp_path / "out").exists()

    def test_version_is_the_package_version(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out == f"varlat {varlat.__version__}\n"

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: varlat")

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_is_the_shared_help(self, capsys, name):
        assert run(["--help"]) == 0
        shared = capsys.readouterr().out
        assert run([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: varlat")
        assert out == shared


class TestOneParser:
    """One parser takes every key on every subcommand, before or after the
    subcommand's name; only variation reads --values."""

    @pytest.fixture
    def values(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("0, 1, 0.9, 2\n")
        return path

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_takes_every_key(self, name):
        keys = [*_PARAMS, "config"]
        assert "values" in keys
        argv = [name]
        for key in keys:
            argv += ["--" + key.replace("_", "-"), f"raw-{key}"]
        args = _parser().parse_args(argv)
        assert args.subcommand == name
        assert {key: getattr(args, key) for key in keys} == {key: f"raw-{key}" for key in keys}

    def test_flags_before_the_subcommand(self, values, capsys):
        assert run(["--q", "2", "variation", "--values", str(values)]) == 0
        before = capsys.readouterr().out
        assert run(["variation", "--values", str(values), "--q", "2"]) == 0
        assert capsys.readouterr().out == before == "2\n0 3\n"

    def test_out_before_the_subcommand(self, tmp_path):
        assert run(["--out", str(tmp_path), "reduction-constant"]) == 0
        assert (tmp_path / "reduction-constant.json").exists()

    def test_config_line_feeds_variation(self, tmp_path, values, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"values = {values}\nq = 2\n")
        assert run(["variation", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "2\n0 3\n"

    def test_values_flag_beats_config_line(self, tmp_path, values, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"values = {tmp_path / 'nope.txt'}\n")
        assert run(["variation", "--config", str(cfg), "--values", str(values), "--q", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "2.2"

    def test_other_commands_ignore_values(self, tmp_path, capsys):
        # the file is never opened: it need not exist
        assert run(["reduction-constant", "--out", str(tmp_path / "a")]) == 0
        plain = capsys.readouterr().out
        argv = ["reduction-constant", "--values", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "b")]
        assert run(argv) == 0
        assert capsys.readouterr().out == plain

        def data_columns(run_dir):
            # the last column, seconds, is the row's wall time
            lines = (run_dir / "reduction-constant.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert data_columns(tmp_path / "b") == data_columns(tmp_path / "a")

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduction-constant", "--kmin", "-3"],
            ["hilbert-growth", "--kmin", "-3"],
            ["linf-blowup", "--trials", "0"],
            ["key-estimate", "--q", "1.5"],
            # a base whose key table is empty is refused by q first
            ["key-estimate", "--a", "1.000000001", "--q", "1.5"],
        ],
        ids=["reduction-kmin", "hilbert-kmin", "linf-trials", "key-q", "key-empty-table-q"],
    )
    def test_every_command_but_variation_checks_every_key_first(self, tmp_path, capsys, argv):
        # a key the command does not read still has to be one that some run can use
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_variation_checks_no_witness_key(self, values, capsys):
        assert run(["variation", "--kmin", "-3", "--values", str(values)]) == 0
        assert capsys.readouterr().out == "2\n0 3\n"

    def test_variation_writes_no_reports(self, tmp_path, values):
        out = tmp_path / "out"
        assert run(["variation", "--values", str(values), "--out", str(out)]) == 0
        assert not out.exists()

    def test_v_abbreviation_is_ambiguous(self, values, capsys):
        assert run(["variation", "--v", str(values)]) == 2
        assert "ambiguous option: --v could match --version, --values" in capsys.readouterr().err


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
        want = f"error: {values}: could not convert string to float: 'two'\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("q", ["1", "2", "3"])
    def test_normal_gap_below_1e_300_counts(self, tmp_path, capsys, q):
        values = tmp_path / "values.txt"
        values.write_text("0 1e-301")
        assert run(["variation", "--values", str(values), "--q", q]) == 0
        assert capsys.readouterr().out.splitlines() == ["1e-301", "0 1"]

    @pytest.mark.parametrize("token", ["nan", "1e309", "-inf"])
    def test_non_finite_value_names_the_file(self, tmp_path, capsys, token):
        values = tmp_path / "values.txt"
        values.write_text(f"0 1 {token} 3")
        assert run(["variation", "--values", str(values)]) == 2
        assert capsys.readouterr().err == f"error: {values}: variation input contains a NaN or infinity\n"

    @pytest.mark.parametrize(
        "values, q, code, out",
        [
            ("0 3 1 2", "inf", 2, None),
            ("0 3 1 2", "1e308", 2, None),
            ("0 0.5 0.1 0.4", "2000", 0, (0.5, "0 1")),
            ("0 1e-120 0", "3", 0, (2.0 ** (1 / 3) * 1e-120, "0 1 2")),
        ],
        ids=["q-inf", "q-1e308", "q-2000", "cubes-underflow"],
    )
    def test_out_of_range_powers(self, tmp_path, capsys, values, q, code, out):
        path = tmp_path / "values.txt"
        path.write_text(values)
        assert run(["variation", "--values", str(path), "--q", q]) == code
        captured = capsys.readouterr()
        if out is None:
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
            return
        value, witness = captured.out.splitlines()
        assert float(value) == pytest.approx(out[0], rel=1e-11)
        assert witness == out[1]

    def test_evaluates_no_witness(self, tmp_path, monkeypatch):
        # the DP reads no witness parameter, so no key table is built
        def no_heat(*args):
            raise AssertionError("variation evaluated the witness")

        monkeypatch.setattr(witnesses, "heat_of_g_matrix", no_heat)
        default_lacunary.cache_clear()
        values = tmp_path / "values.txt"
        values.write_text("0 1 0.9 2")
        assert run(["variation", "--values", str(values), "--q", "2"]) == 0

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["variation", "--values", str(tmp_path / "nope.txt")]) == 2

    def test_reader_closing_the_pipe_early_is_not_an_error(self, tmp_path):
        # like `varlat variation ... | head -c 10`: the output is cut short,
        # the run itself still succeeded
        r = random.Random(0)
        values = tmp_path / "normals.txt"
        values.write_text("\n".join(repr(r.gauss(0.0, 1.0)) for _ in range(200_000)))
        src = os.path.dirname(os.path.dirname(varlat.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "varlat.cli", "variation", "--values", str(values), "--q", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert len(head) == 10
        assert err == b""


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

    def test_row_is_timed(self, tmp_path):
        assert run(["reduction-constant", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "reduction-constant.csv").read_text().splitlines()[1]
        assert float(row.rsplit(",", 1)[1]) > 0.0

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

    def test_summary_prints_the_base_as_run(self, tmp_path, capsys):
        # the shortest round-trip form: :g would print a base of 1 here
        assert run(["key-estimate", "--a", "1.000000001", "--out", str(tmp_path / "fail")]) == 1
        assert capsys.readouterr().out.startswith("key-estimate: a=1.000000001 C=n/a pass=False (")
        assert run(["key-estimate", "--out", str(tmp_path / "pass")]) == 0
        assert capsys.readouterr().out.startswith("key-estimate: a=2.0 C=0.0173074 pass=True")

    def test_j_max_flag_controls_table(self, tmp_path):
        assert run(["key-estimate", "--j-max", "5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "key-estimate.csv").read_text().strip().splitlines()
        assert len(lines) == 7  # header + D_0 .. D_5

    def test_scales_past_the_double_range(self, tmp_path, capsys):
        # a^j overflows at j = 1024 for a = 2; no table is written
        argv = ["key-estimate", "--kmin", "-3000", "--j-max", "1100", "--out", str(tmp_path)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "key-estimate.csv").exists()

    @pytest.mark.parametrize("flags", [["--a", "8", "--kmin", "-400"], ["--kmin", "-1100"]])
    def test_zero_width_cells(self, tmp_path, capsys, flags):
        # truncations whose deepest cells underflow to width 0
        assert run(["key-estimate", *flags, "--out", str(tmp_path)]) == 0
        assert "pass=True" in capsys.readouterr().out

    def test_builds_one_key_table(self, tmp_path, monkeypatch):
        calls = []
        original = witnesses.key_estimate_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(witnesses, "key_estimate_table", counting)
        default_lacunary.cache_clear()
        assert run(["key-estimate", "--out", str(tmp_path)]) == 0
        assert calls == [(2.0, -120, 30)]


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

    @pytest.mark.parametrize("name, flags", EXPERIMENT_COMMANDS)
    def test_j_max_flag_and_config_line_agree(self, tmp_path, name, flags):
        # the window of the certified constant, set either way, on every command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j_max = 3\n")
        by_flag = run([name, *flags, "--j-max", "3", "--out", str(tmp_path / "flag")])
        by_config = run([name, *flags, "--config", str(cfg), "--out", str(tmp_path / "config")])
        assert by_flag == by_config
        flag, config = (_read_json(tmp_path / out / f"{name}.json") for out in ("flag", "config"))
        assert flag["config"] == config["config"] and flag["config"]["j_max"] == 3
        assert flag["certified_C"] == config["certified_C"]
        # D_j reads the scales j and j + 1: the table ends at j_max = 3, or
        # one short of the run's deepest scale, max(j1) or floor(max r) * j0
        deepest = {"linf-blowup": 18, "maximal-contrast": 18, "lr-growth": 16 * 2}.get(name, 0)
        table = witnesses.key_estimate_table(2.0, -120, max(3, deepest - 1))
        assert flag["certified_C"] == min(table[2:])

    @pytest.mark.parametrize(
        "name, flags, table_end",
        [
            ("linf-blowup", ["--j1-list", "6,8,10"], 9),
            ("maximal-contrast", ["--j1-list", "6,8,10"], 9),
            ("lr-growth", ["--r-list", "2,3,4"], 7),
            ("hilbert-growth", [], 3),
        ],
    )
    def test_certified_constant_covers_every_scale_the_run_evaluates(self, tmp_path, name, flags, table_end):
        # at a = 1.5, D_2 = 0.029 and D_3 = 0.0098 but D_4 = 0.0017, so the
        # window [j0, j_max] = [2, 3] alone misses the smallest D_j of a run
        # to depth 10 (linf-blowup, maximal-contrast) or 4 * j0 = 8 (lr-growth
        # at r = 4); D_j reads the scales j and j + 1.  hilbert-growth
        # evaluates no witness scale and keeps [j0, j_max].
        argv = [name, *flags, "--a", "1.5", "--kmin", "-800", "--j-max", "3"]
        assert run([*argv, "--log-per-decade", "8", "--out", str(tmp_path)]) in (0, 1)
        report = _read_json(tmp_path / f"{name}.json")
        assert report["certified_C"] == min(witnesses.key_estimate_table(1.5, -800, table_end)[2:])
        assert report["config"]["j_max"] == 3

    @pytest.mark.parametrize("window", [["--j-max", "1"], ["--j0", "31"]], ids=["j-max-1", "j0-31"])
    @pytest.mark.parametrize("name, flags", EXPERIMENT_COMMANDS)
    def test_j_max_below_j0_exits_2(self, tmp_path, capsys, name, flags, window):
        # one rule on every command: the window [j0, j_max] of the certified
        # constant must hold a scale, so a --j0 above the default j_max of
        # 30 needs a --j-max of its own
        assert run([name, *flags, *window, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "--j-max" in err[0] and "--j0" in err[0]
        assert not (tmp_path / "out").exists()

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

    def test_round_trip_through_a_later_run(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["key-estimate", "--a", "3", "--out", str(tmp_path / "k")]) == 0
        written = cache.read_bytes()
        key_constant = _read_json(cache)["key_constant"]
        assert run(["linf-blowup", "--kmin", "-300", "--j1-list", "6,10,18", "--out", str(tmp_path / "l")]) == 0
        report = _read_json(tmp_path / "l" / "linf-blowup.json")
        assert report["config"]["a"] == 3.0
        assert report["certified_C"] == key_constant
        assert run(["key-estimate", "--a", "1.000000001", "--out", str(tmp_path / "f")]) == 1
        assert cache.read_bytes() == written

    def test_integer_base_reads_as_the_flag_would(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"a": 3, "k_min": -300, "j0": 2}))
        monkeypatch.setenv("VARLAT_CACHE", str(cache))
        assert run(["reduction-constant", "--out", str(tmp_path / "cached")]) == 0
        assert run(["reduction-constant", "--a", "3", "--kmin", "-300", "--out", str(tmp_path / "flag")]) == 0
        cached, flag = (_read_json(tmp_path / out / "reduction-constant.json") for out in ("cached", "flag"))
        assert type(cached["config"]["a"]) is float
        assert cached["config"] == flag["config"]

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
        RatioReport(4.0, 2.0, 1.0, 0.1),
        RatioReport(8.0, 3.0, 1.0, 0.2),
        RatioReport(16.0, 4.5, 1.0, 0.3),
    )

    def test_bytes_deterministic_and_time_independent(self, tmp_path):
        slow = tuple(
            RatioReport(r.param, r.numerator, r.denominator, r.seconds + 5.0)
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
        "argv, file, cache",
        [
            (["lr-growth", "--r-list", "4,abc"], None, None),
            (["lr-growth", "--p", "x"], None, None),
            (["lr-growth", "--kmin", "1.5"], None, None),
            (["lr-growth", "--seed", "-1"], None, None),
            (["lr-growth", "--config", "run.cfg"], b"p = x\n", None),
            (["lr-growth"], None, "{not json"),
            (["lr-growth"], None, '{"a": "two"}'),
            (["lr-growth"], None, '{"k_min": 3.5}'),
            (["lr-growth"], None, '{"j0": true}'),
            (["lr-growth"], None, '{"a": null}'),
            (["lr-growth", "--a", "0"], None, None),
            (["lr-growth", "--a", "-2"], None, None),
            (["lr-growth", "--a", "1"], None, None),
            (["lr-growth", "--a", "0.5"], None, None),
            (["lr-growth", "--a", "nan"], None, None),
            # sizes that would need terabytes are refused before allocating
            (["linf-blowup", "--log-per-decade", "1000000000000"], None, None),
            (["reduction-constant", "--nodes", "1000000000000"], None, None),
            # grid_points is not a configuration key
            (["linf-blowup", "--config", "run.cfg"], b"grid_points = 1501\n", None),
            # an int past the double range, refused before any float product
            (["linf-blowup", "--log-per-decade", "1" + "0" * 400], None, None),
            # exponents the run refuses are refused before the key table
            # reaches the depth floor(r) * j0 they would ask for
            (["lr-growth", "--r-list", "4,8,nan"], None, None),
            (["lr-growth", "--r-list", "4,8,inf"], None, None),
            (["lr-growth", "--r-list", "4,8,100"], None, None),
            # files that are not UTF-8 text
            (["lr-growth", "--config", "run.cfg"], b"p = 3\xff\n", None),
            (["variation", "--values", "run.cfg"], b"1 2 \xff 3\n", None),
            # at p = 2000 every norm of a trial underflows to 0
            (["norm-transfer", "--trials", "2", "--p", "2000"], None, None),
            # witnesses with no lacunary tail or no finite base
            (["key-estimate", "--kmin", "0"], None, None),
            (["key-estimate", "--kmin", "5"], None, None),
            (["linf-blowup", "--kmin", "0"], None, None),
            (["lr-growth", "--a", "inf"], None, None),
            # floor(1.5) * j0 is j0: no active scale
            (["lr-growth", "--r-list", "1.5,4,8"], None, None),
        ],
        ids=[
            "r-list-token",
            "p-token",
            "kmin-token",
            "negative-seed",
            "config-value",
            "cache-json",
            "cache-value",
            "cache-float-kmin",
            "cache-bool-j0",
            "cache-null-base",
            "zero-base",
            "negative-base",
            "unit-base",
            "base-below-one",
            "nan-base",
            "ladder-size",
            "nodes-size",
            "grid-points-key",
            "ladder-size-huge",
            "nan-exponent",
            "inf-exponent",
            "exponent-above-64",
            "config-not-utf8",
            "values-not-utf8",
            "norms-underflow",
            "key-estimate-kmin-0",
            "key-estimate-kmin-5",
            "kmin-0",
            "inf-base",
            "exponent-below-2",
        ],
    )
    def test_exits_2_with_one_line_error(self, tmp_path, monkeypatch, capsys, argv, file, cache):
        # file is the content of run.cfg in the working directory
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--out", str(tmp_path / "out")]
        if file is not None:
            (tmp_path / "run.cfg").write_bytes(file)
        if cache is not None:
            (tmp_path / "cache.json").write_text(cache)
            monkeypatch.setenv("VARLAT_CACHE", str(tmp_path / "cache.json"))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lr-growth", "--r-list", "4,8,nan"], "power exponents must lie in (1, 64.0]"),
            (["lr-growth", "--r-list", "4,8,100"], "power exponents must lie in (1, 64.0]"),
            (["lr-growth", "--r-list", "8,4,16"], "r_list must be strictly increasing"),
            (["linf-blowup", "--j1-list", "1000,6,8"], "j1 list must be strictly increasing"),
            (["maximal-contrast", "--j1-list", "1000,6"], "j1 list must be strictly increasing"),
            (["linf-blowup", "--q", "2", "--kmin", "-3000", "--j1-list", "6,10,2000"], "q > 2"),
            (["key-estimate", "--kmin", "0"], "k_min must be at most -1, got 0"),
            (["linf-blowup", "--kmin", "0"], "k_min must be at most -1, got 0"),
            (["lr-growth", "--r-list", "1.5,4,8"], "r = 1.5"),
        ],
        ids=["nan-exponent", "exponent-above-64", "exponents-unordered", "depths-unordered",
             "contrast-depths-unordered", "q-with-deep-list", "key-estimate-kmin-0", "kmin-0",
             "exponent-below-2"],
    )
    def test_refused_before_the_key_table_reaches_the_run_depth(self, tmp_path, capsys, argv, message):
        # the key constant is certified down to the run's deepest scale, but
        # only once the run's own checks pass: the user sees the error of the
        # key they set, not a tail bound or double range error at that depth
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, base",
        [
            ("reduction-constant", "-2"),
            ("key-estimate", "-2"),
            ("linf-blowup", "-2"),
            ("maximal-contrast", "-2"),
            ("lr-growth", "-2"),
            ("hilbert-growth", "-2"),
            ("norm-transfer", "-2"),
            # no base at all, unlike a = 1.000000001, which fails to certify
            ("key-estimate", "1"),
        ],
    )
    def test_bad_base_exits_2_on_every_command(self, tmp_path, capsys, command, base):
        assert run([command, "--a", base, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

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

    def test_grid_points_flag_is_unknown(self, tmp_path, capsys):
        assert run(["linf-blowup", "--grid-points", "1501", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --grid-points" in capsys.readouterr().err


class TestExperimentCommands:
    @pytest.mark.parametrize(
        "name, flags, rows",
        [
            ("linf-blowup", ["--j1-list", "6,10,18"], 3),
            ("maximal-contrast", ["--j1-list", "6,18,66"], 3),
            ("lr-growth", ["--r-list", "4,8,16"], 3),
            ("hilbert-growth", ["--r-list", "8,16,32,64"], 4),
            ("linf-blowup", ["--j1-list", "6,10,18", "--p", "inf"], 3),
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

    def test_maximal_contrast_fits_the_variation_ratios(self, tmp_path):
        assert run(["maximal-contrast", "--j1-list", "6,18,66", "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "maximal-contrast.json")
        j0 = report["config"]["j0"]
        pairs = report["extras"]["pairs"]
        variation = fit_power_law([p["j1"] - j0 for p in pairs], [p["variation_ratio"] for p in pairs])
        assert report["fit"] == variation._asdict()
        rows = [line.split(",") for line in (tmp_path / "maximal-contrast.csv").read_text().splitlines()[1:]]
        maximal = fit_power_law([float(row[0]) for row in rows], [float(row[3]) for row in rows])
        assert report["fit"] != maximal._asdict()

    def test_bare_hilbert_growth_passes(self, tmp_path, capsys):
        assert run(["hilbert-growth", "--out", str(tmp_path)]) == 0
        assert "pass=True" in capsys.readouterr().out
        report = _read_json(tmp_path / "hilbert-growth.json")
        assert report["config"]["r_list"] == [8.0, 16.0, 32.0, 64.0]


class TestDefaultsComeFromTheLibrary:
    @pytest.mark.parametrize("name", [name for name in SUBCOMMANDS if name != "variation"])
    def test_bare_run_config(self, tmp_path, name):
        assert run([name, "--out", str(tmp_path)]) == 0
        config = _read_json(tmp_path / f"{name}.json")["config"]
        lib, lac = ExperimentConfig(), default_lacunary()
        assert (config["p"], config["q"]) == (lib.p, lib.q)
        assert config["grid"] == {"log_points_per_decade": lib.log_points_per_decade}
        r_list = HILBERT_R_LIST if name == "hilbert-growth" else lib.r_list
        assert config["r_list"] == list(r_list)
        assert (config["a"], config["k_min"], config["j0"]) == (lac.a, lac.k_min, lac.j0)
        nodes = inspect.signature(exp_reduction_constant).parameters["quad_nodes"].default
        assert config["nodes"] == nodes
        assert config["j_max"] == DEFAULT_J_WINDOW[1]
