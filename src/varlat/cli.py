"""Command-line front end.

Eight subcommands map one-to-one onto the experiment operations, through one
command table.  Every experiment run writes a CSV of rows, a JSON report
validating against REPORT_SCHEMA, with a "manifest" object that records the
subcommand, its configuration, seed, output directory, version and wall time,
and (when a growth fit exists) a log-log SVG.  Exit status: 0 when the run
passed, 1 when an experiment ran but failed its certification, 2 for usage,
configuration or input errors.

Parameter precedence, highest first: explicit flags, then a key=value config
file, then the parameter cache named by VARLAT_CACHE, then built-in
defaults (the default r-list depends on the subcommand).  One parser reads
all three sources, and every subcommand takes every key, given before or after
its name; only variation reads --values.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import locale  # noqa: F401  argparse's first parse imports it through gettext
import math
import os
import sys
import time
from dataclasses import asdict, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__
from .corefn import MIN_FIT_POINTS, fit_power_law
from .errors import BadRange, EmptyInput, NonFiniteValue, VarlatError
from .experiments import (
    DEFAULT_BASE,
    DEFAULT_J0,
    DEFAULT_K_MIN,
    HILBERT_R_LIST,
    REDUCTION_TARGET,
    TRANSFER_TOLERANCE,
    ExperimentConfig,
    Outcome,
    RatioReport,
    _lr_depth,
    _rows,
    _validated_j1_list,
    exp_hilbert_growth,
    exp_key_estimate,
    exp_linf_blowup,
    exp_lr_growth,
    exp_maximal_contrast,
    exp_reduction_constant,
    norm_transfer_trials,
)
from .variation import qvariation
from .witnesses import DEFAULT_J_WINDOW, LacunaryParams, _certified_constant, certified_key_table

__all__ = ["run", "main", "REPORT_SCHEMA", "emit_svg_loglog", "SUBCOMMANDS"]

REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "varlat experiment report",
    "type": "object",
    "required": ["config", "certified_C", "fit", "pass", "manifest"],
    "properties": {
        "config": {"type": "object"},
        "certified_C": {"type": "number"},
        "fit": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["slope", "intercept", "r_squared"],
                    "properties": {
                        "slope": {"type": "number"},
                        "intercept": {"type": "number"},
                        "r_squared": {"type": "number", "minimum": 0, "maximum": 1},
                    },
                },
            ]
        },
        "pass": {"type": "boolean"},
        "manifest": {
            "type": "object",
            "required": [
                "subcommand",
                "config",
                "seed",
                "out_dir",
                "version",
                "wall_clock_seconds",
            ],
            "properties": {
                "subcommand": {"type": "string"},
                "config": {"type": "object"},
                "seed": {"type": "integer"},
                "out_dir": {"type": "string"},
                "version": {"type": "string"},
                "wall_clock_seconds": {"type": "number"},
            },
        },
    },
    "additionalProperties": True,
}


# ---------------------------------------------------------------------------
# argument parsing and layered resolution

_CACHE_ENV = "VARLAT_CACHE"


class _Param(NamedTuple):
    """One configuration key: the type of its value (of each entry, for a
    list key), its built-in default and its flag's help text."""

    kind: type
    default: object
    help: str | None = None


#: Every key a flag, a config file or the parameter cache sets, in --help
#: order; every subcommand takes every key.  A default the library states is
#: read from the library.  None marks a key with no fixed default: j1_list,
#: filled in from j0, and values, the file only variation reads.  A command
#: may override the r-list default.
_PARAMS: dict[str, _Param] = {
    "p": _Param(float, ExperimentConfig.p),
    "q": _Param(float, ExperimentConfig.q),
    "a": _Param(float, DEFAULT_BASE),
    "kmin": _Param(int, DEFAULT_K_MIN),
    "j0": _Param(int, DEFAULT_J0),
    "r_list": _Param(float, ExperimentConfig.r_list, "comma-separated exponents"),
    "j1_list": _Param(int, None, "comma-separated depths"),
    "log_per_decade": _Param(int, ExperimentConfig.log_points_per_decade),
    "seed": _Param(int, 0),
    "out": _Param(str, "."),
    "nodes": _Param(int, inspect.signature(exp_reduction_constant).parameters["quad_nodes"].default),
    "trials": _Param(int, 100),
    "j_max": _Param(int, DEFAULT_J_WINDOW[1]),
    "values": _Param(str, None, "file of comma/space separated values"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="varlat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"varlat {__version__}")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="key=value file, one pair per line")
    for key, param in _PARAMS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=param.help)
    return parser


def _parse_value(key: str, raw: str, where: str):
    """Convert one raw value, from any source, to its key's type."""
    param = _PARAMS.get(key)
    if param is None:
        raise BadRange(f"{where}: unknown configuration key {key!r}")
    is_list = key.endswith("_list")
    tokens = [tok for tok in raw.split(",") if tok] if is_list else [raw]
    try:
        values = tuple(param.kind(tok) for tok in tokens)
    except ValueError as exc:
        raise BadRange(f"{where}: {exc}") from None
    if not values:
        raise BadRange(f"{where}: {key} is empty")
    return values if is_list else values[0]


def _cache_values() -> Iterator[tuple[str, str, str]]:
    """The witness fields of the VARLAT_CACHE record, each as its JSON text,
    so that a cached value parses as the same flag value would."""
    path = os.environ.get(_CACHE_ENV)
    if not path or not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRange(f"{_CACHE_ENV} file {path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise BadRange(f"{_CACHE_ENV} file {path}: expected a JSON object")
    for name, key in (("a", "a"), ("k_min", "kmin"), ("j0", "j0")):
        if name in data:
            yield key, json.dumps(data[name]), f"{_CACHE_ENV} file {path}: {name}"


def _read_text(path: str) -> str:
    """The text of a UTF-8 file named on the command line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise BadRange(f"{path}: not UTF-8 text ({exc})") from None


def _raw_values(args: argparse.Namespace) -> Iterator[tuple[str, str, str]]:
    """(key, raw value, where it came from), lowest precedence first: the
    parameter cache, then config file lines, then flags."""
    yield from _cache_values()
    if args.config:
        for lineno, line in enumerate(_read_text(args.config).split("\n"), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            where = f"{args.config}:{lineno}"
            if "=" not in stripped:
                raise BadRange(f"{where}: expected key=value, got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            yield key.replace("-", "_"), raw, where
    for key, raw in vars(args).items():
        if key in _PARAMS and raw is not None:
            yield key, raw, "--" + key.replace("_", "-")


def _resolve(args: argparse.Namespace, command: "Command") -> dict:
    """Layer the parameter sources and reject values no run can use."""
    resolved = {**{key: param.default for key, param in _PARAMS.items()}, **command.defaults}
    for key, raw, where in _raw_values(args):
        resolved[key] = _parse_value(key, raw, where)
    if resolved["j1_list"] is None:
        resolved["j1_list"] = tuple(resolved["j0"] + gap for gap in (4, 8, 16, 32, 64))

    if resolved["trials"] < 1:
        raise BadRange(f"trials must be at least 1, got {resolved['trials']}")
    if resolved["seed"] < 0:
        raise BadRange(f"seed must be nonnegative, got {resolved['seed']}")
    if resolved["j_max"] < resolved["j0"]:
        raise BadRange(f"--j-max {resolved['j_max']} must reach at least --j0 {resolved['j0']}")
    if command.fit_over is not None and len(resolved[command.fit_over]) < MIN_FIT_POINTS:
        flag = "--" + command.fit_over.replace("_", "-")
        raise BadRange(
            f"{args.subcommand} fits a power law and needs at least {MIN_FIT_POINTS} "
            f"{flag} points, got {len(resolved[command.fit_over])}"
        )
    return resolved


def _witness(resolved: dict, key_constant: float) -> LacunaryParams:
    return LacunaryParams(resolved["a"], resolved["kmin"], resolved["j0"], key_constant)


#: The witness a run's configuration is checked with before its own key
#: constant is certified; no experiment reads it.
_STAND_IN = LacunaryParams(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, 1.0)


def _experiment_config(resolved: dict, lacunary: LacunaryParams) -> ExperimentConfig:
    return ExperimentConfig(
        p=resolved["p"],
        q=resolved["q"],
        lacunary=lacunary,
        log_points_per_decade=resolved["log_per_decade"],
        r_list=resolved["r_list"],
    )


def _config_payload(resolved: dict, config: ExperimentConfig | None) -> dict:
    payload = {key: resolved[key] for key in ("p", "q", "a", "j0", "seed", "nodes", "trials", "j_max")}
    payload.update(
        k_min=resolved["kmin"],
        r_list=list(resolved["r_list"]),
        j1_list=list(resolved["j1_list"]),
        grid={"log_points_per_decade": resolved["log_per_decade"]},
    )
    if config is not None:
        payload["key_constant"] = config.lacunary.key_constant
    return payload


# ---------------------------------------------------------------------------
# report writing

_REPORT_HEADER = "param,numerator,denominator,ratio,seconds"


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_text(path: str, text: str) -> None:
    """Replace path atomically: readers see the old file or the new one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_row(rep: RatioReport) -> str:
    return (
        f"{_fmt(rep.param)},{_fmt(rep.numerator)},{_fmt(rep.denominator)},"
        f"{_fmt(rep.ratio)},{rep.seconds:.6f}"
    )


def emit_svg_loglog(reports: Sequence[RatioReport], path: str) -> None:
    """Standalone log-log scatter of (param, ratio) with its fitted line.

    Output bytes are a pure function of the report data columns, so repeated
    runs with the same inputs produce identical files.
    """
    if len(reports) < 2:
        raise EmptyInput("an SVG plot needs at least two reports")
    lx = [math.log(rep.param) for rep in reports]
    ly = [math.log(rep.ratio) for rep in reports]
    if len(reports) >= MIN_FIT_POINTS:
        fit = fit_power_law([rep.param for rep in reports], [rep.ratio for rep in reports])
        slope, intercept = fit.slope, fit.intercept
    else:
        slope = (ly[1] - ly[0]) / (lx[1] - lx[0])
        intercept = ly[0] - slope * lx[0]

    width, height, pad = 640.0, 440.0, 60.0
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(v: float) -> float:
        return pad + (v - x_lo) / x_span * (width - 2 * pad)

    def py(v: float) -> float:
        return height - pad - (v - y_lo) / y_span * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{pad:.1f}" y1="{height - pad:.1f}" x2="{width - pad:.1f}" '
        f'y2="{height - pad:.1f}" stroke="black"/>',
        f'<line x1="{pad:.1f}" y1="{pad:.1f}" x2="{pad:.1f}" y2="{height - pad:.1f}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - pad / 3:.1f}" text-anchor="middle" '
        f'font-size="14">ln param</text>',
        f'<text x="{pad / 3:.1f}" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 {pad / 3:.1f} {height / 2:.1f})">ln ratio</text>',
    ]
    fit_y0 = intercept + slope * x_lo
    fit_y1 = intercept + slope * x_hi
    parts.append(
        f'<line x1="{px(x_lo):.2f}" y1="{py(fit_y0):.2f}" x2="{px(x_hi):.2f}" '
        f'y2="{py(fit_y1):.2f}" stroke="steelblue" stroke-width="1.5"/>'
    )
    for vx, vy in zip(lx, ly):
        parts.append(f'<circle cx="{px(vx):.2f}" cy="{py(vy):.2f}" r="4" fill="crimson"/>')
    parts.append(
        f'<text x="{width - pad:.1f}" y="{pad / 1.5:.1f}" text-anchor="end" '
        f'font-size="14">slope={slope:.3f}</text>'
    )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _out_path(resolved: dict, name: str) -> str:
    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_reports(
    name: str,
    command: "Command",
    resolved: dict,
    outcome: Outcome,
    config: ExperimentConfig | None,
    csv_lines: list[str],
    t0: float,
) -> None:
    """The CSV, the optional SVG and the JSON report of one finished run."""
    _write_text(_out_path(resolved, f"{name}.csv"), "\n".join(csv_lines) + "\n")
    if command.plots:
        emit_svg_loglog(outcome.reports, _out_path(resolved, f"{name}.svg"))
    config_payload = _config_payload(resolved, config)
    payload = {
        "config": config_payload,
        "certified_C": 0.0 if config is None else config.lacunary.key_constant,
        "fit": None if outcome.fit is None else outcome.fit._asdict(),
        "pass": outcome.passed,
        "manifest": {
            "subcommand": name,
            "config": config_payload,
            "seed": resolved["seed"],
            "out_dir": resolved["out"],
            "version": __version__,
            "wall_clock_seconds": time.perf_counter() - t0,
        },
    }
    if outcome.extras:
        payload["extras"] = outcome.extras
    _write_json(_out_path(resolved, f"{name}.json"), payload)


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    """One subcommand: its experiment call, summary line, defaults and output shape."""

    #: the experiment, from the resolved keys and the run's configuration
    run: Callable[[dict, ExperimentConfig | None], Outcome]
    summary: Callable[[Outcome, ExperimentConfig | None], str]
    #: parameter defaults that replace the table's for this command (read only)
    defaults: dict = {}
    plots: bool = False
    #: resolved key whose points the pass condition fits a power law over
    fit_over: str | None = None
    #: the deepest witness scale the run evaluates (0 for none), from the
    #: resolved keys and the checked configuration; it raises for a depth
    #: list the run would refuse.  The key constant is certified before the
    #: run over every scale up to it, and up to j_max.  None for a run that
    #: certifies none first: key-estimate, whose output the constant is,
    #: and variation.
    deepest: Callable[[dict, ExperimentConfig], int] | None = lambda resolved, config: 0
    #: False for variation, the one run that reads no ExperimentConfig (its
    #: q may be 2 or less); every other run checks its configuration first
    configured: bool = True


def _reduction_constant(resolved: dict, config: ExperimentConfig) -> Outcome:
    reports, _ = _rows((resolved["nodes"],), lambda n: (n, exp_reduction_constant(n), REDUCTION_TARGET))
    value = reports[0].numerator
    extras = {"value": value, "target": REDUCTION_TARGET}
    return Outcome(abs(value - REDUCTION_TARGET) <= 1e-6, reports, None, extras)


def _key_summary(outcome: Outcome, config: ExperimentConfig | None) -> str:
    a = _fmt(outcome.extras["a"])  # the base as run: :g would print 1.000000001 as 1
    if config is None:
        return f"key-estimate: a={a} C=n/a pass=False ({outcome.extras['reason']})"
    return f"key-estimate: a={a} C={config.lacunary.key_constant:.6g} pass={outcome.passed}"


def _norm_transfer(resolved: dict, config: ExperimentConfig) -> Outcome:
    seed, trials = resolved["seed"], resolved["trials"]
    rows, seconds = norm_transfer_trials(seed, trials, p=config.p, q=config.q, r=config.r_list[0])
    reports = tuple(
        RatioReport(float(trial_seed), integral, sequence, spent)
        for trial_seed, (integral, sequence), spent in zip(
            range(seed, seed + trials), rows[:, 2:4].tolist(), seconds.tolist()
        )
    )
    worst = float(rows[:, 4].max())
    extras = {"trials": trials, "max_rel_discrepancy": worst}
    return Outcome(worst <= TRANSFER_TOLERANCE, reports, None, extras)


def _variation(resolved: dict, config: None) -> Outcome:
    path = resolved["values"]
    if path is None:
        raise BadRange("variation needs a --values file")
    tokens = _read_text(path).replace(",", " ").split()
    if not tokens:
        raise EmptyInput(f"no values found in {path}")
    # numpy converts each token with Python's float; the text and the tokens
    # go before the DP runs, so peak memory is the larger of parse and DP
    try:
        values = np.array(tokens, dtype=float)
    except ValueError as exc:
        raise BadRange(f"{path}: {exc}") from None
    del tokens
    try:
        certificate = qvariation(values, resolved["q"])
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: {exc}") from None
    return Outcome(True, (), None, {"value": certificate.value, "subsequence": certificate.subsequence})


def _slope_summary(
    name: str, target: Callable[[ExperimentConfig], float]
) -> Callable[[Outcome, ExperimentConfig], str]:
    return lambda o, config: (
        f"{name}: slope={o.fit.slope:.3f} target={target(config):.3f} pass={o.passed}"
    )


def _deepest_j1(resolved: dict, config: ExperimentConfig) -> int:
    return max(_validated_j1_list(resolved["j1_list"]))


_COMMANDS: dict[str, Command] = {
    "reduction-constant": Command(_reduction_constant, lambda o, _: f"{o.extras['value']:.12g}"),
    "key-estimate": Command(
        lambda r, _: exp_key_estimate(r["a"], r["kmin"], r["j0"], r["j_max"]),
        _key_summary,
        deepest=None,
    ),
    "linf-blowup": Command(
        lambda r, config: exp_linf_blowup(config, r["j1_list"]),
        _slope_summary("linf-blowup", lambda c: 1.0 / c.q),
        plots=True,
        fit_over="j1_list",
        deepest=_deepest_j1,
    ),
    "lr-growth": Command(
        lambda r, config: exp_lr_growth(config),
        _slope_summary("lr-growth", lambda c: 1.0 / c.q),
        plots=True,
        fit_over="r_list",
        deepest=lambda r, config: _lr_depth(config.r_list[-1], r["j0"]),
    ),
    "hilbert-growth": Command(
        lambda r, config: exp_hilbert_growth(config),
        _slope_summary("hilbert-growth", lambda c: 1.0),
        defaults={"r_list": HILBERT_R_LIST},
        plots=True,
        fit_over="r_list",
    ),
    "norm-transfer": Command(
        _norm_transfer,
        lambda o, _: (
            f"norm-transfer: trials={o.extras['trials']} "
            f"worst={o.extras['max_rel_discrepancy']:.3e} pass={o.passed}"
        ),
    ),
    "maximal-contrast": Command(
        lambda r, config: exp_maximal_contrast(config, r["j1_list"]),
        lambda o, _: (
            f"maximal-contrast: spread={o.extras['maximal_spread']:.3f} "
            f"growth={o.extras['variation_growth']:.2f} pass={o.passed}"
        ),
        plots=True,
        deepest=_deepest_j1,
    ),
    "variation": Command(
        _variation,
        lambda o, _: f"{o.extras['value']:.12g}\n" + " ".join(str(i) for i in o.extras["subsequence"]),
        deepest=None,
        configured=False,
    ),
}

SUBCOMMANDS = tuple(_COMMANDS)


def run(argv: Sequence[str]) -> int:
    """Parse arguments, run the subcommand, and map outcomes to exit codes."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    t0 = time.perf_counter()
    command = _COMMANDS[args.subcommand]
    try:
        resolved = _resolve(args, command)
        # the configuration, and the depth list, are checked first, with a
        # stand-in witness, so no key table is built for a run that cannot
        # go ahead; D_j reads the scales j, j + 1
        config = _experiment_config(resolved, _STAND_IN) if command.configured else None
        if command.deepest is not None:
            j_max = max(resolved["j_max"], command.deepest(resolved, config) - 1)
            _, key_constant = certified_key_table(resolved["a"], resolved["kmin"], resolved["j0"], j_max)
            config = replace(config, lacunary=_witness(resolved, key_constant))
        outcome = command.run(resolved, config)
        if outcome.table is not None:
            # key-estimate: its D_j table is the CSV, and a nonempty table
            # certifies the witness that the report and, when the run
            # passes, the parameter cache record
            config = None
            if outcome.table:
                key_constant = _certified_constant(outcome.table, resolved["j0"])
                config = _experiment_config(resolved, _witness(resolved, key_constant))
            csv_lines = ["j,D_j", *(f"{j},{_fmt(d)}" for j, d in enumerate(outcome.table))]
            _write_reports(args.subcommand, command, resolved, outcome, config, csv_lines, t0)
            cache = os.environ.get(_CACHE_ENV)
            if cache and outcome.passed:
                _write_json(cache, asdict(config.lacunary))
        elif outcome.reports:
            csv_lines = [_REPORT_HEADER, *map(_report_row, outcome.reports)]
            _write_reports(args.subcommand, command, resolved, outcome, config, csv_lines, t0)
        try:
            print(command.summary(outcome, config), flush=True)
        except BrokenPipeError:
            # the reader closed stdout early (`| head`): that ends the output,
            # not the run, so say nothing and point stdout at devnull, where
            # the interpreter's final flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except VarlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0 if outcome.passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
