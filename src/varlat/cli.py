"""Command-line front end.

Eight subcommands map one-to-one onto the experiment operations, through one
command table.  Every experiment run writes a CSV of rows, a JSON report
validating against REPORT_SCHEMA with the run manifest echoed inside, and
(when a growth fit exists) a log-log SVG.  Exit status: 0 when the run
passed, 1 when an experiment ran but failed its certification, 2 for usage,
configuration or input errors.

Parameter precedence, highest first: explicit flags, then a key=value config
file, then the searched-parameter cache named by VARLAT_CACHE, then built-in
defaults (the default r-list depends on the subcommand).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from . import __version__
from .corefn import GrowthFit, fit_power_law
from .errors import BadRange, EmptyInput, TruncationTooShallow, VarlatError
from .experiments import (
    REDUCTION_TARGET,
    TRANSFER_TOLERANCE,
    ExperimentConfig,
    GridSpec,
    RatioReport,
    default_lacunary,
    exp_hilbert_growth,
    exp_key_estimate,
    exp_linf_blowup,
    exp_lr_growth,
    exp_maximal_contrast,
    exp_norm_transfer,
    exp_reduction_constant,
)
from .variation import qvariation
from .witnesses import LacunaryParams, key_estimate_table

__all__ = ["run", "main", "RunManifest", "REPORT_SCHEMA", "emit_svg_loglog", "SUBCOMMANDS"]

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


@dataclass(frozen=True)
class RunManifest:
    """Provenance block echoed verbatim into every JSON report."""

    subcommand: str
    config: dict
    seed: int
    out_dir: str
    version: str
    wall_clock_seconds: float


# ---------------------------------------------------------------------------
# argument parsing and layered resolution

_CACHE_ENV = "VARLAT_CACHE"

_KINDS: dict[str, type] = {
    **dict.fromkeys(("kmin", "j0", "grid_points", "log_per_decade", "seed", "nodes", "trials", "j_max"), int),
    **dict.fromkeys(("p", "q", "a"), float),
    "r_list": float,
    "j1_list": int,
}

#: Built-in defaults shared by every subcommand; the r-list comes from the
#: command table.  None marks a value filled in from the cache or from
#: default_lacunary() (a, kmin, j0) or from j0 (j1_list).
_DEFAULTS: dict = {
    "p": 2.0,
    "q": 3.0,
    "a": None,
    "kmin": None,
    "j0": None,
    "j1_list": None,
    "grid_points": 1501,
    "log_per_decade": 32,
    "seed": 0,
    "nodes": 2048,
    "trials": 100,
    "j_max": 30,
    "out": ".",
}

#: Points a power-law fit needs before its slope means anything.
_MIN_FIT_POINTS = 3


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="varlat", description=__doc__)
    top.add_argument("--version", action="version", version=f"varlat {__version__}")
    subs = top.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="key=value file, one pair per line")
        sub.add_argument("--p", type=float)
        sub.add_argument("--q", type=float)
        sub.add_argument("--a", type=float)
        sub.add_argument("--kmin", type=int)
        sub.add_argument("--j0", type=int)
        sub.add_argument("--r-list", dest="r_list", help="comma-separated exponents")
        sub.add_argument("--j1-list", dest="j1_list", help="comma-separated depths")
        sub.add_argument("--grid-points", dest="grid_points", type=int)
        sub.add_argument("--log-per-decade", dest="log_per_decade", type=int)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out")
        sub.add_argument("--nodes", type=int)
        if name == "norm-transfer":
            sub.add_argument("--trials", type=int)
        if name == "key-estimate":
            sub.add_argument("--j-max", dest="j_max", type=int)
        if name == "variation":
            sub.add_argument("--values", required=True, help="file of comma/space separated values")
    return top


def _numbers(kind: type, tokens: Sequence[str], where: str) -> list:
    try:
        return [kind(tok) for tok in tokens]
    except ValueError as exc:
        raise BadRange(f"{where}: {exc}") from None


def _parse_value(key: str, raw: str, where: str):
    """Convert one raw flag or config value to its key's type."""
    if key == "out":
        return raw
    kind = _KINDS.get(key)
    if kind is None:
        raise BadRange(f"{where}: unknown configuration key {key!r}")
    if not key.endswith("_list"):
        return _numbers(kind, [raw], where)[0]
    values = tuple(_numbers(kind, [tok for tok in raw.split(",") if tok], where))
    if not values:
        raise BadRange(f"{where}: {key} is empty")
    return values


def _cache_overlay(resolved: dict) -> None:
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
    for src, dst, kinds in (("a", "a", (int, float)), ("k_min", "kmin", int), ("j0", "j0", int)):
        if src not in data:
            continue
        value = data[src]
        if isinstance(value, bool) or not isinstance(value, kinds):
            noun = "an integer" if kinds is int else "a number"
            raise BadRange(f"{_CACHE_ENV} file {path}: {src} must be {noun}, got {value!r}")
        resolved[dst] = value


def _config_file_overlay(resolved: dict, path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise BadRange(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            key = key.replace("-", "_")
            resolved[key] = _parse_value(key, raw, f"{path}:{lineno}")


def _flag_overlay(resolved: dict, args: argparse.Namespace) -> None:
    for key, value in vars(args).items():
        if value is None or key in ("subcommand", "config"):
            continue
        if key.endswith("_list"):
            value = _parse_value(key, value, "--" + key.replace("_", "-"))
        resolved[key] = value


def _resolve(args: argparse.Namespace, command: "Command") -> dict:
    """Layer the parameter sources and reject values no run can use."""
    resolved = {**_DEFAULTS, "r_list": command.r_list}
    _cache_overlay(resolved)
    if args.config:
        _config_file_overlay(resolved, args.config)
    _flag_overlay(resolved, args)
    if None in (resolved["a"], resolved["kmin"], resolved["j0"]):
        base = default_lacunary()
        for key, value in (("a", base.a), ("kmin", base.k_min), ("j0", base.j0)):
            if resolved[key] is None:
                resolved[key] = value
    if resolved["j1_list"] is None:
        resolved["j1_list"] = tuple(int(resolved["j0"]) + gap for gap in (4, 8, 16, 32, 64))

    if resolved["trials"] < 1:
        raise BadRange(f"trials must be at least 1, got {resolved['trials']}")
    if resolved["seed"] < 0:
        raise BadRange(f"seed must be nonnegative, got {resolved['seed']}")
    if command.fit_over is not None and len(resolved[command.fit_over]) < _MIN_FIT_POINTS:
        flag = "--" + command.fit_over.replace("_", "-")
        raise BadRange(
            f"{args.subcommand} fits a power law and needs at least {_MIN_FIT_POINTS} "
            f"{flag} points, got {len(resolved[command.fit_over])}"
        )
    return resolved


def _certified_constant(resolved: dict) -> float:
    table = key_estimate_table(resolved["a"], resolved["kmin"], max(resolved["j_max"], resolved["j0"]))
    return float(min(table[resolved["j0"] :]))


def _experiment_config(resolved: dict) -> ExperimentConfig:
    lac = LacunaryParams(
        a=float(resolved["a"]),
        k_min=int(resolved["kmin"]),
        j0=int(resolved["j0"]),
        key_constant=_certified_constant(resolved),
    )
    grid = GridSpec(
        lin_points=int(resolved["grid_points"]),
        log_points_per_decade=int(resolved["log_per_decade"]),
    )
    return ExperimentConfig(
        p=float(resolved["p"]),
        q=float(resolved["q"]),
        lacunary=lac,
        grid=grid,
        r_list=tuple(resolved["r_list"]),
    )


def _config_payload(resolved: dict, config: ExperimentConfig | None) -> dict:
    payload = {
        "p": resolved["p"],
        "q": resolved["q"],
        "a": resolved["a"],
        "k_min": resolved["kmin"],
        "j0": resolved["j0"],
        "r_list": list(resolved["r_list"]),
        "j1_list": list(resolved["j1_list"]),
        "grid": {
            "lin_points": resolved["grid_points"],
            "log_points_per_decade": resolved["log_per_decade"],
        },
        "seed": resolved["seed"],
        "nodes": resolved["nodes"],
        "trials": resolved["trials"],
        "j_max": resolved["j_max"],
    }
    if config is not None:
        payload["key_constant"] = config.lacunary.key_constant
        payload["grid"]["x_min"] = config.grid.x_min
        payload["grid"]["x_max"] = config.grid.x_max
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
    if len(reports) >= 3:
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


def _write_reports(name: str, command: "Command", resolved: dict, outcome: "Outcome", t0: float) -> None:
    """The CSV, the optional SVG and the JSON report of one finished run."""
    header, rows = outcome.csv or (_REPORT_HEADER, [_report_row(rep) for rep in outcome.reports])
    _write_text(_out_path(resolved, f"{name}.csv"), "\n".join([header, *rows]) + "\n")
    if command.plots:
        emit_svg_loglog(outcome.reports, _out_path(resolved, f"{name}.svg"))
    config = outcome.config
    manifest = RunManifest(
        subcommand=name,
        config=_config_payload(resolved, config),
        seed=int(resolved["seed"]),
        out_dir=str(resolved["out"]),
        version=__version__,
        wall_clock_seconds=time.perf_counter() - t0,
    )
    payload = {
        "config": manifest.config,
        "certified_C": config.lacunary.key_constant if outcome.certified_c is None else outcome.certified_c,
        "fit": None if outcome.fit is None else asdict(outcome.fit),
        "pass": outcome.passed,
        "manifest": asdict(manifest),
    }
    if outcome.extras:
        payload["extras"] = outcome.extras
    _write_json(_out_path(resolved, f"{name}.json"), payload)


# ---------------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Outcome:
    """One finished run, in the shape the writers and summaries take."""

    passed: bool
    reports: Sequence[RatioReport] = ()
    fit: GrowthFit | None = None
    extras: dict = field(default_factory=dict)
    config: ExperimentConfig | None = None
    #: the JSON report's certified_C; None means the config's key constant
    certified_c: float | None = None
    #: CSV header and rows, when they are not the report rows
    csv: tuple[str, Sequence[str]] | None = None
    #: parameters a passing run records in the VARLAT_CACHE file
    cache: dict | None = None


@dataclass(frozen=True)
class Command:
    """One subcommand: its experiment call, defaults and output shape."""

    run: Callable[[dict], Outcome]
    summary: Callable[[Outcome], str]
    r_list: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0)
    plots: bool = False
    #: resolved key whose points the pass condition fits a power law over
    fit_over: str | None = None
    #: whether the run writes CSV and JSON reports
    writes_reports: bool = True


def _reduction_constant(resolved: dict) -> Outcome:
    config = _experiment_config(resolved)
    nodes = int(resolved["nodes"])
    value = exp_reduction_constant(nodes)
    report = RatioReport(float(nodes), value, REDUCTION_TARGET, value / REDUCTION_TARGET, 0.0)
    return Outcome(
        abs(value - REDUCTION_TARGET) <= 1e-6,
        [report],
        extras={"value": value, "target": REDUCTION_TARGET},
        config=config,
    )


def _key_estimate(resolved: dict) -> Outcome:
    # the certified constant is this subcommand's output, not its input: an
    # inadmissible truncation is a reportable FAIL here, not a usage error
    try:
        config = _experiment_config(resolved)
    except TruncationTooShallow as exc:
        return Outcome(
            False,
            extras={"a": resolved["a"], "j0": resolved["j0"], "reason": str(exc)},
            certified_c=0.0,
            csv=("j,D_j", []),
        )
    result = exp_key_estimate(config, int(resolved["j_max"]))
    return Outcome(
        result.passed,
        extras={"a": result.a, "j0": result.j0, "reason": result.reason},
        config=config,
        certified_c=result.certified_c,
        csv=("j,D_j", [f"{j},{_fmt(d)}" for j, d in enumerate(result.table)]),
        cache={
            "a": result.a,
            "k_min": config.lacunary.k_min,
            "j0": result.j0,
            "key_constant": result.certified_c,
        },
    )


def _key_summary(outcome: Outcome) -> str:
    a = outcome.extras["a"]
    if outcome.config is None:
        return f"key-estimate: a={a:g} C=n/a pass=False ({outcome.extras['reason']})"
    return f"key-estimate: a={a:g} C={outcome.certified_c:.6g} pass={outcome.passed}"


def _linf_blowup(resolved: dict) -> Outcome:
    config = _experiment_config(resolved)
    result = exp_linf_blowup(config, resolved["j1_list"])
    extras = {"denominator_target": result.denominator_target}
    return Outcome(result.passed, result.reports, result.fit, extras, config)


def _maximal_contrast(resolved: dict) -> Outcome:
    config = _experiment_config(resolved)
    result = exp_maximal_contrast(config, resolved["j1_list"])
    variation_fit = None
    if len(result.pairs) >= _MIN_FIT_POINTS:
        variation_fit = fit_power_law(
            [pair.j1 - config.lacunary.j0 for pair in result.pairs],
            [pair.variation_ratio for pair in result.pairs],
        )
    extras = {
        "variation_growth": result.variation_growth,
        "maximal_spread": result.maximal_spread,
        "pairs": [asdict(pair) for pair in result.pairs],
    }
    return Outcome(result.passed, result.reports, variation_fit, extras, config)


def _lr_growth(resolved: dict) -> Outcome:
    config = _experiment_config(resolved)
    result = exp_lr_growth(config)
    extras = {"delta_radius": result.delta_radius, "bounds": list(result.bound_values)}
    return Outcome(result.passed, result.reports, result.fit, extras, config)


def _hilbert_growth(resolved: dict) -> Outcome:
    config = _experiment_config(resolved)
    result = exp_hilbert_growth(config)
    extras = {"bounds": list(result.bound_values)}
    return Outcome(result.passed, result.reports, result.fit, extras, config)


def _norm_transfer(resolved: dict) -> Outcome:
    config = _experiment_config(resolved)
    seed = int(resolved["seed"])
    trials = int(resolved["trials"])
    reports = []
    worst = 0.0
    for trial_seed in range(seed, seed + trials):
        trial_start = time.perf_counter()
        result = exp_norm_transfer(trial_seed, p=config.p, q=config.q, r=config.r_list[0])
        worst = max(worst, result.max_rel_discrepancy)
        reports.append(
            RatioReport(
                float(trial_seed),
                result.variation_integral,
                result.variation_sequence,
                result.variation_integral / result.variation_sequence,
                time.perf_counter() - trial_start,
            )
        )
    extras = {"trials": trials, "max_rel_discrepancy": worst}
    return Outcome(worst <= TRANSFER_TOLERANCE, reports, extras=extras, config=config)


def _variation(resolved: dict) -> Outcome:
    path = resolved["values"]
    with open(path, "r", encoding="utf-8") as fh:
        tokens = [tok for tok in re.split(r"[,\s]+", fh.read().strip()) if tok]
    if not tokens:
        raise EmptyInput(f"no values found in {path}")
    certificate = qvariation(_numbers(float, tokens, path), float(resolved["q"]))
    return Outcome(True, extras={"value": certificate.value, "subsequence": certificate.subsequence})


def _slope_summary(name: str, target: Callable[[ExperimentConfig], float]) -> Callable[[Outcome], str]:
    return lambda o: (
        f"{name}: slope={o.fit.slope:.3f} target={target(o.config):.3f} pass={o.passed}"
    )


_COMMANDS: dict[str, Command] = {
    "reduction-constant": Command(_reduction_constant, lambda o: f"{o.extras['value']:.12g}"),
    "key-estimate": Command(_key_estimate, _key_summary),
    "linf-blowup": Command(
        _linf_blowup,
        _slope_summary("linf-blowup", lambda c: 1.0 / c.q),
        plots=True,
        fit_over="j1_list",
    ),
    "lr-growth": Command(
        _lr_growth,
        _slope_summary("lr-growth", lambda c: 1.0 / c.q),
        plots=True,
        fit_over="r_list",
    ),
    "hilbert-growth": Command(
        _hilbert_growth,
        _slope_summary("hilbert-growth", lambda c: 1.0),
        r_list=(8.0, 16.0, 32.0, 64.0),
        plots=True,
        fit_over="r_list",
    ),
    "norm-transfer": Command(
        _norm_transfer,
        lambda o: (
            f"norm-transfer: trials={o.extras['trials']} "
            f"worst={o.extras['max_rel_discrepancy']:.3e} pass={o.passed}"
        ),
    ),
    "maximal-contrast": Command(
        _maximal_contrast,
        lambda o: (
            f"maximal-contrast: spread={o.extras['maximal_spread']:.3f} "
            f"growth={o.extras['variation_growth']:.2f} pass={o.passed}"
        ),
        plots=True,
    ),
    "variation": Command(
        _variation,
        lambda o: f"{o.extras['value']:.12g}\n" + " ".join(str(i) for i in o.extras["subsequence"]),
        writes_reports=False,
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
        outcome = command.run(resolved)
        if command.writes_reports:
            _write_reports(args.subcommand, command, resolved, outcome, t0)
        cache = os.environ.get(_CACHE_ENV)
        if cache and outcome.passed and outcome.cache is not None:
            _write_json(cache, outcome.cache)
        print(command.summary(outcome))
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
