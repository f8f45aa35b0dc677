"""Desk-scale experiments certifying variation blow-up lower bounds.

Every experiment reports a ratio numerator/denominator in which the numerator
is a Bochner norm of a variation (or maximal) profile and the denominator is
the corresponding norm of the plain witness data.  All reported ratios are
certified lower bounds: wherever a pipeline restricts a sup, an integration
window, or a grid, the restriction can only shrink the numerator, and the one
closed-form denominator in use is an upper bound for its exact counterpart.

The key restriction, used by the sup-norm and power-sum experiments: the
variation profile of the lacunary witness is evaluated only on the core
window |u| <= a^-(j1+1) around the origin and treated as zero outside.  On
the bulk of the support the heat family simply marches to the function value,
contributing an O(1) variation that is flat in j1 and would mask the growth;
the core window is where the oscillation across scales lives, and dropping
the bulk keeps the reported ratio a certified lower bound while exposing the
(j1 - j0)^(1/q) growth.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .corefn import (
    GrowthFit,
    SampleGrid,
    ScalarProfile,
    fit_power_law,
    integral_norm,
    make_grid,
    make_profile,
    make_pcf,
    make_vector_field,
    bochner_norm,
    pcf_eval_many,
    sequence_norm,
    sliding_power_sum,
    sliding_sup,
    trapezoid_weights,
)
from .errors import (
    BadRange,
    InvalidQ,
    LengthMismatch,
    NonFiniteValue,
    TruncationTooShallow,
)
from .operators import (
    OperatorFamily,
    gauss_legendre_integrate,
)
from .variation import (
    RadiusSet,
    maximal_profile,
    variation_profile,
    vector_variation_field,
)
from .witnesses import (
    KEY_THRESHOLD,
    LacunaryParams,
    _require_admissible,
    geometric_radius_set,
    delta_halving_radius,
    key_estimate_table,
    lacunary_sign,
)

__all__ = [
    "GridSpec",
    "ExperimentConfig",
    "RatioReport",
    "KeyEstimateResult",
    "BlowupResult",
    "ContrastPair",
    "MaximalContrastResult",
    "LrGrowthResult",
    "HilbertGrowthResult",
    "NormTransferResult",
    "default_lacunary",
    "exp_reduction_constant",
    "exp_key_estimate",
    "exp_linf_blowup",
    "exp_maximal_contrast",
    "exp_lr_growth",
    "exp_hilbert_growth",
    "exp_norm_transfer",
    "norm_transfer_pair",
    "hilbert_inner_norm",
]

# desk-scale caps; beyond these the runs stop being interactive
MAX_POWER_EXPONENT = 64.0
MAX_J1_FACTOR = 256
MAX_GRID_POINTS = 200_000

# pass thresholds, fixed by the acceptance contract
SLOPE_TOLERANCE = 0.15
LINF_R_SQUARED_FLOOR = 0.98
LR_R_SQUARED_FLOOR = 0.95
DENOMINATOR_TOLERANCE = 0.01
HILBERT_SLOPE_WINDOW = (0.9, 1.1)
CONTRAST_SPREAD_LIMIT = 0.25
CONTRAST_GROWTH_FLOOR = 2.0
TRANSFER_TOLERANCE = 1e-10

#: The subordination weight integrates to exactly 1/2 on [0, infinity).
REDUCTION_TARGET = 0.5


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class GridSpec:
    """Resolution knobs shared by the experiment grids.

    lin_points controls linear coverage of the witness support; the
    per-decade count controls every logarithmic refinement (near the origin,
    and near 0/1 for the singular-integral grids).
    """

    x_min: float = -1.1
    x_max: float = 2.1
    lin_points: int = 1501
    log_points_per_decade: int = 32

    def __post_init__(self) -> None:
        if not (self.x_min < 0.0 < 1.0 < self.x_max):
            raise BadRange("grid range must contain [0, 1] strictly")
        if self.lin_points < 64:
            raise BadRange("need at least 64 linear grid points")
        if self.lin_points > MAX_GRID_POINTS:
            raise BadRange(f"linear grid capped at {MAX_GRID_POINTS} points")
        if self.log_points_per_decade < 4:
            raise BadRange("need at least 4 log points per decade")

    def doubled(self) -> "GridSpec":
        """The same grid at twice the resolution, for stability checks."""
        return replace(
            self,
            lin_points=2 * self.lin_points - 1,
            log_points_per_decade=2 * self.log_points_per_decade,
        )


@lru_cache(maxsize=8)
def default_lacunary() -> LacunaryParams:
    """Base-2 witness parameters with the certified key constant baked in.

    Base 2 with j0 = 2 is the configuration whose power-sum window factor
    works out cleanly, so it is the default even though wider bases certify
    larger key constants.
    """
    table = key_estimate_table(2.0, -120, 30)
    return LacunaryParams(a=2.0, k_min=-120, j0=2, key_constant=float(min(table[2:])))


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters; frozen and hashable so runs can cache."""

    p: float = 2.0
    q: float = 3.0
    lacunary: LacunaryParams = field(default_factory=default_lacunary)
    grid: GridSpec = field(default_factory=GridSpec)
    r_list: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0)

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise BadRange("outer exponent must satisfy p > 1")
        if not self.q > 2:
            raise InvalidQ("experiments run under the standing hypothesis q > 2")
        rl = tuple(float(r) for r in self.r_list)
        if any(not 1.0 < r <= MAX_POWER_EXPONENT for r in rl):
            raise BadRange(f"power exponents must lie in (1, {MAX_POWER_EXPONENT}]")
        if any(b <= a for a, b in zip(rl, rl[1:])):
            raise BadRange("r_list must be strictly increasing")
        object.__setattr__(self, "r_list", rl)


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class RatioReport:
    """One experiment row: parameter, the two norms, their ratio, wall time."""

    param: float
    numerator: float
    denominator: float
    ratio: float
    seconds: float


def _make_report(param: float, numerator: float, denominator: float, seconds: float) -> RatioReport:
    for name, value in (("numerator", numerator), ("denominator", denominator)):
        if not math.isfinite(value) or value <= 0:
            raise NonFiniteValue(f"{name} must be finite and positive, got {value}")
    return RatioReport(float(param), numerator, denominator, numerator / denominator, seconds)


@dataclass(frozen=True)
class KeyEstimateResult:
    a: float
    j0: int
    table: tuple[float, ...]
    certified_c: float
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class BlowupResult:
    reports: tuple[RatioReport, ...]
    fit: GrowthFit | None
    denominator_target: float
    passed: bool


@dataclass(frozen=True)
class ContrastPair:
    j1: int
    variation_ratio: float
    maximal_ratio: float


@dataclass(frozen=True)
class MaximalContrastResult:
    pairs: tuple[ContrastPair, ...]
    reports: tuple[RatioReport, ...]  # the maximal-operator rows
    variation_growth: float
    maximal_spread: float
    passed: bool


@dataclass(frozen=True)
class LrGrowthResult:
    reports: tuple[RatioReport, ...]
    fit: GrowthFit | None
    delta_radius: float
    bound_values: tuple[float, ...]
    passed: bool


@dataclass(frozen=True)
class HilbertGrowthResult:
    reports: tuple[RatioReport, ...]
    fit: GrowthFit | None
    bound_values: tuple[float, ...]
    passed: bool


@dataclass(frozen=True)
class NormTransferResult:
    plain_integral: float
    plain_sequence: float
    variation_integral: float
    variation_sequence: float
    max_rel_discrepancy: float


# ---------------------------------------------------------------------------
# small shared helpers


def _map_ordered(task: Callable, params: Sequence) -> list:
    # numpy and scipy release the GIL inside their array kernels, so the rows
    # overlap on one thread per CPU
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        return list(pool.map(task, params))


def _masked_p_norm(grid: SampleGrid, values: np.ndarray, mask: np.ndarray, p: float) -> float:
    v = np.abs(values[mask])
    if p == math.inf:
        return float(v.max()) if v.size else 0.0
    w = grid.weights_array[mask]
    return float((w @ v**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# reduction constant


def exp_reduction_constant(quad_nodes: int = 2048) -> float:
    """Quadrature of the subordination mass (t^2/2) (4 pi)^(-1/2) e^(-t^2/4).

    Converges to exactly 1/2; the distance from 1/2 measures quadrature
    quality, not modelling error.
    """
    if quad_nodes < 64:
        raise BadRange("reduction constant needs at least 64 quadrature nodes")

    def integrand(t: np.ndarray) -> np.ndarray:
        return (t * t / 2.0) / math.sqrt(4.0 * math.pi) * np.exp(-t * t / 4.0)

    return gauss_legendre_integrate(integrand, 0.0, 20.0, quad_nodes)


# ---------------------------------------------------------------------------
# key estimate


def exp_key_estimate(config: ExperimentConfig, j_max: int = 30) -> KeyEstimateResult:
    """Tabulate D_j at the origin and certify its minimum over [j0, j_max].

    A base whose truncation cannot support the table (tail pollution above
    tolerance) is reported as a failure rather than raised: the experiment's
    job is to say whether the configuration certifies, and such a base does
    not.
    """
    lac = config.lacunary
    if j_max < lac.j0:
        raise BadRange("j_max must reach at least j0")
    try:
        table = key_estimate_table(lac.a, lac.k_min, j_max)
    except TruncationTooShallow as exc:
        return KeyEstimateResult(lac.a, lac.j0, (), 0.0, False, reason=str(exc))
    certified = float(min(table[lac.j0 :]))
    passed = certified >= KEY_THRESHOLD
    reason = "" if passed else f"certified constant {certified:.3e} below {KEY_THRESHOLD:.0e}"
    return KeyEstimateResult(lac.a, lac.j0, table, certified, passed, reason)


# ---------------------------------------------------------------------------
# witness profiles shared by the blow-up experiments


def _core_window(lac: LacunaryParams, j1: int) -> float:
    return lac.a ** (-(j1 + 1.0))


@lru_cache(maxsize=128)
def _profile_bundle(
    config: ExperimentConfig, j1: int, min_scale: float | None = None
) -> tuple[SampleGrid, ScalarProfile, ScalarProfile]:
    """Variation and maximal profiles of the witness on the union grid.

    The grid is the union of a logarithmic core around the origin (within the
    window a^-(j1+1), resolved down to min_scale, default a^-(j1+4)) and a
    linear cover of the unit interval used for the outer integration.  The
    profiles are computed honestly on the core points and set to zero on the
    bulk; see the module docstring for why that restriction is the certified
    one.
    """
    lac = config.lacunary
    if j1 <= lac.j0:
        raise BadRange("deepest scale index must exceed j0")
    if j1 > MAX_J1_FACTOR * lac.j0:
        raise BadRange(f"j1 capped at {MAX_J1_FACTOR} * j0")
    _require_admissible(lac.a, lac.k_min, j1)
    window = _core_window(lac, j1)
    floor = lac.a ** (-(j1 + 4.0)) if min_scale is None else float(min_scale)
    if not 0.0 < floor < window:
        raise BadRange("innermost core scale must sit inside the core window")

    # the log ladder continues past the window so the quadrature resolves the
    # drop to zero there; a bare jump from the window edge to the linear bulk
    # would hand the edge value a bulk-sized trapezoid weight
    top = max(0.1, window * lac.a ** 2)
    decades = math.log10(top / floor)
    n_log = max(8, int(math.ceil(decades * config.grid.log_points_per_decade)))
    ladder = np.geomspace(floor, top, n_log)
    n_x = max(65, config.grid.lin_points // 3)
    xs = np.linspace(0.0, 1.0, n_x)
    points = np.unique(np.concatenate((-ladder, [0.0], ladder, xs)))
    if points.size > MAX_GRID_POINTS:
        raise BadRange(f"profile grid capped at {MAX_GRID_POINTS} points")

    # the strip (-floor, floor) is unresolved; give it zero quadrature weight
    # instead of letting the trapezoid rule bridge it with the origin value,
    # so every windowed integral counts resolved area only (and excluding
    # inner scales can only lower it, never raise it)
    weights = trapezoid_weights(points)
    i0 = int(np.searchsorted(points, 0.0))
    weights[i0] = 0.0
    weights[i0 - 1] = (points[i0 - 1] - points[i0 - 2]) / 2.0
    weights[i0 + 1] = (points[i0 + 2] - points[i0 + 1]) / 2.0
    grid = make_grid(points, weights)

    core_mask = np.abs(points) <= window
    core_grid = make_grid(points[core_mask])
    J = geometric_radius_set(lac.a, lac.j0, j1)
    witness = lacunary_sign(lac.a, lac.k_min)
    var_core = variation_profile(witness, OperatorFamily.HEAT, J, core_grid, config.q)
    max_core = maximal_profile(witness, OperatorFamily.HEAT, J, core_grid)

    var_vals = np.zeros(points.size)
    var_vals[core_mask] = var_core.values_array
    max_vals = np.zeros(points.size)
    max_vals[core_mask] = max_core.values_array
    return grid, make_profile(grid, var_vals), make_profile(grid, max_vals)


@lru_cache(maxsize=32)
def _denominator_profile(config: ExperimentConfig) -> tuple[SampleGrid, ScalarProfile]:
    """|G| sampled on the linear denominator grid."""
    gs = config.grid
    pts = np.linspace(gs.x_min, gs.x_max, gs.lin_points)
    grid = make_grid(pts)
    witness = lacunary_sign(config.lacunary.a, config.lacunary.k_min)
    return grid, make_profile(grid, np.abs(pcf_eval_many(witness, pts)))


@lru_cache(maxsize=32)
def _sup_denominator(config: ExperimentConfig) -> float:
    grid, prof = _denominator_profile(config)
    swept = sliding_sup(prof, 1.0)
    return _masked_p_norm(grid, swept.values_array, np.ones(len(grid), bool), config.p)


@lru_cache(maxsize=64)
def _power_denominator(config: ExperimentConfig, r: float) -> float:
    grid, prof = _denominator_profile(config)
    swept = sliding_power_sum(prof, 1.0, r)
    return _masked_p_norm(grid, swept.values_array, np.ones(len(grid), bool), config.p)


def _unit_mask(grid: SampleGrid) -> np.ndarray:
    pts = grid.points_array
    return (pts >= 0.0) & (pts <= 1.0)


def _blowup_numerators(config: ExperimentConfig, j1: int) -> tuple[float, float]:
    """Sup-window numerators (variation, maximal) for one depth j1."""
    grid, var_prof, max_prof = _profile_bundle(config, j1)
    mask = _unit_mask(grid)
    num_var = _masked_p_norm(grid, sliding_sup(var_prof, 1.0).values_array, mask, config.p)
    num_max = _masked_p_norm(grid, sliding_sup(max_prof, 1.0).values_array, mask, config.p)
    return num_var, num_max


def _validated_j1_list(config: ExperimentConfig, j1_list: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(j) for j in j1_list)
    if len(out) < 2:
        raise BadRange("need at least two depths to report growth")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise BadRange("j1 list must be strictly increasing")
    return out


def exp_linf_blowup(config: ExperimentConfig, j1_list: Sequence[int]) -> BlowupResult:
    """Sup-norm variation ratio against depth.

    numerator: L^p over the unit interval of the radius-1 sliding sup of the
    core variation profile of the witness under the heat family with scales
    a^(-2j), j0 <= j <= j1.  denominator: the same pipeline on |G| itself
    (its value is 3^(1/p) up to grid and truncation effects).  The ratio must
    grow like (j1 - j0)^(1/q).
    """
    depths = _validated_j1_list(config, j1_list)

    def task(j1: int) -> RatioReport:
        t0 = time.perf_counter()
        num, _ = _blowup_numerators(config, j1)
        den = _sup_denominator(config)
        # param is the active-scale count j1 - j0: the growth law's abscissa,
        # so downstream plots fit the same quantity this function reports.
        return _make_report(j1 - config.lacunary.j0, num, den, time.perf_counter() - t0)

    reports = tuple(_map_ordered(task, depths))
    ratios = [rep.ratio for rep in reports]
    fit = None
    if len(reports) >= 3:
        fit = fit_power_law([j1 - config.lacunary.j0 for j1 in depths], ratios)
    target = 3.0 ** (1.0 / config.p)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    den_ok = abs(reports[0].denominator / target - 1.0) <= DENOMINATOR_TOLERANCE
    slope_ok = fit is not None and abs(fit.slope - 1.0 / config.q) <= SLOPE_TOLERANCE
    r2_ok = fit is not None and fit.r_squared >= LINF_R_SQUARED_FLOOR
    return BlowupResult(reports, fit, target, increasing and den_ok and slope_ok and r2_ok)


def exp_maximal_contrast(config: ExperimentConfig, j1_list: Sequence[int]) -> MaximalContrastResult:
    """Same pipeline with the maximal operator in place of the variation.

    The variation ratios are shared bit for bit with exp_linf_blowup (same
    cached profiles, same denominator); the point of the contrast is that the
    maximal ratio stays flat while the variation ratio grows.
    """
    depths = _validated_j1_list(config, j1_list)

    def task(j1: int) -> tuple[ContrastPair, RatioReport]:
        t0 = time.perf_counter()
        num_var, num_max = _blowup_numerators(config, j1)
        den = _sup_denominator(config)
        report = _make_report(j1 - config.lacunary.j0, num_max, den, time.perf_counter() - t0)
        return ContrastPair(j1, num_var / den, num_max / den), report

    rows = _map_ordered(task, depths)
    pairs = tuple(pair for pair, _ in rows)
    reports = tuple(report for _, report in rows)
    max_ratios = [pair.maximal_ratio for pair in pairs]
    spread = max(max_ratios) / min(max_ratios) - 1.0
    growth = pairs[-1].variation_ratio / pairs[0].variation_ratio
    passed = spread < CONTRAST_SPREAD_LIMIT and growth > CONTRAST_GROWTH_FLOOR
    return MaximalContrastResult(pairs, reports, growth, spread, passed)


def _lr_depth(r: float, j0: int) -> int:
    """Deepest scale index of the power-sum experiment at exponent r."""
    return int(math.floor(r)) * j0


def lr_numerator(config: ExperimentConfig, r: float, min_scale: float | None = None) -> float:
    """L^p over the unit interval of the radius-1 power sum of the profile.

    min_scale overrides the innermost resolved core scale; the default
    resolves three octaves below the core window.  Excluding the innermost
    scales can only lower the value (the integrand is nonnegative), which is
    the grid-sensitivity regression the tests pin down.
    """
    j1 = _lr_depth(r, config.lacunary.j0)
    grid, var_prof, _ = _profile_bundle(config, j1, min_scale)
    mask = _unit_mask(grid)
    swept = sliding_power_sum(var_prof, 1.0, r)
    return _masked_p_norm(grid, swept.values_array, mask, config.p)


def exp_lr_growth(config: ExperimentConfig) -> LrGrowthResult:
    """Power-sum variation ratio against the inner exponent r.

    For each r in config.r_list the depth is j1 = floor(r) * j0, the
    numerator runs the power-sum window over the core variation profile,
    and the denominator is the computed power-sum norm of
    |G| (at most 2^(1/r) 3^(1/p)).  Each ratio must clear the certified
    closed-form floor (C/4) r^(1/q) / (2^(1/r) 3^(1/p)).
    """
    lac = config.lacunary

    def task(r: float) -> RatioReport:
        t0 = time.perf_counter()
        num = lr_numerator(config, r)
        den = _power_denominator(config, r)
        return _make_report(r, num, den, time.perf_counter() - t0)

    reports = tuple(_map_ordered(task, config.r_list))
    fit = None
    if len(reports) >= 3:
        fit = fit_power_law(config.r_list, [rep.ratio for rep in reports])
    deepest = _lr_depth(config.r_list[-1], lac.j0)
    delta = delta_halving_radius(lac.a, lac.k_min, lac.j0, deepest)
    bounds = tuple(
        (lac.key_constant / 4.0)
        * r ** (1.0 / config.q)
        / (2.0 ** (1.0 / r) * 3.0 ** (1.0 / config.p))
        for r in config.r_list
    )
    above = all(rep.ratio >= b for rep, b in zip(reports, bounds))
    slope_ok = fit is not None and abs(fit.slope - 1.0 / config.q) <= SLOPE_TOLERANCE
    r2_ok = fit is not None and fit.r_squared >= LR_R_SQUARED_FLOOR
    return LrGrowthResult(reports, fit, delta, bounds, above and slope_ok and r2_ok)


# ---------------------------------------------------------------------------
# Hilbert transform growth


@lru_cache(maxsize=64)
def _hilbert_half_grid(gs: GridSpec, depth: float) -> SampleGrid:
    """Grid on (0, 1/2], linear in the bulk, log-refined toward zero.

    Zero itself is excluded (the integrand is singular there); refinement
    reaches exp(-depth), deep enough that the omitted mass is negligible for
    every exponent the depth was chosen for.
    """
    n_lin = gs.lin_points
    h = 0.5 / n_lin
    linear = np.linspace(h / 2.0, 0.5, n_lin)
    decades = math.log10(0.2) + depth * math.log10(math.e)
    n_log = max(8, int(math.ceil(decades * gs.log_points_per_decade)))
    cluster = np.geomspace(math.exp(-depth), 0.2, n_log)
    pts = np.unique(np.concatenate((linear, cluster)))
    if pts.size > MAX_GRID_POINTS:
        raise BadRange(f"singular grid capped at {MAX_GRID_POINTS} points")
    return make_grid(pts)


def hilbert_inner_norm(r: float, grid_spec: GridSpec | None = None) -> float:
    """L^r norm over (0, 1) of the Hilbert transform of the unit indicator.

    The transform is ln|u / (u - 1)|, symmetric under u -> 1 - u, so the
    quadrature runs over (0, 1/2] and doubles.  Working on the half interval
    keeps 1 - u away from zero in floating point (the mirrored cluster would
    otherwise round onto u = 1 exactly once its distance drops below the
    double-precision ulp).  The grid is log-refined toward the singularity
    to depth max(30, 3r) e-foldings.
    """
    if not r >= 1:
        raise BadRange("inner exponent must satisfy r >= 1")
    gs = grid_spec or GridSpec()
    grid = _hilbert_half_grid(gs, max(30.0, 3.0 * r))
    u = grid.points_array
    integrand = np.abs(np.log(u) - np.log1p(-u)) ** r
    return float((2.0 * (grid.weights_array @ integrand)) ** (1.0 / r))


def exp_hilbert_growth(config: ExperimentConfig) -> HilbertGrowthResult:
    """Variation-free singular-integral growth: ratio against the exponent r.

    numerator: L^p over the unit interval of the inner L^r norm of the
    transform of the unit indicator over the window (u in the unit interval;
    for every x in [0, 1] the radius-1 window covers all of it, so the outer
    integral collapses to the constant inner norm).  denominator: the closed
    form 2^(1/r) 3^(1/p), an upper bound for the plain norm of the sheared
    indicator, so the reported ratio stays a certified lower bound.  The
    ratio must grow linearly in r and clear r / (2e * denominator).
    """

    def task(r: float) -> RatioReport:
        t0 = time.perf_counter()
        num = hilbert_inner_norm(r, config.grid)
        den = 2.0 ** (1.0 / r) * 3.0 ** (1.0 / config.p)
        return _make_report(r, num, den, time.perf_counter() - t0)

    reports = tuple(_map_ordered(task, config.r_list))
    fit = None
    if len(reports) >= 3:
        fit = fit_power_law(config.r_list, [rep.ratio for rep in reports])
    bounds = tuple(
        r / (2.0 * math.e * 2.0 ** (1.0 / r) * 3.0 ** (1.0 / config.p))
        for r in config.r_list
    )
    above = all(rep.ratio >= b for rep, b in zip(reports, bounds))
    lo, hi = HILBERT_SLOPE_WINDOW
    slope_ok = fit is not None and lo <= fit.slope <= hi
    return HilbertGrowthResult(reports, fit, bounds, above and slope_ok)


# ---------------------------------------------------------------------------
# norm transfer


def norm_transfer_pair(
    cell_bounds: Sequence[float],
    coefficient_matrix: Sequence[Sequence[float]],
    inner_widths: Sequence[float],
    p: float,
    q: float,
    r: float,
    J: RadiusSet,
) -> NormTransferResult:
    """Both sides of the lattice norm-transfer identity for a simple function.

    The function is f(x, k) = sum over cells of coeff[cell][k] on the cell;
    the integral route weighs coordinate k by inner_widths[k] inside an L^r
    norm, the sequence route absorbs inner_widths[k]^(1/r) into the values
    and takes plain ell^r.  Both the plain norms and the coordinate-wise
    variation norms must agree up to rounding, on any x grid; the grid used
    here subdivides each cell so plain norms of single blocks come out exact.
    """
    bounds = tuple(float(b) for b in cell_bounds)
    coeffs = np.asarray(coefficient_matrix, dtype=float)
    widths = np.asarray(tuple(inner_widths), dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != len(bounds) - 1:
        raise LengthMismatch("one coefficient row per cell")
    if coeffs.shape[1] != widths.size:
        raise LengthMismatch("one coefficient column per inner width")
    if np.any(widths <= 0):
        raise BadRange("inner widths must be positive")

    fns = [make_pcf(bounds, coeffs[:, k]) for k in range(widths.size)]

    pieces = []
    for left, right in zip(bounds[:-1], bounds[1:]):
        sub = max(1, int(math.ceil((right - left) / 0.1)))
        step = (right - left) / sub
        pieces.append(left + step * (np.arange(sub) + 0.5))
    x_pts = np.concatenate(pieces)
    x_w = np.concatenate(
        [np.full(len(block), (right - left) / len(block))
         for block, left, right in zip(pieces, bounds[:-1], bounds[1:])]
    )
    grid = make_grid(x_pts, x_w)

    plain = np.stack([pcf_eval_many(f, x_pts) for f in fns], axis=1)
    scale = widths ** (1.0 / r)
    plain_integral = bochner_norm(
        make_vector_field(grid, plain, integral_norm(r), widths), p
    )
    plain_sequence = bochner_norm(
        make_vector_field(grid, plain * scale, sequence_norm(r), np.ones_like(widths)), p
    )

    var_field = vector_variation_field(
        fns, OperatorFamily.AVERAGES, J, grid, q, integral_norm(r), widths
    )
    variation_integral = bochner_norm(var_field, p)
    variation_sequence = bochner_norm(
        make_vector_field(
            grid, var_field.values_array * scale, sequence_norm(r), np.ones_like(widths)
        ),
        p,
    )

    def rel_gap(x: float, y: float) -> float:
        scale_ref = max(abs(x), abs(y))
        if scale_ref == 0.0:
            return 0.0
        return abs(x - y) / scale_ref

    gap = max(rel_gap(plain_integral, plain_sequence), rel_gap(variation_integral, variation_sequence))
    return NormTransferResult(
        plain_integral, plain_sequence, variation_integral, variation_sequence, gap
    )


def exp_norm_transfer(
    seed: int,
    m: int = 3,
    n: int = 4,
    p: float = 2.0,
    q: float = 3.0,
    r: float = 4.0,
    J: RadiusSet | None = None,
) -> NormTransferResult:
    """Transfer identity on a random simple function with m x n blocks.

    Coefficients are uniform on [-1, 1]; the n support cells sit on a shared
    axis with random widths and gaps, and the m inner cells have random
    widths.  Equality of each norm pair to 1e-10 relative is the pass
    condition the acceptance run asserts.
    """
    if m < 1 or n < 1:
        raise BadRange("need at least one block in each direction")
    rng = np.random.default_rng(seed)
    radii = J or geometric_radius_set(2.0, 1, 3)
    widths = rng.uniform(0.2, 1.0, m)

    bounds = [float(rng.uniform(-1.0, 0.0))]
    coeff_rows = []
    for block in range(n):
        bounds.append(bounds[-1] + float(rng.uniform(0.3, 1.0)))
        coeff_rows.append(rng.uniform(-1.0, 1.0, m))
        if block != n - 1:
            bounds.append(bounds[-1] + float(rng.uniform(0.2, 0.6)))
            coeff_rows.append(np.zeros(m))
    return norm_transfer_pair(bounds, np.asarray(coeff_rows), widths, p, q, r, radii)
