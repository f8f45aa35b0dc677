"""Desk-scale experiments measuring variation blow-up lower bounds.

Every experiment reports a ratio numerator/denominator in which the numerator
is a Bochner norm of a variation (or maximal) profile and the denominator is
the corresponding norm of the plain witness data.  The denominators are
closed forms at or above the exact plain norm (the exact ones rounded up),
so they never flatter a ratio.  The Hilbert numerator is a closed form
rounded down, so the hilbert-growth ratios are certified lower bounds.  The
other numerators are estimates: profile values on the core ladder,
uncertified in between, under an outer integral in closed form
(_window_norm).  The ladder ends on the window edge.  In the
configurations the tests check (a = 2, 3, 8; j1 = 10, 34, 258) the
variation sup sits there (and, at a = 2, on the origin for y >= 0), so
those sup numerators do not depend on the density; with few active scales
it need not (a = 2, j0 = 4, j1 = 6).  The power-sum numerators do depend
on it, and at a = 2 they rise toward their limit as it refines.  Doubling
the density moves every ratio by less than 1% (acceptance criterion 10).

The variation profile of the witness is the consecutive-chain sum
(sum_j |g_(j+1)(y) - g_j(y)|^q)^(1/q) over all scales, one chain of the
q-variation, so it is at or below the exact profile and can only lower a
numerator.  The lacunary witness moves by a definite amount from each scale
to the next, so at the bases the CLI runs (a = 2, 3 and 8) the two agree to
within 2e-15 relative; at a = 1.5 with k_min = -800 the chain sum is up to
34% lower, and those runs fail their pass conditions either way.

The key restriction, used by the sup-norm and power-sum experiments: the
variation profile of the lacunary witness is evaluated only on the core
window |u| <= a^-(j1+1) around the origin and treated as zero outside.  On
the bulk of the support the heat family simply marches to the function value,
contributing an O(1) variation that is flat in j1 and would mask the growth;
the core window is where the oscillation across scales lives, and dropping
the bulk (a nonnegative part of the integrand) lowers the numerator while
exposing the (j1 - j0)^(1/q) growth.

The series route: a run evaluates the witness in two heat calls, whatever
its depths.  Every scale j >= j* (witnesses.series_scale) is read from one
series at the scale j*, by the scaling law the witnesses module docstring
states, and the scales j0 <= j < j* take one more call on the run's cores.
On the CLI runs at a = 2, 3 and 8 the numerators moved by at most 2e-12
relative from one heat call per depth.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corefn import (
    MIN_FIT_POINTS,
    GrowthFit,
    _as_float_array,
    fit_power_law,
    trapezoid_weights,
)
from .errors import (
    BadRange,
    EmptyInput,
    FloatRangeExceeded,
    InvalidQ,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
    NonPositiveRadius,
    TruncationTooShallow,
)
from .operators import (
    _subordination_weight,
    gauss_legendre_integrate,
)
from .variation import (
    _SMALLEST_NORMAL,
    _chain_rows,
    make_radius_set,
    qvariation_rows,
)
from .witnesses import (
    DEFAULT_J_WINDOW,
    KEY_THRESHOLD,
    LacunaryParams,
    _normal_roots,
    _require_admissible,
    certified_key_table,
    delta_halving_radius,
    heat_of_g_matrix,
    series_scale,
)

__all__ = [
    "ExperimentConfig",
    "RatioReport",
    "Outcome",
    "NormTransferResult",
    "HILBERT_R_LIST",
    "default_lacunary",
    "exp_reduction_constant",
    "exp_key_estimate",
    "exp_linf_blowup",
    "exp_maximal_contrast",
    "exp_lr_growth",
    "lr_numerator",
    "exp_hilbert_growth",
    "exp_norm_transfer",
    "norm_transfer_pair",
    "norm_transfer_trials",
    "hilbert_inner_norm",
]

# desk-scale caps; beyond these the runs stop being interactive
MAX_POWER_EXPONENT = 64.0
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

#: The r-list at which hilbert-growth passes.  The ExperimentConfig default
#: (4 to 32) starts too low for the growth to look linear yet: its fitted
#: slope is 0.85, outside HILBERT_SLOPE_WINDOW.
HILBERT_R_LIST: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)


# ---------------------------------------------------------------------------
# configuration types


#: The default witness.  Base 2 with j0 = 2 is the configuration whose
#: power-sum window factor works out cleanly, so it is the default even
#: though wider bases certify larger key constants.
DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0 = 2.0, -120, DEFAULT_J_WINDOW[0]


@cache
def default_lacunary() -> LacunaryParams:
    """The default witness parameters with the certified key constant baked in.

    The constant is certified over the scales DEFAULT_J_WINDOW, [2, 30].
    That window reaches j* (5 at a = 2), and the key table gives every D_j
    with j >= j* the one value 2|H_j* G(0)| (see the witnesses module
    docstring), so the constant holds at every depth:
    certified_key_table(a, k_min, j0, deepest - 1), which the CLI takes, is
    the same number for any deeper window of the same witness.
    """
    _, constant = certified_key_table(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, DEFAULT_J_WINDOW[1])
    return LacunaryParams(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, constant)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters; frozen, so a run cannot change them.

    log_points_per_decade sets the profile grids: the core ladder around
    the origin has P = ceil(log_points_per_decade * log10 a) points per
    factor of a (the outer integral over the unit interval is in closed
    form, with no grid).  The ladders nest when P doubles, as from 32 to 64
    per decade at a = 2 (P = 10 and 20); doubling the density need not
    double P (64 to 128 at a = 2 gives P = 20 and 39).

    The default lacunary is default_lacunary(), whose key constant is
    certified over the scales [2, 30]; a constant certified over a window
    that reaches j* holds at every depth (see default_lacunary).
    """

    p: float = 2.0
    q: float = 3.0
    lacunary: LacunaryParams = field(default_factory=default_lacunary)
    log_points_per_decade: int = 32
    r_list: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0)

    def __post_init__(self) -> None:
        if self.log_points_per_decade < 4:
            raise BadRange("need at least 4 log points per decade")
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
    """One experiment row: parameter, the two norms and wall time; ratio is
    numerator / denominator.  Both norms must be finite and positive."""

    param: float
    numerator: float
    denominator: float
    seconds: float

    def __post_init__(self) -> None:
        for name, value in (("numerator", self.numerator), ("denominator", self.denominator)):
            if not math.isfinite(value) or value <= 0:
                raise NonFiniteValue(f"{name} must be finite and positive, got {value}")

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator


def _rows(
    params: Sequence, row: Callable, start: float | None = None
) -> tuple[tuple[RatioReport, ...], GrowthFit | None]:
    """One timed report per parameter, from row(param) = (reported param,
    numerator, denominator), and the power-law fit of ratio against
    reported param once there are MIN_FIT_POINTS rows.

    Each row's seconds run from the end of the row before; the first row's
    from start (a time.perf_counter() reading) when given, so work the rows
    share, done before the first, is charged to it.
    """
    reports = []
    mark = time.perf_counter() if start is None else start
    for param in params:
        shown, numerator, denominator = row(param)
        now = time.perf_counter()
        reports.append(RatioReport(float(shown), numerator, denominator, now - mark))
        mark = now
    return tuple(reports), _fit(reports)


def _fit(reports: Sequence[RatioReport]) -> GrowthFit | None:
    """The power-law fit of ratio against param, once there are
    MIN_FIT_POINTS reports."""
    if len(reports) < MIN_FIT_POINTS:
        return None
    return fit_power_law([rep.param for rep in reports], [rep.ratio for rep in reports])


class Outcome(NamedTuple):
    """One finished experiment, as the CLI writes it: whether it passed, its
    report rows (the CSV), the power-law fit of their ratios, and extras, the
    JSON report's "extras" object, key for key.  table is key-estimate's
    D_0, D_1, ... (its CSV in place of report rows), empty when the
    truncation cannot support one, and None for every other experiment.
    """

    passed: bool
    reports: tuple[RatioReport, ...]
    fit: GrowthFit | None
    extras: dict
    table: tuple[float, ...] | None = None


class NormTransferResult(NamedTuple):
    """Both sides of the norm-transfer identity, plain and variation, and
    the largest relative gap between the two sides of a pair."""

    plain_integral: float
    plain_sequence: float
    variation_integral: float
    variation_sequence: float
    max_rel_discrepancy: float


# ---------------------------------------------------------------------------
# reduction constant


def exp_reduction_constant(quad_nodes: int = 2048) -> float:
    """Quadrature of the subordination mass (t^2/2) (4 pi)^(-1/2) e^(-t^2/4).

    Converges to exactly 1/2; the distance from 1/2 measures quadrature
    quality, not modelling error.
    """
    if not 64 <= quad_nodes <= MAX_GRID_POINTS:
        raise BadRange(f"reduction constant needs 64 to {MAX_GRID_POINTS} quadrature nodes")
    return gauss_legendre_integrate(_subordination_weight, 0.0, 20.0, quad_nodes)


# ---------------------------------------------------------------------------
# key estimate


def exp_key_estimate(a: float, k_min: int, j0: int, j_max: int = DEFAULT_J_WINDOW[1]) -> Outcome:
    """Tabulate D_j at the origin for the witness (a, k_min) and certify its
    minimum over [j0, j_max], min(table[j0:]).  The extras hold a, j0 and
    the reason a failing run failed ("" when it passed).

    A base whose truncation cannot support the table (tail pollution above
    tolerance) is reported as a failure with an empty table rather than
    raised: the experiment's job is to say whether the configuration
    certifies, and such a base does not.
    """
    if j_max < j0:
        raise BadRange("j_max must reach at least j0")
    try:
        table, certified = certified_key_table(a, k_min, j0, j_max)
    except TruncationTooShallow as exc:
        return Outcome(False, (), None, {"a": a, "j0": j0, "reason": str(exc)}, ())
    passed = certified >= KEY_THRESHOLD
    reason = "" if passed else f"certified constant {certified:.3e} below {KEY_THRESHOLD:.0e}"
    return Outcome(passed, (), None, {"a": a, "j0": j0, "reason": reason}, table)


# ---------------------------------------------------------------------------
# witness profiles shared by the blow-up experiments


def _profile_bundles(config: ExperimentConfig, depths: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """One bundle per depth j1 of depths: the core points, in increasing
    order, their trapezoid weights, and the variation and maximal profiles
    of the witness there.  The variation profile is the consecutive-chain
    sum over the scales j0..j1 (see the module docstring).

    The core is the origin and the aligned ladder +-a^-(j1+1+i/P),
    i = 0..3P, with P = ceil(log_points_per_decade * log10 a) points per
    factor of a: 6P + 3 points from the window edge a^-(j1+1) down to
    a^-(j1+4).  Doubling P adds a point between each two, so the ladders
    nest.  The profiles vanish off the core; see the module docstring for
    why that restriction only lowers the numerator.

    The run has one ladder a^-(N + k/P), N = 0, 1, ... and 0 <= k < P, from
    1 down to the deepest a^-(j1+4), and every core is cut out of it.  Every depth's heat values come from
    two heat calls shared by the run (one when j* = j0, or when no depth
    reaches j*): the series at the scale j*, on the ladder from a^-(j*+1)
    on, read for every scale j >= j* by the scaling law of the witnesses
    module, and the scales j0 <= j < j* on the run's cores.  So every core
    point is bit for bit a point its heat values were computed at.  Each
    value of either call depends only on its own point and scale, so a
    depth's bundle is the same bit for bit whatever other depths the run
    holds.
    """
    lac = config.lacunary
    a = lac.a
    deepest = max(depths)
    if min(depths) <= lac.j0:
        raise BadRange("deepest scale index must exceed j0")
    # an int past the double range cannot meet a float; 2^1000 points per
    # decade are past the cap at every base the witness accepts
    per_factor = math.ceil(min(config.log_points_per_decade, 2**1000) * math.log10(a))
    _require_admissible(a, lac.k_min, deepest)
    if 6 * per_factor + 3 > MAX_GRID_POINTS:
        raise BadRange(f"profile core capped at {MAX_GRID_POINTS} points")
    j_star = series_scale(a, lac.j0)
    # m = NP + k, in the series' own form: the float N plus the float k/P
    n, k = np.divmod(np.arange((deepest + 4) * per_factor + 1), per_factor)
    run_ladder = np.power(a, -(n + k / per_factor))
    if not run_ladder[-1] > 0.0:
        raise FloatRangeExceeded(f"a^-{deepest + 4} underflows to 0 for a={a}")
    # the depth limit of the key tables, which certify every scale a^-j
    # the profiles stand for: a^-j1 must stay a normal double
    _normal_roots(a, np.array([float(deepest)]))

    # each depth's ladder a^-(j1+1+i/P), i = 3P..0, in increasing order
    ladders = [run_ladder[(j1 + 1) * per_factor :][: 3 * per_factor + 1][::-1] for j1 in depths]
    cores = [np.concatenate((-ladder[::-1], [0.0], ladder)) for ladder in ladders]
    short = np.empty(((6 * per_factor + 3) * len(cores), 0))
    if j_star > lac.j0:
        scales = range(lac.j0, min(j_star, deepest + 1))
        short = heat_of_g_matrix(a, lac.k_min, scales, np.concatenate(cores)).T
    if deepest >= j_star:
        # the series +-a^-(j*+1+n+k/P), m = nP + k = 0..(deepest - j* + 3)P,
        # and the origin, all at the scale j*
        tail = run_ladder[(j_star + 1) * per_factor :]
        series = heat_of_g_matrix(a, lac.k_min, (j_star,), np.concatenate((-tail, [0.0], tail)))[0]
        neg, origin, pos = series[: tail.size], series[tail.size], series[tail.size + 1 :]

    rungs = np.arange(3 * per_factor + 1)[:, None]  # i, from the window edge inward
    bundles = []
    for d, (j1, ladder, points) in enumerate(zip(depths, ladders, cores)):
        matrix = short[d * points.size : (d + 1) * points.size, : j1 + 1 - lac.j0]
        if j1 >= j_star:
            # H_(a^-2j) G(+-a^-(j1+1+i/P)) = (-1)^(j-j*) s_+-[(j1 - j)P + i]
            js = np.arange(j_star, j1 + 1)
            at = (j1 - js) * per_factor + rungs
            signs = np.where((js - j_star) % 2 == 1, -1.0, 1.0)
            deep = np.concatenate((neg[at], np.full((1, js.size), origin), pos[at[::-1]])) * signs
            matrix = np.concatenate((matrix, deep), axis=1)
        # the strip (-a^-(j1+4), a^-(j1+4)) is unresolved; give it zero
        # quadrature weight instead of letting the trapezoid rule bridge it
        # with the origin value, so every windowed integral counts resolved
        # area only (and excluding inner scales can only lower it, never
        # raise it)
        side = trapezoid_weights(ladder)
        weights = np.concatenate((side[::-1], [0.0], side))
        bundles.append((points, weights, _chain_rows(matrix, config.q), np.abs(matrix).max(axis=1)))
    return bundles


def _window_norm(points, weights, values, p: float, r: float | None = None) -> float:
    """L^p over [0, 1] of the radius-1 window sup (r None) or power sum of a
    core profile: ((1 + y_lo) W^p - y_lo W+^p)^(1/p), and W at p = inf.

    For x <= 1 + y_lo, y_lo = points[0], the window holds the whole core,
    whose value is W; on the rest, a sliver at most a^-(j1+1) wide, it holds
    the core points >= 0, whose value W+ bounds the sliver's from below.
    A power sum that falls below the normal double range is taken again
    with the weights scaled by an exact power of two; a sum in range is
    used as it is.
    """

    def value(v: np.ndarray, w: np.ndarray) -> float:
        if r is None:
            return float(v.max())
        # a sequential sum: np.sum adds pairwise, which would move the lr
        # numerators in their last bits
        total = float(np.cumsum(w * v**r)[-1])
        if total >= _SMALLEST_NORMAL:
            return total ** (1.0 / r)
        # the weights carry a^-(j1+1), which can push the sum below the
        # normal range, where it loses bits: weights scaled by the exact
        # power of two 2^e bring it back, and the root gives 2^(-e/r) back
        e = -math.frexp(float(w.max()))[1]
        return float(np.cumsum(np.ldexp(w, e) * v**r)[-1]) ** (1.0 / r) * 2.0 ** (-e / r)

    whole = value(values, weights)
    if p == math.inf:
        return whole
    right, y_lo = points >= 0.0, float(points[0])
    return ((1.0 + y_lo) * whole**p - y_lo * value(values[right], weights[right]) ** p) ** (1.0 / p)


#: Relative nudge that rounds a closed-form denominator up: the float
#: evaluation of a power can land a few ulps below the exact value, and
#: 2^-48 is sixteen ulps.
_ROUND_UP = 1.0 + 2.0**-48


def _sup_denominator(config: ExperimentConfig) -> float:
    """L^p norm of the radius-1 sliding sup of |G|, rounded up.

    |G| is 1 on [a^k_min, 1), so its sliding sup is 1 on [a^k_min - 1, 2]
    and 0 elsewhere: the norm is exactly (3 - a^k_min)^(1/p).
    """
    lac = config.lacunary
    return (3.0 - lac.a**lac.k_min) ** (1.0 / config.p) * _ROUND_UP


def _power_denominator(config: ExperimentConfig, r: float) -> float:
    """Upper bound (1 + 2r/(r+p))^(1/p) for the L^p norm of the radius-1
    power sum of |G|, rounded up.

    It is the exact norm for the indicator of [0, 1); filling the hole
    [0, a^k_min) of the witness can only raise every window sum.
    """
    return (1.0 + 2.0 * r / (r + config.p)) ** (1.0 / config.p) * _ROUND_UP


def _blowup_numerators(config: ExperimentConfig, bundle: tuple[np.ndarray, ...]) -> tuple[float, float]:
    """Sup-window numerators (variation, maximal) of one depth's bundle."""
    points, weights, var_vals, max_vals = bundle
    return tuple(_window_norm(points, weights, v, config.p) for v in (var_vals, max_vals))


def _validated_j1_list(j1_list: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(j) for j in j1_list)
    if len(out) < 2:
        raise BadRange("need at least two depths to report growth")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise BadRange("j1 list must be strictly increasing")
    return out


def _blowup_rows(
    config: ExperimentConfig, j1_list: Sequence[int]
) -> tuple[tuple[RatioReport, ...], GrowthFit | None, tuple[RatioReport, ...]]:
    """The rows of the two blow-up experiments: the variation reports, their
    fit and the maximal reports, one of each per depth.

    The bundles of every depth come from one _profile_bundles call, charged
    to the first depth's seconds, so the seconds add up to the numerators'
    time.  Both reports of a depth come from one _blowup_numerators call and
    carry its seconds.  Their param is the active-scale count j1 - j0, the
    growth law's abscissa, so downstream plots fit the same quantity that is
    reported; their denominator is the closed-form _sup_denominator.
    """
    denominator = _sup_denominator(config)
    depths = _validated_j1_list(j1_list)
    variation, maximal = [], []
    mark = time.perf_counter()
    for j1, bundle in zip(depths, _profile_bundles(config, depths)):
        numerators = _blowup_numerators(config, bundle)
        now = time.perf_counter()
        for reports, numerator in zip((variation, maximal), numerators):
            reports.append(RatioReport(float(j1 - config.lacunary.j0), numerator, denominator, now - mark))
        mark = now
    return tuple(variation), _fit(variation), tuple(maximal)


def exp_linf_blowup(config: ExperimentConfig, j1_list: Sequence[int]) -> Outcome:
    """Sup-norm variation ratio against depth.

    numerator: L^p over the unit interval of the radius-1 sliding sup of the
    core variation profile of the witness under the heat family with times
    a^(-2j), j0 <= j <= j1, evaluated at their roots a^-j.  denominator: the
    same norm of |G| itself, in closed form (3 - a^k_min)^(1/p) rounded up,
    which is 3^(1/p) to within rounding.  The ratio must grow like
    (j1 - j0)^(1/q).  The extras hold denominator_target, 3^(1/p).
    """
    reports, fit, _ = _blowup_rows(config, j1_list)
    ratios = [rep.ratio for rep in reports]
    target = 3.0 ** (1.0 / config.p)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    den_ok = abs(reports[0].denominator / target - 1.0) <= DENOMINATOR_TOLERANCE
    slope_ok = fit is not None and abs(fit.slope - 1.0 / config.q) <= SLOPE_TOLERANCE
    r2_ok = fit is not None and fit.r_squared >= LINF_R_SQUARED_FLOOR
    passed = increasing and den_ok and slope_ok and r2_ok
    return Outcome(passed, reports, fit, {"denominator_target": target})


def exp_maximal_contrast(config: ExperimentConfig, j1_list: Sequence[int]) -> Outcome:
    """Same pipeline with the maximal operator in place of the variation.

    The variation ratios are shared bit for bit with exp_linf_blowup (same
    profiles from the same heat series, same closed-form denominator); the
    point of the contrast is that the maximal ratio stays flat while the
    variation ratio grows.  The fit is that of the variation ratios; the
    reports are the maximal rows, each timed as the row that computed both,
    the first with the run's shared heat calls.
    The extras hold the pairs (one {j1, variation_ratio, maximal_ratio} per
    depth), variation_growth, the last variation ratio over the first, and
    maximal_spread, the largest maximal ratio over the smallest, less 1.
    """
    variation, fit, reports = _blowup_rows(config, j1_list)
    pairs = [
        {"j1": int(v.param) + config.lacunary.j0, "variation_ratio": v.ratio, "maximal_ratio": m.ratio}
        for v, m in zip(variation, reports)
    ]
    max_ratios = [m.ratio for m in reports]
    spread = max(max_ratios) / min(max_ratios) - 1.0
    growth = variation[-1].ratio / variation[0].ratio
    passed = spread < CONTRAST_SPREAD_LIMIT and growth > CONTRAST_GROWTH_FLOOR
    extras = {"variation_growth": growth, "maximal_spread": spread, "pairs": pairs}
    return Outcome(passed, reports, fit, extras)


def _lr_depth(r: float, j0: int) -> int:
    """Deepest scale index of the power-sum experiment at exponent r."""
    return int(math.floor(r)) * j0


def lr_numerator(config: ExperimentConfig, r: float) -> float:
    """L^p over the unit interval of the radius-1 power sum of the profile,
    resolved on the core ladder down to three factors of a below the window
    edge.  At a = 2 it rises as the ladder refines: at r = 4, 32 points per
    decade are within 1e-6 relative of 256.

    It builds the one depth floor(r) * j0 through _profile_bundles, whose
    bundles do not depend on the other depths of a run, so it equals the
    matching exp_lr_growth numerator bit for bit.
    """
    (bundle,) = _profile_bundles(config, [_lr_depth(r, config.lacunary.j0)])
    return _power_numerator(config, bundle, r)


def _power_numerator(config: ExperimentConfig, bundle: tuple[np.ndarray, ...], r: float) -> float:
    points, weights, var_vals, _ = bundle
    return _window_norm(points, weights, var_vals, config.p, r)


def exp_lr_growth(config: ExperimentConfig) -> Outcome:
    """Power-sum variation ratio against the inner exponent r.

    For each r in config.r_list the depth is j1 = floor(r) * j0, the
    numerator runs the power-sum window over the core variation profile,
    and the denominator is the closed-form upper bound (1 + 2r/(r+p))^(1/p)
    for the power-sum norm of |G|, rounded up (it is at most
    2^(1/r) 3^(1/p)).  Each ratio must clear the certified closed-form floor
    (C/4) r^(1/q) / (2^(1/r) 3^(1/p)).  The extras hold those floors, bounds,
    and delta_radius, the witness's halving radius at the deepest scale.
    An r below 2, whose depth would be j0 itself, raises BadRange.  The
    profiles of every depth come from one _profile_bundles call, charged to
    the first row's seconds.

    The floors use config.lacunary.key_constant as given.  A constant
    certified over a window that reaches j*, as the default's [2, 30] does,
    holds at every depth the run reaches (see default_lacunary).
    """
    lac = config.lacunary
    if config.r_list[0] < 2.0:
        # below 2, the depth floor(r) * j0 is j0 itself
        raise BadRange(f"lr-growth needs every r >= 2, got r = {config.r_list[0]}")
    start = time.perf_counter()
    depths = [_lr_depth(r, lac.j0) for r in config.r_list]
    bundles = dict(zip(config.r_list, _profile_bundles(config, depths)))
    reports, fit = _rows(
        config.r_list,
        lambda r: (r, _power_numerator(config, bundles[r], r), _power_denominator(config, r)),
        start,
    )
    deepest = depths[-1]
    delta = delta_halving_radius(lac.a, lac.k_min, lac.j0, deepest)
    bounds = [
        (lac.key_constant / 4.0)
        * r ** (1.0 / config.q)
        / (2.0 ** (1.0 / r) * 3.0 ** (1.0 / config.p))
        for r in config.r_list
    ]
    above = all(rep.ratio >= b for rep, b in zip(reports, bounds))
    slope_ok = fit is not None and abs(fit.slope - 1.0 / config.q) <= SLOPE_TOLERANCE
    r2_ok = fit is not None and fit.r_squared >= LR_R_SQUARED_FLOOR
    passed = above and slope_ok and r2_ok
    return Outcome(passed, reports, fit, {"delta_radius": delta, "bounds": bounds})


# ---------------------------------------------------------------------------
# Hilbert transform growth


def _eta_weights(n: int) -> tuple[float, ...]:
    # Algorithm 1 of Cohen, Rodriguez Villegas and Zagier, "Convergence
    # acceleration of alternating series", Experiment. Math. 9 (2000): weight
    # k is (-1)^k (d_(k+1) + ... + d_n) / (d_0 + ... + d_n) with the integers
    # d_m = n/(n+m) C(n+m, 2m) 4^m; integer division rounds it once.  For a
    # completely monotone a_k, sum_k weight_k a_k is within 2 (3 + sqrt 8)^-n
    # of sum_k (-1)^k a_k, relatively: below 1e-24 at n = 32.
    d = [n * math.comb(n + m, 2 * m) * 4**m // (n + m) for m in range(n + 1)]
    return tuple((-1) ** k * sum(d[k + 1 :]) / sum(d) for k in range(n))


_ETA_WEIGHTS = _eta_weights(32)

#: Relative nudge that rounds the closed-form Hilbert numerator down.  With
#: u = 2^-53 and 1 <= r <= 64, the float value of (2 r Gamma(r) eta(r))^(1/r)
#: errs by at most 52u.  The eta terms err by 4u (weight, power, product)
#: times sum_k |weight_k| / (k+1) <= 3.72; over eta >= ln 2, and with u for
#: fsum, that is 22.5u.  CPython's tgamma is within 10 ulps (20u); the factor
#: r, kept out of the argument so that r + 1 is never rounded, and the product
#: with eta add u each.  The root divides these 45u by r >= 1 and adds 2u,
#: rounding 1/r adds u ln(norm) <= 3.3u, and this nudge adds u.  2^-44 = 512u
#: is nearly ten times that budget.
_ROUND_DOWN = 1.0 - 2.0**-44


def hilbert_inner_norm(r: float) -> float:
    """L^r norm over (0, 1) of the Hilbert transform of the unit indicator,
    rounded down.

    The transform is ln|u / (u - 1)|; substituting u = 1/(1 + e^t) gives
    integral_0^1 |ln(u / (1 - u))|^r du = 2 Gamma(r + 1) eta(r), with the
    Dirichlet eta(r) = sum_k (-1)^k (k+1)^-r summed by _ETA_WEIGHTS.
    """
    if not 1.0 <= r <= MAX_POWER_EXPONENT:
        raise BadRange(f"inner exponent must satisfy 1 <= r <= {MAX_POWER_EXPONENT}")
    eta = math.fsum(w * (k + 1.0) ** -r for k, w in enumerate(_ETA_WEIGHTS))
    return (2.0 * r * math.gamma(r) * eta) ** (1.0 / r) * _ROUND_DOWN


def exp_hilbert_growth(config: ExperimentConfig) -> Outcome:
    """Variation-free singular-integral growth: ratio against the exponent r.

    numerator: L^p over the unit interval of the inner L^r norm of the
    transform of the unit indicator over the window (u in the unit interval;
    for every x in [0, 1] the radius-1 window covers all of it, so the outer
    integral collapses to the constant inner norm), in closed form rounded
    down.  denominator: the closed form 2^(1/r) 3^(1/p), an upper bound for
    the plain norm of the sheared indicator.  Both are one-sided, so every
    ratio is a certified lower bound, and none depends on the grid.  The
    ratio must grow linearly in r and clear r / (2e * denominator); run it
    with r_list=HILBERT_R_LIST, as the CLI does, for the slope to show that.
    The extras hold those floors, bounds.
    """
    reports, fit = _rows(
        config.r_list,
        lambda r: (r, hilbert_inner_norm(r), 2.0 ** (1.0 / r) * 3.0 ** (1.0 / config.p)),
    )
    bounds = [
        r / (2.0 * math.e * 2.0 ** (1.0 / r) * 3.0 ** (1.0 / config.p))
        for r in config.r_list
    ]
    above = all(rep.ratio >= b for rep, b in zip(reports, bounds))
    lo, hi = HILBERT_SLOPE_WINDOW
    slope_ok = fit is not None and lo <= fit.slope <= hi
    return Outcome(above and slope_ok, reports, fit, {"bounds": bounds})


# ---------------------------------------------------------------------------
# norm transfer


#: Trials per stacked block of norm-transfer: a run's working memory is that
#: of one block, whatever its trial count.
_TRANSFER_BLOCK = 16


def _transfer_block(
    bounds: np.ndarray, coeffs: np.ndarray, widths: np.ndarray, p: float, q: float, r: float, J
) -> np.ndarray:
    """Both sides of the norm-transfer identity for a block of simple functions.

    Trial b is f_b(x, k) = coeffs[b, c, k] on the cell [bounds[b, c],
    bounds[b, c + 1]), with inner widths widths[b, k]: bounds is
    (trials, cells + 1), coeffs (trials, cells, m) and widths (trials, m).
    The result has one row per trial, NormTransferResult's five fields.

    Each cell is cut into ceil(length / 0.1) equal pieces with a grid point at
    each midpoint, weighted by the piece length, so plain norms of single
    blocks come out exact.  Every trial's points sit in one array with an
    owner index.  A_t f(x) = (F(x + t) - F(x - t)) / t takes F(x +- t)
    from one np.interp call per trial and coordinate on the trial's own
    antiderivative knots, as operators.avg_apply_many does, one
    :func:`qvariation_rows` call takes the variation of every row of the
    block, and each trial's outer p-sum is a sum over its own points.
    """
    if coeffs.ndim != 3 or coeffs.shape[:2] != (bounds.shape[0], bounds.shape[1] - 1):
        raise LengthMismatch("one coefficient row per cell")
    if coeffs.shape[2] != widths.shape[1]:
        raise LengthMismatch("one coefficient column per inner width")
    trials, cells, m = coeffs.shape
    if cells < 1:
        raise LengthMismatch("a simple function needs at least one cell")
    if m < 1:
        raise EmptyInput("a simple function needs at least one inner coordinate")
    if np.any(widths <= 0):
        raise BadRange("inner widths must be positive")
    lengths = np.diff(bounds, axis=1)
    if not np.all(lengths > 0):
        raise NonMonotoneBreakpoints("cell bounds must be strictly increasing")
    if not r > 1:
        raise BadRange("inner norm exponent must satisfy r > 1")
    if not (p == math.inf or p >= 1):
        raise BadRange("outer exponent must satisfy p >= 1")
    radii = _as_float_array(J, "averaging radii")
    if radii.size == 0:
        raise EmptyInput("norm transfer needs at least one averaging radius")
    if not np.all(radii > 0):
        raise NonPositiveRadius("averaging radii must be positive")

    # the grid: flat cell index c = trial * cells + cell of each point
    pieces = np.maximum(1, np.ceil(lengths / 0.1)).astype(np.intp).ravel()
    step = lengths.ravel() / pieces
    cell = np.repeat(np.arange(pieces.size), pieces)
    local = np.arange(cell.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    x = bounds[:, :-1].ravel()[cell] + step[cell] * (local + 0.5)
    x_w = step[cell]
    owner = cell // cells
    if not np.all(np.diff(x)[owner[1:] == owner[:-1]] > 0):
        raise NonMonotoneBreakpoints("grid points must be strictly increasing")
    starts = np.flatnonzero(np.diff(owner, prepend=-1))

    # F(x +- t) from each trial's own antiderivative knots, one np.interp
    # call per trial and coordinate; a row per (point, coordinate), its
    # averages along the radii
    mass = np.zeros((trials, cells + 1, m))
    np.cumsum(lengths[:, :, None] * coeffs, axis=1, out=mass[:, 1:])
    ends = x[:, None] + np.concatenate((radii, -radii))
    at_ends = np.empty((x.size, m, ends.shape[1]))
    for b, (lo, hi) in enumerate(zip(starts, np.append(starts[1:], x.size))):
        for k in range(m):
            at_ends[lo:hi, k] = np.interp(ends[lo:hi], bounds[b], mass[b, :, k])
    rows = (at_ends[..., : radii.size] - at_ends[..., radii.size :]) / radii
    variation = qvariation_rows(rows.reshape(-1, radii.size), q).reshape(-1, m)

    point_widths = widths[owner]
    point_scale = (widths ** (1.0 / r))[owner]

    def outer(inner: np.ndarray) -> np.ndarray:
        if p == math.inf:
            return np.maximum.reduceat(inner, starts)
        return np.add.reduceat(x_w * inner**p, starts) ** (1.0 / p)

    def norm_pair(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the integral route weighs coordinate k by its width inside ell^r,
        # the sequence route scales it by width^(1/r) first
        scaled = values * point_scale
        if not np.all(np.isfinite(scaled)):
            raise NonFiniteValue("scaled values leave the double range")
        integral = (np.abs(values) ** r * point_widths).sum(axis=1) ** (1.0 / r)
        sequence = (np.abs(scaled) ** r).sum(axis=1) ** (1.0 / r)
        return outer(integral), outer(sequence)

    def rel_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ref = np.maximum(np.abs(a), np.abs(b))
        return np.divide(np.abs(a - b), ref, out=np.zeros_like(ref), where=ref != 0.0)

    plain_integral, plain_sequence = norm_pair(coeffs.reshape(-1, m)[cell])
    variation_integral, variation_sequence = norm_pair(variation)
    gap = np.maximum(
        rel_gap(plain_integral, plain_sequence), rel_gap(variation_integral, variation_sequence)
    )
    return np.stack(
        (plain_integral, plain_sequence, variation_integral, variation_sequence, gap), axis=1
    )


def norm_transfer_pair(
    cell_bounds: Sequence[float],
    coefficient_matrix: Sequence[Sequence[float]],
    inner_widths: Sequence[float],
    p: float,
    q: float,
    r: float,
    J: Sequence[float],
) -> NormTransferResult:
    """Both sides of the lattice norm-transfer identity for a simple function.

    The function is f(x, k) = sum over cells of coeff[cell][k] on the cell;
    the integral route weighs coordinate k by inner_widths[k] inside an L^r
    norm, the sequence route absorbs inner_widths[k]^(1/r) into the values
    and takes plain ell^r.  Both the plain norms and the coordinate-wise
    variation norms must agree up to rounding, on any x grid; the grid used
    here subdivides each cell so plain norms of single blocks come out exact.
    It is a block of one trial; see :func:`_transfer_block`.
    """
    bounds = _as_float_array(cell_bounds, "cell bounds")
    coeffs = _as_float_array(coefficient_matrix, "coefficient matrix", ndim=2)
    widths = _as_float_array(inner_widths, "inner widths")
    row = _transfer_block(bounds[None], coeffs[None], widths[None], p, q, r, J)[0]
    return NormTransferResult(*row.tolist())


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_doubles(seed: int, k: int) -> list[float]:
    """np.random.default_rng(seed).random(k), bit for bit, from the
    standard library: numpy's SeedSequence seeds its PCG64 (XSL-RR output),
    and each double is the top 53 bits of an output word."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    # SeedSequence: a pool of four words mixes the entropy words in
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, little-endian pairs
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    state0, state1, seq0, seq1 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    # PCG64 seeding: state 0, inc = 2 seq + 1, step, add the seed state, step
    inc = ((seq0 << 64 | seq1) << 1 | 1) & _MASK128
    state = (inc + (state0 << 64 | state1)) * _PCG64_MULT + inc & _MASK128
    out = []
    for _ in range(k):
        state = state * _PCG64_MULT + inc & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        out.append((word >> 11) * 2.0**-53)
    return out


def _transfer_draws(seeds: Sequence[int], m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random simple functions of a block of norm-transfer trials, one
    per seed: cell bounds (trials, 2n), coefficients (trials, 2n - 1, m) and
    inner widths (trials, m).

    Trial i reads the stream of seeds[i] in the order: the m widths, the
    left edge, then each block's length, its m coefficients and, but after
    the last block, the gap that follows it.  A uniform u on [low, high) is
    low + (high - low) u, as in Generator.uniform, and the bounds are running
    sums of the left edge, the lengths and the gaps.
    """
    k = m + 1 + n * (m + 1) + n - 1
    u = np.array([_pcg64_doubles(seed, k) for seed in seeds])
    low = np.array([0.2] * m + [-1.0] + ([0.3] + [-1.0] * m + [0.2]) * n)[:k]
    high = np.array([1.0] * m + [0.0] + ([1.0] + [1.0] * m + [0.6]) * n)[:k]
    values = low + (high - low) * u
    # the columns of the block lengths; the left edge, the lengths and the
    # gaps in column order are the steps between consecutive bounds
    length = m + 1 + (m + 2) * np.arange(n)
    steps = np.sort(np.concatenate(([m], length, length[:-1] + m + 1)))
    coeffs = np.zeros((len(seeds), 2 * n - 1, m))
    coeffs[:, ::2] = values[:, length[:, None] + 1 + np.arange(m)]
    return np.cumsum(values[:, steps], axis=1), coeffs, values[:, :m]


def norm_transfer_trials(
    seed: int,
    trials: int,
    m: int = 3,
    n: int = 4,
    p: float = 2.0,
    q: float = 3.0,
    r: float = 4.0,
    J: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`exp_norm_transfer` at the seeds seed, ..., seed + trials - 1.

    Returns a (trials, 5) array, NormTransferResult's fields in a row per
    trial, and each trial's seconds.  Trial i draws the stream of
    np.random.default_rng(seed + i), bit for bit, from the package's
    standard-library PCG64 (:func:`_pcg64_doubles`); the trials run in
    stacked blocks of _TRANSFER_BLOCK, and a trial's seconds are its block's
    time divided by the block's trial count.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadRange(f"seed must be a nonnegative integer, got {seed!r}")
    seed = int(seed)
    if m < 1 or n < 1:
        raise BadRange("need at least one block in each direction")
    if trials < 1:
        raise BadRange("need at least one trial")
    radii = make_radius_set((0.25, 0.0625, 0.015625)) if J is None else tuple(J)
    rows = np.empty((trials, 5))
    seconds = np.empty(trials)
    for first in range(0, trials, _TRANSFER_BLOCK):
        t0 = time.perf_counter()
        block = slice(first, min(first + _TRANSFER_BLOCK, trials))
        bounds, coeffs, widths = _transfer_draws(range(seed + block.start, seed + block.stop), m, n)
        rows[block] = _transfer_block(bounds, coeffs, widths, p, q, r, radii)
        seconds[block] = (time.perf_counter() - t0) / len(bounds)
    return rows, seconds


def exp_norm_transfer(
    seed: int,
    m: int = 3,
    n: int = 4,
    p: float = 2.0,
    q: float = 3.0,
    r: float = 4.0,
    J: Sequence[float] | None = None,
) -> NormTransferResult:
    """Transfer identity on a random simple function with m x n blocks.

    Coefficients are uniform on [-1, 1]; the n support cells sit on a shared
    axis with random widths and gaps, and the m inner cells have random
    widths.  Equality of each norm pair to 1e-10 relative is the pass
    condition the acceptance run asserts.
    """
    rows, _ = norm_transfer_trials(seed, 1, m, n, p, q, r, J)
    return NormTransferResult(*rows[0].tolist())
