"""Desk-scale experiments measuring variation blow-up lower bounds.

Every experiment reports a ratio numerator/denominator in which the numerator
is a Bochner norm of a variation (or maximal) profile and the denominator is
the corresponding norm of the plain witness data.  The denominators are
closed forms at or above the exact plain norm (the exact ones rounded up),
so they never flatter a ratio.  The Hilbert numerator is a closed form
rounded down, so the hilbert-growth ratios are certified lower bounds.  The
other numerators are estimates: profile values on a grid, uncertified in
between, under an outer integral in closed form (_window_norm).  They are
grid-converged, not one-sided: doubling the grid moves every ratio by less
than 1% (acceptance criterion 10), but a coarser grid can give a larger
numerator as well as a smaller one.

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
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
# norm-transfer's generator loads with the package, not where it draws.  The
# import takes 12-20 ms (2 shared vCPUs, numpy 2.4); inside the run it would
# add 25-35% to the wall time of perfbench's small-commands (about 0.055 s)
import numpy.random  # noqa: F401  loaded with the package, as said above

from .corefn import (
    MIN_FIT_POINTS,
    GrowthFit,
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
    _chain_rows,
    make_radius_set,
    qvariation_rows,
)
from .witnesses import (
    DEFAULT_J_WINDOW,
    KEY_THRESHOLD,
    LacunaryParams,
    _require_admissible,
    certified_key_table,
    delta_halving_radius,
    heat_of_g_matrix,
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
    """The default witness parameters with the certified key constant baked in."""
    _, constant = certified_key_table(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, DEFAULT_J_WINDOW[1])
    return LacunaryParams(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, constant)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters; frozen, so a run cannot change them.

    log_points_per_decade sets the profile grids: points per decade of the
    logarithmic core ladder around the origin (the outer integral over the
    unit interval is in closed form, with no grid).  Ladders at two
    resolutions do not nest, so comparing them checks refinement, not
    monotonicity.
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


def _rows(params: Sequence, row: Callable) -> tuple[tuple[RatioReport, ...], GrowthFit | None]:
    """One timed report per parameter, from row(param) = (reported param,
    numerator, denominator), and the power-law fit of ratio against
    reported param once there are MIN_FIT_POINTS rows.
    """
    reports = []
    for param in params:
        t0 = time.perf_counter()
        shown, numerator, denominator = row(param)
        seconds = time.perf_counter() - t0
        reports.append(RatioReport(float(shown), numerator, denominator, seconds))
    fit = None
    if len(reports) >= MIN_FIT_POINTS:
        fit = fit_power_law([rep.param for rep in reports], [rep.ratio for rep in reports])
    return tuple(reports), fit


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


def _profile_bundle(config: ExperimentConfig, j1: int) -> tuple[np.ndarray, ...]:
    """Core points, in increasing order, their trapezoid weights, and the
    variation and maximal profiles of the witness there.  The variation
    profile is the consecutive-chain sum over the scales j0..j1 (see the
    module docstring).

    The core is the origin and a logarithmic ladder on both sides of it,
    within the window a^-(j1+1) and down to a^-(j1+4).
    The profiles vanish off the core; see the module docstring for why that
    restriction only lowers the numerator.
    """
    lac = config.lacunary
    if j1 <= lac.j0:
        raise BadRange("deepest scale index must exceed j0")
    _require_admissible(lac.a, lac.k_min, j1)
    window = lac.a ** (-(j1 + 1.0))
    floor = lac.a ** (-(j1 + 4.0))
    if not floor > 0.0:
        raise FloatRangeExceeded(f"a^-{j1 + 4} underflows to 0 for a={lac.a}")

    # the ladder is spaced over [floor, top] and then cut after its first
    # point past the window; that guard point gives the outermost core point
    # its half gap outward, so the quadrature resolves the drop to zero there
    top = max(0.1, window * lac.a ** 2)
    # in logs: near the deepest j1 the floor is subnormal and top / floor overflows
    decades = math.log10(top) - math.log10(floor)
    # an int past the double range cannot meet a float; 2^1000 points per
    # decade already exceed the cap, as the ladder spans over 1e-16 decades
    n_log = max(8, math.ceil(decades * min(config.log_points_per_decade, 2**1000)))
    if n_log > MAX_GRID_POINTS:
        raise BadRange(f"profile ladder capped at {MAX_GRID_POINTS} points")
    ladder = np.geomspace(floor, top, n_log)
    ladder = ladder[: int(np.searchsorted(ladder, window, side="right")) + 1]
    points = np.concatenate((-ladder[::-1], [0.0], ladder))

    # the strip (-floor, floor) is unresolved; give it zero quadrature weight
    # instead of letting the trapezoid rule bridge it with the origin value,
    # so every windowed integral counts resolved area only (and excluding
    # inner scales can only lower it, never raise it)
    weights = trapezoid_weights(points)
    i0 = ladder.size
    weights[i0] = 0.0
    weights[i0 - 1] = (points[i0 - 1] - points[i0 - 2]) / 2.0
    weights[i0 + 1] = (points[i0 + 2] - points[i0 + 1]) / 2.0

    # one heat matrix on the core (all but the two guards) feeds both
    # profiles: a row per point, a column per scale index at its root a^-j
    core = points[1:-1]
    matrix = heat_of_g_matrix(lac.a, lac.k_min, range(lac.j0, j1 + 1), core).T
    return core, weights[1:-1], _chain_rows(matrix, config.q), np.abs(matrix).max(axis=1)


def _window_norm(points, weights, values, p: float, r: float | None = None) -> float:
    """L^p over [0, 1] of the radius-1 window sup (r None) or power sum of a
    core profile: ((1 + y_lo) W^p - y_lo W+^p)^(1/p), and W at p = inf.

    For x <= 1 + y_lo, y_lo = points[0], the window holds the whole core,
    whose value is W; on the rest, a sliver at most a^-(j1+1) wide, it holds
    the core points >= 0, whose value W+ bounds the sliver's from below.
    """

    def value(v: np.ndarray, w: np.ndarray) -> float:
        # a sequential sum, so at x = 0 it equals a prefix-sum window power sum bit for bit
        return float(v.max()) if r is None else float(np.cumsum(w * v**r)[-1]) ** (1.0 / r)

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


def _blowup_numerators(config: ExperimentConfig, j1: int) -> tuple[float, float]:
    """Sup-window numerators (variation, maximal) for one depth j1."""
    points, weights, var_vals, max_vals = _profile_bundle(config, j1)
    return tuple(_window_norm(points, weights, v, config.p) for v in (var_vals, max_vals))


def _validated_j1_list(j1_list: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(j) for j in j1_list)
    if len(out) < 2:
        raise BadRange("need at least two depths to report growth")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise BadRange("j1 list must be strictly increasing")
    return out


def exp_linf_blowup(config: ExperimentConfig, j1_list: Sequence[int]) -> Outcome:
    """Sup-norm variation ratio against depth.

    numerator: L^p over the unit interval of the radius-1 sliding sup of the
    core variation profile of the witness under the heat family with times
    a^(-2j), j0 <= j <= j1, evaluated at their roots a^-j.  denominator: the
    same norm of |G| itself, in closed form (3 - a^k_min)^(1/p) rounded up,
    which is 3^(1/p) to within rounding.  The ratio must grow like
    (j1 - j0)^(1/q).  The extras hold denominator_target, 3^(1/p).
    """
    depths = _validated_j1_list(j1_list)

    def row(j1: int) -> tuple[int, float, float]:
        num, _ = _blowup_numerators(config, j1)
        # param is the active-scale count j1 - j0: the growth law's abscissa,
        # so downstream plots fit the same quantity this function reports.
        return j1 - config.lacunary.j0, num, _sup_denominator(config)

    reports, fit = _rows(depths, row)
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
    profiles from the same heat matrix, same closed-form denominator); the
    point of the contrast is that the maximal ratio stays flat while the
    variation ratio grows.  The fit is that of the variation ratios; the
    reports are the maximal rows, each timed as the row that computed both.
    The extras hold the pairs (one {j1, variation_ratio, maximal_ratio} per
    depth), variation_growth, the last variation ratio over the first, and
    maximal_spread, the largest maximal ratio over the smallest, less 1.
    """
    depths = _validated_j1_list(j1_list)
    max_numerators = []

    def row(j1: int) -> tuple[int, float, float]:
        num_var, num_max = _blowup_numerators(config, j1)
        max_numerators.append(num_max)
        return j1 - config.lacunary.j0, num_var, _sup_denominator(config)

    variation, fit = _rows(depths, row)
    reports = tuple(
        RatioReport(v.param, num, v.denominator, v.seconds)
        for v, num in zip(variation, max_numerators)
    )
    pairs = [
        {"j1": j1, "variation_ratio": v.ratio, "maximal_ratio": m.ratio}
        for j1, v, m in zip(depths, variation, reports)
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
    resolved three octaves below the core window.
    """
    j1 = _lr_depth(r, config.lacunary.j0)
    points, weights, var_vals, _ = _profile_bundle(config, j1)
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
    """
    lac = config.lacunary
    reports, fit = _rows(
        config.r_list, lambda r: (r, lr_numerator(config, r), _power_denominator(config, r))
    )
    deepest = _lr_depth(config.r_list[-1], lac.j0)
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
    owner index.  A_t f(x) = (F(x + t) - F(x - t)) / t takes F from the
    trial's own antiderivative knots by np.interp's formula, one
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
    if not all(np.all(np.isfinite(a)) for a in (bounds, coeffs, widths)):
        raise NonFiniteValue("cell bounds, coefficients and inner widths must be finite")
    if np.any(widths <= 0):
        raise BadRange("inner widths must be positive")
    lengths = np.diff(bounds, axis=1)
    if not np.all(lengths > 0):
        raise NonMonotoneBreakpoints("cell bounds must be strictly increasing")
    if not r > 1:
        raise BadRange("inner norm exponent must satisfy r > 1")
    if not (p == math.inf or p >= 1):
        raise BadRange("outer exponent must satisfy p >= 1")
    radii = np.array([float(t) for t in J])
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

    # F on each bracket [knot j, knot j + 1), j = -1 .. cells, as in np.interp:
    # slope (F(j + 1) - F(j)) / length from the knot's value F(j), and flat
    # (slope 0) outside the support
    mass = np.zeros((trials, cells + 1, m))
    np.cumsum(lengths[:, :, None] * coeffs, axis=1, out=mass[:, 1:])
    zero = np.zeros((trials, 1, m))
    slope = np.concatenate((zero, np.diff(mass, axis=1) / lengths[:, :, None], zero), axis=1)
    knot = np.concatenate((bounds[:, :1], bounds), axis=1)
    base = np.concatenate((zero, mass), axis=1)
    at = owner[:, None]

    def antiderivative(y: np.ndarray) -> np.ndarray:
        # the bracket is the number of the trial's own knots at or below y
        parts = np.split(y, starts[1:])
        bracket = np.concatenate(
            [np.searchsorted(b, v, side="right") for b, v in zip(bounds, parts)]
        )
        return slope[at, bracket] * (y - knot[at, bracket])[:, :, None] + base[at, bracket]

    upper = antiderivative(x[:, None] + radii)
    averages = (upper - antiderivative(x[:, None] - radii)) / radii[:, None]
    # one row per (point, coordinate), its values along the radii
    rows = averages.transpose(0, 2, 1).reshape(-1, radii.size)
    variation = qvariation_rows(rows, q).reshape(-1, m)

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
    bounds = np.array([float(b) for b in cell_bounds])
    coeffs = np.asarray(coefficient_matrix, dtype=float)
    widths = np.asarray(tuple(inner_widths), dtype=float)
    row = _transfer_block(bounds[None], coeffs[None], widths[None], p, q, r, J)[0]
    return NormTransferResult(*row.tolist())


def _transfer_draw(seed: int, m: int, n: int) -> tuple[list[float], list[np.ndarray], np.ndarray]:
    """The random simple function of one norm-transfer trial: its cell
    bounds, coefficient rows and inner widths, from its own generator."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.2, 1.0, m)
    bounds = [float(rng.uniform(-1.0, 0.0))]
    coeff_rows = []
    for block in range(n):
        bounds.append(bounds[-1] + float(rng.uniform(0.3, 1.0)))
        coeff_rows.append(rng.uniform(-1.0, 1.0, m))
        if block != n - 1:
            bounds.append(bounds[-1] + float(rng.uniform(0.2, 0.6)))
            coeff_rows.append(np.zeros(m))
    return bounds, coeff_rows, widths


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
    trial, and each trial's seconds.  Each trial draws from its own
    generator; the trials run in stacked blocks of _TRANSFER_BLOCK, and a
    trial's seconds are its block's time divided by the block's trial count.
    """
    if m < 1 or n < 1:
        raise BadRange("need at least one block in each direction")
    if trials < 1:
        raise BadRange("need at least one trial")
    radii = J or make_radius_set((0.25, 0.0625, 0.015625))
    rows = np.empty((trials, 5))
    seconds = np.empty(trials)
    for first in range(0, trials, _TRANSFER_BLOCK):
        t0 = time.perf_counter()
        block = slice(first, min(first + _TRANSFER_BLOCK, trials))
        draws = (_transfer_draw(seed + i, m, n) for i in range(block.start, block.stop))
        bounds, coeffs, widths = (np.array(part) for part in zip(*draws))
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
