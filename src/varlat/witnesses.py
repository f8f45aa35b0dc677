"""Truncated lacunary sign functions and their key oscillation estimates.

The witness function G alternates sign on the geometric cells [a^k, a^(k+1))
for k_min <= k <= -1 and vanishes elsewhere.  Consecutive heat scales a^(-2j)
then disagree at the origin by a definite amount D_j; certifying a positive
lower bound on D_j over a window of scales is what drives every blow-up
experiment downstream.

Every heat value of G comes from the package's one heat evaluator,
operators._heat_matrix, through heat_of_g_matrix: the key tables, the
halving radii and the experiments' profiles alike, so all of them carry
the erf error budget of the operators module.  The heat times a^(-2j) are
evaluated at their roots a^-j and never formed themselves, so a scale index
is usable as long as a^-j is a normal double (j up to 1022 at a = 2), not
only while a^(-2j) is.  The tests keep an independent cell-by-cell
error-function sum as the oracle the kernel is held to.

The scaling law.  Substituting z = a^-m z', m = j - j*, in the heat integral
gives H_(a^-2j) G(y) = (-1)^m H_(a^-2j*) G_m(a^m y), where G_m is G with its
cells moved up m places.  Let j* (series_scale) be the smallest j >= j0 with
a^j > 17, the kernel window 16 plus one (5 at a = 2, 3 at a = 3, 2 at a = 8
and 7 at a = 1.5, for j0 at or below these).  For every point with
|a^m y| <= a^-(j*+1), the cells of G_m at or above 1 then lie outside the
kernel window, so G_m may be read as G itself, truncated m cells deeper,
which moves a value by at most truncation_tail_bound(a, k_min, j), below
TAIL_TOLERANCE at every depth _require_admissible accepts.  So every scale
j >= j* is a signed, rescaled copy of the scale j*, and that is the one rule
for all of them:

- key_estimate_table evaluates the origin at the scales up to j* only and
  gives every D_j with j >= j* the value 2|H_(a^-2j*) G(0)|;
- delta_halving_radius scans the scales below j* and j1 only, since
  D_j(y) = D_j1(a^(j-j1) y) for j* <= j <= j1;
- experiments._profile_bundles reads every scale j >= j* of every depth's
  core from one series of points +-a^-(N + k/P) at the scale j*: a core point
  +-a^-(j1+1+o+k/P) at the scale j maps to N = j* + 1 + j1 - j + o.

The settle rule.  Since |G| <= 1 and the derivative of the heat kernel
K_s integrates to 1/sqrt(pi s) in absolute value,
|H_s G(y) - H_s G(0)| <= |y| / sqrt(pi s), which at s = a^(-2j) is
|y| a^j / sqrt(pi).  A point where that is at most _SETTLE (settled) is
within _SETTLE of the origin at the scale j and at every smaller one, and
_SETTLE lies far below the kernel's ERF_ERROR.  So a heat call may send the
kernel only the origin and the points not settled at its largest scale,
and give every settled point the origin's values: no value moves by more
than _SETTLE plus the kernel's error budget at the two points.
experiments._profile_bundles does so in both of its heat calls.  The
series points +-a^-(j*+1+m/P) settle from a fixed m on (582 at a = 2 with
P = 10), so the kernel sees the same points at every depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corefn import PiecewiseConstantFn, make_pcf
from .errors import (
    BadRange,
    FloatRangeExceeded,
    InvalidBase,
    KeyEstimateFailed,
    NoAdmissibleBase,
    TruncationTooShallow,
)
from .operators import _HEAT_WINDOW, _heat_matrix

__all__ = [
    "LacunaryParams",
    "DEFAULT_BASE_CANDIDATES",
    "DEFAULT_J_WINDOW",
    "lacunary_sign",
    "unit_indicator",
    "heat_of_g_matrix",
    "truncation_tail_bound",
    "key_estimate_table",
    "certified_key_table",
    "search_key_params",
    "delta_halving_radius",
]

#: Candidate lacunary bases for the parameter search, smallest first.
DEFAULT_BASE_CANDIDATES: tuple[float, ...] = (1.5, 2.0, math.e, 3.0, 4.0, 6.0, 8.0)

#: Scale window [j_lo, j_hi] over which the key constant is certified.
DEFAULT_J_WINDOW: tuple[int, int] = (2, 30)

#: A truncated tail may pollute an evaluated average by at most this much.
TAIL_TOLERANCE = 1e-10

#: Minimum certified key constant for a base to count as admissible.
KEY_THRESHOLD = 1e-4

#: ln of the largest representable double, with headroom; a tail bound whose
#: log passes it is reported as inf.
_LN_DOUBLE_MAX = 708.0


@dataclass(frozen=True)
class LacunaryParams:
    """A certified witness configuration.

    key_constant is the certified lower bound for the oscillation D_j over
    the window of scales starting at j0.
    """

    a: float
    k_min: int
    j0: int
    key_constant: float

    def __post_init__(self) -> None:
        _check_witness(self.a, self.k_min)
        if self.j0 < 1:
            raise BadRange("j0 must be at least 1")
        if not self.key_constant > 0:
            raise KeyEstimateFailed("key constant must be positive")


def _check_witness(a: float, k_min: int) -> None:
    """Raises InvalidBase unless 1 < a < inf, and BadRange unless k_min <= -1."""
    if not 1.0 < a < math.inf:
        raise InvalidBase(f"lacunary base must satisfy 1 < a < inf, got {a}")
    if k_min > -1:
        raise BadRange(f"k_min must be at most -1, got {k_min}")


def lacunary_sign(a: float, k_min: int) -> PiecewiseConstantFn:
    """The alternating sign function sum_k (-1)^(k+1) 1_[a^k, a^(k+1)).

    Cells whose edges round to one double (a^k underflows to 0 below about
    k = -1075 at a = 2) have no width and are left out; those with both
    edges 0.0 are never formed, so a deep k_min allocates nothing for them.
    """
    _check_witness(a, k_min)
    # a^k is 0.0 for k < log(2^-1075) / log(a); one below, for the logs' rounding
    deepest = math.floor(-1075.0 * math.log(2.0) / math.log(a)) - 1
    if deepest > k_min and np.power(a, float(deepest)) == 0.0:
        k_min = deepest
    ks = np.arange(k_min, 0)
    edges = np.power(a, np.arange(k_min, 1).astype(float))
    wide = edges[:-1] < edges[1:]
    breakpoints = np.append(edges[:-1][wide], 1.0)
    values = np.where(ks % 2 == 0, -1.0, 1.0)[wide]  # (-1)^(k+1)
    return make_pcf(breakpoints, values)


def unit_indicator() -> PiecewiseConstantFn:
    """The indicator of [0, 1)."""
    return make_pcf((0.0, 1.0), (1.0,))


def heat_of_g_matrix(
    a: float, k_min: int, js: Iterable[int], ys: Iterable[float]
) -> np.ndarray:
    """Heat values H_{a^(-2j)} G(y); rows index scales j, columns points y.

    A thin call into operators._heat_matrix on lacunary_sign(a, k_min) at
    the roots a^-j, so each value carries that kernel's stated error budget
    and depends only on its own point and scale.  Raises FloatRangeExceeded
    when some a^-j is not a positive normal double.
    """
    g = lacunary_sign(a, k_min)
    j_arr = np.asarray(tuple(js), dtype=float)
    if np.any(j_arr < 0):
        raise BadRange("heat scale indices must be nonnegative")
    return _heat_matrix(g, _normal_roots(a, j_arr), np.asarray(tuple(ys), dtype=float)).T


def _normal_roots(a: float, j_arr: np.ndarray) -> np.ndarray:
    """The roots a^-j; raises FloatRangeExceeded unless each is a positive
    normal double."""
    roots = np.power(a, -j_arr)
    if not np.all(roots >= np.finfo(float).tiny):
        raise FloatRangeExceeded(f"a^-{j_arr.max():.0f} is not a normal IEEE double for a={a}")
    return roots


def truncation_tail_bound(a: float, k_min: int, j: int) -> float:
    """Upper bound for the effect of the discarded tail below a^k_min.

    The missing mass is under a^(k_min + 1) and the deepest kernel sup is
    (4 pi a^(-2j))^(-1/2), so the product bounds the pollution of any heat
    value at scale index j.  Raises InvalidBase unless 1 < a < inf, and
    BadRange unless k_min <= -1.
    """
    _check_witness(a, k_min)
    log_bound = (k_min + 1 + j) * math.log(a) - 0.5 * math.log(4.0 * math.pi)
    if log_bound > _LN_DOUBLE_MAX:
        return math.inf
    return math.exp(log_bound)


def _require_admissible(a: float, k_min: int, deepest_j: int) -> None:
    bound = truncation_tail_bound(a, k_min, deepest_j)
    if not bound < TAIL_TOLERANCE:
        raise TruncationTooShallow(
            f"tail bound {bound:.3e} at scale index {deepest_j} exceeds "
            f"{TAIL_TOLERANCE:.0e}; lower k_min below {k_min}"
        )


def series_scale(a: float, j0: int) -> int:
    """j*, the smallest scale index j >= j0 with a^j > _HEAT_WINDOW + 1.

    From j* on, every scale is a signed, rescaled copy of the scale j* (see
    the module docstring).
    """
    # the log estimate lands at most two below j*, whatever its rounding
    j = max(j0, math.floor(math.log(_HEAT_WINDOW + 1.0) / math.log(a)) - 1)
    while not a**j > _HEAT_WINDOW + 1.0:
        j += 1
    return j


#: A heat value this close to the origin's is taken as the origin's; it is
#: far below the kernel's ERF_ERROR (see the settle rule above).
_SETTLE = 2.0**-60


def settled(a: float, j: int, ys: np.ndarray) -> np.ndarray:
    """True where |y| a^j / sqrt(pi) <= _SETTLE: there every heat value
    H_(a^-2i) G(y), i <= j, is within _SETTLE of H_(a^-2i) G(0) (the settle
    rule of the module docstring)."""
    return np.abs(ys) * (a**j / math.sqrt(math.pi)) <= _SETTLE


def key_estimate_table(a: float, k_min: int, j_max: int) -> tuple[float, ...]:
    """The oscillation sequence D_j = |H_j G(0) - H_(j+1) G(0)|, j = 0..j_max.

    The origin is evaluated at the scales 0..min(j_max + 1, j*) only, with
    j* = series_scale(a, 0); every deeper scale is read from j* by the
    scaling law of the module docstring, so every D_j with j >= j* is
    2|H_j* G(0)|; the two-scale difference is within
    truncation_tail_bound(a, k_min, j + 1) of it, plus the kernel's error
    budget.  Admissibility and the double range are still enforced at the
    deepest scale the table stands for, j_max + 1; the table is only as
    trustworthy as the truncation it rests on.
    """
    if j_max < 0:
        raise BadRange("j_max must be nonnegative")
    _require_admissible(a, k_min, j_max + 1)
    _normal_roots(a, np.array([j_max + 1.0]))
    column = heat_of_g_matrix(a, k_min, range(min(j_max + 1, series_scale(a, 0)) + 1), (0.0,))[:, 0]
    # H_j G(0) = (-1)^(j-j*) H_j* G(0) for the scales past j* up to j_max + 1,
    # so each D_j from j* on is exactly 2|H_j* G(0)|
    column = np.append(column, column[-1] * (-1.0) ** np.arange(1, j_max + 3 - column.size))
    return tuple(np.abs(np.diff(column)).tolist())


def certified_key_table(a: float, k_min: int, j0: int, j_max: int) -> tuple[tuple, float]:
    """The key table D_0..D_max(j_max, j0) and its minimum over j >= j0,
    the certified key constant.
    """
    table = key_estimate_table(a, k_min, max(j_max, j0))
    return table, _certified_constant(table, j0)


def _certified_constant(table: Sequence[float], j0: int) -> float:
    """The key constant a key table certifies: its minimum over j >= j0."""
    return float(min(table[j0:]))


def search_key_params(
    a_candidates: Sequence[float],
    k_min: int,
    j_window: tuple[int, int] = DEFAULT_J_WINDOW,
) -> LacunaryParams:
    """Pick the base whose worst oscillation over the window is largest.

    Raises NoAdmissibleBase when no candidate clears the certification
    threshold (or none were supplied).
    """
    j_lo, j_hi = j_window
    if j_lo < 1 or j_lo > j_hi:
        raise BadRange(f"scale window {j_window} is empty or starts below 1")
    if not a_candidates:
        raise NoAdmissibleBase("no candidate bases supplied")
    best: tuple[float, float] | None = None  # (constant, a)
    for a in a_candidates:
        _, constant = certified_key_table(a, k_min, j_lo, j_hi)
        if best is None or constant > best[0]:
            best = (constant, float(a))
    assert best is not None
    constant, a_star = best
    if constant < KEY_THRESHOLD:
        raise NoAdmissibleBase(
            f"best candidate a={a_star} only certifies {constant:.3e} < {KEY_THRESHOLD:.0e}"
        )
    return LacunaryParams(a=a_star, k_min=k_min, j0=j_lo, key_constant=constant)


#: Probe density for the halving-radius scan, per decade of |y|.
_PROBES_PER_DECADE = 8

#: Probes evaluated per heat call of the halving-radius scan, innermost first.
_PROBE_BLOCK = 16


def delta_halving_radius(a: float, k_min: int, j0: int, j1: int) -> float:
    """Largest probed radius rho with D_j(y) >= D_j(0)/2 for all |y| <= rho.

    Probes sit on the fixed decade ladder 10^(-i/8), extended down past
    a^-(j1+6); the answer is the longest all-passing prefix of that ladder,
    counted from the innermost probe, over every scale index j in [j0, j1].
    Keeping the ladder independent of j1 (deeper runs only append smaller
    probes) makes the certified radius weakly decreasing in j1.  The origin
    itself always passes, so continuity guarantees rho > 0; if even the
    innermost probe fails, no radius is certified.

    Only the scales j0 <= j < j* and j1 itself are probed, j* =
    series_scale(a, j0).  By the scaling law of the module docstring,
    D_j(y) = D_j1(a^(j-j1) y) for j* <= j <= j1, and D_j(0) is the same at
    all of them: a scale in between halves at a^(j1-j) times the distance at
    which j1 does, so none halves closer to the origin than j1.

    The ladder is scanned inside-out in blocks of ``_PROBE_BLOCK`` probes,
    one heat evaluation at +-probes per block, and the scan stops at the
    first block that holds a failure.  A probe's verdict depends only on its
    own heat values, and probes past the first failure cannot change the
    prefix, so the radius is the one a full-ladder evaluation gives.
    """
    if j0 < 1 or j0 > j1:
        raise BadRange(f"scale range [{j0}, {j1}] is empty or starts below 1")
    js = np.append(np.arange(j0, min(series_scale(a, j0), j1)), j1)
    # D_j(0) from the key table, which also checks the truncation at j1 + 1
    d_zero = np.array(key_estimate_table(a, k_min, j1))[js]
    if np.any(d_zero <= 0):
        raise KeyEstimateFailed("key oscillation vanishes at the origin")

    decades = (j1 + 6) * math.log10(a)
    count = max(16, int(math.ceil(decades * _PROBES_PER_DECADE)))
    probes = 10.0 ** (-np.arange(count, -1, -1) / _PROBES_PER_DECADE)
    for start in range(0, probes.size, _PROBE_BLOCK):
        block = probes[start : start + _PROBE_BLOCK]
        # D_j(y) reads the scales j and j + 1, stacked in that order
        values = heat_of_g_matrix(a, k_min, np.concatenate((js, js + 1)), np.concatenate((block, -block)))
        holds = np.abs(values[js.size :] - values[: js.size]) >= d_zero[:, None] / 2.0
        ok = np.all(holds[:, : block.size] & holds[:, block.size :], axis=0)
        if not ok.all():
            first_bad = start + int(np.argmin(ok))
            if first_bad == 0:
                raise KeyEstimateFailed(
                    "oscillation halves inside the innermost probe; no radius certified"
                )
            return float(probes[first_bad - 1])
    return float(probes[-1])
