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
from .operators import _heat_matrix

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
        if not self.a > 1:
            raise InvalidBase("lacunary base must satisfy a > 1")
        if self.k_min > -1:
            raise BadRange("k_min must be at most -1")
        if self.j0 < 1:
            raise BadRange("j0 must be at least 1")
        if not self.key_constant > 0:
            raise KeyEstimateFailed("key constant must be positive")


def lacunary_sign(a: float, k_min: int) -> PiecewiseConstantFn:
    """The alternating sign function sum_k (-1)^(k+1) 1_[a^k, a^(k+1)).

    Cells whose edges round to one double (a^k underflows to 0 below about
    k = -1075 at a = 2) have no width and are left out; those with both
    edges 0.0 are never formed, so a deep k_min allocates nothing for them.
    """
    if not a > 1:
        raise InvalidBase("lacunary base must satisfy a > 1")
    if k_min > -1:
        raise BadRange("k_min must be at most -1")
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
    value at scale index j.  Raises InvalidBase unless 1 < a < inf.
    """
    if not 1.0 < a < math.inf:
        raise InvalidBase(f"lacunary base must satisfy 1 < a < inf, got {a}")
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


def key_estimate_table(a: float, k_min: int, j_max: int) -> tuple[float, ...]:
    """The oscillation sequence D_j = |H_j G(0) - H_(j+1) G(0)|, j = 0..j_max.

    Admissibility is enforced at the deepest evaluated scale j_max + 1; the
    table is only as trustworthy as the truncation it rests on.
    """
    if j_max < 0:
        raise BadRange("j_max must be nonnegative")
    _require_admissible(a, k_min, j_max + 1)
    _normal_roots(a, np.array([j_max + 1.0]))  # before listing every scale
    column = heat_of_g_matrix(a, k_min, range(j_max + 2), (0.0,))[:, 0]
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

    The ladder is scanned inside-out in blocks of ``_PROBE_BLOCK`` probes,
    one heat evaluation at +-probes per block, and the scan stops at the
    first block that holds a failure.  A probe's verdict depends only on its
    own heat values, and probes past the first failure cannot change the
    prefix, so the radius is the one a full-ladder evaluation gives.
    """
    if j0 < 1 or j0 > j1:
        raise BadRange(f"scale range [{j0}, {j1}] is empty or starts below 1")
    _require_admissible(a, k_min, j1 + 1)

    js = range(j0, j1 + 2)
    at_zero = heat_of_g_matrix(a, k_min, js, (0.0,))[:, 0]
    d_zero = np.abs(np.diff(at_zero))
    if np.any(d_zero <= 0):
        raise KeyEstimateFailed("key oscillation vanishes at the origin")

    decades = (j1 + 6) * math.log10(a)
    count = max(16, int(math.ceil(decades * _PROBES_PER_DECADE)))
    probes = 10.0 ** (-np.arange(count, -1, -1) / _PROBES_PER_DECADE)
    for start in range(0, probes.size, _PROBE_BLOCK):
        block = probes[start : start + _PROBE_BLOCK]
        values = heat_of_g_matrix(a, k_min, js, np.concatenate((block, -block)))
        holds = np.abs(np.diff(values, axis=0)) >= d_zero[:, None] / 2.0
        ok = np.all(holds[:, : block.size] & holds[:, block.size :], axis=0)
        if not ok.all():
            first_bad = start + int(np.argmin(ok))
            if first_bad == 0:
                raise KeyEstimateFailed(
                    "oscillation halves inside the innermost probe; no radius certified"
                )
            return float(probes[first_bad - 1])
    return float(probes[-1])
