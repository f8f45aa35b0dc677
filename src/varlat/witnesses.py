"""Truncated lacunary sign functions and their key oscillation estimates.

The witness function G alternates sign on the geometric cells [a^k, a^(k+1))
for k_min <= k <= -1 and vanishes elsewhere.  Consecutive heat scales a^(-2j)
then disagree at the origin by a definite amount D_j; certifying a positive
lower bound on D_j over a window of scales is what drives every blow-up
experiment downstream.

Two independent evaluation routes exist on purpose: the generic closed form in
operators.heat_apply, and the direct error-function sum here.  Tests hold them
to 1e-12 of each other; nothing in the package collapses them into one.  They
share only the kernel CDF, operators._kernel_cdf: the generic route sums it
over a scale-local window of the jumps of an arbitrary step function, this
one over every cell edge of G with the cells' signs, so the two sums are
still formed independently.
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
from .operators import _kernel_cdf
from .variation import RadiusSet, make_radius_set

__all__ = [
    "LacunaryParams",
    "DEFAULT_BASE_CANDIDATES",
    "DEFAULT_J_WINDOW",
    "lacunary_sign",
    "unit_indicator",
    "heat_of_g_at",
    "heat_of_g_matrix",
    "truncation_tail_bound",
    "key_estimate_table",
    "search_key_params",
    "geometric_radius_set",
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

#: ln of the largest representable double, with headroom; exponents past this
#: underflow to zero on the reciprocal side.
_LN_DOUBLE_MAX = 708.0

#: Entries of the (scale, point, edge) tensor that heat_of_g_matrix builds
#: per chunk of points; it bounds the temporaries at a few MB each.
_HEAT_CHUNK = 262_144


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
    """The alternating sign function sum_k (-1)^(k+1) 1_[a^k, a^(k+1))."""
    if not a > 1:
        raise InvalidBase("lacunary base must satisfy a > 1")
    if k_min > -1:
        raise BadRange("k_min must be at most -1")
    ks = np.arange(k_min, 0)
    breakpoints = np.concatenate((np.power(a, ks.astype(float)), [1.0]))
    values = np.where(ks % 2 == 0, -1.0, 1.0)  # (-1)^(k+1)
    return make_pcf(breakpoints, values)


def unit_indicator() -> PiecewiseConstantFn:
    """The indicator of [0, 1)."""
    return make_pcf((0.0, 1.0), (1.0,))


def heat_of_g_matrix(
    a: float, k_min: int, js: Iterable[int], ys: Iterable[float]
) -> np.ndarray:
    """Heat values of the sign function; rows index scales j, columns points.

    Direct error-function sum over the cells, independent of the generic
    operator route: H_{a^(-2j)} G(y) =
    sum_k (-1)^(k+1) [Phi((y - a^k) a^j) - Phi((y - a^(k+1)) a^j)].
    """
    if not a > 1:
        raise InvalidBase("lacunary base must satisfy a > 1")
    if k_min > -1:
        raise BadRange("k_min must be at most -1")
    j_arr = np.asarray(tuple(js), dtype=float)
    if np.any(j_arr < 0):
        raise BadRange("heat scale indices must be nonnegative")
    y_arr = np.asarray(tuple(ys), dtype=float)
    ks = np.arange(k_min, 0)
    signs = np.where(ks % 2 == 0, -1.0, 1.0)
    # cell k is [edge k, edge k+1); neighbouring cells share an edge, so Phi
    # is evaluated once per edge and differenced
    edges = np.power(a, np.arange(k_min, 1).astype(float))
    scale = np.power(a, j_arr)[:, None, None]
    out = np.empty((j_arr.size, y_arr.size))
    # chunk the point axis so the (j, y, edge) tensor stays modest
    step = max(1, _HEAT_CHUNK // max(1, j_arr.size * edges.size))
    for start in range(0, y_arr.size, step):
        block = y_arr[start : start + step]
        cdf = _kernel_cdf((block[None, :, None] - edges[None, None, :]) * scale)
        terms = cdf[..., :-1] - cdf[..., 1:]
        terms *= signs
        # a plain sum over the cells: unlike a BLAS product, it gives each
        # value independently of the other points and of the chunking
        out[:, start : start + step] = terms.sum(axis=-1)
    return out


def heat_of_g_at(a: float, k_min: int, j: int, y: float) -> float:
    """Single heat value of the sign function at scale index j and point y."""
    return float(heat_of_g_matrix(a, k_min, (j,), (y,))[0, 0])


def truncation_tail_bound(a: float, k_min: int, j: int) -> float:
    """Upper bound for the effect of the discarded tail below a^k_min.

    The missing mass is under a^(k_min + 1) and the deepest kernel sup is
    (4 pi a^(-2j))^(-1/2), so the product bounds the pollution of any heat
    value at scale index j.
    """
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
    column = heat_of_g_matrix(a, k_min, range(j_max + 2), (0.0,))[:, 0]
    return tuple(np.abs(np.diff(column)).tolist())


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
        table = key_estimate_table(a, k_min, j_hi)
        constant = float(min(table[j_lo:]))
        if best is None or constant > best[0]:
            best = (constant, float(a))
    assert best is not None
    constant, a_star = best
    if constant < KEY_THRESHOLD:
        raise NoAdmissibleBase(
            f"best candidate a={a_star} only certifies {constant:.3e} < {KEY_THRESHOLD:.0e}"
        )
    return LacunaryParams(a=a_star, k_min=k_min, j0=j_lo, key_constant=constant)


def geometric_radius_set(a: float, j0: int, j1: int) -> RadiusSet:
    """Heat times a^(-2j) for j0 <= j <= j1, largest first."""
    if not a > 1:
        raise InvalidBase("lacunary base must satisfy a > 1")
    if j0 < 0 or j0 > j1:
        raise BadRange(f"scale range [{j0}, {j1}] is empty or negative")
    if 2.0 * j1 * math.log(a) >= _LN_DOUBLE_MAX:
        raise FloatRangeExceeded(
            f"a^(-2*{j1}) underflows IEEE double range for a={a}"
        )
    js = np.arange(j0, j1 + 1, dtype=float)
    return make_radius_set(np.power(a, -2.0 * js))


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
