"""Averaging, heat, and Hilbert operators on piecewise-constant functions.

All three operators admit closed forms on step functions, so every evaluation
here is exact up to rounding: averages go through the piecewise-linear
antiderivative, the heat semigroup through Gaussian error functions, and the
Hilbert transform through logarithms of breakpoint distances.

The heat value H_s f(x) = sum_b c_b Phi((x - b)/sqrt(s)) is summed over a
scale-local window of breakpoints only.  Breakpoints more than 16 sqrt(s) left
of x add their jumps c_b as a prefix sum, those more than 16 sqrt(s) right of
it add nothing; each such term is off by at most Phi(-16) = erfc(8)/2 < 6e-30.
The leading breakpoints within 2^-6 sqrt(s) of the first one, b_0, collapse
to their Taylor expansion of order n = 7 about b_0: with u_b = (b - b_0)/sqrt(s),
S_m = sum c_b u_b^m over them, w = (x - b_0)/sqrt(s) and K = Phi',
    sum over m = 0 .. n of (-1)^m S_m/m! Phi^(m)(w),
off by at most max|K^(n)| sum |c_b| u_b^(n+1) / (n+1)!, with max|K^(7)| =
0.88612; `_collapse_bound` computes it (at most 1.6e-19 at every normal
scale a^-j of the witness, at a = 2 and a = 8).
The other window terms are c_b/2 + (c_b/2) erf(w_b/2), with erf from W. J.
Cody's rational forms in numpy (`_erf`), each within ERF_ERROR = 3e-16
absolute of the exact value on a dense mpmath sweep; Phi = `_kernel_cdf`
carries the same bound.  `_heat_matrix` is the package's one heat
evaluator, so every heat value, of the profiles and of the witness's key
tables and halving radii alike, carries this budget.  The dense sum over
every breakpoint and the witness's cell-by-cell sum are kept only in the
tests, as their oracles.

Normalization warnings, both deliberate:
  * the averaging operator at radius t divides by t, not 2t, so it carries
    total mass 2;
  * the Hilbert transform omits the conventional 1/pi prefactor.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .corefn import (
    PiecewiseConstantFn,
    _sorted_distinct,
    pcf_antiderivative_eval_many,
)
from .errors import (
    BadRange,
    NonPositiveRadius,
    NonPositiveTime,
    SingularPoint,
)

__all__ = [
    "OperatorFamily",
    "avg_apply",
    "avg_apply_many",
    "heat_apply",
    "heat_apply_many",
    "hilbert_apply",
    "hilbert_apply_many",
    "family_value_matrix",
    "heat_integral_representation_check",
    "gauss_legendre_integrate",
]

#: Absolute distance to a breakpoint at which the Hilbert transform is
#: considered to be evaluated on its singularity.
SINGULARITY_TOLERANCE = 1e-300

#: Upper quadrature cutoff for the subordination integral; the Gaussian tail
#: beyond it is below 1e-12 of the total.
REPRESENTATION_CUTOFF = 20.0


class OperatorFamily(Enum):
    """The two one-parameter families the variation machinery runs over."""

    AVERAGES = "averages"
    HEAT = "heat"


# ---------------------------------------------------------------------------
# differential averages


def avg_apply(f: PiecewiseConstantFn, t: float, x: float) -> float:
    """Mass-2 average over [x - t, x + t]: (F(x+t) - F(x-t)) / t."""
    return float(avg_apply_many(f, t, np.array([x]))[0])


def avg_apply_many(
    f: PiecewiseConstantFn, t: float | np.ndarray, xs: float | Iterable[float]
) -> np.ndarray:
    """A_t f(x) with radii t and points x broadcast against each other."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise NonPositiveRadius("averaging radii must be positive")
    x = np.asarray(xs, dtype=float)
    upper = pcf_antiderivative_eval_many(f, x + t)
    lower = pcf_antiderivative_eval_many(f, x - t)
    return (upper - lower) / t


# ---------------------------------------------------------------------------
# heat semigroup


#: W. J. Cody's rational forms for erf (Math. Comp. 23 (1969) 631-637, the
#: CALERF coefficients), highest power first, denominators monic:
#: erf(x) = x P(x^2)/Q(x^2) for |x| <= 0.46875, and
#: erf(x) = 1 - exp(-x^2) P(x)/Q(x) above it.
_ERF_NEAR = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERF_FAR = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERF_SPLIT = 0.46875

#: erf(x) rounds to +-1 for |x| >= 6 (erfc(6) < 3e-17), so larger arguments
#: are clipped there before x^2 can overflow.
_ERF_CLIP = 6.0

#: Bound on the absolute error of `_erf` and of `_kernel_cdf`: the largest
#: error of `_erf` against 40-digit mpmath over about 800,000 points of
#: [0, 6.5] was 2.81e-16 (5 ulp of 0.5, just above the split at 0.46875,
#: where 1 - exp(-x^2) P/Q cancels), that of `_kernel_cdf` 1.9e-16; the
#: tests hold both to it on their own sweep of [-9, 9].
ERF_ERROR = 3e-16


def _rational(form: tuple, t: np.ndarray) -> np.ndarray:
    # P(t)/Q(t) by Horner, in place, Q monic
    p, q = form
    num = p[0] * t
    for c in p[1:-1]:
        num += c
        num *= t
    num += p[-1]
    den = t + q[1]
    for c in q[2:]:
        den *= t
        den += c
    return num / den


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) elementwise, within ERF_ERROR absolute (NaN stays NaN)."""
    flat = np.asarray(x, dtype=float).reshape(-1)
    size = np.abs(flat)
    far = np.flatnonzero(size > _ERF_SPLIT)
    if far.size == flat.size:
        return _erf_far(flat, size).reshape(np.shape(x))
    # the near form on every element (it stays finite with |x| clipped),
    # then the far form on the elements past the split
    t = np.minimum(size, _ERF_CLIP) if far.size else size
    t *= t
    out = flat * _rational(_ERF_NEAR, t)
    if far.size:
        out[far] = _erf_far(flat[far], size[far])
    return out.reshape(np.shape(x))


def _erf_far(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    # |x| > 0.46875: 1 - exp(-x^2) P(|x|)/Q(|x|), with the sign of x
    y = np.minimum(size, _ERF_CLIP)
    return np.copysign(1.0 - np.exp(-y * y) * _rational(_ERF_FAR, y), x)


def _kernel_cdf(w: np.ndarray) -> np.ndarray:
    # antiderivative of the s = 1 kernel: integral over (-inf, w]
    return 0.5 + 0.5 * _erf(0.5 * w)


def _kernel_density(w: np.ndarray) -> np.ndarray:
    # derivative of _kernel_cdf: the s = 1 kernel itself
    return np.exp(-w * w / 4.0) / (2.0 * math.sqrt(math.pi))


#: Half-width of the breakpoint window, in units of sqrt(s); a term outside
#: it is within Phi(-16) = erfc(8)/2 < 6e-30 of 0 or 1.
_HEAT_WINDOW = 16.0

#: Most (point, time) pairs summed in one pass over the window offsets.
#: Each work array of a pass then stays under 64 KB, and freeing it never
#: makes glibc's malloc trim the heap top only to fault the same pages back
#: in at the next offset: on the largest depth-sweep call (15,163 pairs)
#: blocks of 4096 took 2,930 page faults down to about 490 and the call
#: from 9.3 to 7.3 ms in a fresh process.
_HEAT_LANES = 4096

#: Width of the leading cluster, in units of sqrt(s), collapsed to its
#: Taylor expansion of order _COLLAPSE_ORDER about the first breakpoint.
_HEAT_CLUSTER = 2.0**-6
_COLLAPSE_ORDER = 7


def _kernel_derivative_polynomials(n: int) -> list[np.ndarray]:
    # P_0 .. P_n, ascending coefficients, with K^(j) = P_j K for the s = 1
    # kernel K = Phi': P_0 = 1 and P_(j+1) = P_j' - (w/2) P_j
    polys = [np.ones(1)]
    for _ in range(n):
        p = polys[-1]
        step = np.zeros(p.size + 1)
        step[: p.size - 1] = p[1:] * np.arange(1, p.size)
        step[1:] -= 0.5 * p
        polys.append(step)
    return polys


_KERNEL_DERIVATIVES = _kernel_derivative_polynomials(_COLLAPSE_ORDER)

#: max |K^(7)| over the line (at w = 0.76237, from 30-digit mpmath), rounded
#: up; `tests/test_operators.py` checks it against a dense grid.
_KERNEL_DERIVATIVE_MAX = 0.8861236


def _jump_coefficients(f: PiecewiseConstantFn) -> np.ndarray:
    """Coefficient of each breakpoint edge: value after minus value before."""
    c = np.concatenate(([0.0], f.values_array, [0.0]))
    return c[1:] - c[:-1]


def _prefix(terms: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(terms)))


def _cluster_sizes(b: np.ndarray, roots: np.ndarray) -> np.ndarray:
    # breakpoints within _HEAT_CLUSTER sqrt(s) of the first one, per time
    return np.searchsorted(b, b[0] + _HEAT_CLUSTER * roots, side="right")


def _cluster_moments(b: np.ndarray, weights: np.ndarray, roots: np.ndarray, order: int) -> np.ndarray:
    """Per time (rows), sum of weights_b u_b^m over its leading cluster, m = 1 .. order.

    u_b = (b - b_0)/sqrt(s).  The sums run as prefix sums over the
    breakpoints, with b - b_0 first divided by a power of two at or above
    the cluster width of the largest time in a band of times; the bands
    are narrow enough that no power of a divided distance that matters
    underflows, where a power of b - b_0 alone would at deep scales.
    """
    sizes = _cluster_sizes(b, roots)
    out = np.zeros((roots.size, order))
    # roots within 2^(900/order) of the band's largest: every power up to
    # `order` of a divided distance within 2^-53 of its cluster's largest
    # stays a normal double
    exponents = np.frexp(roots)[1]
    bands = (exponents.max(initial=0) - exponents) // (900 // order)
    for band in range(int(bands.max(initial=-1)) + 1):
        rows = np.flatnonzero(bands == band)
        if not rows.size:
            continue
        # a power of two, so the sums scale exactly: no time's sums depend
        # on the other times of the band
        width = np.ldexp(_HEAT_CLUSTER, exponents[rows].max())
        top = sizes[rows].max()
        v = (b[:top] - b[0]) / width  # at most 1 in every cluster of the band
        ratio = width / roots[rows]
        term, scale = weights[:top], 1.0
        for m in range(order):
            term, scale = term * v, scale * ratio
            out[rows, m] = _prefix(term)[sizes[rows]] * scale
    return out


def _collapse_bound(f: PiecewiseConstantFn, roots: Iterable[float]) -> np.ndarray:
    """Per time, given as its root sqrt(s) like `_heat_matrix` takes it, the
    bound on the error of collapsing the leading cluster.

    max|K^(n)| sum |c_b| u_b^(n+1) / (n+1)! over the cluster, n =
    _COLLAPSE_ORDER and u_b = (b - b_0)/sqrt(s); 0 where the cluster holds
    one breakpoint and nothing is collapsed.
    """
    roots = np.asarray(roots, dtype=float)
    b = f.breakpoints_array
    n = _COLLAPSE_ORDER
    top = _cluster_moments(b, np.abs(_jump_coefficients(f)), roots, n + 1)[:, n]
    scale = _KERNEL_DERIVATIVE_MAX / math.factorial(n + 1)
    return np.where(_cluster_sizes(b, roots) >= 2, scale * top, 0.0)


def _roots(times: np.ndarray) -> np.ndarray:
    if not np.all(times > 0):
        raise NonPositiveTime("heat time must be positive")
    return np.sqrt(times)


def _heat_matrix(f: PiecewiseConstantFn, roots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H_s f(x) for every point (rows) and time (columns), scale-locally.

    The times come as their roots sqrt(s) > 0, so a caller that holds a
    scale a^-j never squares it: a^(-2j) underflows long before a^-j does.
    Each (point, time) pair's window terms are added to a zero accumulator
    in breakpoint order, one breakpoint offset at a time over a block of up
    to _HEAT_LANES pairs; a pair whose window is shorter reads a zero
    coefficient past the last breakpoint and adds +0.0, so its value does
    not depend on the other points or times.  The work space is a few
    arrays the size of the result, and there is one erf call per block and
    offset up to the block's widest window.
    """
    b = f.breakpoints_array
    c = _jump_coefficients(f)
    zeroth = _prefix(c)
    shape = (x.size, roots.size)
    X = np.broadcast_to(x[:, None], shape)
    R = np.broadcast_to(roots, shape)
    M = np.broadcast_to(_cluster_sizes(b, roots), shape)
    lo = np.searchsorted(b, X - _HEAT_WINDOW * R, side="left")
    # a leading cluster of two or more breakpoints that is not wholly left
    # of the window collapses to its Taylor expansion, and the window starts
    # after it, possibly past a short window's end
    collapse = (M >= 2) & (lo < M)
    start = np.where(collapse, M, lo)
    end = np.maximum(np.searchsorted(b, X + _HEAT_WINDOW * R, side="right"), start)
    out = zeroth[start]
    # the expansion's terms past C_0 Phi(w), sum over m of
    # (-1)^m S_m/m! K^(m-1)(w), are one polynomial in w times K(w), per time
    moments = _cluster_moments(b, c, roots, _COLLAPSE_ORDER)
    taylor = np.zeros((roots.size, _COLLAPSE_ORDER))
    for m, p in enumerate(_KERNEL_DERIVATIVES[:_COLLAPSE_ORDER], start=1):
        taylor[:, : p.size] += np.multiply.outer(moments[:, m - 1] * ((-1) ** m / math.factorial(m)), p)
    taylor = taylor[np.nonzero(collapse)[1]]
    w = (X[collapse] - b[0]) / R[collapse]
    # w^n may overflow where K(w) is 0; the clipped argument keeps it finite
    v = np.clip(w, -2.0 * _HEAT_WINDOW, 2.0 * _HEAT_WINDOW)
    poly = taylor[:, -1]
    for a in taylor[:, -2::-1].T:
        poly = poly * v + a
    out[collapse] = out[collapse] * _kernel_cdf(w) + poly * _kernel_density(w)
    # each window term c Phi(w) = c/2 + (c/2) erf(w/2): the halves enter as
    # one prefix difference, and the erf parts are added one offset k at a
    # time over a block of pairs; a lane past its window's end reads the
    # zero coefficient appended after the last breakpoint
    out += 0.5 * (zeroth[end] - zeroth[start])
    b_pad, half_c = np.append(b, b[-1]), np.append(0.5 * c, 0.0)
    lanes = [a.reshape(-1) for a in (X, np.broadcast_to(0.5 / roots, shape), start, end - start)]
    sums = np.zeros(x.size * roots.size)
    for i in range(0, sums.size, _HEAT_LANES):
        lane_x, half_inv, first, width = (a[i : i + _HEAT_LANES] for a in lanes)
        acc = sums[i : i + _HEAT_LANES]
        for k in range(width.max(initial=0)):
            idx = np.where(k < width, first + k, b.size)
            acc += half_c[idx] * _erf((lane_x - b_pad[idx]) * half_inv)
    out += sums.reshape(shape)
    out[np.isnan(x)] = np.nan
    return out


def heat_apply(f: PiecewiseConstantFn, s: float, x: float) -> float:
    """Exact convolution with the heat kernel at time s."""
    return float(heat_apply_many(f, s, np.array([x]))[0])


def heat_apply_many(f: PiecewiseConstantFn, s: float, xs: Iterable[float]) -> np.ndarray:
    """H_s f at each point, summed over a window of breakpoints.

    Jumps more than 16 sqrt(s) left of a point enter as a prefix sum and
    those more than 16 sqrt(s) right of it are dropped, each off by at most
    erfc(8)/2 < 6e-30.  The first breakpoints within 2^-6 sqrt(s) of the
    first one collapse to their Taylor expansion of order 7 about it (see
    the module docstring); the remainder is at most
    max|K^(7)| sum |c_b| u_b^8 / 8!, u_b = (b - b_0)/sqrt(s) (`_collapse_bound`).
    """
    return _heat_matrix(f, _roots(np.array([s], dtype=float)), np.asarray(xs, dtype=float))[:, 0]


# ---------------------------------------------------------------------------
# Hilbert transform


def hilbert_apply(f: PiecewiseConstantFn, x: float) -> float:
    """Principal-value transform without the 1/pi factor.

    For the unit indicator this is ln|x / (x - 1)|.  Raises SingularPoint when
    x lands on a breakpoint, where the transform of a jump diverges.
    """
    return float(hilbert_apply_many(f, np.array([x]))[0])


def hilbert_apply_many(f: PiecewiseConstantFn, xs: Iterable[float]) -> np.ndarray:
    x = np.asarray(xs, dtype=float)
    dist = x[:, None] - f.breakpoints_array[None, :]
    if np.any(np.abs(dist) <= SINGULARITY_TOLERANCE):
        raise SingularPoint("evaluation point coincides with a breakpoint")
    coef = _jump_coefficients(f)
    return np.log(np.abs(dist)) @ coef


# ---------------------------------------------------------------------------
# families


def family_value_matrix(
    f: PiecewiseConstantFn, family: OperatorFamily, J, xs: Iterable[float]
) -> np.ndarray:
    """Matrix of family values, one row per point, one column per radius of
    J, any iterable of radii (make_radius_set checks one)."""
    x = np.asarray(xs, dtype=float)
    radii = np.array([float(t) for t in J])
    if family is OperatorFamily.HEAT:
        return _heat_matrix(f, _roots(radii), x)
    if family is not OperatorFamily.AVERAGES:
        raise BadRange(f"unknown operator family {family!r}")
    return avg_apply_many(f, radii, x[:, None])


# ---------------------------------------------------------------------------
# subordination of heat to averages


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), n >= 1, by the three-term recurrence
    (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)."""
    before, last = np.ones_like(x), x
    for k in range(1, n):
        before, last = last, ((2 * k + 1) * x * last - k * before) / (k + 1)
    # (x - 1)(x + 1), not x^2 - 1, keeps the relative accuracy near x = +-1
    return last, n * (x * last - before) / ((x - 1.0) * (x + 1.0))


#: Cap on the Newton steps of _leggauss; at most 5 are taken for n <= 256.
_NEWTON_STEPS = 10


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method on P_n from the starting points cos(pi (k - 1/4)/(n + 1/2))
    (Hale and Townsend, SIAM J. Sci. Comput. 35 (2013)), in O(n^2) array
    operations and without LAPACK; it settles within 5 steps for every
    n <= MAX_PANEL_NODES.  The weights are 2 / ((1 - x)(1 + x) P_n'(x)^2).
    Nodes and weights are then made exactly symmetric about 0.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        value, slope = _legendre(n, x)
        step = value / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, slope = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    rule = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    for part in rule:  # cached, so every caller shares these arrays
        part.flags.writeable = False
    return rule


#: Largest Gauss-Legendre rule used as one panel.  Building an n-node rule
#: takes O(n^2) work, and its edge weights lose accuracy as n grows (within
#: 3e-13 relative at n = 256); larger budgets are split into panels, which
#: share one cached rule.
MAX_PANEL_NODES = 256


def gauss_legendre_integrate(fn, a: float, b: float, n: int) -> float:
    """Composite Gauss-Legendre quadrature of a vectorized integrand on [a, b].

    The n nodes go to ceil(n / MAX_PANEL_NODES) equal-width panels whose
    node counts differ by at most one, so n <= MAX_PANEL_NODES is a single
    rule.  The weighted terms of each panel, and then the panel sums, are
    added with exact summation, so refinement comparisons probe the rule
    itself rather than accumulation noise.
    """
    if n < 1:
        raise BadRange("quadrature needs at least one node")
    pieces = -(-n // MAX_PANEL_NODES)
    cuts = np.linspace(a, b, pieces + 1)
    panels = []
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        nodes, weights = _leggauss(n // pieces + (k < n % pieces))
        half = (hi - lo) / 2.0
        mid = (hi + lo) / 2.0
        panels.append(half * math.fsum(weights * fn(mid + half * nodes)))
    return math.fsum(panels)


def _subordination_weight(t: np.ndarray) -> np.ndarray:
    # -h'(t) * t for the Gaussian profile h(t) = (4 pi)^(-1/2) exp(-t^2/4)
    return (t * t / 2.0) / math.sqrt(4.0 * math.pi) * np.exp(-t * t / 4.0)


def heat_integral_representation_check(
    f: PiecewiseConstantFn, s: float, x: float, quad_nodes: int
) -> float:
    """Residual of the identity  H_s f(x) = integral of A_{t sqrt(s)} f(x) dm(t).

    The weight m is the subordination profile; quadrature runs on
    [0, REPRESENTATION_CUTOFF] with spans split where the averaging window
    edge crosses a breakpoint of f, so each span's integrand is analytic.
    """
    if not s > 0:
        raise NonPositiveTime("heat time must be positive")
    if quad_nodes < 16:
        raise BadRange("representation check needs at least 16 quadrature nodes")
    lhs = heat_apply(f, s, x)
    root = math.sqrt(s)

    kinks = np.abs(x - f.breakpoints_array) / root
    kinks = kinks[(kinks > 0.0) & (kinks < REPRESENTATION_CUTOFF)]
    edges = _sorted_distinct(np.concatenate(([0.0], kinks, [REPRESENTATION_CUTOFF])))
    widths = np.diff(edges)
    keep = widths > 1e-13
    spans = [(a, b) for a, b, k in zip(edges[:-1], edges[1:], keep) if k]

    def integrand(t: np.ndarray) -> np.ndarray:
        return avg_apply_many(f, t * root, x) * _subordination_weight(t)

    total_width = sum(b - a for a, b in spans)
    parts = []
    for a, b in spans:
        n = max(16, int(round(quad_nodes * (b - a) / total_width)))
        # round up to a power of two so node tables are shared across calls
        n = 1 << (n - 1).bit_length()
        parts.append(gauss_legendre_integrate(integrand, a, b, n))
    return abs(lhs - math.fsum(parts))
