"""Averaging, heat, and Hilbert operators on piecewise-constant functions.

All three operators admit closed forms on step functions, so every evaluation
here is exact up to rounding: averages go through the piecewise-linear
antiderivative, the heat semigroup through Gaussian error functions, and the
Hilbert transform through logarithms of breakpoint distances.

The heat value H_s f(x) = sum_b c_b Phi((x - b)/sqrt(s)) is summed over a
scale-local window of breakpoints only.  Breakpoints more than 16 sqrt(s) left
of x add their jumps c_b as a prefix sum, those more than 16 sqrt(s) right of
it add nothing; each such term is off by at most Phi(-16) = erfc(8)/2 < 6e-30.
The leading breakpoints within 2^-28 sqrt(s) of the first one, b_0, collapse
to their first-order Taylor term about b_0, off by at most
(1/2) max|Phi''| sum |c_b| (b - b_0)^2 / s, with max|Phi''| = e^(-1/2) /
(2 sqrt(2 pi)); `_collapse_bound` computes it (about 2e-18 at the CLI's
depths).  `_heat_matrix` is the package's one heat evaluator, so every heat
value, of the profiles and of the witness's key tables and halving radii
alike, carries this budget.  The dense sum over every breakpoint and the
witness's cell-by-cell sum are kept only in the tests, as their oracles.

Normalization warnings, both deliberate:
  * the averaging operator at radius t divides by t, not 2t, so it carries
    total mass 2;
  * the Hilbert transform omits the conventional 1/pi prefactor.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf

from .corefn import (
    PiecewiseConstantFn,
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


def _kernel_cdf(w: np.ndarray) -> np.ndarray:
    # antiderivative of the s = 1 kernel: integral over (-inf, w]
    return 0.5 * (1.0 + erf(w / 2.0))


def _kernel_density(w: np.ndarray) -> np.ndarray:
    # derivative of _kernel_cdf: the s = 1 kernel itself
    return np.exp(-w * w / 4.0) / (2.0 * math.sqrt(math.pi))


#: Half-width of the breakpoint window, in units of sqrt(s); a term outside
#: it is within Phi(-16) = erfc(8)/2 < 6e-30 of 0 or 1.
_HEAT_WINDOW = 16.0

#: Width of the leading cluster, in units of sqrt(s), collapsed to one
#: first-order term about the first breakpoint.
_HEAT_CLUSTER = 2.0**-28

#: max |Phi''| over the line, attained at w = sqrt(2).
_KERNEL_CURVATURE = math.exp(-0.5) / (2.0 * math.sqrt(2.0 * math.pi))

#: Most (point, time) pairs evaluated at once: the times go in blocks of
#: _HEAT_CHUNK // points, which keeps each block's flattened terms small.
_HEAT_CHUNK = 512


def _jump_coefficients(f: PiecewiseConstantFn) -> np.ndarray:
    """Coefficient of each breakpoint edge: value after minus value before."""
    c = np.concatenate(([0.0], f.values_array, [0.0]))
    return c[1:] - c[:-1]


def _prefix(terms: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(terms)))


def _cluster_sizes(b: np.ndarray, roots: np.ndarray) -> np.ndarray:
    # breakpoints within _HEAT_CLUSTER sqrt(s) of the first one, per time
    return np.searchsorted(b, b[0] + _HEAT_CLUSTER * roots, side="right")


def _collapse_bound(f: PiecewiseConstantFn, times: Iterable[float]) -> np.ndarray:
    """Per time, the bound on the error of collapsing the leading cluster.

    (1/2) max|Phi''| sum |c_b| (b - b_0)^2 / s over the cluster; 0 where the
    cluster holds one breakpoint and nothing is collapsed.
    """
    s = np.asarray(times, dtype=float)
    b = f.breakpoints_array
    d = b - b[0]
    m = _cluster_sizes(b, np.sqrt(s))
    second = _prefix(np.abs(_jump_coefficients(f)) * d * d)[m]
    return np.where(m >= 2, 0.5 * _KERNEL_CURVATURE * second / s, 0.0)


def _roots(times: np.ndarray) -> np.ndarray:
    if not np.all(times > 0):
        raise NonPositiveTime("heat time must be positive")
    return np.sqrt(times)


def _heat_matrix(f: PiecewiseConstantFn, roots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H_s f(x) for every point (rows) and time (columns), scale-locally.

    The times come as their roots sqrt(s) > 0, so a caller that holds a
    scale a^-j never squares it: a^(-2j) underflows long before a^-j does.
    Each (point, time) pair's window terms are summed in breakpoint order by
    one bincount, so its value does not depend on the other points, the
    other times or the blocking.
    """
    b = f.breakpoints_array
    c = _jump_coefficients(f)
    zeroth, first_moment = _prefix(c), _prefix(c * (b - b[0]))
    sizes = _cluster_sizes(b, roots)
    out = np.empty((x.size, roots.size))
    step = max(1, _HEAT_CHUNK // max(1, x.size))
    for col in range(0, roots.size, step):
        shape = (x.size, min(step, roots.size - col))
        X = np.broadcast_to(x[:, None], shape)
        R = np.broadcast_to(roots[col : col + step], shape)
        M = np.broadcast_to(sizes[col : col + step], shape)
        lo = np.searchsorted(b, X - _HEAT_WINDOW * R, side="left")
        hi = np.searchsorted(b, X + _HEAT_WINDOW * R, side="right")
        # a leading cluster of two or more breakpoints that is not wholly left
        # of the window collapses to one term, and the window starts after it
        collapse = (M >= 2) & (lo < M)
        start = np.where(collapse, M, lo)
        base = zeroth[start]
        r = R[collapse]
        w = (X[collapse] - b[0]) / r
        slope = first_moment[M[collapse]] / r
        base[collapse] = base[collapse] * _kernel_cdf(w) - slope * _kernel_density(w)
        # flatten the window terms pair by pair, in breakpoint order
        counts = np.maximum(hi - start, 0).ravel()
        pair = np.repeat(np.arange(counts.size), counts)
        idx = start.ravel()[pair] + np.arange(pair.size) - (np.cumsum(counts) - counts)[pair]
        terms = _kernel_cdf((X.ravel()[pair] - b[idx]) / R.ravel()[pair]) * c[idx]
        sums = np.bincount(pair, weights=terms, minlength=counts.size)
        out[:, col : col + step] = base + sums.reshape(shape)
    out[np.isnan(x)] = np.nan
    return out


def heat_apply(f: PiecewiseConstantFn, s: float, x: float) -> float:
    """Exact convolution with the heat kernel at time s."""
    return float(heat_apply_many(f, s, np.array([x]))[0])


def heat_apply_many(f: PiecewiseConstantFn, s: float, xs: Iterable[float]) -> np.ndarray:
    """H_s f at each point, summed over a window of breakpoints.

    Jumps more than 16 sqrt(s) left of a point enter as a prefix sum and
    those more than 16 sqrt(s) right of it are dropped, each off by at most
    erfc(8)/2 < 6e-30.  The first breakpoints within 2^-28 sqrt(s) of the
    first one collapse to C0 Phi(w) - (C1/sqrt(s)) Phi'(w), w = (x - b_0)/sqrt(s),
    with C0 = sum c_b and C1 = sum c_b (b - b_0) over them; the remainder is
    at most (1/2) max|Phi''| sum |c_b| (b - b_0)^2 / s (`_collapse_bound`).
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
    """Matrix of family values, one row per point, one column per radius."""
    x = np.asarray(xs, dtype=float)
    radii = np.array([float(t) for t in J])  # a RadiusSet or any iterable of radii
    if family is OperatorFamily.HEAT:
        return _heat_matrix(f, _roots(radii), x)
    if family is not OperatorFamily.AVERAGES:
        raise BadRange(f"unknown operator family {family!r}")
    return avg_apply_many(f, radii, x[:, None])


# ---------------------------------------------------------------------------
# subordination of heat to averages


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


#: Largest Gauss-Legendre rule used as one panel; numpy's eigenvalue-based
#: node tables lose accuracy, and take long to build, past this size.
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
    edges = np.unique(np.concatenate(([0.0], np.sort(kinks), [REPRESENTATION_CUTOFF])))
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
