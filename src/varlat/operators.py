"""Averaging, heat, and Hilbert operators on piecewise-constant functions.

All three operators admit closed forms on step functions, so every evaluation
here is exact up to rounding: averages go through the piecewise-linear
antiderivative, the heat semigroup through Gaussian error functions, and the
Hilbert transform through logarithms of breakpoint distances.

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


def _jump_coefficients(f: PiecewiseConstantFn) -> np.ndarray:
    """Coefficient of each breakpoint edge: value after minus value before."""
    c = np.concatenate(([0.0], f.values_array, [0.0]))
    return c[1:] - c[:-1]


def heat_apply(f: PiecewiseConstantFn, s: float, x: float) -> float:
    """Exact convolution with the heat kernel at time s."""
    return float(heat_apply_many(f, s, np.array([x]))[0])


def heat_apply_many(f: PiecewiseConstantFn, s: float, xs: Iterable[float]) -> np.ndarray:
    if not s > 0:
        raise NonPositiveTime("heat time must be positive")
    x = np.asarray(xs, dtype=float)
    root = math.sqrt(s)
    coef = _jump_coefficients(f)
    args = (x[:, None] - f.breakpoints_array[None, :]) / root
    return _kernel_cdf(args) @ coef


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
    radii = tuple(float(t) for t in J)  # a RadiusSet or any iterable of radii
    out = np.empty((x.size, len(radii)))
    for col, t in enumerate(radii):
        if family is OperatorFamily.AVERAGES:
            out[:, col] = avg_apply_many(f, t, x)
        elif family is OperatorFamily.HEAT:
            out[:, col] = heat_apply_many(f, t, x)
        else:
            raise BadRange(f"unknown operator family {family!r}")
    return out


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
