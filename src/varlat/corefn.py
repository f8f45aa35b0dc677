"""Piecewise-constant function algebra, trapezoid weights and power-law
fitting.

Everything in this module is pure: values are immutable after construction and
all operations are safe to call concurrently.  A step function holds its data
once, as read-only float64 arrays (``breakpoints_array``, ``values_array``)
copied from the caller's input when :func:`make_pcf` validates it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
)

__all__ = [
    "PiecewiseConstantFn",
    "GrowthFit",
    "make_pcf",
    "pcf_eval",
    "pcf_eval_many",
    "pcf_antiderivative_eval_many",
    "trapezoid_weights",
    "MIN_FIT_POINTS",
    "fit_power_law",
]


def _not_text(data):
    """``data`` itself, unless it is a string or bytes (iterable, but of characters)."""
    if isinstance(data, (str, bytes, bytearray)):
        raise TypeError
    return data


def _as_float_array(data: Iterable, what: str, ndim: int = 1) -> np.ndarray:
    """A fresh, read-only, C-ordered float64 copy of ``data``.

    ``data`` is any iterable of real numbers (of rows, when ``ndim`` is 2)
    other than a string; it must have ``ndim`` dimensions and finite entries.
    """
    shape = "a flat sequence" if ndim == 1 else "a matrix (rows of equal length)"
    try:
        if not isinstance(data, np.ndarray):
            data = [tuple(_not_text(row)) for row in data] if ndim == 2 else tuple(_not_text(data))
        arr = np.asarray(data)
        if arr.dtype.kind not in "biufO":  # strings among the entries
            raise TypeError
        if arr.dtype.kind == "O":  # float() would parse a digit string
            for entry in arr.flat:
                _not_text(entry)
        arr = np.array(arr, dtype=float, order="C")
    except (TypeError, ValueError):  # not iterable, ragged, or not numbers
        raise LengthMismatch(f"{what} must be {shape} of real numbers") from None
    if arr.ndim != ndim:
        raise LengthMismatch(f"{what} must be {shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{what} contains a NaN or infinity")
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# piecewise-constant functions


@dataclass(frozen=True, eq=False)
class PiecewiseConstantFn:
    """A compactly supported step function.

    ``values_array[i]`` is the constant value on the half-open cell
    ``[breakpoints_array[i], breakpoints_array[i+1])``; the function is 0
    outside ``[breakpoints_array[0], breakpoints_array[-1])``.  Build
    instances through :func:`make_pcf`, which validates and normalizes.
    """

    breakpoints_array: np.ndarray
    values_array: np.ndarray

    @cached_property
    def cumulative_mass(self) -> np.ndarray:
        """Antiderivative knots: ``F(breakpoints_array[i])`` for every breakpoint."""
        widths = np.diff(self.breakpoints_array)
        mass = np.concatenate(([0.0], np.cumsum(widths * self.values_array)))
        mass.flags.writeable = False
        return mass

    @property
    def support(self) -> tuple[float, float]:
        return float(self.breakpoints_array[0]), float(self.breakpoints_array[-1])

    @property
    def total_mass(self) -> float:
        return float(self.cumulative_mass[-1])

    def __repr__(self) -> str:  # keep huge witnesses readable in test output
        n = self.values_array.size
        if n <= 6:
            bp, vals = tuple(self.breakpoints_array.tolist()), tuple(self.values_array.tolist())
            return f"PiecewiseConstantFn(breakpoints={bp}, values={vals})"
        lo, hi = self.support
        return f"PiecewiseConstantFn(<{n} cells on [{lo!r}, {hi!r})>)"


def make_pcf(breakpoints: Iterable[float], values: Iterable[float]) -> PiecewiseConstantFn:
    """Validate and normalize a step function (adjacent equal values merge)."""
    bp = _as_float_array(breakpoints, "breakpoints")
    vals = _as_float_array(values, "values")
    if bp.size != vals.size + 1:
        raise LengthMismatch(
            f"need one more breakpoint than values, got {bp.size} and {vals.size}"
        )
    if vals.size < 1:
        raise LengthMismatch("a piecewise-constant function needs at least one cell")
    if not np.all(np.diff(bp) > 0):
        raise NonMonotoneBreakpoints("breakpoints must be strictly increasing")
    keep = np.concatenate(([True], vals[1:] != vals[:-1]))
    if not np.all(keep):
        bp = _as_float_array(bp[np.append(keep, True)], "breakpoints")
        vals = _as_float_array(vals[keep], "values")
    return PiecewiseConstantFn(bp, vals)


def pcf_eval(f: PiecewiseConstantFn, x: float) -> float:
    """Value of ``f`` at ``x`` (cells are half open on the right)."""
    idx = int(np.searchsorted(f.breakpoints_array, x, side="right")) - 1
    if 0 <= idx < f.values_array.size:
        return float(f.values_array[idx])
    return 0.0


def pcf_eval_many(f: PiecewiseConstantFn, xs: Iterable[float]) -> np.ndarray:
    x = np.asarray(xs, dtype=float)
    idx = np.searchsorted(f.breakpoints_array, x, side="right") - 1
    inside = (idx >= 0) & (idx < f.values_array.size)
    out = np.zeros_like(x)
    out[inside] = f.values_array[idx[inside]]
    return out


def pcf_antiderivative_eval_many(f: PiecewiseConstantFn, xs: Iterable[float]) -> np.ndarray:
    """F(x) = integral of f over (-inf, x] at each point; continuous and piecewise linear."""
    return np.interp(np.asarray(xs, dtype=float), f.breakpoints_array, f.cumulative_mass)


# ---------------------------------------------------------------------------
# sample points


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a float array: sorted, each value once.

    The same sort and neighbour test that np.unique runs, without its
    masked-array check, which imports numpy.ma.
    """
    out = np.sort(values)
    keep = np.empty(out.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def trapezoid_weights(points: Iterable[float]) -> np.ndarray:
    """Half-gap weights; an interior point owns half of each adjacent gap."""
    pts = np.asarray(points, dtype=float)
    if pts.size < 2:
        raise EmptyInput("trapezoid weights need at least two points")
    w = np.empty_like(pts)
    w[0] = (pts[1] - pts[0]) / 2.0
    w[-1] = (pts[-1] - pts[-2]) / 2.0
    if pts.size > 2:
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
    return w


# ---------------------------------------------------------------------------
# growth fitting


class GrowthFit(NamedTuple):
    """Least-squares line through (ln x, ln y); slope = empirical exponent."""

    slope: float
    intercept: float
    r_squared: float


#: Points a power-law fit needs before its slope means anything.
MIN_FIT_POINTS = 3


def fit_power_law(xs: Iterable[float], ys: Iterable[float]) -> GrowthFit:
    x = _as_float_array(xs, "xs")
    y = _as_float_array(ys, "ys")
    if x.size != y.size:
        raise LengthMismatch("xs and ys must have equal length")
    if x.size < MIN_FIT_POINTS:
        raise DegenerateInput(f"power-law fit needs at least {MIN_FIT_POINTS} points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DegenerateInput("power-law fit needs strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    var = float(np.sum((lx - lx.mean()) ** 2))
    if var == 0.0:
        raise DegenerateInput("all xs equal; exponent is undetermined")
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / var)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    r2 = min(1.0, max(0.0, r2))
    return GrowthFit(slope, intercept, r2)

