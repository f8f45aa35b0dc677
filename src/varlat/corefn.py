"""Piecewise-constant function algebra, sample grids, Bochner-type norms, and
sliding-window norm kernels.

Everything in this module is pure: values are immutable after construction and
all operations are safe to call concurrently.  Each value type holds its data
once, as read-only float64 arrays (``breakpoints_array``, ``values_array``,
``points_array``, ``weights_array``, ``inner_weights_array``) copied from the
caller's input when the ``make_*`` constructor validates it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    BadRange,
    DegenerateInput,
    EmptyInput,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
    NonPositiveRadius,
)

__all__ = [
    "PiecewiseConstantFn",
    "SampleGrid",
    "ScalarProfile",
    "InnerNorm",
    "VectorField",
    "GrowthFit",
    "make_pcf",
    "pcf_eval",
    "pcf_eval_many",
    "pcf_antiderivative_eval_many",
    "trapezoid_weights",
    "make_grid",
    "make_profile",
    "sup_norm",
    "integral_norm",
    "sequence_norm",
    "make_vector_field",
    "bochner_norm",
    "sliding_sup",
    "sliding_power_sum",
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
# grids and profiles


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing points with nonnegative quadrature weights."""

    points_array: np.ndarray
    weights_array: np.ndarray

    def __len__(self) -> int:
        return self.points_array.size

    def __repr__(self) -> str:
        lo, hi = float(self.points_array[0]), float(self.points_array[-1])
        return f"SampleGrid(<{len(self)} points on [{lo!r}, {hi!r}]>)"


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


def make_grid(points: Iterable[float], weights: Iterable[float] | None = None) -> SampleGrid:
    pts = _as_float_array(points, "grid points")
    if pts.size == 0:
        raise EmptyInput("a grid needs at least one point")
    if not np.all(np.diff(pts) > 0):
        raise NonMonotoneBreakpoints("grid points must be strictly increasing")
    w = _as_float_array(trapezoid_weights(pts) if weights is None else weights, "grid weights")
    if w.size != pts.size:
        raise LengthMismatch("weights must match points in length")
    if np.any(w < 0):
        raise BadRange("grid weights must be nonnegative")
    return SampleGrid(pts, w)


@dataclass(frozen=True, eq=False)
class ScalarProfile:
    """Values of a derived quantity sampled on a grid."""

    grid: SampleGrid
    values_array: np.ndarray

    def __repr__(self) -> str:
        return f"ScalarProfile(<{self.values_array.size} samples>)"


def make_profile(grid: SampleGrid, values: Iterable[float]) -> ScalarProfile:
    vals = _as_float_array(values, "profile values")
    if vals.size != len(grid):
        raise LengthMismatch("profile values must match the grid length")
    return ScalarProfile(grid, vals)


# ---------------------------------------------------------------------------
# lattice norms


@dataclass(frozen=True)
class InnerNorm:
    """Norm applied in the inner variable of a vector field.

    kind is one of "sup" (weighted essential sup), "integral" (L^r against the
    inner weights) or "sequence" (plain ell^r, weights ignored).
    """

    kind: str
    r: float | None = None


def sup_norm() -> InnerNorm:
    return InnerNorm("sup")


def integral_norm(r: float) -> InnerNorm:
    if not r > 1:
        raise BadRange("integral norm exponent must satisfy r > 1")
    return InnerNorm("integral", float(r))


def sequence_norm(r: float) -> InnerNorm:
    if not r > 1:
        raise BadRange("sequence norm exponent must satisfy r > 1")
    return InnerNorm("sequence", float(r))


@dataclass(frozen=True, eq=False)
class VectorField:
    """A function on (x grid) x (inner index), with its inner norm attached.

    inner_weights carry the measures of the inner cells; the "sequence" norm
    ignores them, the "sup" norm only uses them to skip zero-measure indices.
    """

    x_grid: SampleGrid
    values_array: np.ndarray
    inner_norm: InnerNorm
    inner_weights_array: np.ndarray

    @property
    def inner_dim(self) -> int:
        return self.inner_weights_array.size

    def __repr__(self) -> str:
        return (
            f"VectorField(<{len(self.x_grid)} x {self.inner_dim}>, "
            f"inner_norm={self.inner_norm!r})"
        )


def make_vector_field(
    x_grid: SampleGrid,
    values: Iterable[Iterable[float]],
    inner_norm: InnerNorm,
    inner_weights: Iterable[float],
) -> VectorField:
    mat = _as_float_array(values, "vector field values", ndim=2)
    w = _as_float_array(inner_weights, "inner weights")
    if np.any(w < 0):
        raise BadRange("inner weights must be nonnegative")
    if mat.shape != (len(x_grid), w.size):
        raise LengthMismatch(
            f"value matrix {mat.shape} does not match grid {len(x_grid)} x weights {w.size}"
        )
    return VectorField(x_grid, mat, inner_norm, w)


def _inner_norms(field: VectorField) -> np.ndarray:
    mat = np.abs(field.values_array)
    norm = field.inner_norm
    if norm.kind == "sup":
        mask = field.inner_weights_array > 0
        if not np.any(mask):
            return np.zeros(mat.shape[0])
        return mat[:, mask].max(axis=1)
    if norm.kind == "integral":
        return (mat**norm.r @ field.inner_weights_array) ** (1.0 / norm.r)
    if norm.kind == "sequence":
        return (mat**norm.r).sum(axis=1) ** (1.0 / norm.r)
    raise BadRange(f"unknown inner norm kind {norm.kind!r}")


def bochner_norm(field: VectorField, p: float) -> float:
    """The mixed norm: p-integral over the x grid of the inner lattice norm.

    ``p = math.inf`` takes the sup over grid points instead.
    """
    if not (p == math.inf or p >= 1):
        raise BadRange("outer exponent must satisfy p >= 1")
    inner = _inner_norms(field)
    if p == math.inf:
        return float(inner.max()) if inner.size else 0.0
    return float((field.x_grid.weights_array @ inner**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# sliding-window kernels


def sliding_sup(profile: ScalarProfile, radius: float) -> ScalarProfile:
    """x -> max of the profile over grid points within ``radius`` of x.

    The window of each grid point is an index range found by searchsorted.
    A window of length L, with 2^k <= L < 2^(k+1), is the union of two
    (possibly overlapping) blocks of 2^k values, so after k doubling steps
    of block maxima every window at level k is one vectorized lookup.
    O(n log w) time for the widest window of w points, O(n) memory.
    """
    if not radius > 0:
        raise NonPositiveRadius("window radius must be positive")
    pts = profile.grid.points_array
    vals = profile.values_array
    lo = np.searchsorted(pts, pts - radius, side="left")
    hi = np.searchsorted(pts, pts + radius, side="right")
    # every window holds its own point, so its length is at least 1
    level = np.frexp(hi - lo)[1] - 1
    out = np.empty(pts.size)
    blocks = vals.copy()  # blocks[j]: max of vals[j : j + 2^k], cut at the end
    for k, windows in enumerate(np.bincount(level).tolist()):
        if k:
            half = 1 << (k - 1)
            np.maximum(blocks[:-half], blocks[half:], out=blocks[:-half])
        if windows:
            at = np.flatnonzero(level == k)
            out[at] = np.maximum(blocks[lo[at]], blocks[hi[at] - (1 << k)])
    return make_profile(profile.grid, out)


def sliding_power_sum(profile: ScalarProfile, radius: float, r: float) -> ScalarProfile:
    """x -> (sum of w |v|^r over grid points within ``radius`` of x)^(1/r).

    Prefix sums of w |v|^r make the whole profile one vectorized pass.
    """
    if not radius > 0:
        raise NonPositiveRadius("window radius must be positive")
    if not r >= 1:
        raise BadRange("power-sum exponent must satisfy r >= 1")
    pts = profile.grid.points_array
    contrib = profile.grid.weights_array * np.abs(profile.values_array) ** r
    prefix = np.concatenate(([0.0], np.cumsum(contrib)))
    lo = np.searchsorted(pts, pts - radius, side="left")
    hi = np.searchsorted(pts, pts + radius, side="right")
    out = (prefix[hi] - prefix[lo]) ** (1.0 / r)
    return make_profile(profile.grid, out)


# ---------------------------------------------------------------------------
# growth fitting


@dataclass(frozen=True)
class GrowthFit:
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

