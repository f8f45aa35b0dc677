"""Piecewise-constant function algebra, sample grids, Bochner-type norms, and
sliding-window norm kernels.

Everything in this module is pure: values are immutable after construction and
all operations are safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
    "pcf_antiderivative_eval",
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
    "fit_power_law",
]


def _as_float_array(seq: Iterable[float], what: str) -> np.ndarray:
    arr = np.asarray(tuple(seq), dtype=float)
    if arr.ndim != 1:
        raise LengthMismatch(f"{what} must be a flat sequence")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{what} contains a NaN or infinity")
    return arr


# ---------------------------------------------------------------------------
# piecewise-constant functions


@dataclass(frozen=True, eq=False)
class PiecewiseConstantFn:
    """A compactly supported step function.

    ``values[i]`` is the constant value on the half-open cell
    ``[breakpoints[i], breakpoints[i+1])``; the function is 0 outside
    ``[breakpoints[0], breakpoints[-1])``.  Build instances through
    :func:`make_pcf`, which validates and normalizes.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    @cached_property
    def breakpoints_array(self) -> np.ndarray:
        return np.asarray(self.breakpoints, dtype=float)

    @cached_property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def cumulative_mass(self) -> np.ndarray:
        """Antiderivative knots: ``F(breakpoints[i])`` for every breakpoint."""
        widths = np.diff(self.breakpoints_array)
        return np.concatenate(([0.0], np.cumsum(widths * self.values_array)))

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    @property
    def total_mass(self) -> float:
        return float(self.cumulative_mass[-1])

    def __repr__(self) -> str:  # keep huge witnesses readable in test output
        n = len(self.values)
        if n <= 6:
            return f"PiecewiseConstantFn(breakpoints={self.breakpoints}, values={self.values})"
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
    if vals.size > 1:
        change = vals[1:] != vals[:-1]
        if not np.all(change):
            keep_bp = np.concatenate(([True], change, [True]))
            bp = bp[keep_bp]
            keep_val = np.concatenate(([True], change))
            vals = vals[keep_val]
    return PiecewiseConstantFn(tuple(bp.tolist()), tuple(vals.tolist()))


def pcf_eval(f: PiecewiseConstantFn, x: float) -> float:
    """Value of ``f`` at ``x`` (cells are half open on the right)."""
    idx = int(np.searchsorted(f.breakpoints_array, x, side="right")) - 1
    if 0 <= idx < len(f.values):
        return f.values[idx]
    return 0.0


def pcf_eval_many(f: PiecewiseConstantFn, xs: Iterable[float]) -> np.ndarray:
    x = np.asarray(xs, dtype=float)
    idx = np.searchsorted(f.breakpoints_array, x, side="right") - 1
    inside = (idx >= 0) & (idx < len(f.values))
    out = np.zeros_like(x)
    out[inside] = f.values_array[idx[inside]]
    return out


def pcf_antiderivative_eval(f: PiecewiseConstantFn, x: float) -> float:
    """F(x) = integral of f over (-inf, x]; continuous and piecewise linear."""
    return float(np.interp(x, f.breakpoints_array, f.cumulative_mass))


def pcf_antiderivative_eval_many(f: PiecewiseConstantFn, xs: Iterable[float]) -> np.ndarray:
    return np.interp(np.asarray(xs, dtype=float), f.breakpoints_array, f.cumulative_mass)


# ---------------------------------------------------------------------------
# grids and profiles


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing points with nonnegative quadrature weights."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    @cached_property
    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    @cached_property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"SampleGrid(<{len(self.points)} points on [{self.points[0]!r}, {self.points[-1]!r}]>)"


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
    if weights is None:
        w = trapezoid_weights(pts)
    else:
        w = _as_float_array(weights, "grid weights")
        if w.size != pts.size:
            raise LengthMismatch("weights must match points in length")
        if np.any(w < 0):
            raise BadRange("grid weights must be nonnegative")
    return SampleGrid(tuple(pts.tolist()), tuple(w.tolist()))


@dataclass(frozen=True, eq=False)
class ScalarProfile:
    """Values of a derived quantity sampled on a grid."""

    grid: SampleGrid
    values: tuple[float, ...]

    @cached_property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __repr__(self) -> str:
        return f"ScalarProfile(<{len(self.values)} samples>)"


def make_profile(grid: SampleGrid, values: Iterable[float]) -> ScalarProfile:
    vals = _as_float_array(values, "profile values")
    if vals.size != len(grid.points):
        raise LengthMismatch("profile values must match the grid length")
    return ScalarProfile(grid, tuple(vals.tolist()))


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
    values: tuple[tuple[float, ...], ...]
    inner_norm: InnerNorm
    inner_weights: tuple[float, ...]

    @cached_property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def inner_weights_array(self) -> np.ndarray:
        return np.asarray(self.inner_weights, dtype=float)

    @property
    def inner_dim(self) -> int:
        return len(self.inner_weights)

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
    mat = np.asarray([tuple(row) for row in values], dtype=float)
    if mat.ndim != 2:
        raise LengthMismatch("vector field values must form a matrix")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteValue("vector field values must be finite")
    w = _as_float_array(inner_weights, "inner weights")
    if np.any(w < 0):
        raise BadRange("inner weights must be nonnegative")
    if mat.shape[0] != len(x_grid.points) or mat.shape[1] != w.size:
        raise LengthMismatch(
            f"value matrix {mat.shape} does not match grid {len(x_grid.points)} x weights {w.size}"
        )
    return VectorField(
        x_grid,
        tuple(tuple(row) for row in mat.tolist()),
        inner_norm,
        tuple(w.tolist()),
    )


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

    Monotone-queue algorithm, O(n) over the whole grid.
    """
    if not radius > 0:
        raise NonPositiveRadius("window radius must be positive")
    pts = profile.grid.points_array
    vals = profile.values_array
    n = pts.size
    out = np.empty(n)
    queue: list[int] = []  # indices with decreasing values
    head = 0
    hi = 0
    for i in range(n):
        upper = pts[i] + radius
        while hi < n and pts[hi] <= upper:
            while len(queue) > head and vals[queue[-1]] <= vals[hi]:
                queue.pop()
            queue.append(hi)
            hi += 1
        lower = pts[i] - radius
        while pts[queue[head]] < lower:
            head += 1
        out[i] = vals[queue[head]]
    return ScalarProfile(profile.grid, tuple(out.tolist()))


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
    return ScalarProfile(profile.grid, tuple(out.tolist()))


# ---------------------------------------------------------------------------
# growth fitting


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares line through (ln x, ln y); slope = empirical exponent."""

    slope: float
    intercept: float
    r_squared: float


def fit_power_law(xs: Iterable[float], ys: Iterable[float]) -> GrowthFit:
    x = _as_float_array(xs, "xs")
    y = _as_float_array(ys, "ys")
    if x.size != y.size:
        raise LengthMismatch("xs and ys must have equal length")
    if x.size < 3:
        raise DegenerateInput("power-law fit needs at least three points")
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

