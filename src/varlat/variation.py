"""q-variation seminorms over operator families, with optimal witnesses.

The central quantity: for a finite sequence v_1, ..., v_n the q-variation is
the largest value of (sum |v_{i_{k+1}} - v_{i_k}|^q)^(1/q) over increasing
index subsequences.  A dynamic program finds it exactly in O(n^2) together
with a witness subsequence; an exhaustive search over all subsequences backs
it up for short inputs.

Operator-family profiles need only the value, once per row of a family
matrix, so they go through :func:`qvariation_rows`: the same O(m^2) program
run on every row at once, looping over columns only.  Rows are not pruned
there (on the witness profiles every point is a local extremum, so pruning
saves nothing); :func:`prune_to_local_extrema` remains a 1-D helper.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .corefn import (
    PiecewiseConstantFn,
    SampleGrid,
    ScalarProfile,
    InnerNorm,
    VectorField,
    make_profile,
    make_vector_field,
)
from .errors import (
    BadRange,
    EmptyInput,
    InvalidQ,
    LengthMismatch,
    NonFiniteValue,
    NonPositiveRadius,
    TooLong,
)
from .operators import OperatorFamily, family_value_matrix

__all__ = [
    "RadiusSet",
    "VariationCertificate",
    "make_radius_set",
    "qvariation",
    "qvariation_rows",
    "qvariation_value",
    "qvariation_bruteforce",
    "prune_to_local_extrema",
    "maximal",
    "variation_profile",
    "maximal_profile",
    "vector_variation_field",
]

#: Pair gaps below this threshold contribute zero to the variation sum; the
#: q-th power of anything smaller is far outside IEEE double range anyway.
GAP_FLOOR = 1e-300

#: Hard cap for the exhaustive search; beyond it the subsequence count is
#: no longer desk-scale.
BRUTEFORCE_MAX = 20


@dataclass(frozen=True)
class RadiusSet:
    """Strictly decreasing positive radii (or heat times), largest first."""

    radii: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.radii)

    def __iter__(self):
        return iter(self.radii)


def make_radius_set(radii: Iterable[float]) -> RadiusSet:
    r = tuple(float(t) for t in radii)
    if not r:
        raise EmptyInput("a radius set needs at least one radius")
    arr = np.asarray(r)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("radii must be finite")
    if np.any(arr <= 0):
        raise NonPositiveRadius("radii must be positive")
    if np.any(np.diff(arr) >= 0):
        raise BadRange("radii must be strictly decreasing")
    return RadiusSet(r)


@dataclass(frozen=True)
class VariationCertificate:
    """A variation value together with the subsequence that attains it.

    Recomputing the variation sum along ``subsequence`` reproduces ``value``;
    the subsequence is empty exactly when the value is zero.
    """

    value: float
    subsequence: tuple[int, ...]


def _validated_values(values: Iterable[float]) -> np.ndarray:
    v = np.asarray(tuple(values), dtype=float)
    if v.size and not np.all(np.isfinite(v)):
        raise NonFiniteValue("variation input contains a NaN or infinity")
    return v


def _gap_powers(gaps: np.ndarray, q: float) -> np.ndarray:
    out = np.where(gaps < GAP_FLOOR, 0.0, gaps)
    return out**q


def qvariation(values: Iterable[float], q: float) -> VariationCertificate:
    """Exact q-variation by dynamic programming.

    best[j] = max over i < j of best[i] + |v_j - v_i|^q, initialized to 0;
    the certificate value is (max_j best[j])^(1/q).  Ties resolve to the
    first optimum found in the left-to-right scan.
    """
    if not q >= 1:
        raise InvalidQ("variation exponent must satisfy q >= 1")
    v = _validated_values(values)
    n = v.size
    if n < 2:
        return VariationCertificate(0.0, ())
    best = np.zeros(n)
    pred = np.full(n, -1, dtype=int)
    for j in range(1, n):
        cand = best[:j] + _gap_powers(np.abs(v[j] - v[:j]), q)
        i = int(np.argmax(cand))
        if cand[i] > 0.0:
            best[j] = cand[i]
            pred[j] = i
    j_star = int(np.argmax(best))
    if best[j_star] <= 0.0:
        return VariationCertificate(0.0, ())
    chain = [j_star]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return VariationCertificate(float(best[j_star] ** (1.0 / q)), tuple(chain))


def qvariation_rows(matrix, q: float) -> np.ndarray:
    """Exact q-variation of every row of a matrix, values only.

    Runs the recurrence of :func:`qvariation` on all rows at once, one
    column at a time, so row i of the result equals
    ``qvariation(matrix[i], q).value`` exactly.  The final root is taken on
    Python floats: numpy's array power can differ from the scalar one in
    the last ulp.
    """
    if not q >= 1:
        raise InvalidQ("variation exponent must satisfy q >= 1")
    v = np.asarray(matrix, dtype=float)
    if v.ndim != 2:
        raise LengthMismatch("qvariation_rows needs a two-dimensional matrix")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("variation input contains a NaN or infinity")
    rows, n = v.shape
    if n < 2:
        return np.zeros(rows)
    best = np.zeros((rows, n))
    for j in range(1, n):
        gaps = np.abs(v[:, j, None] - v[:, :j])
        best[:, j] = np.max(best[:, :j] + _gap_powers(gaps, q), axis=1)
    root = 1.0 / q
    return np.array([s ** root for s in best.max(axis=1).tolist()])


def qvariation_value(values: Iterable[float], q: float) -> float:
    """The variation value alone: :func:`qvariation_rows` on one row."""
    return float(qvariation_rows([tuple(values)], q)[0])


@lru_cache(maxsize=None)
def _index_combinations(n: int, k: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


def qvariation_bruteforce(values: Iterable[float], q: float) -> VariationCertificate:
    """Exhaustive maximum over every increasing subsequence; n <= 20 only."""
    if not q >= 1:
        raise InvalidQ("variation exponent must satisfy q >= 1")
    v = _validated_values(values)
    n = v.size
    if n > BRUTEFORCE_MAX:
        raise TooLong(f"exhaustive search accepts at most {BRUTEFORCE_MAX} values, got {n}")
    if n < 2:
        return VariationCertificate(0.0, ())
    best_sum = 0.0
    best_combo: tuple[int, ...] = ()
    for k in range(2, n + 1):
        idx = _index_combinations(n, k)
        gaps = np.abs(np.diff(v[idx], axis=1))
        sums = _gap_powers(gaps, q).sum(axis=1)
        m = int(np.argmax(sums))
        if sums[m] > best_sum:
            best_sum = float(sums[m])
            best_combo = tuple(int(i) for i in idx[m])
    if best_sum <= 0.0:
        return VariationCertificate(0.0, ())
    return VariationCertificate(best_sum ** (1.0 / q), best_combo)


def prune_to_local_extrema(values: Iterable[float]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Drop interior points that are not strict direction changes.

    Returns the pruned values and their indices in the original sequence.
    Valid for any q >= 1: |a - c|^q >= |a - b|^q + |b - c|^q whenever b lies
    between a and c, so monotone interior points never help the variation.
    """
    v = np.asarray(tuple(values), dtype=float)
    n = v.size
    if n <= 2:
        return tuple(v.tolist()), tuple(range(n))
    run_keep = np.concatenate(([True], v[1:] != v[:-1]))
    idx = np.flatnonzero(run_keep)
    w = v[idx]
    if w.size <= 2:
        out = idx
    else:
        d = np.sign(np.diff(w))
        turn = d[:-1] != d[1:]
        out = idx[np.concatenate(([True], turn, [True]))]
    return tuple(v[out].tolist()), tuple(int(i) for i in out)


def maximal(values: Iterable[float]) -> float:
    """Largest absolute value; the maximal-operator analogue of variation."""
    v = _validated_values(values)
    if v.size == 0:
        raise EmptyInput("maximal needs at least one value")
    return float(np.abs(v).max())


def variation_profile(
    f: PiecewiseConstantFn,
    family: OperatorFamily,
    J: RadiusSet,
    grid: SampleGrid,
    q: float,
) -> ScalarProfile:
    """q-variation of the operator family along its radii, per grid point.

    One family matrix, then one :func:`qvariation_rows` call over all of its
    rows; the rows are not pruned.
    """
    matrix = family_value_matrix(f, family, J, grid.points_array)
    return make_profile(grid, qvariation_rows(matrix, q))


def maximal_profile(
    f: PiecewiseConstantFn,
    family: OperatorFamily,
    J: RadiusSet,
    grid: SampleGrid,
) -> ScalarProfile:
    """Pointwise maximal function of the family over its radius set."""
    matrix = family_value_matrix(f, family, J, grid.points_array)
    return make_profile(grid, np.abs(matrix).max(axis=1))


def vector_variation_field(
    fns: Sequence[PiecewiseConstantFn],
    family: OperatorFamily,
    J: RadiusSet,
    x_grid: SampleGrid,
    q: float,
    inner_norm: InnerNorm,
    inner_weights: Sequence[float],
) -> VectorField:
    """Coordinate-wise variation of a tuple of step functions.

    The result keeps the supplied inner norm and weights, so Bochner norms of
    the variation field compare directly against those of the plain field.
    """
    if len(fns) != len(inner_weights):
        raise LengthMismatch("one inner weight per coordinate function")
    if not fns:
        raise EmptyInput("vector variation needs at least one coordinate")
    x = x_grid.points_array
    stacked = np.concatenate([family_value_matrix(f, family, J, x) for f in fns])
    matrix = qvariation_rows(stacked, q).reshape(len(fns), x.size).T
    return make_vector_field(x_grid, matrix, inner_norm, inner_weights)
