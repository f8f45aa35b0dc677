"""q-variation seminorms over operator families, with optimal witnesses.

The central quantity: for a finite sequence v_1, ..., v_n the q-variation is
the largest value of (sum |v_{i_{k+1}} - v_{i_k}|^q)^(1/q) over increasing
index subsequences.  :func:`qvariation` finds it exactly together with a
witness subsequence, by a dynamic program over the strict turning points
that looks back only at the few predecessors an optimal chain can use; an
exhaustive search over all subsequences backs it up for short inputs.  At
q = 1 the value is the total variation, a closed form.

Operator-family profiles need only the value, once per row of a family
matrix, so they go through :func:`qvariation_rows`.  At q > 1 it runs the
plain O(m^2) recurrence over every predecessor on all rows at once, looping
over columns only; with no pruning and no candidate rule it is also the
tests' value oracle for :func:`qvariation`.  On the witness profiles every
point is a local extremum, so pruning would save nothing there.
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
    _as_float_array,
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


def _gap_powers(gaps: np.ndarray, q: float) -> np.ndarray:
    out = np.where(gaps < GAP_FLOOR, 0.0, gaps)
    return out**q


def _turning_points(v: np.ndarray) -> np.ndarray:
    """Indices of the strict turning points of v, both ends included.

    Each run of equal values keeps its first index; of the rest, only the
    interior points where the direction changes stay.  Sequences of at most
    two values are kept whole.
    """
    n = v.size
    if n <= 2:
        return np.arange(n)
    idx = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    if idx.size <= 2:
        return idx
    d = np.sign(np.diff(v[idx]))
    return idx[np.concatenate(([True], d[:-1] != d[1:], [True]))]


def _total_variation(v: np.ndarray) -> np.ndarray:
    """Sum of the floored |steps| along each row: the q = 1 variation."""
    return _gap_powers(np.abs(np.diff(v, axis=1)), 1.0).sum(axis=1)


def qvariation(values: Iterable[float], q: float) -> VariationCertificate:
    """Exact q-variation with a witness subsequence.

    At q = 1 the value is the total variation and the witness is the strict
    turning points (empty when the value is 0).

    For q > 1 the sequence is first cut to its strict turning points, a
    zigzag w of alternating peaks and troughs; points inside a monotone run
    never help, as |a - c|^q >= |a - b|^q + |b - c|^q for b between a and c.
    Then best[j] = max over candidates i of best[i] + |w_j - w_i|^q,
    initialized to 0, and the value is (max_j best[j])^(1/q).  For a peak j
    the candidates are the troughs i that

    - lie strictly below every later value up to j (they are kept on a
      monotone stack), and
    - come after the last peak p < j with w_p > w_j;

    for a trough the roles of peaks and troughs swap.  This is exact: in a
    best chain ending at j, the last step (i, j) has w_i = min w[i..j] and
    w_j = max w[i..j], since inserting a point outside that range would
    raise the sum strictly when q > 1; and an earlier trough with a value
    equal to a later one's is beaten by the later one, which can collect
    the peak between them first.  Among the candidates, ties resolve to the
    earliest.  A point left out can tie with a candidate only by rounding:
    on (0, 1e-10, 0, 1) at q = 3 the chains (0, 3) and (0, 1, 2, 3) both sum
    to 1.0 in floating point, and the witness is the second, which is larger
    in exact arithmetic.  The value is the same either way.
    """
    if not q >= 1:
        raise InvalidQ("variation exponent must satisfy q >= 1")
    v = _as_float_array(values, "variation input")
    if v.size < 2:
        return VariationCertificate(0.0, ())
    kept = _turning_points(v)
    if q == 1.0:
        total = float(_total_variation(v[None, :])[0])
        return VariationCertificate(total, tuple(kept.tolist()) if total > 0.0 else ())
    w = v[kept]
    m = w.size
    best = np.zeros(m)
    pred = np.full(m, -1, dtype=np.intp)
    # one monotone stack per type, oldest entry first: troughs (type 0) with
    # strictly increasing values, peaks (type 1) with strictly decreasing
    # ones; each keeps its entries' indices, values and best sums side by
    # side, so the candidates of a point are views of one slice
    stack_idx = (np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp))
    stack_val = (np.empty(m), np.empty(m))
    stack_best = (np.empty(m), np.empty(m))
    tops = [0, 0]
    wl = w.tolist()
    first_is_peak = m > 1 and wl[0] > wl[1]
    for j in range(m):
        wj = wl[j]
        own = int((j % 2 == 0) == first_is_peak)
        other = 1 - own
        idx, top = stack_idx[own], tops[own]
        if own:
            while top and wl[idx[top - 1]] <= wj:
                top -= 1
        else:
            while top and wl[idx[top - 1]] >= wj:
                top -= 1
        overshoot = idx[top - 1] if top else -1
        end = tops[other]
        start = stack_idx[other][:end].searchsorted(overshoot, "right")
        if start < end:
            gaps = np.abs(wj - stack_val[other][start:end])
            cand = stack_best[other][start:end] + _gap_powers(gaps, q)
            k = cand.argmax()
            if cand[k] > 0.0:
                best[j] = cand[k]
                pred[j] = stack_idx[other][start + k]
        idx[top] = j
        stack_val[own][top] = wj
        stack_best[own][top] = best[j]
        tops[own] = top + 1
    j_star = int(np.argmax(best))
    if best[j_star] <= 0.0:
        return VariationCertificate(0.0, ())
    chain = [j_star]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return VariationCertificate(float(best[j_star] ** (1.0 / q)), tuple(kept[chain].tolist()))


def qvariation_rows(matrix, q: float) -> np.ndarray:
    """Exact q-variation of every row of a matrix, values only.

    At q = 1 this is the total variation of each row, as in
    :func:`qvariation`.  For q > 1 it runs the plain recurrence
    best[j] = max over all i < j of best[i] + |v_j - v_i|^q on all rows at
    once, one column at a time, with no pruning and no candidate rule, so it
    checks :func:`qvariation` independently.  The final root is taken on
    Python floats: numpy's array power can differ from the scalar one in
    the last ulp.
    """
    if not q >= 1:
        raise InvalidQ("variation exponent must satisfy q >= 1")
    v = _as_float_array(matrix, "variation input", ndim=2)
    rows, n = v.shape
    if n < 2:
        return np.zeros(rows)
    if q == 1.0:
        return _total_variation(v)
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
    v = _as_float_array(values, "variation input")
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
    v = _as_float_array(values, "variation input")
    out = _turning_points(v)
    return tuple(v[out].tolist()), tuple(out.tolist())


def maximal(values: Iterable[float]) -> float:
    """Largest absolute value; the maximal-operator analogue of variation."""
    v = _as_float_array(values, "variation input")
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
