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
same candidate rule on all rows at once, without cutting rows to their
turning points: the candidate links come from whole-array passes, the
chains are walked one entry per round for every row and column together,
and only the last step, one gather, add and max per column, loops over
columns.  Its values equal those of the plain O(m^2) recurrence over every
predecessor bit for bit; the tests keep that recurrence as the oracle.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

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
    FloatRangeExceeded,
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

_SMALLEST_NORMAL = np.finfo(float).smallest_normal

#: Hard cap for the exhaustive search; beyond it the subsequence count is
#: no longer desk-scale.
BRUTEFORCE_MAX = 20

#: A column of the witness DP with at most this many candidates settles on
#: Python floats; a wider one runs on numpy.
_NARROW = 32

#: The witness DP takes the powers of its narrow columns' gaps in one
#: :func:`_gap_powers` call once this many are pending.
_POWER_BATCH = 256

#: The row DP walks its candidate chains in blocks of w columns, w^2 at most
#: this many times the matrix's columns, and keeps w rounds of each block.
_ROUNDS_PER_COLUMN = 4


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
    """The q-th power of each gap, 0 below GAP_FLOOR, written over gaps."""
    np.copyto(gaps, 0.0, where=gaps < GAP_FLOOR)
    return np.power(gaps, q, out=gaps)


def _rescaled(v: np.ndarray, q: float, sums: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Each row of v times 2^-e, and the exponents e.

    e is 0, so the row and its value stay as they are, when the row's
    largest gap is below GAP_FLOOR or has a normal q-th power.  Otherwise
    e puts the largest gap in [1, 2), where its power is at least 1 and,
    for q below 1024, finite.  With ``sums``, for a row whose chain sum
    overflowed, e puts the largest gap in [2^-c, 2^(1-c)), where 2^(cq)
    exceeds the row length, so that no chain's sum of powers reaches 2^q.
    The variation is homogeneous and 2^-e is exact, so :func:`_scale_back`
    by e gives the value.
    """
    columns = v.T.copy()  # a reduction down contiguous rows is fast, along short rows it is not
    half_span = columns.max(axis=0) / 2 - columns.min(axis=0) / 2
    if sums:
        shifts = np.frexp(half_span)[1] + math.ceil(v.shape[1].bit_length() / q)
    else:
        span = 2 * half_span
        power = span**q
        in_range = (power >= _SMALLEST_NORMAL) & (power < math.inf)
        out = (span >= GAP_FLOOR) & ~in_range
        if not out.any():
            return v, np.zeros(len(span), dtype=np.intc)
        shifts = np.where(out, np.frexp(half_span)[1], 0)
    return np.ldexp(v, -shifts[:, None]), shifts


def _scale_back(values, shifts, q: float):
    """values * 2^shifts, or FloatRangeExceeded where no double holds it."""
    out = np.ldexp(values, shifts)
    if not np.all(np.isfinite(out)):
        raise FloatRangeExceeded(f"the q = {q:g} variation or its gap powers leave the double range")
    return out


def _check_rerun(sums, q: float) -> None:
    """FloatRangeExceeded unless every sum of a rescaled rerun is a normal
    double: at such q no power of two keeps both the largest gap's power
    and the chain sums in range."""
    sums = np.asarray(sums)
    if not np.all((sums >= _SMALLEST_NORMAL) & (sums < math.inf)):
        raise FloatRangeExceeded(f"the q = {q:g} variation or its gap powers leave the double range")


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


def _certified(
    run: Callable[[np.ndarray], tuple[float, Sequence[int]]], v: np.ndarray, q: float
) -> VariationCertificate:
    """The certificate of one sequence from run(w) -> (chain sum, witness).

    run sees v as :func:`_rescaled` puts it; when its chain sum overflows,
    it runs again on v rescaled so that no chain sum can.
    """
    (w,), (shift,) = _rescaled(v[None, :], q)
    total, witness = run(w)
    if total == math.inf:
        (w,), (shift,) = _rescaled(v[None, :], q, sums=True)
        total, witness = run(w)
        _check_rerun(total, q)
    if total <= 0.0:
        return VariationCertificate(0.0, ())
    return VariationCertificate(float(_scale_back(total ** (1.0 / q), shift, q)), tuple(witness))


def _witness_dp(w: list[float], q: float) -> tuple[float, list[int]]:
    """Largest chain sum over the zigzag w and a chain attaining it.

    The loop of :func:`qvariation` for q > 1; see there.
    """
    m = len(w)
    best = [0.0] * m
    pred = [-1] * m
    # the monotone stacks, troughs (type 0) and peaks (type 1), as indices,
    # oldest first; a wide column reads its candidates from numpy mirrors
    # of their values and best sums, of which the first synced[t] entries
    # match stack t
    stacks: tuple[list[int], list[int]] = ([], [])
    mirror_val = (np.empty(m), np.empty(m))
    mirror_best = (np.empty(m), np.empty(m))
    synced = [0, 0]
    # the narrow columns whose gap powers are pending, as (j, candidates)
    # in column order, and the number of their gaps
    columns: list[tuple[int, list[int]]] = []
    pending = 0

    def pending_gaps() -> list[float]:
        return [abs(w[j] - w[i]) for j, candidates in columns for i in candidates]

    def settle(powers: list[float]) -> None:
        k = 0
        for j, candidates in columns:
            top, arg = 0.0, -1
            for i in candidates:
                total = best[i] + powers[k]
                k += 1
                if total > top:
                    top, arg = total, i
            if arg >= 0:
                best[j], pred[j] = top, arg
        columns.clear()

    first_is_peak = int(m > 1 and w[0] > w[1])
    for j, wj in enumerate(w):
        own = (j & 1) ^ first_is_peak
        stack, other = stacks[own], stacks[own ^ 1]
        if own:
            while stack and w[stack[-1]] <= wj:
                stack.pop()
        else:
            while stack and w[stack[-1]] >= wj:
                stack.pop()
        if len(stack) < synced[own]:
            synced[own] = len(stack)
        start = bisect_right(other, stack[-1]) if stack else 0
        end = len(other)
        if end - start > _NARROW:
            # the pending gaps come first: their powers share this call
            t = own ^ 1
            fresh = other[synced[t] :]
            mirror_val[t][synced[t] : end] = [w[i] for i in fresh]
            buf = np.empty(pending + end - start)
            buf[:pending] = pending_gaps()
            np.subtract(wj, mirror_val[t][start:end], out=buf[pending:])
            np.abs(buf[pending:], out=buf[pending:])
            powers = _gap_powers(buf, q)
            settle(powers[:pending].tolist())
            mirror_best[t][synced[t] : end] = [best[i] for i in fresh]
            synced[t] = end
            cand = powers[pending:]
            cand += mirror_best[t][start:end]
            k = int(cand.argmax())
            if cand[k] > 0.0:
                best[j], pred[j] = float(cand[k]), other[start + k]
            pending = 0
        elif start < end:
            columns.append((j, other[start:]))
            pending += end - start
            if pending >= _POWER_BATCH:
                settle(_gap_powers(np.array(pending_gaps()), q).tolist())
                pending = 0
        stack.append(j)
    if columns:
        settle(_gap_powers(np.array(pending_gaps()), q).tolist())
    top = max(best)
    chain = [best.index(top)]
    while pred[chain[-1]] >= 0:
        chain.append(pred[chain[-1]])
    chain.reverse()
    return top, chain


@np.errstate(over="ignore")
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
    earliest, and a candidate counts only when its sum is above 0.  A point
    left out can tie with a candidate only by rounding: on (0, 1e-10, 0, 1)
    at q = 3 the chains (0, 3) and (0, 1, 2, 3) both sum to 1.0 in floating
    point, and the witness is the second, which is larger in exact
    arithmetic.  The value is the same either way.

    The loop keeps both stacks as Python lists of indices, and best as a
    Python list.  The candidates depend on the values only, never on best,
    so a column with at most ``_NARROW`` candidates only records them.  The
    q-th powers of the recorded gaps come in one :func:`_gap_powers` call
    per ``_POWER_BATCH`` gaps, always through numpy's array power (Python's
    ``**`` can differ from it in the last ulp); the recorded columns are
    then settled in column order on Python floats.  A wider column (on a
    rising sawtooth every peak has all earlier troughs) takes the recorded
    gaps' powers and its own in one call, settles the recorded columns, and
    finds its maximum with numpy, on mirrors of the stack's values and best
    sums that are brought up to date only there.

    A sequence whose largest gap's q-th power is not a normal double runs
    rescaled by a power of two, and so does one whose chain sum overflows
    although the value may fit; what still leaves the double range raises
    FloatRangeExceeded.
    """
    if not 1 <= q < math.inf:
        raise InvalidQ("variation exponent must satisfy 1 <= q < inf")
    v = _as_float_array(values, "variation input")
    if v.size < 2:
        return VariationCertificate(0.0, ())
    kept = _turning_points(v)
    if q == 1.0:
        total = float(qvariation_rows(v[None, :], 1.0)[0])
        return VariationCertificate(total, tuple(kept.tolist()) if total > 0.0 else ())

    def run(w: np.ndarray) -> tuple[float, list[int]]:
        total, chain = _witness_dp(w.tolist(), q)
        return total, kept[chain].tolist()

    return _certified(run, v[kept], q)


@np.errstate(over="ignore")
def qvariation_rows(matrix, q: float) -> np.ndarray:
    """Exact q-variation of every row of a matrix, values only.

    At q = 1 this is the total variation of each row, as in
    :func:`qvariation`.  For q > 1 the chain sums come from the candidate
    rule of :func:`qvariation`, run on all rows at once by :func:`_row_sums`
    on the rows as they are, ties, monotone runs and constant stretches
    included; they equal those of the plain recurrence
    best[j] = max over all i < j of best[i] + |v_j - v_i|^q bit for bit.
    The final root is taken on Python floats: numpy's array power can
    differ from the scalar one in the last ulp.  Rows out of the double
    range are rescaled as in :func:`qvariation`.
    """
    if not 1 <= q < math.inf:
        raise InvalidQ("variation exponent must satisfy 1 <= q < inf")
    v = _as_float_array(matrix, "variation input", ndim=2)
    rows, n = v.shape
    if n < 2:
        return np.zeros(rows)
    scaled, shifts = _rescaled(v, q)
    sums = _row_sums(scaled, q)
    over = sums == math.inf
    if over.any():
        scaled, shifts[over] = _rescaled(v[over], q, sums=True)
        sums[over] = _row_sums(scaled, q)
        _check_rerun(sums[over], q)
    root = 1.0 / q
    values = [s**root for s in sums.tolist()]
    return _scale_back(values, shifts, q) if shifts.any() else np.array(values)


def _row_sums(v: np.ndarray, q: float) -> np.ndarray:
    """Largest chain sum of each row: the total variation at q = 1, else
    the candidate rule of :func:`qvariation` run on all rows at once.

    v and -v stand one above the other in a (2, m + 1, rows) array whose
    row 0 is +inf, addressed flat; one :func:`_previous_greater` pass over
    it gives the previous strictly greater entry of every entry, and so,
    from the other half, its previous strictly smaller one.  The chain of
    position j >= 1 lies in v, or in -v where v steps down into j, so that
    it climbs into j.  It starts at j - 1 and follows the previous strictly
    smaller links down to, but not including, the previous strictly greater
    entry of j.  The candidates depend on the values only, so the DP runs
    in three steps:

    - links: one :func:`_previous_greater` pass;
    - chains: walked one entry per round for all rows and columns at once,
      a chain that has ended holding the first entry after its stop; their
      gap powers come in one :func:`_gap_powers` call per block of columns;
    - settle: one gather, add and max per column.

    The columns go in blocks of about sqrt(``_ROUNDS_PER_COLUMN`` * m),
    each keeping as many rounds as it has columns.  Later rounds can only
    reach columns settled before the block, and fold into a running
    maximum as they come; so on a rising sawtooth, where every trough is a
    candidate of every later peak, the work memory stays O(rows x m).

    The sums are those of best[j] = max over all i < j of
    best[i] + |v_j - v_i|^q bit for bit, not only in exact arithmetic:
    rounded addition, subtraction and the q-th power are monotone, so
    inserting a point outside the range of a step, or moving a step's
    start to a later equal value, cannot lower a chain's rounded sum; and
    an entry that is not a candidate, repeated or not, adds no more than
    the recurrence does for it.
    """
    if q == 1.0:
        return _total_variation(v)
    rows, m = v.shape
    half = (m + 1) * rows
    stacked = np.empty((2, m + 1, rows))
    stacked[:, 0] = math.inf
    stacked[0, 1:] = v.T
    np.negative(stacked[0, 1:], out=stacked[1, 1:])
    flat = stacked.ravel()
    greater = _previous_greater(flat, m, rows)
    smaller = np.empty_like(greater)
    np.subtract(greater[half:], half, out=smaller[:half])
    np.add(greater[:half], half, out=smaller[half:])
    # own[j - 1]: the flat index of position j in the half its chain climbs
    # in; shift: that half's offset, which takes an entry to its best sum
    shift = np.empty((m - 1, rows), dtype=np.intp)
    np.greater(stacked[0, 1:m], stacked[0, 2:], out=shift, casting="unsafe")
    shift *= half
    own = np.arange(2 * rows, half).reshape(m - 1, rows)
    own += shift
    ends = flat.take(own)
    # the candidates of position j lie at or after low
    low = greater.take(own)
    low += rows
    best = np.zeros((m + 1, rows))
    flat_best = best.ravel()
    width = math.isqrt(_ROUNDS_PER_COLUMN * (m - 1))
    for start in range(0, m - 1, width):
        w = min(width, m - 1 - start)
        cols = slice(start, start + w)
        # the chain of position j holds at most j entries
        longest = start + w
        chain = np.empty((min(w, longest), w, rows), dtype=np.intp)
        np.subtract(own[cols], rows, out=chain[0])
        k = 1
        while k < len(chain):
            entry = smaller.take(chain[k - 1], out=chain[k])
            if k + 1 < longest and not np.count_nonzero(entry >= low[cols]):
                break
            np.maximum(entry, low[cols], out=entry)
            k += 1
        folded = None
        if k == len(chain) < longest:
            entry = chain[k - 1]
            while True:
                entry = smaller.take(entry)
                if not np.count_nonzero(entry >= low[cols]):
                    break
                np.maximum(entry, low[cols], out=entry)
                gaps = flat.take(entry)
                np.subtract(ends[cols], gaps, out=gaps)
                sums = flat_best.take(entry - shift[cols])
                sums += _gap_powers(gaps, q)
                if folded is None:
                    folded = sums
                else:
                    np.maximum(folded, sums, out=folded)
        index = chain[:k].transpose(1, 0, 2)
        powers = flat.take(index)
        np.subtract(ends[cols, None], powers, out=powers)
        _gap_powers(powers, q)
        index = index - shift[cols, None]
        first = start
        if start == 0:
            # position 1 has the one predecessor 0, whose best sum is 0
            best[2] = powers[0, 0]
            first = 1
        for j in range(first, start + w):
            top = best[j + 2]
            sums = flat_best.take(index[j - start])
            sums += powers[j - start]
            sums.max(axis=0, out=top)
            if folded is not None:
                np.maximum(top, folded[j - start], out=top)
    return best[m]


def _previous_greater(flat: np.ndarray, m: int, rows: int) -> np.ndarray:
    """For each entry of the (2, m + 1, rows) array behind ``flat``, the
    flat index of the previous strictly greater entry in its half and
    column, by binary lifting over window maxima.

    Step k takes an entry's candidate back 2^k rows when the maximum of
    the 2^k entries ending at it does not exceed the entry; a window
    reaching row 0 holds its +inf and refuses the step.  Each step builds
    its window maxima afresh, by k doublings, so that the pass holds two
    window arrays rather than log2(m).  Row 0's own entries get no meaning.
    """
    found = np.arange(-rows, flat.size - rows)
    steps = np.empty_like(found)
    for k in reversed(range((m - 1).bit_length())):
        window = flat
        for i in range(k):
            reach = rows << i
            wider = window.copy()
            np.maximum(wider[reach:], window[:-reach], out=wider[reach:])
            window = wider
        np.less_equal(window.take(found, mode="clip"), flat, out=steps, casting="unsafe")
        steps *= rows << k
        found -= steps
    return found


def qvariation_value(values: Iterable[float], q: float) -> float:
    """The variation value alone: the value of :func:`qvariation`."""
    return qvariation(values, q).value


@lru_cache(maxsize=None)
def _index_combinations(n: int, k: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)


@np.errstate(over="ignore")
def qvariation_bruteforce(values: Iterable[float], q: float) -> VariationCertificate:
    """Exhaustive maximum over every increasing subsequence; n <= 20 only."""
    if not 1 <= q < math.inf:
        raise InvalidQ("variation exponent must satisfy 1 <= q < inf")
    v = _as_float_array(values, "variation input")
    n = v.size
    if n > BRUTEFORCE_MAX:
        raise TooLong(f"exhaustive search accepts at most {BRUTEFORCE_MAX} values, got {n}")
    if n < 2:
        return VariationCertificate(0.0, ())
    return _certified(lambda w: _best_combination(w, q), v, q)


def _best_combination(v: np.ndarray, q: float) -> tuple[float, tuple[int, ...]]:
    """Largest chain sum over every increasing subsequence, and the first
    subsequence attaining it."""
    n = v.size
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
    return best_sum, best_combo


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
