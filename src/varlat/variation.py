"""q-variation seminorms over operator families, with optimal witnesses.

The central quantity: for a finite sequence v_1, ..., v_n the q-variation is
the largest value of (sum |v_{i_{k+1}} - v_{i_k}|^q)^(1/q) over increasing
index subsequences.  :func:`qvariation` finds it exactly together with a
witness subsequence, by a dynamic program over the strict turning points
that looks back only at the few predecessors an optimal chain can use.
numpy finds those candidates for every point at once, from one array of
previous extremes, and one Python pass settles the points in order; an
exhaustive search over all subsequences backs it up for short inputs.  At
q = 1 the value is the total variation, a closed form.

The norm-transfer blocks need only the value of each row of averages, one
row per grid point and inner coordinate, along the averaging radii (three by
default), so they go through :func:`qvariation_rows`, the plain O(m^2)
recurrence over every predecessor on all rows at once.  The witness
profiles of the blow-up experiments take :func:`_chain_rows` instead, the
sum over consecutive entries alone: a lower bound on the exact value, and at
q = 1 equal to it.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .corefn import _as_float_array
from .errors import (
    BadRange,
    EmptyInput,
    FloatRangeExceeded,
    InvalidQ,
    NonPositiveRadius,
    TooLong,
)
from .operators import family_value_matrix  # noqa: F401  read by perfbench's wrapper-restore self-test

__all__ = [
    "VariationCertificate",
    "make_radius_set",
    "qvariation",
    "qvariation_rows",
    "qvariation_value",
    "qvariation_bruteforce",
    "prune_to_local_extrema",
]

_SMALLEST_NORMAL = np.finfo(float).smallest_normal

#: Pair gaps below this threshold, the subnormal ones, contribute zero to the
#: variation sum; any normal gap counts, its sequence rescaled by a power of
#: two where its q-th power leaves the double range.
GAP_FLOOR = float(_SMALLEST_NORMAL)

#: Hard cap for the exhaustive search; beyond it the subsequence count is
#: no longer desk-scale.
BRUTEFORCE_MAX = 20

#: A column of the witness DP with at most this many candidates settles on
#: Python floats; a wider one runs on numpy.
_NARROW = 32

#: The witness DP settles its columns this many at a time: the powers of
#: their narrow gaps come from one :func:`_gap_powers` call and reach the
#: Python pass as one list.
_POWER_BATCH = 512


def make_radius_set(radii: Iterable[float]) -> tuple[float, ...]:
    """The radii (or heat times) as floats, checked to be finite, positive
    and strictly decreasing, largest first."""
    r = _as_float_array(radii, "radii")
    if not r.size:
        raise EmptyInput("a radius set needs at least one radius")
    if np.any(r <= 0):
        raise NonPositiveRadius("radii must be positive")
    if np.any(np.diff(r) >= 0):
        raise BadRange("radii must be strictly decreasing")
    return tuple(r.tolist())


class VariationCertificate(NamedTuple):
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
    top, bottom = columns.max(axis=0), columns.min(axis=0)
    half_span = top / 2 - bottom / 2
    if sums:
        shifts = np.frexp(half_span)[1] + math.ceil(v.shape[1].bit_length() / q)
    else:
        # exact below 2^-1021, where halving drops bits, and inf where the
        # span itself overflows
        span = top - bottom
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


def _chain_sums(v: np.ndarray, q: float) -> np.ndarray:
    """Sum of the floored |steps|^q along each row: the variation sum of the
    consecutive chain, which at q = 1 is the total variation."""
    return _gap_powers(np.abs(np.diff(v, axis=1)), q).sum(axis=1)


def _certified(
    run: Callable[[np.ndarray], tuple[float, Sequence[int]]], v: np.ndarray, q: float
) -> VariationCertificate:
    """The certificate of one sequence from run(w) -> (chain sum, witness),
    with w as :func:`_variation_rows` hands v over, rescaled or rerun."""
    witness = []

    def sums_of(w: np.ndarray, q: float) -> np.ndarray:
        total, witness[:] = run(w[0])
        return np.array([total])

    value = float(_variation_rows(sums_of, v[None, :], q)[0])
    return VariationCertificate(value, tuple(witness)) if value > 0.0 else VariationCertificate(0.0, ())


def _previous_above(key: np.ndarray) -> tuple[np.ndarray, int]:
    """For each entry of key, the index of the last earlier entry of the
    same parity strictly above it, -1 if there is none; and the work, the
    number of pointer reads.

    Each pointer starts just before the run of entries, of its parity,
    that climbs to its own, and jumps to its target's pointer while the
    target does not lie above: everything between a pointer and its entry
    stays at or below the entry.  All pointers jump at once, one numpy pass
    a round; the work is 1.4 n on normals, and 4.4 n on a random walk of
    10^5 values, 6.4 n on one of 3 * 10^6.
    """
    n = key.size
    climbs = np.zeros(n, dtype=bool)
    np.less_equal(key[:-2], key[2:], out=climbs[2:])
    ptr = np.arange(-2, n - 2, dtype=np.int32 if n < 2**31 else np.int64)
    ptr[climbs] = -2
    for t in (0, 1):
        np.maximum.accumulate(ptr[t::2], out=ptr[t::2])
    np.maximum(ptr, -1, out=ptr)
    # an entry below the one two places back has its pointer there already
    climbs &= ptr >= 0
    live = np.flatnonzero(climbs)
    del climbs
    work = 0
    while live.size:
        work += live.size
        at = ptr[live]
        skip = key[at] <= key[live]
        live, at = live[skip], at[skip]
        ptr[live] = ptr[at]
        live = live[ptr[live] >= 0]
    return ptr, work


class _StackMirror:
    """The monotone stack of the points of one parity, mirrored in numpy.

    Position p of ``index``, ``value`` and ``best`` holds the p-th oldest
    point on the stack, its value and its best sum.  :meth:`top` brings the
    mirror up to date when a wide column reads it, and only with the points
    pushed since its last call that are still on the stack: the chain
    through P down from the newest point, each one position above the one
    it leads to.  ``touched`` counts the entries it writes and reads.
    """

    def __init__(self, P: np.ndarray, w: np.ndarray):
        self.P, self.w = P, w
        size = w.size // 2 + 1
        self.index = np.empty(size, dtype=np.intp)
        self.value = np.empty(size)
        self.best = np.empty(size)
        self.size = 0
        self.synced = 0
        self.touched = 0

    def top(self, j: int, best: list):
        """The candidates of column j on this stack, the other type's, as it
        stands right after j - 1 is pushed: the points above P[j], oldest
        first, as their indices, values and best sums."""
        P = self.P
        fresh = []
        i = j - 1
        while i >= self.synced:
            fresh.append(i)
            i = P.item(i)
        # i is -1, or a point already mirrored and still on the stack
        base = int(np.searchsorted(self.index[: self.size], i)) + 1 if i >= 0 else 0
        fresh.reverse()
        size = base + len(fresh)
        self.index[base:size] = fresh
        self.value[base:size] = self.w[fresh]
        self.best[base:size] = [best[i] for i in fresh]
        self.size, self.synced = size, j
        low = int(np.searchsorted(self.index[:size], P.item(j), side="right"))
        self.touched += len(fresh) + size - low
        return self.index[low:size], self.value[low:size], self.best[low:size]


def _chain_rounds(P: np.ndarray):
    """Walk the candidates of every column j at once, newest first: the
    chain j - 1, P[j - 1], P[P[j - 1]], ... while it stays above P[j].

    Round r yields the columns with more than r candidates and the
    (r + 1)-th newest of each; round ``_NARROW``, the last, yields the wide
    columns.
    """
    cols = np.arange(1, P.size, dtype=P.dtype)
    cand, floor = cols - 1, P[1:]
    for _ in range(_NARROW + 1):
        if not cols.size:
            return
        yield cols, cand
        cand = P[cand]
        more = cand > floor
        cols, cand, floor = cols[more], cand[more], floor[more]


def _settle_pairs(best: list, pred: list, cols: list, cands: list, powers: list) -> None:
    """best[j] = best[i] + power for each pair (j, i) that raises best[j]:
    the pairs of a column ascend, so ties go to the earliest candidate,
    and one counts only when its sum is above 0 (best starts at 0)."""
    for j, i, power in zip(cols, cands, powers):
        total = best[i] + power
        if total > best[j]:
            best[j] = total
            pred[j] = i


def _witness_dp(w: np.ndarray, q: float) -> tuple[float, list[int]]:
    """Largest chain sum over the zigzag w and a chain attaining it.

    The loop of :func:`qvariation` for q > 1; see there.
    """
    m = w.size
    first_is_peak = m > 1 and w[0] > w[1]
    # P[j]: the previous point of j's own type strictly more extreme
    key = w.copy()
    key[int(first_is_peak) :: 2] *= -1
    P, _ = _previous_above(key)
    del key
    # count[j]: the number of narrow candidates of column j; 0 for a wide one
    count = np.zeros(m, dtype=np.uint8)
    for cols, _ in _chain_rounds(P):
        count[cols] += 1
    wide = np.flatnonzero(count > _NARROW)
    count[wide] = 0
    ends = np.cumsum(count, dtype=np.int32 if _NARROW * m < 2**31 else np.int64)
    # the narrow columns' candidates, oldest first, column after column, from
    # a second walk: the rounds are not kept, as on a long stack they would
    # hold up to _NARROW entries per column
    order = np.empty(ends[-1], dtype=P.dtype)
    for r, (cols, cand) in zip(range(_NARROW), _chain_rounds(P)):
        if wide.size:
            narrow = count[cols] > 0
            cols, cand = cols[narrow], cand[narrow]
        order[ends[cols] - 1 - r] = cand
    del ends

    best = [0.0] * m
    pred = [-1] * m
    # only the wide columns read P again, through the mirrors
    stacks = [_StackMirror(P, w), _StackMirror(P, w)] if wide.size else []
    del P
    wide_cols = wide.tolist()
    base = 0
    for c0 in range(1, m, _POWER_BATCH):
        c1 = min(c0 + _POWER_BATCH, m)
        cols = np.repeat(np.arange(c0, c1), count[c0:c1])
        cands = order[base : base + cols.size]
        base += cols.size
        powers = _gap_powers(np.abs(w[cols] - w[cands]), q).tolist() if cands.size else []
        cols, cands = cols.tolist(), cands.tolist()
        done = 0
        for j in wide_cols[bisect_left(wide_cols, c0) : bisect_left(wide_cols, c1)]:
            split = bisect_left(cols, j)
            _settle_pairs(best, pred, cols[done:split], cands[done:split], powers[done:split])
            done = split
            index, value, prior = stacks[(j - 1) & 1].top(j, best)
            sums = _gap_powers(np.abs(w[j] - value), q)
            sums += prior
            k = int(sums.argmax())
            if sums[k] > 0.0:
                best[j], pred[j] = float(sums[k]), index.item(k)
        if done:
            cols, cands, powers = cols[done:], cands[done:], powers[done:]
        _settle_pairs(best, pred, cols, cands, powers)
    top = max(best)
    chain = []
    j = best.index(top)
    while j >= 0:
        chain.append(j)
        j = pred[j]
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

    The candidates depend on the values only, never on best, so they are
    found up front with numpy.  Let P[j] be the previous point of j's own
    type strictly more extreme (for a peak a higher peak, for a trough a
    lower one), taken for every point at once by pointer jumping.  The
    point below i on its stack is P[i], so the candidates of j are the chain
    j - 1, P[j - 1], P[P[j - 1]], ... while it stays above P[j]; two walks
    of at most ``_NARROW`` + 1 vectorized rounds count them and lay them
    out, oldest first, column after column.  One Python pass then settles
    the columns in order on Python floats, ``_POWER_BATCH`` columns at a
    time: their gaps' q-th powers come from one :func:`_gap_powers` call,
    always numpy's array power (Python's ``**`` can differ from it in the
    last ulp).  A column whose chain is longer than ``_NARROW`` (on a
    rising sawtooth every peak has all earlier troughs) is wide: it reads
    its candidates as one slice of a numpy mirror of the other stack,
    brought up to date there with the points pushed since, and finds its
    maximum with numpy.

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
        # a power of two keeps the order but may flush the smallest values
        # to a tie: the zigzag then needs its turning points again
        turning = _turning_points(w) if np.any(w[1:] == w[:-1]) else slice(None)
        total, chain = _witness_dp(w[turning], q)
        return total, kept[turning][chain].tolist()

    return _certified(run, v[kept], q)


def qvariation_rows(matrix, q: float) -> np.ndarray:
    """Exact q-variation of every row of a matrix, values only.

    At q = 1 this is the total variation of each row, a closed form in
    O(rows x m); :func:`qvariation` takes its value from here.  For q > 1
    the chain sums come from the plain recurrence best[j] = max over all
    i < j of best[i] + |v_j - v_i|^q, run on all rows at once, one column
    at a time, in O(rows x m^2) time; its values equal those of
    :func:`qvariation`'s candidate rule bit for bit.  Its one caller at
    q > 1, the norm-transfer blocks, sends a row per point and coordinate
    along the radii, three of them by default, so the quadratic cost stays
    small; a long row belongs to :func:`qvariation`.
    """
    return _variation_rows(_chain_sums if q == 1.0 else _row_sums, matrix, q)


def _chain_rows(matrix, q: float) -> np.ndarray:
    """The consecutive-chain q-variation of every row,
    (sum_j |v_(j+1) - v_j|^q)^(1/q), gaps floored as in :func:`qvariation`.

    It is the variation sum of one chain, all of the row, so it is at or
    below :func:`qvariation_rows`, and equal to it at q = 1.
    """
    return _variation_rows(_chain_sums, matrix, q)


@np.errstate(over="ignore")
def _variation_rows(sums_of: Callable[[np.ndarray, float], np.ndarray], matrix, q: float) -> np.ndarray:
    """(sums_of(rows, q))^(1/q) for every row of a matrix.

    The root is taken on Python floats: numpy's array power can differ from
    the scalar one in the last ulp.  Rows out of the double range run
    rescaled as in :func:`qvariation`, and so do rows whose sums overflow.
    """
    if not 1 <= q < math.inf:
        raise InvalidQ("variation exponent must satisfy 1 <= q < inf")
    v = _as_float_array(matrix, "variation input", ndim=2)
    rows, n = v.shape
    if n < 2:
        return np.zeros(rows)
    scaled, shifts = _rescaled(v, q)
    sums = sums_of(scaled, q)
    over = sums == math.inf
    if over.any():
        scaled, shifts[over] = _rescaled(v[over], q, sums=True)
        sums[over] = sums_of(scaled, q)
        _check_rerun(sums[over], q)
    root = 1.0 / q
    values = [s**root for s in sums.tolist()]
    return _scale_back(values, shifts, q) if shifts.any() else np.array(values)


def _row_sums(v: np.ndarray, q: float) -> np.ndarray:
    """Largest chain sum of each row, for q > 1: best[j] = max over all
    i < j of best[i] + |v_j - v_i|^q, from 0."""
    rows, m = v.shape
    best = np.zeros((rows, m))
    for j in range(1, m):
        powers = _gap_powers(np.abs(v[:, j, None] - v[:, :j]), q)
        powers += best[:, :j]
        powers.max(axis=1, out=best[:, j])
    return best.max(axis=1)


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
        sums = _chain_sums(v[idx], q)
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
