import math
import sys
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlat import experiments, variation
from varlat.cli import run
from varlat.variation import GAP_FLOOR, VariationCertificate
from varlat import (
    BadRange,
    EmptyInput,
    ExperimentConfig,
    FloatRangeExceeded,
    InvalidQ,
    LengthMismatch,
    NonFiniteValue,
    OperatorFamily,
    TooLong,
    default_lacunary,
    family_value_matrix,
    heat_apply,
    make_pcf,
    make_radius_set,
    prune_to_local_extrema,
    qvariation,
    qvariation_bruteforce,
    qvariation_rows,
    qvariation_value,
)

EXAMPLE = (0.0, 1.0, 0.9, 2.0)


def floored_powers(gaps, q):
    return np.where(gaps < GAP_FLOOR, 0.0, gaps) ** q


def witness_dp_oracle(values, q):
    """The O(n^2) witness DP over every point and every predecessor.

    best[j] = max over all i < j of best[i] + |v_j - v_i|^q, ties to the
    first optimum; the oracle for the candidate rule of qvariation.  Like
    qvariation, it runs a sequence whose largest gap's q-th power is not a
    normal double on v * 2^-e, with e the binary exponent of half the span,
    and scales the value back by 2^e.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        return VariationCertificate(0.0, ())
    shift = 0
    span = v.max() - v.min()
    if span >= GAP_FLOOR and not sys.float_info.min <= span**q < math.inf:
        shift = math.frexp(v.max() / 2 - v.min() / 2)[1]
        v = np.ldexp(v, -shift)
    best = np.zeros(n)
    pred = np.full(n, -1, dtype=int)
    for j in range(1, n):
        cand = best[:j] + floored_powers(np.abs(v[j] - v[:j]), q)
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
    return VariationCertificate(math.ldexp(float(best[j_star] ** (1.0 / q)), shift), tuple(chain))


def assert_rows_match_qvariation(matrix, q):
    """qvariation_rows equals qvariation's candidate rule, row by row, bit
    for bit."""
    got = qvariation_rows(matrix, q)
    assert got.tolist() == [qvariation(row, q).value for row in np.asarray(matrix)]


def rising_sawtooth(m):
    """k/2 + (k odd): every trough is a candidate of every later peak."""
    k = np.arange(m)
    return k / 2 + k % 2


def candidate_counts(values):
    """How many candidates each turning point has under qvariation's rule.

    Read off the rule's statement, without the stacks: for a peak j, the
    troughs after the last peak above w_j that lie strictly below every
    later value up to j; for a trough, the same with the order reversed.
    """
    w, _ = prune_to_local_extrema(values)
    counts = []
    for j in range(len(w)):
        peak = w[j] > w[j - 1] if j else len(w) > 1 and w[0] > w[1]
        s = 1.0 if peak else -1.0
        count, low = 0, math.inf
        for i in range(j - 1, -1, -1):
            x = s * w[i]
            if (j - i) % 2 == 0:
                if x > s * w[j]:
                    break
            elif x < low:
                count += 1
            low = min(low, x)
        counts.append(count)
    return counts


def dp_chain_sum(values, chain, q):
    """Sum of floored gap powers along a chain, added in the DP's order."""
    v = np.asarray(values, dtype=float)
    total = 0.0
    for power in floored_powers(np.abs(np.diff(v[list(chain)])), q).tolist():
        total += power
    return total


class TestQVariationExamples:
    def test_quadratic_variation_of_example(self):
        cert = qvariation(EXAMPLE, 2.0)
        assert cert.value == pytest.approx(2.0, rel=1e-15)
        assert cert.subsequence == (0, 3)

    def test_total_variation_of_example(self):
        cert = qvariation(EXAMPLE, 1.0)
        assert cert.value == pytest.approx(2.2, rel=1e-15)
        assert cert.subsequence == (0, 1, 2, 3)

    def test_short_inputs_are_zero(self):
        assert qvariation((), 2.0).value == 0.0
        assert qvariation((5.0,), 2.0).value == 0.0
        assert qvariation((5.0,), 2.0).subsequence == ()

    def test_two_points(self):
        cert = qvariation((0.0, 1.0), 3.0)
        assert cert.value == 1.0
        assert cert.subsequence == (0, 1)

    def test_constant_sequence_is_zero_with_empty_witness(self):
        cert = qvariation((4.0, 4.0, 4.0), 2.0)
        assert cert.value == 0.0
        assert cert.subsequence == ()

    def test_rejects_q_below_one(self):
        with pytest.raises(InvalidQ):
            qvariation((0.0, 1.0), 0.5)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            qvariation((0.0, float("nan")), 2.0)

    def test_subfloor_gaps_contribute_nothing(self):
        cert = qvariation((0.0, 1e-310, 0.0), 2.0)
        assert cert.value == 0.0
        assert cert.subsequence == ()

    def test_value_only_variant_agrees(self, rng):
        # the witness DP (qvariation_value) against the row recurrence
        # (qvariation_rows), bit for bit
        for _ in range(50):
            v = rng.uniform(-3, 3, int(rng.integers(2, 30)))
            for q in (1.0, 2.0, 3.5):
                assert qvariation_value(v, q) == qvariation_rows([v], q)[0]


class TestQVariationRows:
    @pytest.mark.parametrize("m", [1, 2, 3, 40])
    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_each_row_matches_witness_dp_exactly(self, rng, m, q):
        random = rng.uniform(-3, 3, (6, m))
        ties = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(6, m))
        runs = np.repeat(rng.uniform(-1, 1, (6, m)), 3, axis=1)[:, :m]
        constant = np.full((2, m), 0.25)
        matrix = np.concatenate((random, ties, runs, constant))
        got = qvariation_rows(matrix, q)
        assert got.shape == (matrix.shape[0],)
        for row, value in zip(matrix, got):
            assert value == qvariation(row, q).value

    def test_no_rows(self):
        assert qvariation_rows(np.empty((0, 5)), 2.0).shape == (0,)

    def test_rejects_q_below_one(self):
        with pytest.raises(InvalidQ):
            qvariation_rows(np.zeros((2, 3)), 0.5)

    def test_rejects_nan(self):
        matrix = np.zeros((2, 3))
        matrix[1, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            qvariation_rows(matrix, 2.0)

    def test_rejects_q_below_one_on_rows_too_short_to_vary(self):
        with pytest.raises(InvalidQ):
            qvariation_rows(np.zeros((2, 1)), 0.5)

    def test_rejects_infinity_at_q_one(self):
        matrix = np.zeros((2, 3))
        matrix[0, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            qvariation_rows(matrix, 1.0)


class TestFamilyRows:
    """Variation and maximal values of a family along its radii, one row per
    point: qvariation_rows and the row max over family_value_matrix, the
    composition the blow-up profiles and the norm-transfer blocks run."""

    def test_zero_function_gives_zero_rows(self):
        zero = make_pcf([0.0, 1.0], [0.0])
        J = make_radius_set((1.0, 0.5, 0.25))
        matrix = family_value_matrix(zero, OperatorFamily.HEAT, J, np.linspace(-1, 2, 11))
        assert qvariation_rows(matrix, 2.0).tolist() == [0.0] * 11

    def test_single_radius_rows_are_zero(self):
        f = make_pcf([0.0, 1.0], [1.0])
        matrix = family_value_matrix(f, OperatorFamily.HEAT, make_radius_set((0.5,)), np.linspace(-1, 2, 7))
        assert qvariation_rows(matrix, 2.0).tolist() == [0.0] * 7

    def test_rows_dominate_a_single_pair_gap(self, rng, make_random_pcf):
        f = make_random_pcf()
        xs = np.sort(rng.uniform(-2, 2, 20))
        J = make_radius_set((2.0, 1.0, 0.5, 0.25))
        rows = qvariation_rows(family_value_matrix(f, OperatorFamily.HEAT, J, xs), 3.0)
        big = np.array([heat_apply(f, 2.0, x) for x in xs.tolist()])
        small = np.array([heat_apply(f, 0.25, x) for x in xs.tolist()])
        assert np.all(rows >= np.abs(big - small) - 1e-12)

    def test_single_radius_maximum_is_the_absolute_value(self, make_random_pcf):
        f = make_random_pcf()
        xs = np.linspace(-2, 2, 15)
        matrix = family_value_matrix(f, OperatorFamily.HEAT, make_radius_set((0.7,)), xs)
        want = np.abs([heat_apply(f, 0.7, x) for x in xs.tolist()])
        assert np.abs(matrix).max(axis=1) == pytest.approx(want, rel=1e-14)

    def test_stacked_functions_give_each_its_own_rows(self, make_random_pcf):
        # rows are independent: stacking coordinates, as the norm-transfer
        # blocks do, changes no bit of any one of them
        fns = [make_random_pcf() for _ in range(3)]
        xs = np.linspace(-2, 2, 11)
        J = make_radius_set((2.0, 1.0, 0.5, 0.25))
        matrices = [family_value_matrix(f, OperatorFamily.AVERAGES, J, xs) for f in fns]
        stacked = qvariation_rows(np.concatenate(matrices), 3.0).reshape(len(fns), xs.size)
        for rows, matrix in zip(stacked.tolist(), matrices):
            assert rows == qvariation_rows(matrix, 3.0).tolist()


@pytest.fixture(scope="module")
def witness_rows():
    """The heat-matrix rows linf-blowup's numerator sends through its chain
    sums at j1 = 258: one per core point, one column per scale."""
    config = ExperimentConfig(lacunary=replace(default_lacunary(), k_min=-300))
    sent = []

    def spy(matrix, q):
        sent.append(np.array(matrix))
        return variation._chain_rows(matrix, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_chain_rows", spy)
        experiments._profile_bundle(config, 258)
    (matrix,) = sent
    return matrix


ROW_DP_QS = [1.5, 2.0, 3.0, 7.5]

#: Few distinct values, signed zeros and a one-ulp step among them: ties,
#: plateaus and near-ties in every drawn row.
TIED_VALUES = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 2**-52, 3.0)


class TestRowsAgainstQVariation:
    """qvariation_rows, the recurrence over every predecessor, equals
    qvariation's candidate rule on each row bit for bit: inserting a point
    outside a step's range, or moving a step's start to a later equal
    value, cannot lower a chain's rounded sum."""

    @pytest.mark.parametrize("q", ROW_DP_QS)
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 33, 90])
    def test_random_tied_run_monotone_and_constant_rows(self, rng, m, q):
        random = rng.uniform(-3, 3, (8, m))
        ties = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(8, m))
        runs = np.repeat(rng.uniform(-1, 1, (8, m)), 3, axis=1)[:, :m]
        monotone = np.sort(rng.normal(size=(4, m)), axis=1) * [[1.0], [-1.0], [1e-3], [-1e3]]
        constant = np.array([np.zeros(m), np.full(m, -0.25)])
        assert_rows_match_qvariation(np.concatenate((random, ties, runs, monotone, constant)), q)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 14).flatmap(
            lambda m: st.lists(st.lists(st.sampled_from(TIED_VALUES), min_size=m, max_size=m), min_size=1, max_size=6)
        ),
        st.sampled_from(ROW_DP_QS),
    )
    def test_small_matrices_of_few_values(self, matrix, q):
        assert_rows_match_qvariation(matrix, q)

    @pytest.mark.parametrize("q", ROW_DP_QS)
    def test_witness_rows_at_depth_258(self, witness_rows, q):
        assert witness_rows.shape == (59, 257)
        assert_rows_match_qvariation(witness_rows, q)

    @pytest.mark.parametrize("q", ROW_DP_QS)
    def test_rows_whose_chain_sums_overflow(self, rng, q):
        # alternating 0, h with h^q near 1e306: every gap power is normal,
        # but the chain through all 400 points sums past the double range
        h = 10.0 ** (306 / q)
        m = 400
        zigzag = np.tile([0.0, h], m // 2)
        matrix = np.array([zigzag, -zigzag, zigzag * rng.uniform(0.99, 1.0, m), rng.normal(size=m)])
        with np.errstate(over="ignore"):
            sums = variation._row_sums(matrix, q)
        assert (sums[:3] == math.inf).all() and np.isfinite(sums[3])
        assert_rows_match_qvariation(matrix, q)

    @pytest.mark.parametrize("q", ROW_DP_QS)
    def test_rising_and_falling_sawtooth_rows(self, rng, q):
        saw = rising_sawtooth(301)
        matrix = np.array([saw, -saw, saw[::-1], saw * 1e-3 + 7.0, saw + rng.normal(0, 0.01, saw.size)])
        assert_rows_match_qvariation(matrix, q)

    def test_sawtooth_work_memory_stays_linear(self):
        # the recurrence takes one column's gaps at a time, so its work
        # memory stays O(rows x m), where all pairs at once would take about
        # m / 2 times that
        rows, m = 16, 3000
        matrix = rising_sawtooth(m) * (1.0 + np.arange(rows)[:, None] / rows)
        tracemalloc.start()
        try:
            got = qvariation_rows(matrix, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * rows * m * 8
        assert got.tolist() == [qvariation(row, 3.0).value for row in matrix]


class TestChainRows:
    """The consecutive-chain sums the witness profiles take: a lower bound
    on the exact variation, equal to it at q = 1."""

    @pytest.mark.parametrize("q", [1.0, *ROW_DP_QS])
    def test_chain_sum_of_random_rows(self, rng, q):
        matrix = np.concatenate((rng.uniform(-3, 3, (8, 40)), rng.choice([-1.0, 0.0, 1.0], size=(8, 40))))
        got = variation._chain_rows(matrix, q)
        exact = qvariation_rows(matrix, q)
        for row, value, bound in zip(matrix, got, exact):
            want = math.fsum(floored_powers(np.abs(np.diff(row)), q).tolist()) ** (1.0 / q)
            assert value == pytest.approx(want, rel=1e-15)
            assert value <= bound * (1.0 + 1e-15)
            if q == 1.0:
                assert value == bound

    @pytest.mark.parametrize(
        "a, k_min, depths",
        [
            (2.0, -300, (6, 10, 18, 34, 66, 130, 258)),
            (3.0, -300, (6, 10, 18, 34, 66, 130, 258)),
            (8.0, -400, (6, 10, 18, 34, 66, 130, 258)),
        ],
    )
    def test_chain_sums_equal_the_exact_variation_on_core_rows(self, a, k_min, depths):
        # on the lacunary witness every consecutive scale steps by a definite
        # amount, so the chain of all scales is the optimum: the chain sums,
        # added pairwise, and qvariation's, added in chain order, agree to
        # rounding
        config = ExperimentConfig(lacunary=replace(default_lacunary(), a=a, k_min=k_min))
        sent = []

        def spy(matrix, q):
            sent.append(np.array(matrix))
            return variation._chain_rows(matrix, q)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_chain_rows", spy)
            for j1 in depths:
                experiments._profile_bundle(config, j1)
        assert len(sent) == len(depths)
        for matrix in sent:
            chain = variation._chain_rows(matrix, config.q)
            exact = [qvariation(row, config.q).value for row in matrix]
            assert min(exact) > 0.0
            assert np.abs(chain / exact - 1.0).max() <= 2e-15

    def test_q_400_linf_blowup_completes(self, tmp_path, monkeypatch):
        # 0.02^400 underflows: without the rescale every chain sum would
        # read 0 and the run would exit 2; it completes, and fails only the
        # r^2 check of its fit (0.72 against 0.98), as the ratios barely grow
        argv = ["linf-blowup", "--kmin", "-300", "--j1-list", "6,10,18,34", "--q", "400"]
        assert run([*argv, "--out", str(tmp_path / "chain")]) == 1
        monkeypatch.setattr(experiments, "_chain_rows", qvariation_rows)
        assert run([*argv, "--out", str(tmp_path / "exact")]) == 1

        def numerators(name):
            lines = (tmp_path / name / "linf-blowup.csv").read_text().splitlines()[1:]
            return np.array([float(line.split(",")[1]) for line in lines])

        chain, exact = numerators("chain"), numerators("exact")
        assert np.all(np.isfinite(chain)) and np.all(chain > 0.0)
        assert np.abs(chain / exact - 1.0).max() <= 2e-15


class TestCertificates:
    def test_witness_recomputes_value(self, rng):
        for _ in range(100):
            v = rng.uniform(-5, 5, int(rng.integers(2, 40)))
            q = float(rng.uniform(1.0, 5.0))
            cert = qvariation(v, q)
            along = v[list(cert.subsequence)]
            recomputed = float(np.sum(np.abs(np.diff(along)) ** q) ** (1.0 / q))
            assert recomputed == pytest.approx(cert.value, rel=1e-12)

    def test_witness_indices_increase(self, rng):
        for _ in range(30):
            v = rng.uniform(-1, 1, 25)
            cert = qvariation(v, 2.0)
            assert list(cert.subsequence) == sorted(set(cert.subsequence))


class TestCandidateRuleAgainstOracle:
    """qvariation's turning-point DP against the full O(n^2) witness DP."""

    @given(
        st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), max_size=60),
        st.sampled_from([1.5, 2.0, 3.0, 5.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_discrete_values_match_oracle(self, raw, q):
        assert qvariation(raw, q) == witness_dp_oracle(raw, q)

    @given(
        st.lists(st.floats(-10, 10), max_size=60),
        st.sampled_from([1.5, 2.0, 3.0, 5.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_float_values_match_oracle(self, raw, q):
        got, want = qvariation(raw, q), witness_dp_oracle(raw, q)
        assert got.value == want.value
        if got.subsequence != want.subsequence:
            # only where two chains tie in floating point: both then reach
            # the same sum in the DP's own arithmetic
            assert dp_chain_sum(raw, got.subsequence, q) == dp_chain_sum(raw, want.subsequence, q)

    def test_exact_tie_goes_to_the_earliest_candidate(self):
        # (0, 3) and (0, 1, 2, 3) both sum to 9 at q = 2
        values = (0.0, 2.0, 1.0, 3.0)
        assert qvariation(values, 2.0) == VariationCertificate(3.0, (0, 3))
        assert witness_dp_oracle(values, 2.0) == VariationCertificate(3.0, (0, 3))

    def test_float_tie_keeps_the_later_chain(self):
        # the chains (0, 3) and (0, 1, 2, 3) both sum to 1.0 in floating
        # point; the second is larger by 2e-30 in exact arithmetic
        values = (0.0, 1e-10, 0.0, 1.0)
        assert witness_dp_oracle(values, 3.0).subsequence == (0, 3)
        assert qvariation(values, 3.0) == VariationCertificate(1.0, (0, 1, 2, 3))

    @pytest.mark.parametrize(
        "shape", ["rising_sawtooth", "damped_alternation", "uptrend_noise", "plateaus"]
    )
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 5.0])
    def test_adversarial_shapes_match_oracle(self, rng, shape, q):
        n = 2000
        k = np.arange(n)
        values = {
            # every peak a new record and the troughs rising: no candidate is
            # ever dropped for a peak, the worst case for the stacks
            "rising_sawtooth": k / 2.0 + np.where(k % 2 == 1, 1.0, 0.0),
            "damped_alternation": np.where(k % 2 == 0, 1.0, -1.0) * 0.995**k,
            "uptrend_noise": 0.01 * k + rng.normal(0.0, 1.0, n),
            "plateaus": np.repeat(rng.normal(0.0, 1.0, n // 5), 5),
        }[shape]
        assert qvariation(values, q) == witness_dp_oracle(values, q)

    @pytest.mark.parametrize("shape", ["normals", "converging_zigzag", "repeated_zigzag"])
    def test_candidate_work_stays_linear(self, monkeypatch, shape):
        seen = []

        def counting(gaps, q):
            seen.append(gaps.size)
            return floored_powers(gaps, q)

        monkeypatch.setattr(variation, "_gap_powers", counting)
        n = 20_000
        k = np.arange(n)
        values = {
            "normals": np.random.default_rng(0).standard_normal(n),
            # rising troughs all stay on their stack: the overshoot rule
            # alone keeps each peak to one candidate
            "converging_zigzag": np.where(k % 2 == 0, 1.0, -1.0) * 0.9999**k,
            # equal troughs and equal peaks: the strict stacks keep one each
            "repeated_zigzag": (k % 2).astype(float),
        }[shape]
        for run in (qvariation, qvariation_value):
            seen.clear()
            run(values, 3.0)
            # the full DP would pass n(n-1)/2 = 2e8 gaps
            assert 0 < sum(seen) < 10 * n


    @pytest.mark.parametrize("q", [1.5, 3.0, 7.0])
    def test_narrow_and_wide_columns_mixed_match_oracle(self, rng, q):
        k = np.arange(400)
        values = np.concatenate(
            [
                # rising sawtooth: every peak past the 70th value is wide
                k / 2.0 + (k % 2),
                # normals above it keep its troughs on their stack, so each
                # record peak is a wide column amid pending narrow gaps
                250.0 + rng.normal(0.0, 1.0, 1500),
                # damped alternation: narrow columns after a wide one
                250.0 + 4.0 * np.where(k % 2 == 0, 1.0, -1.0) * 0.99**k,
            ]
        )
        counts = candidate_counts(values)
        narrow = [c for c in counts if c <= variation._NARROW]
        assert len(narrow) < len(counts) and sum(narrow) > 2 * variation._POWER_BATCH
        assert qvariation(values, q) == witness_dp_oracle(values, q)

    def test_gap_powers_are_batched(self, monkeypatch):
        sizes = []

        def counting(gaps, q):
            sizes.append(gaps.size)
            return floored_powers(gaps, q)

        monkeypatch.setattr(variation, "_gap_powers", counting)
        values = np.random.default_rng(0).standard_normal(20_000)
        qvariation(values, 3.0)
        counts = candidate_counts(values)
        wide = sum(c > variation._NARROW for c in counts)
        narrow_gaps = sum(c for c in counts if c <= variation._NARROW)
        # each candidate's gap is taken once, and the same linear total as
        # in test_candidate_work_stays_linear
        assert sum(sizes) == sum(counts) < 10 * values.size
        # one call per full batch, one per wide column, one for the rest
        assert len(sizes) <= narrow_gaps / variation._POWER_BATCH + wide + 1


class TestTotalVariation:
    """At q = 1 the variation is the sum of the floored |steps|."""

    @pytest.mark.parametrize("n", [2, 3, 17, 200, 4097])
    def test_matches_rows_exactly(self, rng, n):
        matrix = np.concatenate(
            (
                rng.normal(size=(3, n)),
                rng.choice([-1.0, 0.0, 0.5, 1.0], size=(3, n)),
                np.repeat(rng.normal(size=(3, n)), 4, axis=1)[:, :n],
            )
        )
        rows = qvariation_rows(matrix, 1.0)
        for row, value in zip(matrix, rows):
            assert qvariation(row, 1.0).value == value
            assert value == float(np.sum(np.abs(np.diff(row))))

    def test_matches_bruteforce(self, rng):
        for trial in range(300):
            n = int(rng.integers(2, 13))
            v = rng.choice([-1.0, 0.0, 0.5, 1.0], size=n) if trial % 2 else rng.uniform(-2, 2, n)
            assert qvariation(v, 1.0).value == pytest.approx(
                qvariation_bruteforce(v, 1.0).value, rel=1e-12, abs=1e-15
            )

    def test_witness_is_the_turning_points(self, rng):
        for _ in range(100):
            v = rng.choice([-1.0, 0.0, 0.5, 1.0], size=int(rng.integers(2, 40)))
            cert = qvariation(v, 1.0)
            _, turning = prune_to_local_extrema(v)
            assert cert.subsequence == (turning if cert.value > 0 else ())
            along = v[list(cert.subsequence)]
            assert float(np.sum(np.abs(np.diff(along)))) == pytest.approx(cert.value, rel=1e-12)

    def test_constant_and_subfloor_inputs_are_zero(self):
        assert qvariation((2.0, 2.0, 2.0), 1.0) == VariationCertificate(0.0, ())
        assert qvariation((0.0, 1e-310, 0.0), 1.0) == VariationCertificate(0.0, ())


class TestBruteforceAgreement:
    def test_dp_matches_bruteforce_randomized(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            v = rng.uniform(-2, 2, n)
            q = float(rng.choice([1.5, 2.0, 3.0, 5.0]))
            dp = qvariation(v, q)
            bf = qvariation_bruteforce(v, q)
            assert dp.value == pytest.approx(bf.value, rel=1e-12, abs=1e-15)

    def test_bruteforce_rejects_long_input(self):
        with pytest.raises(TooLong):
            qvariation_bruteforce(np.zeros(21), 2.0)

    def test_bruteforce_short_inputs(self):
        assert qvariation_bruteforce((7.0,), 2.0).value == 0.0
        cert = qvariation_bruteforce((0.0, 1.0), 2.0)
        assert cert.value == 1.0
        assert cert.subsequence == (0, 1)


class TestPruning:
    def test_monotone_run_collapses(self):
        vals, idx = prune_to_local_extrema((0.0, 1.0, 2.0, 3.0))
        assert vals == (0.0, 3.0)
        assert idx == (0, 3)

    def test_alternating_sequence_unchanged(self):
        vals, idx = prune_to_local_extrema((0.0, 2.0, 1.0, 3.0))
        assert vals == (0.0, 2.0, 1.0, 3.0)
        assert idx == (0, 1, 2, 3)

    def test_plateau_collapses(self):
        vals, idx = prune_to_local_extrema((1.0, 1.0, 1.0))
        assert vals == (1.0,)
        assert idx == (0,)

    def test_pruning_preserves_variation(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 201))
            v = rng.choice([-1.0, 0.0, 0.5, 1.0], size=n)
            pruned, _ = prune_to_local_extrema(v)
            for q in (1.0, 2.0, 3.0):
                assert qvariation_value(pruned, q) == pytest.approx(
                    qvariation_value(v, q), rel=1e-12, abs=1e-15
                )

    @given(st.lists(st.floats(-10, 10), min_size=0, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_pruned_indices_point_at_values(self, raw):
        vals, idx = prune_to_local_extrema(raw)
        assert len(vals) == len(idx)
        assert list(vals) == [raw[i] for i in idx]


class TestVariationOrderings:
    def test_antitone_in_q(self, rng):
        for _ in range(50):
            v = rng.uniform(-2, 2, 20)
            q1, q2 = sorted(rng.uniform(1.0, 6.0, 2))
            assert qvariation_value(v, q1) >= qvariation_value(v, q2) - 1e-12

    def test_dominates_every_pair_gap(self, rng):
        for _ in range(50):
            v = rng.uniform(-2, 2, 15)
            gap = float(np.abs(v[:, None] - v[None, :]).max())
            assert qvariation_value(v, 3.0) >= gap - 1e-12

    def test_monotone_under_subsequence(self, rng):
        # dropping values can only shrink the variation
        for _ in range(50):
            v = rng.uniform(-2, 2, 12)
            keep = np.sort(rng.choice(12, size=8, replace=False))
            assert qvariation_value(v[keep], 2.0) <= qvariation_value(v, 2.0) + 1e-12


class TestMalformedInput:
    # every entry point validates through corefn._as_float_array: text is not
    # a sequence of numbers, ragged input is not a flat sequence or matrix
    @pytest.mark.parametrize(
        "call, error",
        [
            pytest.param(lambda: qvariation("123", 2.0), LengthMismatch, id="text"),
            pytest.param(lambda: qvariation(b"\x00\x05", 2.0), LengthMismatch, id="bytes"),
            pytest.param(lambda: qvariation(["1", "3"], 2.0), LengthMismatch, id="digit-strings"),
            pytest.param(lambda: qvariation([1, [2, 3]], 2.0), LengthMismatch, id="ragged"),
            pytest.param(lambda: qvariation_value("12", 2.0), LengthMismatch, id="value-text"),
            pytest.param(
                lambda: qvariation_bruteforce("12", 2.0), LengthMismatch, id="bruteforce-text"
            ),
            pytest.param(lambda: qvariation_rows([["a", "b"]], 2.0), LengthMismatch, id="rows-text"),
            pytest.param(
                lambda: prune_to_local_extrema([0.0, float("nan"), 1.0]),
                NonFiniteValue,
                id="prune-nan",
            ),
        ],
    )
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call()


class TestGapPowersOutOfRange:
    # q-th powers of the gaps that overflow or underflow doubles: the exact
    # value, or a typed error, never a silent 0, inf or 1
    @pytest.mark.parametrize(
        "values, q, expected, witness",
        [
            pytest.param((0.0, 3.0, 1.0, 2.0), math.inf, InvalidQ, None, id="q-inf"),
            pytest.param((0.0, 3.0, 1.0, 2.0), 1e308, FloatRangeExceeded, None, id="q-1e308"),
            pytest.param((0.0, 0.5, 0.1, 0.4), 2000.0, 0.5, (0, 1), id="q-2000-underflow"),
            pytest.param((0.0, 1e-120, 0.0), 3.0, 2.0 ** (1 / 3) * 1e-120, (0, 1, 2), id="cubes-underflow"),
            pytest.param((0.0, 1e300, 0.0), 3.0, 2.0 ** (1 / 3) * 1e300, (0, 1, 2), id="cubes-overflow"),
            pytest.param((1e308, -1e308), 1.0, FloatRangeExceeded, None, id="value-overflow"),
        ],
    )
    def test_exact_value_or_typed_error(self, values, q, expected, witness):
        calls = {
            "qvariation": lambda: qvariation(values, q),
            "rows": lambda: VariationCertificate(qvariation_rows([values], q)[0], witness),
            "bruteforce": lambda: qvariation_bruteforce(values, q),
        }
        for name, call in calls.items():
            if isinstance(expected, type):
                with pytest.raises(expected):
                    call()
                continue
            cert = call()
            assert cert.value == pytest.approx(expected, rel=1e-14), name
            assert cert.subsequence == witness, name


class TestChainSumOverflow:
    # every gap power is a normal double but a chain sum overflows: the
    # sequence runs again, rescaled, and the value comes out when it fits
    @staticmethod
    def exact(values, q):
        """Largest chain sum's q-th root, for alternating values 0, h, 0, ..."""
        h = mpmath.mpf(max(values))
        return mpmath.root((len(values) - 1) * h**q, q)

    @pytest.mark.parametrize(
        "values, q",
        [
            pytest.param([0.0, 1e102] * 600, 3.0, id="cubes-1200"),
            pytest.param([0.0, 1e154, 0.0, 1e154, 0.0], 2.0, id="squares-5"),
        ],
    )
    def test_value_fits(self, tmp_path, capsys, values, q):
        want = float(self.exact(values, q))
        witness = tuple(range(len(values)))
        cert = qvariation(values, q)
        assert cert.value == pytest.approx(want, rel=1e-14)
        assert cert.subsequence == witness
        assert qvariation_rows([values], q)[0] == pytest.approx(want, rel=1e-14)
        if len(values) <= variation.BRUTEFORCE_MAX:
            assert qvariation_bruteforce(values, q) == cert
        path = tmp_path / "values.txt"
        path.write_text(" ".join(repr(v) for v in values))
        assert run(["variation", "--values", str(path), "--q", repr(q)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(want, rel=1e-11)
        assert out[1] == " ".join(map(str, witness))

    def test_rows_that_fit_are_unchanged(self):
        fits = [0.0, 1e100, 0.0, 1e100]
        matrix = [fits, [0.0, 1e154, 0.0, 1e154]]
        assert qvariation_rows(matrix, 2.0)[0] == qvariation_rows([fits], 2.0)[0]
        assert qvariation_rows(matrix, 2.0)[0] == qvariation(fits, 2.0).value

    def test_value_beyond_the_double_range_raises(self, tmp_path, capsys):
        values = [0.0, 1e308] * 6  # 11^(1/3) * 1e308 > 1.8e308
        assert self.exact(values, 3.0) > sys.float_info.max
        for call in (qvariation, qvariation_bruteforce, lambda v, q: qvariation_rows([v], q)):
            with pytest.raises(FloatRangeExceeded):
                call(values, 3.0)
        path = tmp_path / "values.txt"
        path.write_text(" ".join(repr(v) for v in values))
        assert run(["variation", "--values", str(path), "--q", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRadiusSet:
    def test_iteration_order(self):
        assert make_radius_set([4.0, 2.0, 1.0]) == (4.0, 2.0, 1.0)

    def test_rejects_increasing(self):
        with pytest.raises(BadRange):
            make_radius_set((1.0, 2.0))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(EmptyInput):
            make_radius_set(())
        with pytest.raises(Exception):
            make_radius_set((1.0, 0.0))
