import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlat import variation
from varlat.variation import GAP_FLOOR, VariationCertificate
from varlat import (
    BadRange,
    EmptyInput,
    InvalidQ,
    LengthMismatch,
    NonFiniteValue,
    OperatorFamily,
    TooLong,
    heat_apply,
    make_grid,
    make_pcf,
    make_radius_set,
    maximal,
    maximal_profile,
    prune_to_local_extrema,
    qvariation,
    qvariation_bruteforce,
    qvariation_rows,
    qvariation_value,
    variation_profile,
    vector_variation_field,
    sequence_norm,
)

EXAMPLE = (0.0, 1.0, 0.9, 2.0)


def floored_powers(gaps, q):
    return np.where(gaps < GAP_FLOOR, 0.0, gaps) ** q


def witness_dp_oracle(values, q):
    """The O(n^2) witness DP over every point and every predecessor.

    best[j] = max over all i < j of best[i] + |v_j - v_i|^q, ties to the
    first optimum; the oracle for the candidate rule of qvariation.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        return VariationCertificate(0.0, ())
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
    return VariationCertificate(float(best[j_star] ** (1.0 / q)), tuple(chain))


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
        for _ in range(50):
            v = rng.uniform(-3, 3, int(rng.integers(2, 30)))
            for q in (1.0, 2.0, 3.5):
                assert qvariation_value(v, q) == qvariation(v, q).value


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

    def test_profile_rejects_q_below_one(self):
        f = make_pcf([0.0, 1.0], [1.0])
        grid = make_grid(np.linspace(-1, 2, 5))
        with pytest.raises(InvalidQ):
            variation_profile(f, OperatorFamily.HEAT, make_radius_set((1.0, 0.5)), grid, 0.5)

    def test_profile_rejects_nan_family_values(self, monkeypatch):
        def nan_matrix(f, family, J, xs):
            out = np.ones((len(xs), len(J)))
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(variation, "family_value_matrix", nan_matrix)
        f = make_pcf([0.0, 1.0], [1.0])
        grid = make_grid(np.linspace(-1, 2, 5))
        with pytest.raises(NonFiniteValue):
            variation_profile(f, OperatorFamily.HEAT, make_radius_set((1.0, 0.5)), grid, 2.0)


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
        qvariation(values, 3.0)
        # the full DP would pass n(n-1)/2 = 2e8 gaps
        assert 0 < sum(seen) < 10 * n


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


class TestMaximal:
    def test_simple(self):
        assert maximal((-3.0, 2.0)) == 3.0
        assert maximal((0.0,)) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            maximal(())


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
            pytest.param(lambda: maximal("9"), LengthMismatch, id="maximal-text"),
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


class TestRadiusSet:
    def test_iteration_order(self):
        J = make_radius_set((4.0, 2.0, 1.0))
        assert tuple(J) == (4.0, 2.0, 1.0)
        assert len(J) == 3

    def test_rejects_increasing(self):
        with pytest.raises(BadRange):
            make_radius_set((1.0, 2.0))

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(EmptyInput):
            make_radius_set(())
        with pytest.raises(Exception):
            make_radius_set((1.0, 0.0))


class TestProfiles:
    def test_zero_function_gives_zero_profile(self):
        z = make_pcf([0.0, 1.0], [0.0])
        grid = make_grid(np.linspace(-1, 2, 11))
        J = make_radius_set((1.0, 0.5, 0.25))
        prof = variation_profile(z, OperatorFamily.HEAT, J, grid, 2.0)
        assert prof.values_array.tolist() == [0.0] * 11

    def test_single_radius_profile_is_zero(self):
        f = make_pcf([0.0, 1.0], [1.0])
        grid = make_grid(np.linspace(-1, 2, 7))
        prof = variation_profile(f, OperatorFamily.HEAT, make_radius_set((0.5,)), grid, 2.0)
        assert prof.values_array.tolist() == [0.0] * 7

    def test_profile_dominates_single_pair_gap(self, rng, make_random_pcf):
        f = make_random_pcf()
        grid = make_grid(np.sort(rng.uniform(-2, 2, 20)))
        J = make_radius_set((2.0, 1.0, 0.5, 0.25))
        prof = variation_profile(f, OperatorFamily.HEAT, J, grid, 3.0)
        big = np.array([heat_apply(f, 2.0, x) for x in grid.points_array.tolist()])
        small = np.array([heat_apply(f, 0.25, x) for x in grid.points_array.tolist()])
        assert np.all(prof.values_array >= np.abs(big - small) - 1e-12)

    def test_maximal_profile_single_radius_is_absolute_value(self, make_random_pcf):
        f = make_random_pcf()
        grid = make_grid(np.linspace(-2, 2, 15))
        J = make_radius_set((0.7,))
        prof = maximal_profile(f, OperatorFamily.HEAT, J, grid)
        want = np.abs([heat_apply(f, 0.7, x) for x in grid.points_array.tolist()])
        assert prof.values_array == pytest.approx(want, rel=1e-14)


class TestVectorVariation:
    def test_single_coordinate_matches_scalar_profile(self, make_random_pcf):
        f = make_random_pcf()
        grid = make_grid(np.linspace(-2, 2, 9))
        J = make_radius_set((1.0, 0.5))
        field = vector_variation_field(
            [f], OperatorFamily.HEAT, J, grid, 2.0, sequence_norm(2.0), [1.0]
        )
        prof = variation_profile(f, OperatorFamily.HEAT, J, grid, 2.0)
        assert field.values_array[:, 0].tolist() == prof.values_array.tolist()

    def test_each_column_matches_its_scalar_profile(self, make_random_pcf):
        fns = [make_random_pcf() for _ in range(3)]
        grid = make_grid(np.linspace(-2, 2, 11))
        J = make_radius_set((2.0, 1.0, 0.5, 0.25))
        field = vector_variation_field(
            fns, OperatorFamily.AVERAGES, J, grid, 3.0, sequence_norm(2.0), [1.0] * 3
        )
        for k, f in enumerate(fns):
            prof = variation_profile(f, OperatorFamily.AVERAGES, J, grid, 3.0)
            assert field.values_array[:, k].tolist() == prof.values_array.tolist()

    def test_duplicated_coordinates_are_identical(self, make_random_pcf):
        f = make_random_pcf()
        grid = make_grid(np.linspace(-2, 2, 9))
        J = make_radius_set((1.0, 0.25))
        field = vector_variation_field(
            [f, f], OperatorFamily.AVERAGES, J, grid, 3.0, sequence_norm(2.0), [1.0, 1.0]
        )
        mat = field.values_array
        assert mat[:, 0].tolist() == mat[:, 1].tolist()

    def test_weight_count_checked(self, make_random_pcf):
        f = make_random_pcf()
        grid = make_grid(np.linspace(-1, 1, 5))
        with pytest.raises(Exception):
            vector_variation_field(
                [f], OperatorFamily.HEAT, make_radius_set((1.0,)), grid, 2.0,
                sequence_norm(2.0), [1.0, 1.0],
            )
