import functools
import math

import numpy as np
import pytest

from varlat import operators, witnesses
from varlat import (
    BadRange,
    DEFAULT_BASE_CANDIDATES,
    DEFAULT_J_WINDOW,
    FloatRangeExceeded,
    InvalidBase,
    KeyEstimateFailed,
    LacunaryParams,
    NoAdmissibleBase,
    TruncationTooShallow,
    delta_halving_radius,
    geometric_radius_set,
    heat_apply,
    heat_of_g_matrix,
    key_estimate_table,
    lacunary_sign,
    pcf_eval,
    search_key_params,
    truncation_tail_bound,
    unit_indicator,
)

A, K_MIN = 2.0, -120

# (k_min, j1) pairs at base 2, j0 = 2, on which the block scan of
# delta_halving_radius is checked against the full-ladder evaluation
HALVING_CASES = [(-120, 8), (-120, 16), (-120, 64), (-300, 6), (-300, 34), (-300, 128), (-300, 258)]


@functools.cache
def full_ladder_first_failure(k_min, j1):
    """Index of the first failing probe on the whole ladder, and the ladder.

    The reference for the block scan: every probe at every scale in one heat
    call, then the first failure counted from the inside.
    """
    js = range(2, j1 + 2)
    at_zero = heat_of_g_matrix(A, k_min, js, (0.0,))[:, 0]
    d_zero = np.abs(np.diff(at_zero))
    count = max(16, int(math.ceil((j1 + 6) * math.log10(A) * 8)))
    probes = 10.0 ** (-np.arange(count, -1, -1) / 8)
    values = heat_of_g_matrix(A, k_min, js, np.concatenate((probes, -probes)))
    d_probe = np.abs(np.diff(values, axis=0))
    d_pos, d_neg = d_probe[:, : probes.size], d_probe[:, probes.size :]
    ok = np.all(
        (d_pos >= d_zero[:, None] / 2.0) & (d_neg >= d_zero[:, None] / 2.0), axis=0
    )
    first_bad = int(np.argmin(ok)) if not ok.all() else probes.size
    return first_bad, probes

# oscillation table for base 2, frozen from a 40-digit arbitrary-precision
# evaluation of the error-function sums
D_TABLE_BASE2 = {
    0: 0.00648950694718,
    1: 0.0912792284809,
    2: 0.0173073522282,
    3: 0.0196462043014,
    4: 0.0196461965928,
}
CERTIFIED_BASE2 = 0.0173073522282


class TestLacunarySign:
    def test_one_cell(self):
        g = lacunary_sign(2.0, -1)
        assert g.breakpoints_array.tolist() == [0.5, 1.0]
        assert g.values_array.tolist() == [1.0]

    def test_two_cells_alternate(self):
        g = lacunary_sign(2.0, -2)
        assert pcf_eval(g, 0.3) == -1.0
        assert pcf_eval(g, 0.7) == 1.0
        assert g.breakpoints_array.tolist() == [0.25, 0.5, 1.0]

    def test_deep_truncation_structure(self):
        g = lacunary_sign(3.0, -40)
        vals = g.values_array.tolist()
        assert len(vals) == 40
        assert set(vals) == {-1.0, 1.0}
        # cells alternate and the last one (just below 1) is positive
        assert vals[-1] == 1.0
        assert all(v1 == -v0 for v0, v1 in zip(vals, vals[1:]))

    def test_zero_width_cells_left_out(self):
        # 8^k underflows to 0 for k <= -359: the cells below [0, 8^-358)
        # have no width
        g = lacunary_sign(8.0, -400)
        bps = g.breakpoints_array
        assert bps.size == 360 and bps[0] == 0.0 and np.all(np.diff(bps) > 0)
        ks = np.arange(-359, 0)
        assert g.values_array.tolist() == np.where(ks % 2 == 0, -1.0, 1.0).tolist()

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidBase):
            lacunary_sign(1.0, -2)
        with pytest.raises(BadRange):
            lacunary_sign(2.0, 0)

    def test_unit_indicator(self):
        u = unit_indicator()
        assert u.breakpoints_array.tolist() == [0.0, 1.0]
        assert u.values_array.tolist() == [1.0]


def two_evaluation_heat(a, k_min, js, ys):
    """The cell-by-cell formula, Phi at both ends of every cell.

    The independent route the package's heat kernel is held to: every cell,
    zero-width ones included, at the scales a^j, added one at a time,
    deepest first.
    """
    ks = np.arange(k_min, 0)
    signs = np.where(ks % 2 == 0, -1.0, 1.0)
    lower = np.power(a, ks.astype(float))
    upper = np.power(a, (ks + 1).astype(float))
    scale = np.power(a, np.asarray(js, dtype=float))[:, None]
    y = np.asarray(ys, dtype=float)
    out = np.zeros((scale.size, y.size))
    for lo, hi, sign in zip(lower, upper, signs):
        terms = operators._kernel_cdf((y - lo) * scale) - operators._kernel_cdf((y - hi) * scale)
        out += terms * sign
    return out


class TestHeatOfSign:
    def test_shallow_value_against_closed_form(self):
        # one cell [1/2, 1), unit heat time: (erf(1/2) - erf(1/4)) / 2
        assert heat_of_g_matrix(2.0, -1, (0,), (0.0,))[0, 0] == pytest.approx(
            0.1220867438, abs=1e-10
        )

    def test_matrix_matches_scalar(self):
        mat = heat_of_g_matrix(A, K_MIN, (0, 1, 2), (0.0, 0.1))
        for r, j in enumerate((0, 1, 2)):
            for c, y in enumerate((0.0, 0.1)):
                assert mat[r, c] == heat_of_g_matrix(A, K_MIN, (j,), (y,))[0, 0]

    def test_chunked_call_matches_single_points(self):
        js, k_min = range(40), -300
        ys = np.linspace(-1.5, 1.5, 68)
        mat = heat_of_g_matrix(A, k_min, js, ys)
        for c, y in enumerate(ys.tolist()):
            assert mat[:, c].tolist() == heat_of_g_matrix(A, k_min, js, (y,))[:, 0].tolist()

    @pytest.mark.parametrize(
        "js, ys",
        [
            pytest.param(range(40), np.linspace(-1.5, 1.5, 68), id="profile-block"),
            pytest.param(range(32), np.zeros(1), id="key-table"),
        ],
    )
    def test_erf_arguments_are_one_per_pair(self, monkeypatch, js, ys):
        # the kernel sums one breakpoint offset at a time over all (point,
        # scale) pairs, so no Phi argument holds more than one entry per
        # pair, however many breakpoints the witness has
        sizes = []

        def recording(w):
            sizes.append(np.size(w))
            return kernel_cdf(w)

        kernel_cdf = operators._kernel_cdf
        monkeypatch.setattr(operators, "_kernel_cdf", recording)
        heat_of_g_matrix(A, -300, js, ys)
        assert sizes and max(sizes) <= len(js) * ys.size

    @pytest.mark.parametrize(
        "js, ys",
        [
            pytest.param(range(40), np.linspace(-1.5, 1.5, 68), id="profile-block"),
            pytest.param(range(32), np.zeros(1), id="key-table"),
        ],
    )
    def test_window_erf_arguments_are_one_per_pair(self, monkeypatch, js, ys):
        # the window terms go to the erf directly, one offset per call
        sizes = []

        def recording(x):
            sizes.append(np.size(x))
            return erf(x)

        erf = operators._erf
        monkeypatch.setattr(operators, "_erf", recording)
        heat_of_g_matrix(A, -300, js, ys)
        assert len(sizes) > 1 and max(sizes) <= len(js) * ys.size

    @pytest.mark.parametrize("a", [2.0, math.e, 1.5, 3.0])
    @pytest.mark.parametrize("k_min", [-1, -40, -300])
    def test_shared_edges_match_two_evaluations(self, a, k_min):
        # the kernel's windowed jump sum against Phi at both ends of every cell
        js = (0, 1, 5, 20, 60)
        ys = np.concatenate((np.linspace(-1.5, 1.5, 401), [0.0, a**k_min, 1.0]))
        got = heat_of_g_matrix(a, k_min, js, ys)
        assert np.all(np.abs(got - two_evaluation_heat(a, k_min, js, ys)) <= 1e-12)

    def test_agrees_with_generic_heat_route(self, rng):
        # the witness route and the generic operator route, at times a^(-2j)
        # rather than roots a^-j, both against the cell-by-cell sum
        g = lacunary_sign(A, -30)
        cases = [(0, 0.0), (3, 0.05), (1, -0.2)]
        cases += [
            (int(rng.integers(0, 8)), float(rng.uniform(-0.5, 1.5)))
            for _ in range(100)
        ]
        for j, y in cases:
            want = two_evaluation_heat(A, -30, (j,), (y,))[0, 0]
            assert heat_of_g_matrix(A, -30, (j,), (y,))[0, 0] == pytest.approx(want, abs=1e-12)
            assert heat_apply(g, A ** (-2.0 * j), y) == pytest.approx(want, abs=1e-12)

    def test_scales_past_the_normal_range(self):
        # a^-1023 is subnormal at a = 2
        assert heat_of_g_matrix(A, -3000, (1022,), (0.0,)).shape == (1, 1)
        with pytest.raises(FloatRangeExceeded):
            heat_of_g_matrix(A, -3000, (0, 1023), (0.0,))

    def test_rejects_negative_scale_index(self):
        with pytest.raises(BadRange):
            heat_of_g_matrix(A, K_MIN, (-1,), (0.0,))


class TestTruncationBound:
    def test_formula(self):
        want = math.exp((K_MIN + 1 + 5) * math.log(A) - 0.5 * math.log(4 * math.pi))
        assert truncation_tail_bound(A, K_MIN, 5) == pytest.approx(want, rel=1e-15)

    def test_overflow_guard(self):
        assert truncation_tail_bound(3.0, -1, 2000) == math.inf

    def test_shallow_truncation_rejected(self):
        with pytest.raises(TruncationTooShallow):
            key_estimate_table(2.0, -5, 40)


class TestKeyEstimateTable:
    def test_frozen_base2_values(self):
        table = key_estimate_table(A, K_MIN, 30)
        for j, want in D_TABLE_BASE2.items():
            assert table[j] == pytest.approx(want, abs=1e-10)

    def test_certified_minimum_over_default_window(self):
        table = key_estimate_table(A, K_MIN, DEFAULT_J_WINDOW[1])
        lo = DEFAULT_J_WINDOW[0]
        assert min(table[lo:]) == pytest.approx(CERTIFIED_BASE2, abs=1e-10)

    def test_deep_scale_stabilization(self):
        # at deep scales the window loses its dependence on where the
        # truncated sign pattern starts, so consecutive same-parity
        # oscillations agree
        table = key_estimate_table(3.0, K_MIN, 40)
        for j in range(20, 39):
            assert abs(table[j + 2] - table[j]) < 1e-6

    def test_table_length(self):
        assert len(key_estimate_table(A, K_MIN, 12)) == 13

    # min over j in [2, 30] of D_j at k_min = -120, from a 40-digit sum of
    # the same erf terms:
    #   mpmath.mp.dps = 40; a = mpmath.mpf(a)
    #   phi = lambda w: (1 + mpmath.erf(w / 2)) / 2
    #   heat0 = lambda j: mpmath.fsum((-1) ** (k + 1) * (phi(-a**k * a**j)
    #       - phi(-a**(k + 1) * a**j)) for k in range(-120, 0))
    #   h = [heat0(j) for j in range(2, 32)]
    #   mpmath.nstr(min(abs(x - y) for x, y in zip(h, h[1:])), 20)
    @pytest.mark.parametrize(
        "a, want",
        [
            (1.5, 0.0016870370829643748044),
            (2.0, 0.017307352228174145798),
            (3.0, 0.16997577039221202923),
        ],
    )
    def test_certified_constant_against_mpmath(self, a, want):
        table = key_estimate_table(a, K_MIN, DEFAULT_J_WINDOW[1])
        assert abs(min(table[DEFAULT_J_WINDOW[0] :]) - want) <= 5e-16

    @pytest.mark.parametrize("a, k_min", [(8.0, -400), (2.0, -1100)])
    def test_zero_width_cells_against_two_evaluations(self, a, k_min):
        # truncations deep enough that the lowest cells have no width
        column = two_evaluation_heat(a, k_min, range(32), (0.0,))[:, 0]
        want = np.abs(np.diff(column))
        assert np.all(np.abs(np.array(key_estimate_table(a, k_min, 30)) - want) <= 1e-12)

    def test_scales_past_the_normal_range(self):
        # a^-1101 is subnormal at a = 2; the table used to fill with nan
        # once a^j overflowed
        with pytest.raises(FloatRangeExceeded):
            key_estimate_table(A, -3000, 1100)


class TestSearch:
    def test_winner_matches_exhaustive_oracle(self):
        params = search_key_params(DEFAULT_BASE_CANDIDATES, K_MIN)
        lo, hi = DEFAULT_J_WINDOW
        by_hand = max(
            ((min(key_estimate_table(a, K_MIN, hi)[lo:]), a) for a in DEFAULT_BASE_CANDIDATES),
        )
        assert params.a == by_hand[1] == 4.0
        assert params.key_constant == pytest.approx(by_hand[0], rel=1e-15)
        assert params.key_constant > 1e-4
        assert params.j0 == lo
        assert params.k_min == K_MIN

    def test_no_candidates(self):
        with pytest.raises(NoAdmissibleBase):
            search_key_params((), K_MIN)

    def test_below_threshold_candidate(self):
        # admissible but certifies only ~6.7e-5, under the 1e-4 threshold
        with pytest.raises(NoAdmissibleBase):
            search_key_params((1.3,), -400)

    def test_params_validation(self):
        with pytest.raises(InvalidBase):
            LacunaryParams(a=1.0, k_min=-120, j0=2, key_constant=0.01)
        with pytest.raises(BadRange):
            LacunaryParams(a=2.0, k_min=0, j0=2, key_constant=0.01)
        with pytest.raises(BadRange):
            LacunaryParams(a=2.0, k_min=-120, j0=0, key_constant=0.01)
        with pytest.raises(KeyEstimateFailed):
            LacunaryParams(a=2.0, k_min=-120, j0=2, key_constant=0.0)


class TestGeometricRadiusSet:
    def test_exact_powers(self):
        J = geometric_radius_set(2.0, 1, 3)
        assert tuple(J) == (0.25, 0.0625, 0.015625)

    def test_single_scale(self):
        assert tuple(geometric_radius_set(2.0, 4, 4)) == (2.0**-8,)

    def test_underflow_guard(self):
        with pytest.raises(FloatRangeExceeded):
            geometric_radius_set(2.0, 1, 511)

    def test_underflow_is_also_bad_range(self):
        with pytest.raises(BadRange):
            geometric_radius_set(2.0, 1, 511)

    def test_empty_range(self):
        with pytest.raises(BadRange):
            geometric_radius_set(2.0, 5, 4)


class TestDeltaHalving:
    def test_radius_positive_and_certifies(self):
        rho = delta_halving_radius(A, K_MIN, 2, 8)
        assert rho > 0

        # re-check the certificate on a 10x finer ladder up to rho
        js = range(2, 10)
        at_zero = heat_of_g_matrix(A, K_MIN, js, (0.0,))[:, 0]
        d_zero = np.abs(np.diff(at_zero))
        fine = rho * np.linspace(0.01, 1.0, 100)
        vals = heat_of_g_matrix(A, K_MIN, js, np.concatenate((fine, -fine)))
        d = np.abs(np.diff(vals, axis=0))
        assert np.all(d >= d_zero[:, None] / 2.0)

    def test_weakly_decreasing_in_depth(self):
        rhos = [delta_halving_radius(A, K_MIN, 2, j1) for j1 in (4, 8, 16)]
        assert rhos[0] >= rhos[1] >= rhos[2] > 0

    def test_rejects_bad_window(self):
        with pytest.raises(BadRange):
            delta_halving_radius(A, K_MIN, 0, 4)
        with pytest.raises(BadRange):
            delta_halving_radius(A, K_MIN, 5, 4)

    def test_requires_adequate_truncation(self):
        with pytest.raises(TruncationTooShallow):
            delta_halving_radius(2.0, -4, 2, 30)

    @pytest.mark.parametrize("a, want", [(6.0, 1e-202), (8.0, 3.16227766016838e-235)])
    def test_deep_radius(self, a, want):
        # the heat times a^(-2j) underflow to 0 here; the scales a^-j do not
        assert delta_halving_radius(a, -300, 2, 258) == want

    def test_scales_past_the_normal_range(self):
        with pytest.raises(FloatRangeExceeded):
            delta_halving_radius(A, -3000, 2, 1100)

    @pytest.mark.parametrize("block", [None, 1, 2, 3])
    @pytest.mark.parametrize("k_min, j1", HALVING_CASES)
    def test_block_scan_matches_full_ladder(self, monkeypatch, k_min, j1, block):
        if block is not None:
            monkeypatch.setattr(witnesses, "_PROBE_BLOCK", block)
        first_bad, probes = full_ladder_first_failure(k_min, j1)
        assert 0 < first_bad < probes.size
        assert delta_halving_radius(A, k_min, 2, j1) == float(probes[first_bad - 1])

    @pytest.mark.parametrize("k_min, j1", HALVING_CASES)
    def test_block_sizes_put_the_failure_on_and_inside_a_block(self, k_min, j1):
        first_bad, _ = full_ladder_first_failure(k_min, j1)
        starts_a_block = {first_bad % block == 0 for block in (1, 2, 3, 16)}
        assert starts_a_block == {True, False}

    def test_scan_stops_after_the_failing_block(self, monkeypatch):
        seen = []

        def counting(a, k_min, js, ys):
            ys = tuple(ys)
            seen.append(len(ys))
            return heat_of_g_matrix(a, k_min, js, ys)

        monkeypatch.setattr(witnesses, "heat_of_g_matrix", counting)
        assert delta_halving_radius(2.0, -300, 2, 128) > 0
        # the origin, then at most two blocks of 16 probes at +-y
        assert sum(seen) <= 1 + 2 * (2 * 16)

    def test_all_passing_ladder_returns_outermost_probe(self, monkeypatch):
        # heat values that do not depend on y: every probe passes
        def flat(a, k_min, js, ys):
            return np.outer(np.arange(len(js)) ** 2.0, np.ones(len(tuple(ys))))

        monkeypatch.setattr(witnesses, "heat_of_g_matrix", flat)
        assert delta_halving_radius(A, K_MIN, 2, 8) == 1.0

    @pytest.mark.parametrize("block", [1, 16])
    def test_innermost_failure_certifies_nothing(self, monkeypatch, block):
        # oscillation collapses away from the origin: the innermost probe fails
        def peaked(a, k_min, js, ys):
            ys = np.asarray(tuple(ys))
            return np.outer(np.arange(len(js)) ** 2.0, (ys == 0.0).astype(float))

        monkeypatch.setattr(witnesses, "_PROBE_BLOCK", block)
        monkeypatch.setattr(witnesses, "heat_of_g_matrix", peaked)
        with pytest.raises(KeyEstimateFailed):
            delta_halving_radius(A, K_MIN, 2, 8)
