import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlat import (
    BadRange,
    DegenerateInput,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
    NonPositiveRadius,
    bochner_norm,
    fit_power_law,
    integral_norm,
    lacunary_sign,
    make_grid,
    make_pcf,
    make_profile,
    make_vector_field,
    pcf_antiderivative_eval,
    pcf_antiderivative_eval_many,
    pcf_eval,
    pcf_eval_many,
    sequence_norm,
    sliding_power_sum,
    sliding_sup,
    sup_norm,
    trapezoid_weights,
)


class TestMakePcf:
    def test_single_cell_indicator(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert f.support == (0.0, 1.0)
        assert f.total_mass == 1.0

    def test_merges_adjacent_equal_values(self):
        f = make_pcf([0.0, 1.0, 2.0], [1.0, 1.0])
        assert f.breakpoints == (0.0, 2.0)
        assert f.values == (1.0,)

    def test_rejects_decreasing_breakpoints(self):
        with pytest.raises(NonMonotoneBreakpoints):
            make_pcf([1.0, 0.0], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_pcf([0.0, 1.0, 2.0], [1.0])

    def test_rejects_nan_value(self):
        with pytest.raises(NonFiniteValue):
            make_pcf([0.0, 1.0], [float("nan")])


class TestPcfEval:
    def test_left_endpoint_included(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_eval(f, 0.0) == 1.0

    def test_right_endpoint_excluded(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_eval(f, 1.0) == 0.0

    def test_outside_support_is_zero(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_eval(f, -0.5) == 0.0
        assert pcf_eval(f, 7.0) == 0.0

    def test_sign_pattern_cell_at_even_index(self):
        # two-cell alternating pattern: the cell [1/4, 1/2) carries the
        # negative sign of its even index in the geometric ladder
        g = lacunary_sign(2.0, -2)
        assert pcf_eval(g, 0.3) == -1.0
        assert pcf_eval(g, 0.7) == 1.0

    def test_eval_many_matches_scalar(self, rng, make_random_pcf):
        f = make_random_pcf()
        xs = rng.uniform(-3.0, 3.0, 50)
        many = pcf_eval_many(f, xs)
        assert many.tolist() == [pcf_eval(f, x) for x in xs]


class TestAntiderivative:
    def test_total_mass(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_antiderivative_eval(f, 2.0) == 1.0

    def test_half_mass(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_antiderivative_eval(f, 0.5) == 0.5

    def test_cancellation(self):
        f = make_pcf([0.0, 1.0, 2.0], [1.0, -1.0])
        assert pcf_antiderivative_eval(f, 2.0) == 0.0

    def test_zero_left_of_support(self):
        f = make_pcf([0.0, 1.0], [1.0])
        assert pcf_antiderivative_eval(f, -3.0) == 0.0

    def test_monotone_for_nonnegative_values(self, rng):
        bps = np.sort(rng.uniform(-2, 2, 7))
        f = make_pcf(bps, rng.uniform(0.0, 2.0, 6))
        xs = np.sort(rng.uniform(-3, 3, 40))
        vals = pcf_antiderivative_eval_many(f, xs)
        assert np.all(np.diff(vals) >= 0)

    def test_exact_on_breakpoints(self, make_random_pcf):
        for _ in range(20):
            f = make_random_pcf()
            got = pcf_antiderivative_eval(f, f.breakpoints[-1])
            want = sum(
                c * (b1 - b0)
                for c, b0, b1 in zip(f.values, f.breakpoints, f.breakpoints[1:])
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestGrids:
    def test_trapezoid_weights_on_uniform_grid(self):
        w = trapezoid_weights([0.0, 1.0, 2.0, 3.0])
        assert w.tolist() == [0.5, 1.0, 1.0, 0.5]

    def test_weights_sum_to_span(self, rng):
        pts = np.sort(rng.uniform(0, 5, 40))
        assert trapezoid_weights(pts).sum() == pytest.approx(pts[-1] - pts[0])

    def test_make_grid_default_weights(self):
        grid = make_grid([0.0, 2.0, 3.0])
        assert grid.weights_array.tolist() == [1.0, 1.5, 0.5]

    def test_make_grid_rejects_negative_weights(self):
        with pytest.raises(BadRange):
            make_grid([0.0, 1.0], [0.5, -0.5])

    def test_profile_length_checked(self):
        grid = make_grid([0.0, 1.0])
        with pytest.raises(LengthMismatch):
            make_profile(grid, [1.0, 2.0, 3.0])


class TestBochnerNorm:
    def test_all_ones_supnorm_field(self):
        # constant 1 on x-support of measure 3 under the sup inner norm
        grid = make_grid(np.linspace(0.0, 3.0, 31))
        field = make_vector_field(grid, np.ones((31, 2)), sup_norm(), [1.0, 1.0])
        assert bochner_norm(field, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_zero_field(self):
        grid = make_grid([0.0, 1.0])
        field = make_vector_field(grid, np.zeros((2, 3)), integral_norm(2.0), [1, 1, 1])
        assert bochner_norm(field, 2.0) == 0.0

    def test_euclidean_three_four_five(self):
        grid = make_grid([0.0], [1.0])
        field = make_vector_field(grid, [[3.0, 4.0]], sequence_norm(2.0), [1.0, 1.0])
        assert bochner_norm(field, 1.0) == pytest.approx(5.0, rel=1e-12)

    def test_homogeneity(self, rng):
        grid = make_grid(np.sort(rng.uniform(0, 1, 9)))
        mat = rng.uniform(-1, 1, (9, 4))
        w = rng.uniform(0.1, 1.0, 4)
        for norm in (sup_norm(), integral_norm(3.0), sequence_norm(2.0)):
            f1 = make_vector_field(grid, mat, norm, w)
            f2 = make_vector_field(grid, 3.5 * mat, norm, w)
            for p in (1.0, 2.0, math.inf):
                assert bochner_norm(f2, p) == pytest.approx(
                    3.5 * bochner_norm(f1, p), rel=1e-12
                )

    def test_sup_inner_with_p_infinity_is_global_max(self, rng):
        grid = make_grid(np.sort(rng.uniform(0, 1, 6)))
        mat = rng.uniform(-5, 5, (6, 3))
        field = make_vector_field(grid, mat, sup_norm(), [1.0, 1.0, 1.0])
        assert bochner_norm(field, math.inf) == pytest.approx(np.abs(mat).max())

    def test_integral_norm_requires_r_above_one(self):
        with pytest.raises(BadRange):
            integral_norm(1.0)
        with pytest.raises(BadRange):
            sequence_norm(0.5)


class TestSlidingSup:
    def test_small_example(self):
        prof = make_profile(make_grid([0.0, 1.0, 2.0]), [1.0, 3.0, 2.0])
        assert sliding_sup(prof, 1.0).values_array.tolist() == [3.0, 3.0, 3.0]

    def test_constant_profile_fixed(self):
        prof = make_profile(make_grid([0.0, 1.0, 2.0]), [4.0, 4.0, 4.0])
        assert sliding_sup(prof, 0.5).values_array.tolist() == [4.0, 4.0, 4.0]

    def test_radius_window_membership(self):
        prof = make_profile(make_grid([0.0, 1.0, 2.0, 3.0]), [5.0, 0.0, 0.0, 0.0])
        assert sliding_sup(prof, 1.5).values_array.tolist() == [5.0, 5.0, 0.0, 0.0]

    def test_output_dominates_input(self, rng):
        pts = np.sort(rng.uniform(0, 10, 200))
        prof = make_profile(make_grid(pts), rng.uniform(-3, 3, 200))
        out = sliding_sup(prof, 0.7)
        assert np.all(out.values_array >= prof.values_array)

    def test_rejects_nonpositive_radius(self):
        prof = make_profile(make_grid([0.0, 1.0]), [1.0, 2.0])
        with pytest.raises(NonPositiveRadius):
            sliding_sup(prof, 0.0)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=60),
        st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_window_maximum(self, raw_values, radius):
        n = len(raw_values)
        pts = np.cumsum(np.abs(np.sin(np.arange(n) + 1.0)) + 0.01)
        prof = make_profile(make_grid(pts), raw_values)
        got = sliding_sup(prof, radius).values_array
        vals = np.asarray(raw_values)
        naive = [
            vals[(pts >= x - radius) & (pts <= x + radius)].max() for x in pts
        ]
        assert got.tolist() == naive


class TestSlidingPowerSum:
    def test_unit_profile_total_weight_two(self):
        pts = np.linspace(-1.0, 1.0, 21)
        prof = make_profile(make_grid(pts), np.ones(21))
        mid = sliding_power_sum(prof, 1.0, 2.0).values_array[10]
        assert mid == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_zero_profile(self):
        prof = make_profile(make_grid([0.0, 1.0, 2.0]), [0.0, 0.0, 0.0])
        assert sliding_power_sum(prof, 1.0, 3.0).values_array.tolist() == [0, 0, 0]

    def test_half_weights_cube_root(self):
        grid = make_grid([0.0, 1.0], [0.5, 0.5])
        prof = make_profile(grid, [1.0, 1.0])
        out = sliding_power_sum(prof, 2.0, 3.0)
        assert out.values_array[0] == pytest.approx(1.0, rel=1e-12)

    def test_monotone_under_pointwise_increase(self, rng):
        pts = np.sort(rng.uniform(0, 5, 50))
        v1 = rng.uniform(0, 1, 50)
        v2 = v1 + rng.uniform(0, 1, 50)
        grid = make_grid(pts)
        out1 = sliding_power_sum(make_profile(grid, v1), 1.0, 2.5).values_array
        out2 = sliding_power_sum(make_profile(grid, v2), 1.0, 2.5).values_array
        assert np.all(out2 >= out1 - 1e-12)

    def test_rejects_r_below_one(self):
        prof = make_profile(make_grid([0.0, 1.0]), [1.0, 1.0])
        with pytest.raises(BadRange):
            sliding_power_sum(prof, 1.0, 0.9)

    def test_large_r_approximates_sliding_sup(self):
        # sanity only: profile with a unique peak per window; r stays small
        # enough that the secondary peak's contribution is not absorbed by
        # the prefix sum
        pts = np.linspace(0, 4, 9)
        vals = [0.1, 0.2, 3.0, 0.2, 0.1, 0.2, 2.0, 0.2, 0.1]
        grid = make_grid(pts)
        prof = make_profile(grid, vals)
        sup = sliding_sup(prof, 1.0).values_array
        approx = sliding_power_sum(prof, 1.0, 60.0).values_array
        assert np.all(np.abs(approx - sup) <= 0.05 * sup)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=40),
        st.floats(0.1, 2.0),
        st.floats(1.0, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_prefix_free_sum(self, raw_values, radius, r):
        # prefix sums resolve each window to absolute accuracy at the scale
        # of the total mass, so the oracle comparison happens before the
        # 1/r root and with a mass-scaled tolerance
        n = len(raw_values)
        pts = np.cumsum(np.abs(np.cos(np.arange(n))) + 0.05)
        grid = make_grid(pts)
        prof = make_profile(grid, raw_values)
        got = sliding_power_sum(prof, radius, r).values_array
        w = grid.weights_array
        v = np.abs(np.asarray(raw_values))
        contrib = w * v**r
        total = float(contrib.sum())
        naive = []
        for x in pts:
            m = (pts >= x - radius) & (pts <= x + radius)
            naive.append(float(contrib[m].sum()))
        assert got**r == pytest.approx(naive, rel=1e-9, abs=1e-12 * (1.0 + total))


class TestFitPowerLaw:
    def test_identity_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = fit_power_law(xs, xs)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_square_law(self):
        xs = np.array([1.0, 3.0, 9.0, 27.0])
        fit = fit_power_law(xs, xs**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_cube_root_with_prefactor(self):
        xs = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        fit = fit_power_law(xs, 3.0 * xs ** (1.0 / 3.0))
        assert fit.slope == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_rejects_all_equal_xs(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_too_few_points(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([1.0, 2.0], [1.0, 2.0])

    def test_rejects_nonpositive_data(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

