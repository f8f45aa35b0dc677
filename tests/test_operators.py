import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlat import (
    BadRange,
    NonPositiveRadius,
    NonPositiveTime,
    OperatorFamily,
    SingularPoint,
    avg_apply,
    avg_apply_many,
    family_value_matrix,
    gauss_legendre_integrate,
    heat_apply,
    heat_apply_many,
    heat_integral_representation_check,
    heat_of_g_matrix,
    hilbert_apply,
    hilbert_apply_many,
    lacunary_sign,
    make_pcf,
    pcf_eval,
)
from varlat import cli, operators

UNIT = make_pcf([0.0, 1.0], [1.0])


class TestAverages:
    def test_window_covering_support(self):
        assert avg_apply(UNIT, 1.0, 0.0) == 1.0

    def test_half_window_inside(self):
        assert avg_apply(UNIT, 0.5, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_far_from_support(self):
        assert avg_apply(UNIT, 1.0, 10.0) == 0.0

    def test_rejects_zero_radius(self):
        with pytest.raises(NonPositiveRadius):
            avg_apply(UNIT, 0.0, 0.0)

    def test_many_matches_scalar(self, rng, make_random_pcf):
        f = make_random_pcf()
        xs = rng.uniform(-3, 3, 40)
        got = avg_apply_many(f, 0.7, xs)
        assert got.tolist() == [avg_apply(f, 0.7, x) for x in xs]

    def test_radii_broadcast_against_one_point(self):
        ts = np.array([0.25, 0.5, 2.0])
        got = avg_apply_many(UNIT, ts, 0.5)
        assert got.tolist() == [avg_apply(UNIT, t, 0.5) for t in ts]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_bad_radius_among_many(self, bad):
        with pytest.raises(NonPositiveRadius):
            avg_apply_many(UNIT, np.array([0.5, bad]), 0.5)

    def test_constant_region_gives_twice_the_value(self):
        # window fully inside one cell: both half-windows contribute t * c
        f = make_pcf([0.0, 10.0], [3.0])
        assert avg_apply(f, 1.0, 5.0) == pytest.approx(6.0, rel=1e-15)


class TestHeatKernel:
    def test_unit_mass(self):
        total = gauss_legendre_integrate(
            lambda x: np.exp(-(x**2) / 4.0) / math.sqrt(4 * math.pi), -30.0, 30.0, 256
        )
        assert total == pytest.approx(1.0, abs=1e-14)


class TestHeatApply:
    def test_symmetric_indicator(self):
        f = make_pcf([-1.0, 1.0], [1.0])
        assert heat_apply(f, 0.25, 0.0) == pytest.approx(math.erf(1.0), rel=1e-14)

    def test_approximate_identity(self, make_random_pcf):
        f = make_random_pcf()
        bps = f.breakpoints_array
        mids = (bps[:-1] + bps[1:]) / 2.0
        for x in mids:
            assert heat_apply(f, 1e-6, x) == pytest.approx(
                pcf_eval(f, x), abs=1e-12
            )

    def test_rejects_zero_time(self):
        with pytest.raises(NonPositiveTime):
            heat_apply(UNIT, 0.0, 0.0)

    def test_sup_contraction(self, rng, make_random_pcf):
        f = make_random_pcf()
        bound = np.abs(f.values_array).max()
        xs = rng.uniform(-4, 4, 200)
        for s in (0.01, 0.5, 3.0):
            assert np.all(np.abs(heat_apply_many(f, s, xs)) <= bound + 1e-12)

    def test_translation_equivariance_dyadic_exact(self):
        # dyadic data keeps every shifted breakpoint exact, so the two
        # evaluations see bit-identical kernel arguments
        f = make_pcf([0.0, 0.25, 1.5], [1.0, -0.5])
        g = make_pcf([2.5, 2.75, 4.0], [1.0, -0.5])
        for x in (-0.125, 0.375, 1.0):
            assert heat_apply(g, 0.3, x + 2.5) == heat_apply(f, 0.3, x)

    def test_translation_equivariance_generic(self, rng, make_random_pcf):
        f = make_random_pcf()
        c = float(rng.uniform(-2, 2))
        g = make_pcf(f.breakpoints_array + c, f.values_array)
        for x in rng.uniform(-3, 3, 20):
            assert heat_apply(g, 0.4, x + c) == pytest.approx(
                heat_apply(f, 0.4, x), abs=1e-12
            )

    def test_semigroup_after_refit(self):
        # H_{s1+s2} f should match H_{s2} applied to a fine step refit of
        # H_{s1} f; the refit error dominates, hence the loose tolerance
        s1, s2 = 0.3, 0.2
        cells = 10_000
        grid = np.linspace(-12.0, 13.0, cells + 1)
        mids = (grid[:-1] + grid[1:]) / 2.0
        refit = make_pcf(grid, heat_apply_many(UNIT, s1, mids))
        for x in (-0.5, 0.1, 0.5, 1.2):
            direct = heat_apply(UNIT, s1 + s2, x)
            two_step = heat_apply(refit, s2, x)
            assert two_step == pytest.approx(direct, abs=1e-3)


def dense_heat(f, s, xs):
    """The full erf sum over every breakpoint: the windowed route's oracle."""
    args = (np.asarray(xs, dtype=float)[:, None] - f.breakpoints_array[None, :]) / math.sqrt(s)
    return operators._kernel_cdf(args) @ operators._jump_coefficients(f)


# breakpoints as a start plus gaps spread over 14 decades, so that some
# leading clusters collapse and some windows hold every breakpoint
step_functions = st.builds(
    lambda start, gaps, values: make_pcf(start + np.cumsum([0.0] + gaps), values[: len(gaps)]),
    st.floats(-3.0, 3.0),
    st.lists(st.floats(-14.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=12),
    st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
)


class TestWindowedHeat:
    @given(
        f=step_functions,
        log_s=st.floats(-12.0, 12.0),
        xs=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_sum(self, f, log_s, xs):
        s = 10.0**log_s
        xs = xs + f.breakpoints_array[:2].tolist()
        got = heat_apply_many(f, s, xs)
        assert np.all(np.abs(got - dense_heat(f, s, xs)) <= 1e-13)

    def test_lacunary_witness_against_mpmath(self):
        # 40-digit sum of the same erf terms; the dense float sum is off by
        # up to ~9e-14 here, from cancellation over ~600 jumps of +-1 and +-2
        g = lacunary_sign(2.0, -300)
        bps = [mpmath.mpf(float(b)) for b in g.breakpoints_array]
        coef = [mpmath.mpf(float(c)) for c in operators._jump_coefficients(g)]
        for j in (2, 6, 20, 60, 128, 250):
            s = 2.0 ** (-2 * j)
            r = 2.0**-j
            xs = [0.0, 1e-9 * r, -0.3 * r, 0.77 * r, r, 3.0 * r, -5.0 * r, 20.0 * r, 0.5]
            got = heat_apply_many(g, s, xs)
            for x, value in zip(xs, got.tolist()):
                with mpmath.workdps(40):
                    want = mpmath.fsum(
                        c * (1 + mpmath.erf((x - b) / r / 2)) / 2 for b, c in zip(bps, coef)
                    )
                assert abs(value - float(want)) <= 2e-15

    def test_collapse_bound_at_cli_depths(self):
        cases = [
            # every scale of the depth-sweep run
            (2.0, -300, 258),
            # down to the last normal root at each base; the deepest cells of
            # both witnesses are subnormal or have width 0
            (2.0, -1100, 1022),
            (8.0, -400, 340),
        ]
        for a, k_min, deepest in cases:
            roots = a ** -np.arange(2.0, deepest + 1)
            assert roots[-1] >= np.finfo(float).tiny
            bound = operators._collapse_bound(lacunary_sign(a, k_min), roots)
            assert bound.shape == roots.shape
            assert np.all(bound > 0.0)
            assert bound.max() <= 1e-17

    def test_kernel_derivative_max(self):
        # the collapse bound's constant: max |K^(n)| on a grid 1e-4 apart,
        # within the grid's reach of the true maximum
        w = np.linspace(0.0, 12.0, 120_001)
        p = operators._KERNEL_DERIVATIVES[operators._COLLAPSE_ORDER]
        grid_max = np.abs(np.polynomial.polynomial.polyval(w, p) * operators._kernel_density(w)).max()
        assert grid_max <= operators._KERNEL_DERIVATIVE_MAX <= grid_max + 1e-6

    def test_every_breakpoint_saturated(self):
        f = make_pcf([0.0, 1.0, 2.5], [3.0, -1.5])
        xs = [-1.0, 0.5, 1.75, 4.0]
        got = heat_apply_many(f, 1e-4, xs)
        assert got.tolist() == [0.0, 3.0, -1.5, 0.0]

    def test_point_on_a_breakpoint(self):
        f = make_pcf([0.0, 1.0, 2.5], [3.0, -1.5])
        for s in (1e-6, 0.1, 10.0):
            got = heat_apply_many(f, s, f.breakpoints_array)
            assert got == pytest.approx(dense_heat(f, s, f.breakpoints_array), abs=1e-14)
        assert heat_apply(f, 1e-8, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_empty_points(self):
        assert heat_apply_many(UNIT, 0.5, []).shape == (0,)
        assert family_value_matrix(UNIT, OperatorFamily.HEAT, (1.0, 0.5), []).shape == (0, 2)

    def test_every_breakpoint_in_the_cluster(self):
        f = make_pcf([0.0, 0.25, 0.5, 1.0], [1.0, -2.0, 0.5])
        s = 1e20  # 2^-6 sqrt(s) is about 1.6e8, past the last breakpoint
        assert 0.0 < operators._collapse_bound(f, [math.sqrt(s)])[0] <= 1e-20
        xs = [-1e10, -3.0, 0.0, 0.6, 2.0, 1e10]
        assert heat_apply_many(f, s, xs) == pytest.approx(dense_heat(f, s, xs), abs=1e-15)

    def test_nan_point_stays_nan(self):
        got = heat_apply_many(UNIT, 0.5, [0.5, math.nan])
        assert math.isnan(got[1]) and not math.isnan(got[0])

    def test_rejects_nonpositive_time_among_many(self):
        with pytest.raises(NonPositiveTime):
            family_value_matrix(UNIT, OperatorFamily.HEAT, (1.0, 0.0), [0.5])

    def test_depth_sweep_erf_count(self, tmp_path, monkeypatch):
        # the dense sum took 9,150,400 terms on this run, the first-order
        # collapse of clusters 2^-28 sqrt(s) wide 1,004,256
        count = 0
        original = operators._erf

        def counting(x):
            nonlocal count
            count += x.size
            return original(x)

        monkeypatch.setattr(operators, "_erf", counting)
        argv = ["linf-blowup", "--kmin", "-300", "--j1-list", "6,10,18,34,66,130,258"]
        assert cli.run(argv + ["--out", str(tmp_path)]) == 0
        assert 0 < count <= 600_000

    @pytest.mark.parametrize(
        "j, k_min",
        [
            pytest.param(300, -560, id="300"),
            pytest.param(400, -560, id="400"),
            pytest.param(509, -560, id="509"),
            # past j = 537, where the time r^2 itself underflows: only the
            # witness route, which takes the root, reaches these
            pytest.param(700, -760, id="700"),
            pytest.param(1000, -1060, id="1000"),
            pytest.param(1020, -1060, id="1020"),
        ],
    )
    def test_deep_witness_against_mpmath(self, j, k_min):
        # scales where a power of b - b_0 taken before dividing by sqrt(s)
        # underflows: (2^-6 sqrt(s))^7 is below 2^-1074 from j = 148 on
        g = lacunary_sign(2.0, k_min)
        bps = [mpmath.mpf(float(b)) for b in g.breakpoints_array]
        coef = [mpmath.mpf(float(c)) for c in operators._jump_coefficients(g)]
        r = 2.0**-j
        xs = [0.0, 1e-9 * r, -0.3 * r, 0.77 * r, 3.0 * r, -5.0 * r]
        got = heat_of_g_matrix(2.0, k_min, (j,), xs)[0]
        for x, value in zip(xs, got.tolist()):
            with mpmath.workdps(40):
                want = mpmath.fsum(
                    c * (1 + mpmath.erf((x - b) / r / 2)) / 2 for b, c in zip(bps, coef)
                )
            assert abs(value - float(want)) <= 2e-15


class TestHilbert:
    def test_quarter_point(self):
        assert hilbert_apply(UNIT, 0.25) == pytest.approx(-math.log(3.0), rel=1e-14)

    def test_outside_support(self):
        assert hilbert_apply(UNIT, 2.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_breakpoint_singular(self):
        with pytest.raises(SingularPoint):
            hilbert_apply(UNIT, 1.0)

    def test_log_ratio_identity_inside(self, rng):
        xs = rng.uniform(0.01, 0.99, 50)
        want = np.log(xs / (1.0 - xs))
        got = hilbert_apply_many(UNIT, xs)
        assert got == pytest.approx(want, abs=1e-12)

    def test_odd_symmetry_of_symmetric_indicator(self, rng):
        f = make_pcf([-1.0, 1.0], [1.0])
        xs = rng.uniform(0.0, 0.9, 20) + 0.05
        assert hilbert_apply_many(f, xs) == pytest.approx(
            -hilbert_apply_many(f, -xs), rel=1e-12
        )


class TestFamilies:
    def test_average_family_values(self):
        got = family_value_matrix(UNIT, OperatorFamily.AVERAGES, (2.0, 1.0), [0.0])[0]
        assert got.tolist() == pytest.approx([0.5, 1.0], rel=1e-15)

    @pytest.mark.parametrize(
        "family, one_radius",
        [
            pytest.param(OperatorFamily.HEAT, heat_apply_many, id="heat"),
            pytest.param(OperatorFamily.AVERAGES, avg_apply_many, id="averages"),
        ],
    )
    def test_heat_family_matches_heat_apply(self, rng, make_random_pcf, family, one_radius):
        # each column is the one-radius evaluation, bit for bit
        f = make_random_pcf()
        radii = (1.0, 0.25, 0.0625)
        xs = rng.uniform(-2, 2, 15)
        mat = family_value_matrix(f, family, radii, xs)
        for col, t in enumerate(radii):
            assert mat[:, col].tolist() == one_radius(f, t, xs).tolist()

    def test_heat_pairs_match_one_pair_calls(self, rng):
        # one call holds windows from 0 to about 200 terms; every entry is
        # its own one-pair evaluation, bit for bit
        bps = np.concatenate((np.linspace(0.0, 1e-3, 200), [0.5, 2.0, 7.0]))
        f = make_pcf(bps, rng.uniform(-2, 2, bps.size - 1))
        times = (4.0, 1.0, 1e-2, 1e-6, 1e-9)
        xs = np.concatenate(([-5.0, 1e-4, 5e-4, 0.5, 3.0, 10.0, math.nan], rng.uniform(-1, 8, 20)))
        mat = family_value_matrix(f, OperatorFamily.HEAT, times, xs)
        for row, x in enumerate(xs.tolist()):
            for col, s in enumerate(times):
                one = operators._heat_matrix(f, np.sqrt([s]), np.array([x]))[0, 0]
                if math.isnan(x):
                    assert math.isnan(mat[row, col]) and math.isnan(one)
                else:
                    assert mat[row, col] == one

    def test_family_respects_given_order(self):
        fwd = family_value_matrix(UNIT, OperatorFamily.AVERAGES, (2.0, 0.5), [0.5])[0]
        rev = family_value_matrix(UNIT, OperatorFamily.AVERAGES, (0.5, 2.0), [0.5])[0]
        assert fwd.tolist() == rev[::-1].tolist()


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        got = gauss_legendre_integrate(lambda x: x**6, 0.0, 2.0, 16)
        assert got == pytest.approx(2.0**7 / 7.0, rel=1e-15)

    def test_interval_orientation(self):
        fwd = gauss_legendre_integrate(np.exp, -1.0, 1.0, 32)
        assert fwd == pytest.approx(math.e - 1.0 / math.e, rel=1e-14)


class TestGaussLegendrePanels:
    def test_small_rule_is_one_panel(self):
        # n <= 256 is the plain rule, term for term
        nodes, weights = operators._leggauss(200)
        want = 1.5 * math.fsum(weights * np.exp(-(1.5 + 1.5 * nodes)))
        assert gauss_legendre_integrate(lambda t: np.exp(-t), 0.0, 3.0, 200) == want

    @pytest.mark.parametrize("n, weight_bound", [(16, 4e-15), (64, 1e-13), (256, 3e-13)])
    def test_rule_matches_40_digit_newton(self, n, weight_bound):
        # each node of the nonnegative half refined by Newton's method on
        # P_n in 40 digits; measured: nodes within 8.0e-17 absolute, weights
        # within 3.4e-15, 7.5e-15 and 8.6e-14 relative at n = 16, 64, 256
        nodes, weights = operators._leggauss(n)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        exact = []
        with mpmath.workdps(40):
            for start, weight in zip(nodes[n // 2 :], weights[n // 2 :]):
                x = mpmath.mpf(float(start))
                for step in range(5):
                    p, before = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                    slope = n * (x * p - before) / (x * x - 1)
                    if step < 4:
                        x -= p / slope
                assert abs(x - mpmath.mpf(float(start))) <= 1e-16
                exact_weight = 2 / ((1 - x * x) * slope**2)
                assert abs(mpmath.mpf(float(weight)) / exact_weight - 1) <= weight_bound
                exact.append(x)
        # distinct roots: no two nodes settled on the same one
        assert all(b - a > 1e-6 for a, b in zip(exact, exact[1:]))

    def test_rule_needs_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        operators._leggauss.cache_clear()
        nodes, weights = operators._leggauss(256)
        assert math.fsum(weights) == pytest.approx(2.0, rel=1e-14)
        got = gauss_legendre_integrate(np.cos, 0.0, 1.0, 2048)
        assert got == pytest.approx(math.sin(1.0), rel=1e-15)

    @pytest.mark.parametrize("n", [257, 300, 2048, 4096])
    def test_large_budgets_stay_exact_on_polynomials(self, n):
        # numpy's node tables carry ~1e-14 relative error at these sizes
        got = gauss_legendre_integrate(lambda x: x**9, -1.0, 3.0, n)
        assert got == pytest.approx((3.0**10 - 1.0) / 10.0, rel=1e-13)

    def test_large_budget_is_split_into_panels(self, monkeypatch):
        from varlat import operators

        sizes = []
        original = operators._leggauss

        def recording(n):
            sizes.append(n)
            return original(n)

        monkeypatch.setattr(operators, "_leggauss", recording)
        gauss_legendre_integrate(np.cos, 0.0, 1.0, 1000)
        assert sizes == [250, 250, 250, 250]
        sizes.clear()
        gauss_legendre_integrate(np.cos, 0.0, 1.0, 514)
        assert sizes == [172, 171, 171]

    def test_subordination_mass_at_2048_nodes(self):
        def weight(t):
            return (t * t / 2.0) / math.sqrt(4 * math.pi) * np.exp(-t * t / 4.0)

        assert gauss_legendre_integrate(weight, 0.0, 20.0, 2048) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_empty_rule(self):
        with pytest.raises(BadRange):
            gauss_legendre_integrate(np.cos, 0.0, 1.0, 0)


class TestRepresentation:
    def test_zero_function_zero_residual(self):
        z = make_pcf([0.0, 1.0], [0.0])
        assert heat_integral_representation_check(z, 0.5, 0.3, 256) == 0.0

    def test_residual_small_at_working_budget(self, rng, make_random_pcf):
        for _ in range(5):
            f = make_random_pcf()
            s = float(rng.uniform(0.05, 2.0))
            x = float(rng.uniform(-2, 2))
            assert heat_integral_representation_check(f, s, x, 2048) < 1e-6

    def test_refinement_does_not_degrade(self, rng, make_random_pcf):
        for _ in range(5):
            f = make_random_pcf()
            s = float(rng.uniform(0.05, 2.0))
            x = float(rng.uniform(-2, 2))
            coarse = heat_integral_representation_check(f, s, x, 1024)
            fine = heat_integral_representation_check(f, s, x, 4096)
            assert coarse >= fine - 1e-12

    def test_rejects_tiny_node_budget(self):
        with pytest.raises(BadRange):
            heat_integral_representation_check(UNIT, 0.5, 0.3, 8)

    def test_subordination_mass_is_half(self):
        # the averaging convention carries mass 2, so the weight integrates
        # to exactly 1/2 and the composition reproduces unit mass
        def weight(t):
            return (t * t / 2.0) / math.sqrt(4 * math.pi) * np.exp(-t * t / 4.0)

        total = gauss_legendre_integrate(weight, 0.0, 40.0, 256)
        assert total == pytest.approx(0.5, abs=1e-14)


class TestErfAgainstMpmath:
    # a dense sweep of [-9, 9], denser where the forms meet at |x| = 0.46875
    # and at the clip |x| = 6, plus the window edge 8 (Phi(-16) = erfc(8)/2)
    XS = np.concatenate((
        np.linspace(-9.0, 9.0, 4001),
        np.linspace(0.46, 0.49, 1501),
        -np.linspace(0.46, 0.49, 301),
        np.linspace(5.9, 6.1, 201),
        [8.0, -8.0, 0.46875, np.nextafter(0.46875, 1.0), 1e-300, 5e-324, 0.0],
    ))

    def test_agreement_on_working_range(self):
        got = operators._erf(self.XS)
        with mpmath.workdps(40):
            worst = max(
                abs(mpmath.mpf(float(g)) - mpmath.erf(mpmath.mpf(float(x))))
                for x, g in zip(self.XS, got)
            )
        assert worst <= operators.ERF_ERROR

    def test_kernel_cdf_within_the_same_bound(self):
        ws = 2.0 * self.XS
        got = operators._kernel_cdf(ws)
        with mpmath.workdps(40):
            worst = max(
                abs(mpmath.mpf(float(g)) - (1 + mpmath.erf(mpmath.mpf(float(w)) / 2)) / 2)
                for w, g in zip(ws, got)
            )
        assert worst <= operators.ERF_ERROR

    def test_saturates_odd_and_keeps_shape(self):
        xs = np.array([[6.0, 7.5, 1e300, math.inf], [0.1, 0.5, 3.0, math.nan]])
        got = operators._erf(xs)
        assert got.shape == xs.shape
        assert got[0].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert math.isnan(got[1, 3])
        assert np.array_equal(operators._erf(-xs[1, :3]), -got[1, :3])
