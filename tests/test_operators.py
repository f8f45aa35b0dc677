import math

import mpmath
import numpy as np
import pytest
from scipy.special import erf

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
    hilbert_apply,
    hilbert_apply_many,
    make_pcf,
    pcf_eval,
)

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
        assert heat_apply(f, 0.25, 0.0) == pytest.approx(erf(1.0), rel=1e-14)

    def test_approximate_identity(self, make_random_pcf):
        f = make_random_pcf()
        bps = np.asarray(f.breakpoints)
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
        bound = max(abs(v) for v in f.values)
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
        g = make_pcf([b + c for b in f.breakpoints], f.values)
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

    def test_heat_family_matches_heat_apply(self, rng, make_random_pcf):
        f = make_random_pcf()
        radii = (1.0, 0.25, 0.0625)
        xs = rng.uniform(-2, 2, 15)
        mat = family_value_matrix(f, OperatorFamily.HEAT, radii, xs)
        for col, s in enumerate(radii):
            assert mat[:, col].tolist() == heat_apply_many(f, s, xs).tolist()

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
    def test_agreement_on_working_range(self):
        mpmath.mp.dps = 30
        ws = np.linspace(-6.0, 6.0, 121)
        for w in ws:
            want = float(mpmath.erf(mpmath.mpf(float(w))))
            assert float(erf(w)) == pytest.approx(want, abs=1e-15)
