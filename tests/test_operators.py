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


def wide_step_function(clustered=False):
    """10,000 cells 0.001 wide after one far breakpoint: at s = 1 the window
    of a point in [0, 10] holds every breakpoint, past _HEAT_LANES.  Without
    the far breakpoint (clustered) the first ones collapse to their Taylor
    expansion instead: 63 of them at s = 16."""
    bps = np.arange(10_001) / 1000.0
    if not clustered:
        bps = np.concatenate(([-100.0], bps[:-1]))
    return make_pcf(bps, ((np.arange(10_000) * 37) % 11 - 5) / 4.0)


class TestWideWindows:
    @pytest.mark.parametrize("points", [1, 200])
    def test_erf_calls_follow_the_terms(self, monkeypatch, points):
        # a window wider than _HEAT_LANES is one lane, split along its
        # offsets into ceil(terms / _HEAT_LANES) erf calls; the values are
        # the one-pair values bit for bit and agree with the dense sum
        f = wide_step_function()
        xs = np.arange(points) * (10.0 / points) + 0.0125
        shapes = []
        erf = operators._erf

        def recording(x):
            shapes.append(np.shape(x))
            return erf(x)

        monkeypatch.setattr(operators, "_kernel_cdf", lambda w: 0.5 + 0.5 * erf(0.5 * w))
        monkeypatch.setattr(operators, "_erf", recording)
        got = heat_apply_many(f, 1.0, xs)
        monkeypatch.undo()
        widths = np.searchsorted(f.breakpoints_array, xs + 16.0, side="right")
        widths -= np.searchsorted(f.breakpoints_array, xs - 16.0)
        assert widths.min() > operators._HEAT_LANES
        assert all(lanes == 1 and rows <= operators._HEAT_LANES for rows, lanes in shapes)
        assert len(shapes) == sum(-(-int(w) // operators._HEAT_LANES) for w in widths)
        assert sum(rows for rows, _ in shapes) == widths.sum()
        assert got.tolist() == [heat_apply(f, 1.0, x) for x in xs]
        assert np.all(np.abs(got - dense_heat(f, 1.0, xs)) <= 1e-12)


#: float.hex of heat values frozen from the per-offset kernel that preceded
#: the blocked one: any reordering of a sum shows here, where the pinned
#: reports compare at 1e-12 relative only.  Witness cases: base, k_min,
#: scales (0, 1, j*, j* + 3), then the origin and three series points
#: +-a^-(j* + 1 + m/10), m = 0, 7, 45, one row per scale.
PINNED_WITNESS_HEAT = [
    (2.0, -300, (0, 1, 5, 8),
     ("0x0.0p+0", "0x1.0000000000000p-6", "-0x1.3b2c47bff8328p-7", "0x1.6a09e667f3bcdp-11"),
     (("0x1.3ca4aa842ba6ep-4", "0x1.3ee26ea82fabap-4", "0x1.3b407b74bff00p-4", "0x1.3cbe26aa028dcp-4"),
      ("0x1.57396845db070p-4", "0x1.619d025518d94p-4", "0x1.50e31af2cf250p-4", "0x1.57ae52cdf1d0cp-4"),
      ("0x1.41e21ef6d7980p-7", "-0x1.38259394ecf00p-8", "0x1.7b0459487d040p-7", "0x1.383b90d02d180p-7"),
      ("-0x1.41e21ef6d7980p-7", "-0x1.04e27fb66b780p-3", "-0x1.10df01966a000p-12", "-0x1.b4ca96d63f400p-8"))),
    (3.0, -300, (0, 1, 3, 6),
     ("0x0.0p+0", "0x1.948b0fcd6e9e0p-7", "-0x1.76fb4e6aa26a3p-8", "0x1.711660f73c86bp-14"),
     (("0x1.ef1292d610cbap-4", "0x1.f183288d39918p-4", "0x1.edeed3ed4e3f8p-4", "0x1.ef170c9d87edep-4"),
      ("0x1.a186ebe892780p-4", "0x1.b7491f4cb2928p-4", "0x1.97a56b0b84810p-4", "0x1.a1ae152254becp-4"),
      ("0x1.5c1c41baf4178p-4", "0x1.fffb6fd6d76f8p-4", "0x1.18add04945390p-4", "0x1.5d32c8156d9c0p-4"),
      ("-0x1.5c1c41baf4178p-4", "-0x1.725eb2d958000p-16", "0x1.0d4aa16a6e2b8p-13", "-0x1.79f9b442e70b8p-4"))),
    (8.0, -400, (0, 1, 2, 5),
     ("0x0.0p+0", "0x1.0000000000000p-9", "-0x1.ddb680117ab0fp-12", "0x1.6a09e667f3bcdp-23"),
     (("0x1.94cb7d122e33ap-3", "0x1.950916c590625p-3", "0x1.94bd18dd25328p-3", "0x1.94cb7e6f170dap-3"),
      ("0x1.58da598759038p-5", "0x1.6d73e4daf04f8p-5", "0x1.541a240e26860p-5", "0x1.58daccfde0960p-5"),
      ("-0x1.58da5563e1bf0p-5", "-0x1.04215926f0298p-4", "-0x1.336b6f78ed0a0p-5", "-0x1.58ddf11964130p-5"),
      ("0x1.58da5563e1bf0p-5", "0x0.0p+0", "-0x1.72131c6b6ffc2p-88", "0x1.6017c5e8baea0p-5"))),
]

#: The same for wide_step_function at the points 0, 3.7, 5, 9.99 and 12.5.
PINNED_WIDE_HEAT = {
    1.0: ("-0x1.3ff6c19eb4273p-1", "-0x1.6bf0bb98b2700p-8", "-0x1.0ab27cbbeb800p-12",
          "-0x1.27c918a8d6000p-14", "-0x1.f2309b4260000p-17"),
    0.25: ("-0x1.3fed834158646p-1", "-0x1.bffba58000000p-24", "-0x1.0e60000000000p-40",
           "-0x1.27bfa63a20000p-13", "-0x1.2977d45c00000p-22"),
}

#: The same for wide_step_function(clustered=True) at s = 16 and the points
#: -0.5, 0, 0.004, 3.7, 5 and 12.5: the order of the Taylor sums shows here.
PINNED_CLUSTERED_HEAT = (
    "-0x1.33d5d6c4a1400p-14", "-0x1.3746d5880c000p-14", "-0x1.374bc40190c00p-14",
    "-0x1.168d865290800p-14", "-0x1.f43ff1e9be000p-15", "-0x1.7352fa5b1e000p-16",
)


class TestHeatBits:
    @pytest.mark.parametrize("a, k_min, js, ys, want", PINNED_WITNESS_HEAT, ids=["a2", "a3", "a8"])
    def test_witness_values(self, a, k_min, js, ys, want):
        got = heat_of_g_matrix(a, k_min, js, [float.fromhex(y) for y in ys])
        assert [[v.hex() for v in row] for row in got.tolist()] == [list(row) for row in want]

    @pytest.mark.parametrize("s", sorted(PINNED_WIDE_HEAT))
    def test_wide_window_values(self, s):
        got = heat_apply_many(wide_step_function(), s, [0.0, 3.7, 5.0, 9.99, 12.5])
        assert [v.hex() for v in got.tolist()] == list(PINNED_WIDE_HEAT[s])

    def test_collapsed_cluster_values(self):
        got = heat_apply_many(wide_step_function(clustered=True), 16.0, [-0.5, 0.0, 0.004, 3.7, 5.0, 12.5])
        assert [v.hex() for v in got.tolist()] == list(PINNED_CLUSTERED_HEAT)


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
        # n <= 64 is the plain rule, term for term
        for n in (1, 17, 64):
            nodes, weights = operators._leggauss(n)
            want = 1.5 * math.fsum(weights * np.exp(-(1.5 + 1.5 * nodes)))
            assert gauss_legendre_integrate(lambda t: np.exp(-t), 0.0, 3.0, n) == want

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
        calls = []

        def integrand(x):
            calls.append(x.size)
            return np.cos(x)

        # one rule and one integrand call per group of equal-size panels:
        # 8 panels of 63 nodes and 8 of 62, then 1 of 58 and 8 of 57
        gauss_legendre_integrate(integrand, 0.0, 1.0, 1000)
        assert sizes == [63, 62] and calls == [8 * 63, 8 * 62]
        sizes.clear()
        calls.clear()
        gauss_legendre_integrate(integrand, 0.0, 1.0, 514)
        assert sizes == [58, 57] and calls == [58, 8 * 57]
        sizes.clear()
        calls.clear()
        gauss_legendre_integrate(integrand, 0.0, 1.0, 128)
        assert sizes == [64] and calls == [128]

    @pytest.mark.parametrize("n", [65, 514, 1000, 2048])
    def test_grouped_panels_match_one_call_per_panel(self, n):
        # each panel is the plain rule on its own cut, summed as before
        pieces = -(-n // operators.MAX_PANEL_NODES)
        cuts = np.linspace(-0.5, 3.0, pieces + 1)
        panels = []
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            nodes, weights = operators._leggauss(n // pieces + (k < n % pieces))
            half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
            panels.append(half * math.fsum(weights * np.exp(mid + half * nodes)))
        assert gauss_legendre_integrate(np.exp, -0.5, 3.0, n) == math.fsum(panels)

    def test_subordination_mass_at_2048_nodes(self):
        def weight(t):
            return (t * t / 2.0) / math.sqrt(4 * math.pi) * np.exp(-t * t / 4.0)

        assert gauss_legendre_integrate(weight, 0.0, 20.0, 2048) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_empty_rule(self):
        with pytest.raises(BadRange):
            gauss_legendre_integrate(np.cos, 0.0, 1.0, 0)

    @pytest.mark.parametrize("n", [16.0, 2048.5, "64", None])
    def test_rejects_a_node_count_that_is_not_an_integer(self, n):
        with pytest.raises(BadRange):
            gauss_legendre_integrate(np.cos, 0.0, 1.0, n)

    def test_numpy_integer_node_count_runs_as_an_int(self):
        want = gauss_legendre_integrate(np.cos, 0.0, 1.0, 100)
        assert gauss_legendre_integrate(np.cos, 0.0, 1.0, np.int64(100)) == want


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
