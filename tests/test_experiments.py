import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from varlat import experiments, operators
from varlat import (
    HILBERT_R_LIST,
    BadRange,
    EmptyInput,
    ExperimentConfig,
    FloatRangeExceeded,
    InvalidQ,
    LacunaryParams,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
    NonPositiveRadius,
    OperatorFamily,
    RatioReport,
    avg_apply_many,
    certified_key_table,
    default_lacunary,
    exp_hilbert_growth,
    exp_key_estimate,
    exp_linf_blowup,
    exp_maximal_contrast,
    exp_norm_transfer,
    exp_reduction_constant,
    family_value_matrix,
    heat_of_g_matrix,
    hilbert_apply,
    hilbert_inner_norm,
    lacunary_sign,
    lr_numerator,
    make_pcf,
    make_radius_set,
    norm_transfer_pair,
    norm_transfer_trials,
    pcf_eval_many,
    qvariation_rows,
    trapezoid_weights,
    truncation_tail_bound,
    unit_indicator,
)
from varlat.experiments import DEFAULT_BASE, DEFAULT_J0, DEFAULT_K_MIN, _lr_depth
from varlat.witnesses import series_scale

CERTIFIED_BASE2 = 0.0173073522282


def bundle(config, j1):
    """The profile bundle of the one depth j1."""
    (only,) = experiments._profile_bundles(config, [j1])
    return only


def sup_numerators(config, j1):
    """The sup numerators (variation, maximal) of the one depth j1."""
    return experiments._blowup_numerators(config, bundle(config, j1))


def window_values(points, weights, values, r):
    """At each point x, the sup (r None) of the values at the points in
    [x - 1, x + 1], or (sum of weight |value|^r over them)^(1/r), by brute
    force: the window's index bounds, then a slice max or prefix sums."""
    lo = np.searchsorted(points, points - 1.0, side="left")
    hi = np.searchsorted(points, points + 1.0, side="right")
    if r is None:
        return np.array([values[i:j].max() for i, j in zip(lo.tolist(), hi.tolist())])
    prefix = np.concatenate(([0.0], np.cumsum(weights * np.abs(values) ** r)))
    return (prefix[hi] - prefix[lo]) ** (1.0 / r)


class TestWindowValues:
    """The brute-force window oracle against a plain membership mask."""

    @staticmethod
    def _masked(points, weights, values, r):
        out = []
        for x in points:
            inside = (points >= x - 1.0) & (points <= x + 1.0)
            if r is None:
                out.append(values[inside].max())
            else:
                out.append(float((weights[inside] * np.abs(values[inside]) ** r).sum()) ** (1.0 / r))
        return np.array(out)

    @pytest.mark.parametrize("r", [None, 2.5])
    def test_matches_the_membership_mask(self, rng, r):
        # a log-clustered grid gives windows from one point to the whole grid
        for n in (2, 3, 17, 300):
            pts = np.sort(np.concatenate((-np.geomspace(1e-6, 3.0, n), np.geomspace(1e-6, 4.0, n))))
            vals = rng.choice([-1.0, 0.0, 0.5, 2.0], size=pts.size) * rng.uniform(0.5, 1.0, pts.size)
            w = trapezoid_weights(pts)
            got = window_values(pts, w, vals, r)
            want = self._masked(pts, w, vals, r)
            if r is None:
                assert got.tolist() == want.tolist()
            else:
                # prefix sums resolve each window to the scale of the total mass
                total = float((w * np.abs(vals) ** r).sum())
                assert got**r == pytest.approx(want**r, rel=1e-9, abs=1e-12 * (1.0 + total))

    def test_windows_narrower_than_the_spacing_hold_one_point(self, rng):
        pts = np.cumsum(rng.uniform(1.1, 2.0, 40))
        vals = rng.uniform(-3, 3, 40)
        w = rng.uniform(0.1, 1.0, 40)
        assert window_values(pts, w, vals, None).tolist() == vals.tolist()
        assert window_values(pts, w, vals, 3.0) == pytest.approx((w * np.abs(vals) ** 3) ** (1 / 3), rel=1e-14)

    def test_one_point_grid(self):
        pts, w, vals = np.array([0.3]), np.array([0.5]), np.array([-2.0])
        assert window_values(pts, w, vals, None).tolist() == [-2.0]
        assert window_values(pts, w, vals, 2.0) == pytest.approx([math.sqrt(2.0)], rel=1e-15)


class TestConfigTypes:
    def test_config_grid_default(self):
        assert ExperimentConfig().log_points_per_decade == 32

    def test_config_rejects_coarse_grids(self):
        with pytest.raises(BadRange, match="at least 4 log points per decade"):
            ExperimentConfig(log_points_per_decade=3)

    def test_config_rejects_small_q(self):
        with pytest.raises(InvalidQ):
            ExperimentConfig(q=2.0)

    def test_config_rejects_disordered_r_list(self):
        with pytest.raises(BadRange):
            ExperimentConfig(r_list=(8.0, 4.0))
        with pytest.raises(BadRange):
            ExperimentConfig(r_list=(4.0, 128.0))

    def test_j1_rules(self):
        # the lr depth is floor(r) * j0, the one rule left
        assert _lr_depth(4.7, 2) == 8
        assert _lr_depth(64.0, 2) == 128

    def test_default_lacunary_matches_certified_table(self):
        lac = default_lacunary()
        assert lac.a == 2.0
        assert lac.j0 == 2
        assert lac.key_constant == pytest.approx(CERTIFIED_BASE2, abs=1e-10)


class TestReduction:
    def test_value_is_half(self):
        assert exp_reduction_constant() == pytest.approx(0.5, abs=1e-8)

    def test_node_doubling_stable(self):
        a = exp_reduction_constant(2048)
        b = exp_reduction_constant(4096)
        assert abs(a - b) <= 1e-10

    def test_rejects_tiny_budget(self):
        with pytest.raises(BadRange):
            exp_reduction_constant(32)

    def test_rejects_huge_budget_before_allocating(self):
        with pytest.raises(BadRange):
            exp_reduction_constant(10**12)


class TestRatioReport:
    @pytest.mark.parametrize("denominator", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
    def test_rejects_a_bad_denominator(self, denominator):
        with pytest.raises(NonFiniteValue, match="denominator must be finite and positive"):
            RatioReport(4.0, 1.0, denominator, 0.0)


class TestKeyEstimateExperiment:
    def test_default_configuration_passes(self):
        res = exp_key_estimate(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0)
        assert res.passed
        assert res.extras == {"a": DEFAULT_BASE, "j0": DEFAULT_J0, "reason": ""}
        assert min(res.table[DEFAULT_J0:]) == pytest.approx(CERTIFIED_BASE2, abs=1e-10)
        assert len(res.table) == 31

    def test_shallow_truncation_reported_not_raised(self):
        res = exp_key_estimate(1.000000001, -120, 2)
        assert not res.passed
        assert res.table == ()
        assert "tail" in res.extras["reason"]

    def test_subthreshold_constant_reported(self):
        res = exp_key_estimate(1.3, -400, 2)
        assert not res.passed
        assert 0 < min(res.table[2:]) < 1e-4
        assert "below" in res.extras["reason"]

    def test_rejects_window_short_of_j0(self):
        with pytest.raises(BadRange):
            exp_key_estimate(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, j_max=1)


class TestBlowupSmallRuns:
    # a coarse grid keeps these interactive; the full-resolution runs are
    # exercised by the acceptance suite
    CONFIG = ExperimentConfig(log_points_per_decade=8)
    DEPTHS = (4, 6, 8)

    def test_ratios_increase_and_denominator_lands(self):
        res = exp_linf_blowup(self.CONFIG, self.DEPTHS)
        ratios = [rep.ratio for rep in res.reports]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        target = 3.0 ** (1.0 / self.CONFIG.p)
        assert res.extras["denominator_target"] == pytest.approx(target, rel=1e-15)
        assert abs(res.reports[0].denominator / target - 1.0) <= 0.01

    def test_contrast_shares_variation_ratios_exactly(self):
        blow = exp_linf_blowup(self.CONFIG, self.DEPTHS)
        contrast = exp_maximal_contrast(self.CONFIG, self.DEPTHS)
        j0 = self.CONFIG.lacunary.j0
        for rep, pair in zip(blow.reports, contrast.extras["pairs"]):
            assert rep.param == pair["j1"] - j0
            assert pair["variation_ratio"] == rep.ratio

    def test_maximal_ratio_flat_while_variation_grows(self):
        contrast = exp_maximal_contrast(self.CONFIG, self.DEPTHS)
        assert contrast.extras["maximal_spread"] < 0.25
        assert contrast.extras["variation_growth"] > 1.2

    @pytest.mark.parametrize(
        "a, depths, calls",
        [
            (2.0, (4, 6, 8), 2),  # j* = 5: the short scales 2..4 and the series
            (2.0, (6,), 2),
            (2.0, (6, 10, 18, 34, 66, 130, 258), 2),
            (2.0, (3, 4), 1),  # every scale below j*: the short call alone
            (8.0, (4, 6, 8, 34), 1),  # j* = j0 = 2: the series alone
        ],
    )
    def test_profile_bundles_make_two_heat_calls_per_run(self, monkeypatch, a, depths, calls):
        made = []
        original = experiments.heat_of_g_matrix

        def counting(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "heat_of_g_matrix", counting)
        config = replace(self.CONFIG, lacunary=replace(self.CONFIG.lacunary, a=a, k_min=-300))
        assert len(experiments._profile_bundles(config, depths)) == len(depths)
        assert len(made) == calls

    @pytest.mark.parametrize("a, deepest", [(2.0, 1022), (3.0, 644), (8.0, 340)])
    def test_depth_reaches_the_double_range(self, a, deepest):
        # at j0 = 2, j1 = 1022 is 511 * j0: the depth is bounded only by a^-j
        # staying a normal double, and past it by the ladder floor a^-(j1+4)
        # staying above 0, so each refusal is a FloatRangeExceeded
        lac = LacunaryParams(a, -1200, 2, CERTIFIED_BASE2)
        config = replace(self.CONFIG, lacunary=lac)
        res = exp_linf_blowup(config, (6, deepest))
        assert [rep.param for rep in res.reports] == [4.0, deepest - 2.0]
        assert res.reports[1].ratio > res.reports[0].ratio
        for j1 in (deepest + 1, 1100):
            with pytest.raises(FloatRangeExceeded):
                experiments._profile_bundles(config, [6, j1])

    def test_bundle_profiles_match_standalone_profiles(self):
        lac = self.CONFIG.lacunary
        j1 = self.DEPTHS[-1]
        pts, weights, var, mx = bundle(self.CONFIG, j1)
        assert np.all(np.abs(pts) <= lac.a ** (-(j1 + 1.0))) and np.all(np.diff(pts) > 0)
        assert weights.shape == pts.shape and weights[pts == 0.0].tolist() == [0.0]
        # the time route: the heat times themselves, which the bundle takes
        # at their roots.  sqrt(2^(-2j)) is exact, so at a = 2 the short
        # scales 2..4 match bit for bit; the series reads the scales from
        # j* = 5 on with the witness truncated j - 5 cells deeper and at
        # points a power of a apart, so the profiles move by rounding only
        J = make_radius_set(lac.a ** (-2.0 * np.arange(lac.j0, j1 + 1)))
        witness = lacunary_sign(lac.a, lac.k_min)
        matrix = family_value_matrix(witness, OperatorFamily.HEAT, J, pts)
        np.testing.assert_allclose(var, qvariation_rows(matrix, self.CONFIG.q), rtol=1e-14, atol=0)
        np.testing.assert_allclose(mx, np.abs(matrix).max(axis=1), rtol=1e-14, atol=0)
        # every scale of depth 4 lies below j*: no series, bit for bit
        pts, _, var, mx = bundle(self.CONFIG, 4)
        matrix = family_value_matrix(witness, OperatorFamily.HEAT, J[:3], pts)
        assert var.tolist() == qvariation_rows(matrix, self.CONFIG.q).tolist()
        assert mx.tolist() == np.abs(matrix).max(axis=1).tolist()

    def test_depth_list_validation(self):
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (4,))
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (6, 4))

    def test_depths_must_exceed_j0(self):
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (2, 4))

    def test_lr_growth_refuses_r_below_2_before_any_profile(self, monkeypatch):
        # floor(1.5) * j0 is j0 itself, a depth with no active scale
        def no_profile(*args):
            raise AssertionError("profile built")

        monkeypatch.setattr(experiments, "_profile_bundles", no_profile)
        with pytest.raises(BadRange, match="r = 1.5"):
            experiments.exp_lr_growth(replace(self.CONFIG, r_list=(1.5, 4.0, 8.0)))


class TestAlignedCore:
    """The witness core {0} and +-a^-(j1+1+i/P), i = 0..3P: it ends on the
    window edge and nests when P doubles, which doubling the density does
    only when the ceiling in P = ceil(density * log10 a) rounds evenly."""

    @staticmethod
    def _config(a, per_decade, k_min=-300, j0=2, q=3.0):
        _, constant = certified_key_table(a, k_min, j0, 30)
        lac = LacunaryParams(a, k_min, j0, constant)
        return ExperimentConfig(q=q, lacunary=lac, log_points_per_decade=per_decade)

    @pytest.mark.parametrize("a", [2.0, 3.0, 8.0])
    @pytest.mark.parametrize("j1", [6, 130])
    def test_core_ends_on_the_window_edge(self, a, j1):
        config = self._config(a, 32)
        points, weights, _, _ = bundle(config, j1)
        per_factor = math.ceil(32 * math.log10(a))
        assert points.size == 6 * per_factor + 3
        assert points[0] == -(a ** -(j1 + 1.0)) and points[-1] == a ** -(j1 + 1.0)
        assert np.all(np.diff(points) > 0) and np.all(points == -points[::-1])
        # the two edges take their inward half gap, the origin none
        assert weights[0] == (points[1] - points[0]) / 2.0
        assert weights[-1] == (points[-1] - points[-2]) / 2.0
        assert weights[points.size // 2] == 0.0

    @pytest.mark.parametrize(
        "a, coarse, fine, nested",
        [
            (2.0, 32, 64, True),  # P = 10 -> 20
            (8.0, 32, 64, True),  # P = 29 -> 58
            (3.0, 32, 67, True),  # P = 16 -> 32
            (2.0, 64, 128, False),  # P = 20 -> 39
            (3.0, 32, 64, False),  # P = 16 -> 31
        ],
    )
    def test_ladders_nest_exactly_when_P_doubles(self, a, coarse, fine, nested):
        per_factor = [math.ceil(d * math.log10(a)) for d in (coarse, fine)]
        assert (per_factor[1] == 2 * per_factor[0]) == nested
        small, _, _, _ = bundle(self._config(a, coarse), 34)
        large, _, _, _ = bundle(self._config(a, fine), 34)
        assert (set(small.tolist()) <= set(large.tolist())) == nested
        if nested:
            assert large.size == 2 * small.size - 3

    @pytest.mark.parametrize("a", [2.0, 3.0, 8.0])
    @pytest.mark.parametrize("q, j0", [(3.0, 2), (10.0, 4)])
    def test_sup_numerator_does_not_depend_on_the_density(self, a, q, j0):
        # in these configurations the variation sup sits on points every
        # ladder holds: the window edge, and at a = 2 the origin for y >= 0
        for j1 in (10, 34, 258):
            configs = [self._config(a, d, j0=j0, q=q) for d in (32, 64, 128)]
            nums = [sup_numerators(c, j1)[0] for c in configs]
            assert nums[0] == nums[1] == nums[2]

    def test_sup_leaves_the_edge_at_two_scale_steps(self):
        # not a theorem: at a = 2, j0 = 4, j1 = 6 the sup sits inside the
        # core, near 0.92 a^-7, so the numerator moves with the density; it
        # cannot fall from 32 to 64 per decade, whose ladders nest
        configs = [self._config(2.0, d, j0=4) for d in (32, 64, 128)]
        nums = [sup_numerators(c, 6)[0] for c in configs]
        assert nums[0] < nums[1] and nums[1] != nums[2]

    def test_lr_numerator_rises_with_the_density(self):
        nums = [lr_numerator(self._config(2.0, d), 4.0) for d in (32, 64, 128, 256)]
        assert nums[0] < nums[1] < nums[2] < nums[3]

    @pytest.mark.parametrize("per_decade, j1, k_min", [(700, 1000, -1100), (110_726, 3, -300)])
    def test_cap_counts_the_core_it_builds(self, monkeypatch, per_decade, j1, k_min):
        # 700 per decade at j1 = 1000 is a core of 1,269 points; the largest
        # density the cap admits at a = 2 builds 199,995.  The first heat
        # call is the short scales 2..4 on the core; j1 = 1000 adds the
        # series at j* = 5, whose size the cap does not count
        built = []

        def stub(a, k_min, js, ys):
            built.append(len(ys))
            return np.zeros((len(js), len(ys)))

        monkeypatch.setattr(experiments, "heat_of_g_matrix", stub)
        config = self._config(2.0, per_decade, k_min)
        experiments._profile_bundles(config, [j1])
        per_factor = math.ceil(per_decade * math.log10(2.0))
        assert built[0] == 6 * per_factor + 3
        assert built[1:] == ([2 * ((j1 - 5 + 3) * per_factor + 1) + 1] if j1 >= 5 else [])
        assert built[0] <= experiments.MAX_GRID_POINTS
        with pytest.raises(BadRange, match="capped"):
            experiments._profile_bundles(replace(config, log_points_per_decade=110_727), [j1])


class TestSeriesRoute:
    """_profile_bundles reads every scale j >= j* from one heat series at
    the scale j*, by the scaling law of the witnesses docstring, and the
    scales below j* from one call on the run's cores."""

    @staticmethod
    def _config(a, k_min, j0=2, r_list=(4.0, 8.0, 16.0, 32.0)):
        return ExperimentConfig(lacunary=LacunaryParams(a, k_min, j0, CERTIFIED_BASE2), r_list=r_list)

    @pytest.mark.parametrize("a, k_min", [(2.0, -300), (3.0, -300), (8.0, -400)])
    @pytest.mark.parametrize("j1", [34, 258])
    def test_series_rows_match_direct_rows(self, a, k_min, j1):
        # the series sees the witness truncated j - j* cells deeper, which
        # moves a value by at most truncation_tail_bound(a, k_min, j); each
        # route's kernel sum carries at most one ERF_ERROR per breakpoint
        # and its collapse bound
        config = self._config(a, k_min)
        sent, chain_rows = [], experiments._chain_rows

        def spy(matrix, q):
            sent.append(np.array(matrix))
            return chain_rows(matrix, q)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_chain_rows", spy)
            points = bundle(config, j1)[0]
        (series,) = sent
        js = np.arange(2, j1 + 1)
        direct = heat_of_g_matrix(a, k_min, js, points).T
        witness = lacunary_sign(a, k_min)
        kernel = witness.breakpoints_array.size * operators.ERF_ERROR
        kernel += operators._collapse_bound(witness, a ** -js.astype(float))
        tail = np.array([truncation_tail_bound(a, k_min, j) for j in js])
        assert np.all(np.abs(series - direct) <= tail + 2.0 * kernel)
        # the short scales come from the direct route itself
        short = series_scale(a, 2) - 2
        assert series[:, :short].tolist() == direct[:, :short].tolist()

    @pytest.mark.parametrize(
        "a, per_decade, depths",
        [
            (2.0, 32, (3, 6, 34, 258)),
            (3.0, 32, (3, 6, 34, 130)),
            (8.0, 32, (3, 6, 34, 258)),  # where (j1 + 1) + i/P and N + k/P differ
            (1.5, 64, (6, 7, 8, 34)),
        ],
    )
    def test_every_core_point_is_a_series_point(self, monkeypatch, a, per_decade, depths):
        # the cores are cut from the run's one ladder a^-(N + k/P), so a
        # core point is bit for bit a point the series evaluated
        calls, original = [], experiments.heat_of_g_matrix

        def recording(a, k_min, js, ys):
            calls.append((tuple(js), np.asarray(ys)))
            return original(a, k_min, js, ys)

        monkeypatch.setattr(experiments, "heat_of_g_matrix", recording)
        config = replace(self._config(a, -400), log_points_per_decade=per_decade)
        bundles = experiments._profile_bundles(config, depths)
        j_star = series_scale(a, 2)
        (series,) = [ys for js, ys in calls if js == (j_star,)]
        for j1, (points, *_) in zip(depths, bundles):
            if j1 >= j_star:
                assert set(points.tolist()) <= set(series.tolist())

    @pytest.mark.parametrize(
        "a, k_min, depths",
        [
            (2.0, -300, (3, 4, 6, 34, 258)),  # 3 and 4 lie wholly below j* = 5
            (8.0, -400, (3, 6, 34, 258)),  # j* = j0
            (3.0, -300, (3, 6, 34, 130)),  # scales a^-j not powers of two
            (1.5, -800, (3, 6, 7, 8, 34)),  # j* = 7
        ],
    )
    def test_bundle_does_not_depend_on_the_other_depths(self, a, k_min, depths):
        config = self._config(a, k_min)
        together = experiments._profile_bundles(config, depths)
        for j1, joint in zip(depths, together):
            alone = bundle(config, j1)
            assert [part.tobytes() for part in joint] == [part.tobytes() for part in alone]

    @pytest.mark.parametrize(
        "a, k_min, j0, r_list",
        [
            (2.0, -300, 1, (3.0, 4.0, 8.0, 34.0)),  # depths 3 and 4 below j* = 5
            (8.0, -400, 2, (4.0, 8.0, 16.0)),  # j* = j0
            (3.0, -300, 2, (4.0, 8.0, 16.0)),
            (1.5, -800, 2, (3.0, 4.0, 8.0)),  # depths 6 and 8 about j* = 7
        ],
    )
    def test_lr_numerator_equals_the_lr_growth_row(self, a, k_min, j0, r_list):
        config = self._config(a, k_min, j0, r_list)
        reports = experiments.exp_lr_growth(config).reports
        assert [rep.numerator for rep in reports] == [lr_numerator(config, r) for r in r_list]


class TestDeepPowerSum:
    """The power sum over a core at depth j1 carries a^-(j1+1) in its
    weights; at a = 2 and r = 64 it leaves the normal range near depth 896."""

    @pytest.mark.parametrize("j0", [14, 15])
    def test_lr_numerator_matches_a_scaled_route(self, j0):
        r, j1 = 64.0, 64 * j0
        config = ExperimentConfig(lacunary=LacunaryParams(2.0, -1100, j0, CERTIFIED_BASE2))
        points, weights, var, _ = bundle(config, j1)
        # the plain sum is subnormal (j0 = 14) or 0 (j0 = 15)
        assert float(np.cumsum(weights * var**r)[-1]) < np.finfo(float).smallest_normal

        def power_norm(keep):
            # the weights scaled by 2^(j1+1), exactly, and summed in full
            scaled = np.ldexp(weights[keep], j1 + 1) * var[keep] ** r
            return math.fsum(scaled.tolist()) ** (1.0 / r) * 2.0 ** (-(j1 + 1) / r)

        whole, right, y_lo, p = power_norm(slice(None)), power_norm(points >= 0.0), float(points[0]), config.p
        want = ((1.0 + y_lo) * whole**p - y_lo * right**p) ** (1.0 / p)
        assert lr_numerator(config, r) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestDenominators:
    """The closed-form denominators against the exact plain norms of |G|.

    Each must sit at or above the exact norm of the truncated witness (so a
    ratio never gains from its denominator) and within 1e-14 of it; and it
    must agree with the sampled pipeline it replaced, rebuilt here at eight
    times the default linear resolution, to 1e-3, which catches a wrong
    formula.
    """

    P_LIST = (1.5, 2.0, 3.0, 7.0, math.inf)
    R_LIST = (1.5, 4.0, 16.0, 64.0)

    @staticmethod
    def _exact_norm(p: float, r: float | None) -> mpmath.mpf:
        # |G| is 1 on [eps, 1) with eps = a^k_min; r=None is the sliding sup
        lac = default_lacunary()
        eps = mpmath.mpf(lac.a) ** lac.k_min
        if r is None:
            return mpmath.mpf(1) if p == math.inf else (3 - eps) ** (1 / mpmath.mpf(p))
        if p == math.inf:
            return (1 - eps) ** (1 / mpmath.mpf(r))
        s = mpmath.mpf(p) / r
        return ((1 - eps) ** s * (1 + eps) + 2 * (1 - eps) ** (1 + s) / (1 + s)) ** (1 / mpmath.mpf(p))

    @staticmethod
    def _sampled_norm(p: float, r: float | None) -> float:
        lac = default_lacunary()
        # the window [-1.1, 2.1] of the replaced pipeline, at 8x its resolution
        pts = np.linspace(-1.1, 2.1, 8 * (1501 - 1) + 1)
        w = trapezoid_weights(pts)
        v = window_values(pts, w, np.abs(pcf_eval_many(lacunary_sign(lac.a, lac.k_min), pts)), r)
        return float(v.max()) if p == math.inf else float((w @ v**p) ** (1.0 / p))

    def _check(self, closed: float, p: float, r: float | None) -> None:
        with mpmath.workdps(50):
            exact = self._exact_norm(p, r)
            assert mpmath.mpf(closed) >= exact
            assert mpmath.mpf(closed) <= exact * (1 + mpmath.mpf("1e-14"))
        sampled = self._sampled_norm(p, r)
        assert sampled <= closed <= sampled * (1.0 + 1e-3)

    @pytest.mark.parametrize("p", P_LIST)
    def test_sup_denominator(self, p):
        self._check(experiments._sup_denominator(ExperimentConfig(p=p)), p, None)

    @pytest.mark.parametrize("p", P_LIST)
    @pytest.mark.parametrize("r", R_LIST)
    def test_power_denominator(self, p, r):
        self._check(experiments._power_denominator(ExperimentConfig(p=p), r), p, r)


class TestClosedFormNumerators:
    """The outer integral over [0, 1] of the window sup or power sum of a
    core profile, in closed form.

    It must sit at or below the exact integral of its own profile's window
    function, within the sliver bound of it; and it must agree to 1e-3 with
    the pipeline it replaced (a union grid with a fine linear cover of
    [0, 1], swept by the sliding-window kernels), which catches a wrong
    formula.
    """

    CONFIG = ExperimentConfig(log_points_per_decade=8)
    P_LIST = (1.5, 2.0, 7.0, math.inf)
    # (j1, r): the sup numerators from the CLI's shallowest default depth,
    # where the sliver is widest (2^-7), and the lr depths floor(r) j0
    CASES = ((6, None), (8, None), (16, None), (8, 4.0), (16, 8.0))
    # the float sums and powers round; 1e-14 relative is about 45 ulps, and
    # only the p = inf power sums, which have no sliver margin, come near
    ROUNDING = mpmath.mpf("1e-14")

    @staticmethod
    def _exact(points, weights, values, p, r):
        # the window [x - 1, x + 1] holds the core points from index k on
        # for x - 1 in (y_(k-1), y_k]: a step function with one step per
        # negative core point, and the full core for x <= 1 + y_0
        mp = [mpmath.mpf(float(v)) for v in values]
        mw = [mpmath.mpf(float(w)) for w in weights]
        n_neg = int(np.sum(points < 0))
        if r is None:
            steps = [max(mp[k:]) for k in range(n_neg + 1)]
        else:
            steps = [
                mpmath.fsum(w * v**r for w, v in zip(mw[k:], mp[k:])) ** (1 / mpmath.mpf(r))
                for k in range(n_neg + 1)
            ]
        if p == math.inf:
            return steps[0], steps
        edges = [mpmath.mpf(0)] + [1 + mpmath.mpf(float(y)) for y in points[:n_neg]] + [mpmath.mpf(1)]
        total = mpmath.fsum((hi - lo) * s**p for lo, hi, s in zip(edges, edges[1:], steps))
        return total ** (1 / mpmath.mpf(p)), steps

    @staticmethod
    def _replaced_pipeline(config, j1, p, r, n_x=4001):
        lac = config.lacunary
        window = lac.a ** (-(j1 + 1.0))
        per_factor = math.ceil(config.log_points_per_decade * math.log10(lac.a))
        ladder = lac.a ** -(j1 + 1.0 + np.arange(3 * per_factor + 1) / per_factor)
        core = np.concatenate((-ladder, [0.0], ladder[::-1]))
        core_w = trapezoid_weights(core)
        i0 = ladder.size
        core_w[i0] = 0.0
        core_w[i0 - 1] = (core[i0 - 1] - core[i0 - 2]) / 2.0
        core_w[i0 + 1] = (core[i0 + 2] - core[i0 + 1]) / 2.0
        # the linear cover lies past the window edge; the core keeps the
        # weights the closed form gives it, so only the outer integral differs
        xs = np.linspace(0.0, 1.0, n_x)
        pts = np.concatenate((core, xs[xs > window]))
        w = trapezoid_weights(pts)
        w[: core.size] = core_w
        matrix = heat_of_g_matrix(lac.a, lac.k_min, range(lac.j0, j1 + 1), core).T
        vals = np.zeros(pts.size)
        vals[: core.size] = qvariation_rows(matrix, config.q)
        unit = (pts >= 0.0) & (pts <= 1.0)
        v = window_values(pts, w, vals, r)[unit]
        return float(v.max()) if p == math.inf else float((w[unit] @ v**p) ** (1.0 / p))

    @staticmethod
    def _numerator(config, j1, r):
        if r is None:
            return sup_numerators(config, j1)[0]
        return lr_numerator(config, r)

    @pytest.mark.parametrize("p", P_LIST)
    @pytest.mark.parametrize("j1, r", CASES)
    def test_at_or_below_exact_integral_within_sliver(self, p, j1, r):
        config = replace(self.CONFIG, p=p)
        points, weights, var, mx = bundle(config, j1)
        if r is None:
            pairs = zip((var, mx), sup_numerators(config, j1))
        else:
            pairs = [(var, lr_numerator(config, r))]
        for values, num in pairs:
            with mpmath.workdps(40):
                exact, steps = self._exact(points, weights, values, p, r)
                assert mpmath.mpf(num) <= exact * (1 + self.ROUNDING)
                if p == math.inf:
                    continue
                # the closed form gives the whole sliver, of width -y_0, the
                # value of its last step; no step exceeds the first
                sliver = -mpmath.mpf(float(points[0])) * (steps[0] ** p - steps[-1] ** p)
                assert exact**p - mpmath.mpf(num) ** p <= sliver + exact**p * self.ROUNDING

    @pytest.mark.parametrize("p", P_LIST)
    @pytest.mark.parametrize("j1, r", CASES)
    def test_matches_replaced_pipeline(self, p, j1, r):
        config = replace(self.CONFIG, p=p)
        num = self._numerator(config, j1, r)
        old = self._replaced_pipeline(config, j1, p, r)
        assert abs(num / old - 1.0) <= 1e-3


class TestWindowNorm:
    """experiments._window_norm, the closed-form outer integral over [0, 1]
    of the radius-1 window sup or power sum of a profile on a core inside
    (-1, 1), on small and random cores."""

    # points, weights and values with a hand-computed answer: the window
    # holds all three points for x <= 0.75 and the last two after that
    POINTS, WEIGHTS, VALUES = np.array([-0.25, 0.0, 0.5]), np.full(3, 0.5), np.array([3.0, 1.0, 2.0])

    @staticmethod
    def _random_core(rng, n):
        points = np.sort(rng.uniform(-0.4, 0.4, n))
        return points, rng.uniform(0.01, 0.2, n), rng.uniform(0.0, 5.0, n)

    def test_sup_by_hand(self):
        # 0.75 * 3 + 0.25 * 2
        assert experiments._window_norm(self.POINTS, self.WEIGHTS, self.VALUES, 1.0) == 2.75

    def test_power_sum_by_hand(self):
        # squared window sums 0.5 (9 + 1 + 4) = 7 and 0.5 (1 + 4) = 2.5
        got = experiments._window_norm(self.POINTS, self.WEIGHTS, self.VALUES, 2.0, 2.0)
        assert got == pytest.approx(math.sqrt(0.75 * 7.0 + 0.25 * 2.5), rel=1e-15)

    @pytest.mark.parametrize("r", [None, 2.0])
    def test_p_infinity_is_the_whole_core(self, rng, r):
        points, weights, values = self._random_core(rng, 30)
        got = experiments._window_norm(points, weights, values, math.inf, r)
        want = values.max() if r is None else float((weights * values**r).sum()) ** (1.0 / r)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("r", [None, 3.0])
    def test_zero_profile(self, r):
        points = np.array([-0.3, 0.0, 0.2])
        for p in (1.0, 2.5, math.inf):
            assert experiments._window_norm(points, np.full(3, 0.1), np.zeros(3), p, r) == 0.0

    @pytest.mark.parametrize("r", [None, 3.0])
    def test_monotone_under_pointwise_increase(self, rng, r):
        points, weights, v1 = self._random_core(rng, 50)
        v2 = v1 + rng.uniform(0.0, 1.0, 50)
        for p in (1.0, 2.5, math.inf):
            low = experiments._window_norm(points, weights, v1, p, r)
            assert experiments._window_norm(points, weights, v2, p, r) >= low * (1.0 - 1e-14)

    @pytest.mark.parametrize("r", [None, 3.0])
    def test_homogeneity(self, rng, r):
        points, weights, values = self._random_core(rng, 25)
        for p in (1.0, 2.5, math.inf):
            base = experiments._window_norm(points, weights, values, p, r)
            scaled = experiments._window_norm(points, weights, 3.5 * values, p, r)
            assert scaled == pytest.approx(3.5 * base, rel=1e-13)

    def test_core_right_of_zero_gives_its_whole_value(self, rng):
        points, weights, values = self._random_core(rng, 20)
        points = np.abs(points) + 1e-3
        points.sort()
        for r in (None, 3.0):
            whole = experiments._window_norm(points, weights, values, math.inf, r)
            for p in (1.0, 2.5):
                got = experiments._window_norm(points, weights, values, p, r)
                assert got == pytest.approx(whole, rel=1e-14)

    def test_large_r_approaches_the_sup(self, rng):
        points, weights, values = self._random_core(rng, 20)
        values = values / values.max() * 1.5
        for p in (1.0, 2.5, math.inf):
            sup = experiments._window_norm(points, weights, values, p)
            approx = experiments._window_norm(points, weights, values, p, 1000.0)
            assert abs(approx - sup) <= 0.02 * sup

    @pytest.mark.parametrize("p", [1.5, 2.0, 7.0])
    @pytest.mark.parametrize("r", [None, 3.0])
    def test_at_or_below_the_step_integral_within_the_sliver(self, rng, p, r):
        # the window holds the core points from index k on for x - 1 in
        # (y_(k-1), y_k]: a step function with one step per negative point;
        # the closed form gives the sliver x > 1 + y_0 the last step's value
        for n in (1, 2, 5, 40):
            points, weights, values = self._random_core(rng, n)
            n_neg = int(np.sum(points < 0))
            if r is None:
                steps = np.array([values[k:].max() for k in range(n_neg + 1)])
            else:
                sums = [(weights[k:] * values[k:] ** r).sum() for k in range(n_neg + 1)]
                steps = np.array(sums) ** (1.0 / r)
            edges = np.concatenate(([0.0], 1.0 + points[:n_neg], [1.0]))
            exact = float(np.sum(np.diff(edges) * steps**p))
            got = experiments._window_norm(points, weights, values, p, r) ** p
            assert got <= exact * (1.0 + 1e-13)
            sliver = -min(float(points[0]), 0.0) * (steps[0] ** p - steps[-1] ** p)
            assert exact - got <= sliver + 1e-13 * exact


class TestHilbertNorms:
    def test_quadratic_norm_closed_form(self):
        assert hilbert_inner_norm(2.0) == pytest.approx(
            math.pi / math.sqrt(3.0), abs=1e-3
        )

    def test_factorial_eta_closed_form(self):
        # the exact norm is (2 Gamma(r+1) eta(r))^(1/r); the float value must
        # sit at or below it (a one-sided numerator) and within 1e-13
        named = (1.0, 1.0001, 1.5, 2.0, 3.0, 8.0, 16.0, 32.0, 63.5, 64.0)
        dense = np.concatenate((1.0 + np.geomspace(1e-12, 0.5, 40), np.linspace(1.5, 64.0, 360)))
        with mpmath.workdps(50):
            for r in (*named, *dense.tolist()):
                exact = (2 * mpmath.gamma(r + 1) * mpmath.altzeta(r)) ** (1 / mpmath.mpf(r))
                got = mpmath.mpf(hilbert_inner_norm(r))
                assert got <= exact, r
                assert got >= exact * (1 - mpmath.mpf("1e-13")), r

    def test_pointwise_log_lower_bound(self):
        u = unit_indicator()
        for x in np.geomspace(1e-9, math.exp(-5.0), 20):
            assert abs(hilbert_apply(u, float(x))) >= 0.5 * math.log(1.0 / x)

    def test_rejects_r_below_one(self):
        with pytest.raises(BadRange):
            hilbert_inner_norm(0.5)

    def test_rejects_r_above_cap(self):
        with pytest.raises(BadRange):
            hilbert_inner_norm(64.5)

    def test_library_hilbert_r_list_passes(self):
        # the r-list the CLI defaults hilbert-growth to certifies in the
        # library too; the ExperimentConfig default does not reach it
        assert exp_hilbert_growth(ExperimentConfig(r_list=HILBERT_R_LIST)).passed

    def test_growth_ignores_the_grid(self):
        coarse = ExperimentConfig(r_list=(8.0, 16.0, 32.0), log_points_per_decade=4)
        fine = ExperimentConfig(r_list=(8.0, 16.0, 32.0), log_points_per_decade=64)
        ratios = [[rep.ratio for rep in exp_hilbert_growth(c).reports] for c in (coarse, fine)]
        assert ratios[0] == ratios[1]


def transfer_draw(seed: int, m: int = 3, n: int = 4):
    """exp_norm_transfer's random simple function, drawn as it always was."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.2, 1.0, m)
    bounds = [float(rng.uniform(-1.0, 0.0))]
    coeff_rows = []
    for block in range(n):
        bounds.append(bounds[-1] + float(rng.uniform(0.3, 1.0)))
        coeff_rows.append(rng.uniform(-1.0, 1.0, m))
        if block != n - 1:
            bounds.append(bounds[-1] + float(rng.uniform(0.2, 0.6)))
            coeff_rows.append(np.zeros(m))
    return bounds, np.asarray(coeff_rows), widths


def transfer_pieces(bounds):
    """The norm-transfer grid of one simple function, an array of piece
    midpoints per cell."""
    pieces = []
    for left, right in zip(bounds[:-1], bounds[1:]):
        sub = max(1, int(math.ceil((right - left) / 0.1)))
        pieces.append(left + (right - left) / sub * (np.arange(sub) + 0.5))
    return pieces


def composed_norm_transfer(bounds, coeffs, widths, p, q, r, J):
    """The norm-transfer fields of one simple function, composed trial by
    trial from step functions, their averaging matrices and mixed norms."""
    fns = [make_pcf(bounds, coeffs[:, k]) for k in range(widths.size)]
    pieces = transfer_pieces(bounds)
    x_pts = np.concatenate(pieces)
    x_w = np.concatenate(
        [np.full(len(block), (right - left) / len(block))
         for block, left, right in zip(pieces, bounds[:-1], bounds[1:])]
    )
    plain = np.stack([pcf_eval_many(f, x_pts) for f in fns], axis=1)
    stacked = np.concatenate([family_value_matrix(f, OperatorFamily.AVERAGES, J, x_pts) for f in fns])
    var = qvariation_rows(stacked, q).reshape(len(fns), x_pts.size).T

    def mixed_norm(values, inner_weights=None):
        # L^p over the points of the inner ell^r norm, or of the inner L^r
        # norm against inner_weights; rows C-ordered, so sums run in order
        powers = np.ascontiguousarray(np.abs(values)) ** r
        inner = (powers.sum(axis=1) if inner_weights is None else powers @ inner_weights) ** (1.0 / r)
        return float(inner.max()) if p == math.inf else float((x_w @ inner**p) ** (1.0 / p))

    scale = widths ** (1.0 / r)
    norms = (mixed_norm(plain, widths), mixed_norm(plain * scale), mixed_norm(var, widths), mixed_norm(var * scale))
    gaps = [abs(a - b) / max(abs(a), abs(b)) for a, b in (norms[:2], norms[2:])]
    return (*norms, max(gaps))


class TestNormTransfer:
    J = make_radius_set((0.25, 0.0625, 0.015625))

    @pytest.mark.parametrize(
        "seeds, p, q, r",
        [(range(300), 2.0, 3.0, 4.0), (range(40), math.inf, 2.5, 1.5), (range(40), 1.0, 6.0, 9.0)],
    )
    def test_blocks_match_the_per_trial_composition(self, seeds, p, q, r):
        rows, _ = norm_transfer_trials(seeds[0], len(seeds), p=p, q=q, r=r)
        for seed, row in zip(seeds, rows.tolist()):
            want = composed_norm_transfer(*transfer_draw(seed), p, q, r, self.J)
            for got, old in zip(row[:4], want[:4]):
                assert abs(got - old) <= 1e-15 * old
            # the discrepancy is a relative rounding gap itself
            assert abs(row[4] - want[4]) <= 1e-15

    @pytest.mark.parametrize("extra", [1, 5])
    def test_multi_block_rows_are_single_trials(self, extra):
        block = experiments._TRANSFER_BLOCK
        rows, seconds = norm_transfer_trials(11, 2 * block + extra)
        for i, row in enumerate(rows.tolist()):
            assert tuple(row) == tuple(exp_norm_transfer(11 + i))
        # a trial's seconds are its block's time over the block's trials
        assert [len(set(seconds[k : k + block])) for k in range(0, len(rows), block)] == [1, 1, 1]

    def test_memory_is_flat_in_trials(self):
        norm_transfer_trials(0, 20)
        peaks = []
        for trials in (100, 1000):
            tracemalloc.start()
            try:
                norm_transfer_trials(3, trials)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_single_block_closed_form(self):
        # one cell of length 2, one inner coordinate of width 0.7, value 1.5:
        # every route reduces to |v| w^(1/r) L^(1/p)
        res = norm_transfer_pair(
            (0.0, 2.0), [[1.5]], [0.7], p=2.0, q=3.0, r=4.0,
            J=make_radius_set((0.25, 0.0625, 0.015625)),
        )
        want = 1.5 * 0.7**0.25 * 2.0**0.5
        assert res.plain_integral == pytest.approx(want, rel=1e-12)
        assert res.plain_sequence == pytest.approx(want, rel=1e-12)
        assert res.max_rel_discrepancy <= 1e-12

    def test_scaling_homogeneity(self):
        J = make_radius_set((0.25, 0.0625, 0.015625))
        base = norm_transfer_pair(
            (0.0, 0.8, 1.7), [[0.3, -1.1], [0.9, 0.4]], [0.5, 1.2],
            p=2.0, q=3.0, r=4.0, J=J,
        )
        scaled = norm_transfer_pair(
            (0.0, 0.8, 1.7), [[0.6, -2.2], [1.8, 0.8]], [0.5, 1.2],
            p=2.0, q=3.0, r=4.0, J=J,
        )
        for name in ("plain_integral", "plain_sequence", "variation_integral", "variation_sequence"):
            assert getattr(scaled, name) == pytest.approx(
                2.0 * getattr(base, name), rel=1e-12
            )

    def test_random_seeds_agree_to_tolerance(self):
        for seed in range(20):
            res = exp_norm_transfer(seed)
            assert res.max_rel_discrepancy <= 1e-10

    def test_zero_function_gives_zero_norms(self):
        res = norm_transfer_pair((0.0, 0.5, 1.5), np.zeros((2, 3)), [0.5, 1.0, 0.2], 2.0, 3.0, 4.0, self.J)
        assert tuple(res) == (0.0,) * 5

    def test_euclidean_three_four_five(self):
        # unit widths make both inner norms plain ell^2; the cell has length 1
        res = norm_transfer_pair((0.0, 1.0), [[3.0, 4.0]], [1.0, 1.0], 1.0, 3.0, 2.0, self.J)
        assert res.plain_integral == pytest.approx(5.0, rel=1e-12)
        assert res.plain_sequence == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_homogeneity_under_a_negative_factor(self, p):
        bounds, coeffs, widths = transfer_draw(5)
        base = norm_transfer_pair(bounds, coeffs, widths, p, 3.0, 1.5, self.J)
        scaled = norm_transfer_pair(bounds, -3.5 * coeffs, widths, p, 3.0, 1.5, self.J)
        for got, want in zip(tuple(scaled)[:4], tuple(base)[:4]):
            assert got == pytest.approx(3.5 * want, rel=1e-12)

    def test_p_infinity_is_the_largest_inner_norm(self):
        bounds, coeffs, widths = transfer_draw(8)
        res = norm_transfer_pair(bounds, coeffs, widths, math.inf, 3.0, 4.0, self.J)
        inner = (np.abs(coeffs) ** 4 * widths).sum(axis=1) ** 0.25
        assert res.plain_integral == pytest.approx(inner.max(), rel=1e-14)
        assert res.plain_sequence == pytest.approx(inner.max(), rel=1e-14)

    def test_split_inner_cell_keeps_every_norm(self):
        # coordinate k with width w is the same lattice element as two equal
        # coordinates with width w/2 each
        bounds, coeffs, widths = transfer_draw(13, m=1)
        one = norm_transfer_pair(bounds, coeffs, widths, 2.0, 3.0, 4.0, self.J)
        halves = np.repeat(coeffs, 2, axis=1), np.repeat(widths / 2.0, 2)
        two = norm_transfer_pair(bounds, *halves, 2.0, 3.0, 4.0, self.J)
        for got, want in zip(tuple(two)[:4], tuple(one)[:4]):
            assert got == pytest.approx(want, rel=1e-14)

    def test_coordinate_order_does_not_matter(self):
        bounds, coeffs, widths = transfer_draw(21, m=4)
        order = [2, 0, 3, 1]
        base = norm_transfer_pair(bounds, coeffs, widths, 2.0, 3.0, 4.0, self.J)
        shuffled = norm_transfer_pair(bounds, coeffs[:, order], widths[order], 2.0, 3.0, 4.0, self.J)
        for got, want in zip(tuple(shuffled)[:4], tuple(base)[:4]):
            assert got == pytest.approx(want, rel=1e-14)

    def test_fortran_ordered_coefficients_give_identical_rows(self):
        for seed in range(5):
            bounds, coeffs, widths = transfer_draw(seed, m=7)
            for p, r in ((1.0, 3.0), (2.0, 1.5), (3.5, 2.0)):
                c_res = norm_transfer_pair(bounds, coeffs, widths, p, 3.0, r, self.J)
                f_res = norm_transfer_pair(bounds, np.asfortranarray(coeffs), widths, p, 3.0, r, self.J)
                assert tuple(f_res) == tuple(c_res)

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_rejects_inner_exponent_at_or_below_one(self, r):
        with pytest.raises(BadRange):
            norm_transfer_pair((0.0, 1.0), [[1.0]], [0.5], 2.0, 3.0, r, self.J)

    def test_rejects_outer_exponent_below_one(self):
        with pytest.raises(BadRange):
            norm_transfer_pair((0.0, 1.0), [[1.0]], [0.5], 0.5, 3.0, 4.0, self.J)

    def test_rejects_a_nonpositive_radius(self):
        with pytest.raises(NonPositiveRadius):
            norm_transfer_pair((0.0, 1.0), [[1.0]], [0.5], 2.0, 3.0, 4.0, (0.25, 0.0))

    def test_rejects_no_inner_coordinates(self):
        with pytest.raises(EmptyInput):
            norm_transfer_pair((0.0, 1.0), [[]], [], 2.0, 3.0, 4.0, self.J)

    def test_rejects_an_empty_radius_set(self):
        with pytest.raises(EmptyInput):
            norm_transfer_pair((0.0, 1.0), [[1.0]], [0.5], 2.0, 3.0, 4.0, ())

    def test_trials_read_the_radii_once(self):
        # 20 trials run in two blocks, and both see every radius of an iterator
        rows, _ = norm_transfer_trials(0, 20, J=iter(self.J))
        assert rows.tolist() == norm_transfer_trials(0, 20, J=self.J)[0].tolist()

    def test_trials_refuse_an_empty_radius_set(self):
        # only J=None stands for the default radii
        with pytest.raises(EmptyInput):
            norm_transfer_trials(0, 20, J=())

    @pytest.mark.parametrize(
        "bounds, coeffs, widths",
        [("01", [["1"]], "5"), ((0.0, 1.0, 2.0), [[1.0, 2.0], [3.0]], (0.5, 0.5))],
        ids=["text", "ragged-coefficients"],
    )
    def test_rejects_malformed_input(self, bounds, coeffs, widths):
        with pytest.raises(LengthMismatch):
            norm_transfer_pair(bounds, coeffs, widths, 2.0, 3.0, 4.0, self.J)

    def test_averages_are_avg_apply_many_on_each_trial(self, monkeypatch):
        # the rows the blocks hand to qvariation_rows, one per (point,
        # coordinate), are A_t f(x) of each trial's own step function, bit for bit
        seen = []

        def recording(rows, q):
            seen.append(np.array(rows))
            return qvariation_rows(rows, q)

        monkeypatch.setattr(experiments, "qvariation_rows", recording)
        seed, trials, m, n = 4, experiments._TRANSFER_BLOCK + 3, 5, 6
        norm_transfer_trials(seed, trials, m=m, n=n, J=self.J)
        rows = np.concatenate(seen)
        first = 0
        for trial in range(trials):
            bounds, coeffs, _ = transfer_draw(seed + trial, m=m, n=n)
            x = np.concatenate(transfer_pieces(bounds))
            for k in range(m):
                want = avg_apply_many(make_pcf(bounds, coeffs[:, k]), np.array(self.J), x[:, None])
                assert rows[(first + np.arange(x.size)) * m + k].tolist() == want.tolist()
            first += x.size
        assert first * m == len(rows)

    def test_shape_validation(self):
        J = make_radius_set((0.25, 0.0625, 0.015625))
        with pytest.raises(Exception):
            norm_transfer_pair((0.0, 1.0), [[1.0, 2.0]], [0.5], 2.0, 3.0, 4.0, J)
        with pytest.raises(BadRange):
            norm_transfer_pair((0.0, 1.0), [[1.0]], [0.0], 2.0, 3.0, 4.0, J)
        with pytest.raises(BadRange):
            exp_norm_transfer(0, m=0)
        with pytest.raises(NonFiniteValue):
            norm_transfer_pair((0.0, 1.0, 2.0), [[1.0], [math.nan]], [0.5], 2.0, 3.0, 4.0, J)
        with pytest.raises(NonMonotoneBreakpoints):
            norm_transfer_pair((0.0, 1.0, 1.0), [[1.0], [2.0]], [0.5], 2.0, 3.0, 4.0, J)
        with pytest.raises(LengthMismatch):
            norm_transfer_pair((0.0, 1.0, 2.0), [[1.0]], [0.5], 2.0, 3.0, 4.0, J)


class TestTransferStream:
    @pytest.mark.parametrize(
        "seeds", [range(1000), [2**32 - 1, 2**32, 2**64 + 1, 2**128 + 7]], ids=["small", "multi-word"]
    )
    def test_is_numpys_default_rng_stream(self, seeds):
        # numpy.random stays in the tests, as the oracle
        for seed in seeds:
            want = np.random.default_rng(seed).random(40).tolist()
            assert experiments._pcg64_doubles(seed, 40) == want, seed

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 4), (5, 2)])
    def test_block_draws_are_the_per_call_draws(self, m, n):
        seeds = range(50, 50 + experiments._TRANSFER_BLOCK)
        bounds, coeffs, widths = experiments._transfer_draws(seeds, m, n)
        assert bounds.shape == (len(seeds), 2 * n)
        for i, seed in enumerate(seeds):
            want_bounds, want_coeffs, want_widths = transfer_draw(seed, m=m, n=n)
            assert bounds[i].tolist() == want_bounds
            assert coeffs[i].tolist() == want_coeffs.tolist()
            assert widths[i].tolist() == want_widths.tolist()

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", None])
    def test_rejects_a_bad_seed_before_any_draw(self, seed, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before checking the seed")

        monkeypatch.setattr(experiments, "_pcg64_doubles", no_draw)
        with pytest.raises(BadRange):
            norm_transfer_trials(seed, 1)
        with pytest.raises(BadRange):
            exp_norm_transfer(seed)
