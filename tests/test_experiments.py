import math
import tracemalloc
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest

from varlat import experiments
from varlat import (
    HILBERT_R_LIST,
    BadRange,
    ExperimentConfig,
    FloatRangeExceeded,
    GridSpec,
    InvalidQ,
    LacunaryParams,
    LengthMismatch,
    NonFiniteValue,
    NonMonotoneBreakpoints,
    OperatorFamily,
    RatioReport,
    default_lacunary,
    exp_hilbert_growth,
    exp_key_estimate,
    exp_linf_blowup,
    exp_maximal_contrast,
    exp_norm_transfer,
    exp_reduction_constant,
    bochner_norm,
    heat_of_g_matrix,
    hilbert_apply,
    hilbert_inner_norm,
    integral_norm,
    lacunary_sign,
    lr_numerator,
    make_grid,
    make_pcf,
    make_profile,
    make_radius_set,
    make_vector_field,
    maximal_profile,
    norm_transfer_pair,
    norm_transfer_trials,
    pcf_eval_many,
    qvariation_rows,
    sequence_norm,
    sliding_power_sum,
    sliding_sup,
    trapezoid_weights,
    unit_indicator,
    variation_profile,
    vector_variation_field,
)
from varlat.experiments import DEFAULT_BASE, DEFAULT_J0, DEFAULT_K_MIN, _lr_depth

CERTIFIED_BASE2 = 0.0173073522282


class TestConfigTypes:
    def test_grid_spec_defaults_valid(self):
        assert GridSpec().log_points_per_decade == 32

    def test_grid_spec_rejects_coarse_grids(self):
        with pytest.raises(BadRange):
            GridSpec(log_points_per_decade=3)

    def test_grid_spec_doubling(self):
        assert GridSpec(log_points_per_decade=8).doubled().log_points_per_decade == 16

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
            RatioReport(4.0, 1.0, denominator, math.inf, 0.0)


class TestKeyEstimateExperiment:
    def test_default_configuration_passes(self):
        res = exp_key_estimate(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0)
        assert res.passed
        assert res.reason == ""
        assert res.certified_c == pytest.approx(CERTIFIED_BASE2, abs=1e-10)
        assert len(res.table) == 31

    def test_shallow_truncation_reported_not_raised(self):
        res = exp_key_estimate(1.000000001, -120, 2)
        assert not res.passed
        assert res.certified_c == 0.0
        assert res.table == ()
        assert "tail" in res.reason

    def test_subthreshold_constant_reported(self):
        res = exp_key_estimate(1.3, -400, 2)
        assert not res.passed
        assert 0 < res.certified_c < 1e-4
        assert "below" in res.reason

    def test_rejects_window_short_of_j0(self):
        with pytest.raises(BadRange):
            exp_key_estimate(DEFAULT_BASE, DEFAULT_K_MIN, DEFAULT_J0, j_max=1)


class TestBlowupSmallRuns:
    # a coarse grid keeps these interactive; the full-resolution runs are
    # exercised by the acceptance suite
    CONFIG = ExperimentConfig(grid=GridSpec(log_points_per_decade=8))
    DEPTHS = (4, 6, 8)

    def test_ratios_increase_and_denominator_lands(self):
        res = exp_linf_blowup(self.CONFIG, self.DEPTHS)
        ratios = [rep.ratio for rep in res.reports]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        target = 3.0 ** (1.0 / self.CONFIG.p)
        assert res.denominator_target == pytest.approx(target, rel=1e-15)
        assert abs(res.reports[0].denominator / target - 1.0) <= 0.01

    def test_contrast_shares_variation_ratios_exactly(self):
        blow = exp_linf_blowup(self.CONFIG, self.DEPTHS)
        contrast = exp_maximal_contrast(self.CONFIG, self.DEPTHS)
        j0 = self.CONFIG.lacunary.j0
        for rep, pair in zip(blow.reports, contrast.pairs):
            assert rep.param == pair.j1 - j0
            assert pair.variation_ratio == rep.ratio

    def test_maximal_ratio_flat_while_variation_grows(self):
        contrast = exp_maximal_contrast(self.CONFIG, self.DEPTHS)
        assert contrast.maximal_spread < 0.25
        assert contrast.variation_growth > 1.2

    def test_profile_bundle_builds_one_family_matrix_per_depth(self, monkeypatch):
        calls = []
        original = experiments.heat_of_g_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "heat_of_g_matrix", counting)
        for j1 in self.DEPTHS:
            experiments._profile_bundle(self.CONFIG, j1)
        assert len(calls) == len(self.DEPTHS)

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
                experiments._profile_bundle(config, j1)

    def test_bundle_profiles_match_standalone_profiles(self):
        lac = self.CONFIG.lacunary
        j1 = self.DEPTHS[-1]
        pts, weights, var, mx = experiments._profile_bundle(self.CONFIG, j1)
        assert np.all(np.abs(pts) <= lac.a ** (-(j1 + 1.0))) and np.all(np.diff(pts) > 0)
        assert weights.shape == pts.shape and weights[pts == 0.0].tolist() == [0.0]
        core_grid = make_grid(pts)
        # the time route: the heat times themselves, which the bundle takes
        # at their roots; sqrt(2^(-2j)) is exact, so a = 2 matches bit for bit
        J = make_radius_set(lac.a ** (-2.0 * np.arange(lac.j0, j1 + 1)))
        witness = lacunary_sign(lac.a, lac.k_min)
        want_var = variation_profile(witness, OperatorFamily.HEAT, J, core_grid, self.CONFIG.q)
        want_max = maximal_profile(witness, OperatorFamily.HEAT, J, core_grid)
        assert var.tolist() == want_var.values_array.tolist()
        assert mx.tolist() == want_max.values_array.tolist()

    def test_depth_list_validation(self):
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (4,))
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (6, 4))

    def test_depths_must_exceed_j0(self):
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (2, 4))


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
        grid = make_grid(pts)
        prof = make_profile(grid, np.abs(pcf_eval_many(lacunary_sign(lac.a, lac.k_min), pts)))
        swept = sliding_sup(prof, 1.0) if r is None else sliding_power_sum(prof, 1.0, r)
        v = swept.values_array
        return float(v.max()) if p == math.inf else float((grid.weights_array @ v**p) ** (1.0 / p))

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

    CONFIG = ExperimentConfig(grid=GridSpec(log_points_per_decade=8))
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
        window, floor = lac.a ** (-(j1 + 1.0)), lac.a ** (-(j1 + 4.0))
        top = max(0.1, window * lac.a**2)
        n_log = max(8, math.ceil(math.log10(top / floor) * config.grid.log_points_per_decade))
        ladder = np.geomspace(floor, top, n_log)
        # linear points at or inside the first ladder point past the window
        # would refine the core itself; leaving them out keeps the core and
        # its weights as the closed form has them, so only the outer
        # integral differs
        guard = ladder[np.searchsorted(ladder, window, side="right")]
        xs = np.linspace(0.0, 1.0, n_x)
        pts = np.unique(np.concatenate((-ladder, [0.0], ladder, xs[xs > guard])))
        w = trapezoid_weights(pts)
        i0 = int(np.searchsorted(pts, 0.0))
        w[i0] = 0.0
        w[i0 - 1] = (pts[i0 - 1] - pts[i0 - 2]) / 2.0
        w[i0 + 1] = (pts[i0 + 2] - pts[i0 + 1]) / 2.0
        core = np.abs(pts) <= window
        matrix = heat_of_g_matrix(lac.a, lac.k_min, range(lac.j0, j1 + 1), pts[core]).T
        vals = np.zeros(pts.size)
        vals[core] = qvariation_rows(matrix, config.q)
        prof = make_profile(make_grid(pts, w), vals)
        swept = sliding_sup(prof, 1.0) if r is None else sliding_power_sum(prof, 1.0, r)
        unit = (pts >= 0.0) & (pts <= 1.0)
        v = swept.values_array[unit]
        return float(v.max()) if p == math.inf else float((w[unit] @ v**p) ** (1.0 / p))

    @staticmethod
    def _numerator(config, j1, r):
        if r is None:
            return experiments._blowup_numerators(config, j1)[0]
        return lr_numerator(config, r)

    @pytest.mark.parametrize("p", P_LIST)
    @pytest.mark.parametrize("j1, r", CASES)
    def test_at_or_below_exact_integral_within_sliver(self, p, j1, r):
        config = replace(self.CONFIG, p=p)
        points, weights, var, mx = experiments._profile_bundle(config, j1)
        if r is None:
            pairs = zip((var, mx), experiments._blowup_numerators(config, j1))
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
        coarse = ExperimentConfig(r_list=(8.0, 16.0, 32.0), grid=GridSpec(log_points_per_decade=4))
        fine = ExperimentConfig(r_list=(8.0, 16.0, 32.0), grid=GridSpec().doubled())
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


def composed_norm_transfer(bounds, coeffs, widths, p, q, r, J):
    """The norm-transfer fields of one simple function, composed trial by
    trial from step functions, a grid, vector fields and Bochner norms."""
    fns = [make_pcf(bounds, coeffs[:, k]) for k in range(widths.size)]
    pieces = []
    for left, right in zip(bounds[:-1], bounds[1:]):
        sub = max(1, int(math.ceil((right - left) / 0.1)))
        pieces.append(left + (right - left) / sub * (np.arange(sub) + 0.5))
    x_pts = np.concatenate(pieces)
    x_w = np.concatenate(
        [np.full(len(block), (right - left) / len(block))
         for block, left, right in zip(pieces, bounds[:-1], bounds[1:])]
    )
    grid = make_grid(x_pts, x_w)
    plain = np.stack([pcf_eval_many(f, x_pts) for f in fns], axis=1)
    scale = widths ** (1.0 / r)
    ones = np.ones_like(widths)
    var = vector_variation_field(fns, OperatorFamily.AVERAGES, J, grid, q, integral_norm(r), widths)
    norms = (
        bochner_norm(make_vector_field(grid, plain, integral_norm(r), widths), p),
        bochner_norm(make_vector_field(grid, plain * scale, sequence_norm(r), ones), p),
        bochner_norm(var, p),
        bochner_norm(make_vector_field(grid, var.values_array * scale, sequence_norm(r), ones), p),
    )
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
            assert tuple(row) == astuple(exp_norm_transfer(11 + i))
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
