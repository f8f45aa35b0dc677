import math

import mpmath
import numpy as np
import pytest

from varlat import (
    BadRange,
    ExperimentConfig,
    GridSpec,
    InvalidQ,
    LacunaryParams,
    default_lacunary,
    exp_key_estimate,
    exp_linf_blowup,
    exp_maximal_contrast,
    exp_norm_transfer,
    exp_reduction_constant,
    geometric_radius_set,
    hilbert_apply,
    hilbert_inner_norm,
    lr_numerator,
    norm_transfer_pair,
    unit_indicator,
)
from varlat.experiments import _lr_depth

CERTIFIED_BASE2 = 0.0173073522282


class TestConfigTypes:
    def test_grid_spec_defaults_valid(self):
        gs = GridSpec()
        assert gs.x_min < 0 < 1 < gs.x_max

    def test_grid_spec_rejects_window_missing_unit_interval(self):
        with pytest.raises(BadRange):
            GridSpec(x_min=0.5)

    def test_grid_spec_doubling(self):
        gs = GridSpec(lin_points=101, log_points_per_decade=8)
        fine = gs.doubled()
        assert fine.lin_points == 201
        assert fine.log_points_per_decade == 16
        assert fine.x_min == gs.x_min

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


class TestKeyEstimateExperiment:
    def test_default_configuration_passes(self):
        res = exp_key_estimate(ExperimentConfig())
        assert res.passed
        assert res.reason == ""
        assert res.certified_c == pytest.approx(CERTIFIED_BASE2, abs=1e-10)
        assert len(res.table) == 31

    def test_shallow_truncation_reported_not_raised(self):
        lac = LacunaryParams(a=1.000000001, k_min=-120, j0=2, key_constant=1.0)
        res = exp_key_estimate(ExperimentConfig(lacunary=lac))
        assert not res.passed
        assert res.certified_c == 0.0
        assert res.table == ()
        assert "tail" in res.reason

    def test_subthreshold_constant_reported(self):
        lac = LacunaryParams(a=1.3, k_min=-400, j0=2, key_constant=1.0)
        res = exp_key_estimate(ExperimentConfig(lacunary=lac))
        assert not res.passed
        assert 0 < res.certified_c < 1e-4
        assert "below" in res.reason

    def test_rejects_window_short_of_j0(self):
        with pytest.raises(BadRange):
            exp_key_estimate(ExperimentConfig(), j_max=1)


class TestBlowupSmallRuns:
    # a coarse grid keeps these interactive; the full-resolution runs are
    # exercised by the acceptance suite
    CONFIG = ExperimentConfig(grid=GridSpec(lin_points=301, log_points_per_decade=8))
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

    def test_depth_list_validation(self):
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (4,))
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (6, 4))

    def test_depths_must_exceed_j0(self):
        with pytest.raises(BadRange):
            exp_linf_blowup(self.CONFIG, (2, 4))


class TestLrNumerator:
    CONFIG = ExperimentConfig(grid=GridSpec(lin_points=301, log_points_per_decade=8))

    def test_coarsening_floor_lowers_value(self):
        # the unresolved strip around zero carries no quadrature weight, so
        # raising the innermost resolved scale can only remove area; the
        # lr depth at r = 4 is floor(r) * j0
        j1 = 4 * self.CONFIG.lacunary.j0
        window = self.CONFIG.lacunary.a ** (-(j1 + 1.0))
        full = lr_numerator(self.CONFIG, 4.0)
        coarse = lr_numerator(self.CONFIG, 4.0, min_scale=window / 2.0)
        assert coarse < full

    def test_rejects_floor_outside_window(self):
        j1 = 4 * self.CONFIG.lacunary.j0
        window = self.CONFIG.lacunary.a ** (-(j1 + 1.0))
        with pytest.raises(BadRange):
            lr_numerator(self.CONFIG, 4.0, min_scale=window * 2.0)


class TestHilbertNorms:
    def test_quadratic_norm_closed_form(self):
        assert hilbert_inner_norm(2.0) == pytest.approx(
            math.pi / math.sqrt(3.0), abs=1e-3
        )

    def test_factorial_eta_closed_form(self):
        mpmath.mp.dps = 30
        for r in (8.0, 16.0, 32.0):
            want = float((2 * mpmath.gamma(r + 1) * mpmath.altzeta(r)) ** (1 / mpmath.mpf(r)))
            assert hilbert_inner_norm(r) == pytest.approx(want, rel=5e-4)

    def test_pointwise_log_lower_bound(self):
        u = unit_indicator()
        for x in np.geomspace(1e-9, math.exp(-5.0), 20):
            assert abs(hilbert_apply(u, float(x))) >= 0.5 * math.log(1.0 / x)

    def test_rejects_r_below_one(self):
        with pytest.raises(BadRange):
            hilbert_inner_norm(0.5)


class TestNormTransfer:
    def test_single_block_closed_form(self):
        # one cell of length 2, one inner coordinate of width 0.7, value 1.5:
        # every route reduces to |v| w^(1/r) L^(1/p)
        res = norm_transfer_pair(
            (0.0, 2.0), [[1.5]], [0.7], p=2.0, q=3.0, r=4.0,
            J=geometric_radius_set(2.0, 1, 3),
        )
        want = 1.5 * 0.7**0.25 * 2.0**0.5
        assert res.plain_integral == pytest.approx(want, rel=1e-12)
        assert res.plain_sequence == pytest.approx(want, rel=1e-12)
        assert res.max_rel_discrepancy <= 1e-12

    def test_scaling_homogeneity(self):
        J = geometric_radius_set(2.0, 1, 3)
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
        J = geometric_radius_set(2.0, 1, 3)
        with pytest.raises(Exception):
            norm_transfer_pair((0.0, 1.0), [[1.0, 2.0]], [0.5], 2.0, 3.0, 4.0, J)
        with pytest.raises(BadRange):
            norm_transfer_pair((0.0, 1.0), [[1.0]], [0.0], 2.0, 3.0, 4.0, J)
        with pytest.raises(BadRange):
            exp_norm_transfer(0, m=0)
