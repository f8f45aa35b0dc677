"""End-to-end acceptance gate.

One test per numbered criterion, each printing a single PASS/FAIL line with
its headline numbers (run with ``pytest tests/test_acceptance.py -v -s`` to
see them stream).  Expensive experiment runs are module-scoped fixtures so
the criteria that share them, including the grid-stability recheck, reuse the
same results instead of recomputing.
"""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from varlat import (
    DEFAULT_BASE_CANDIDATES,
    ExperimentConfig,
    GridSpec,
    delta_halving_radius,
    exp_hilbert_growth,
    exp_linf_blowup,
    exp_lr_growth,
    exp_maximal_contrast,
    exp_norm_transfer,
    exp_reduction_constant,
    heat_integral_representation_check,
    hilbert_apply,
    hilbert_inner_norm,
    key_estimate_table,
    make_pcf,
    prune_to_local_extrema,
    qvariation,
    qvariation_bruteforce,
    qvariation_value,
    search_key_params,
    unit_indicator,
)

K_MIN = -120
BLOWUP_DEPTHS = (6, 10, 18, 34, 66)  # j0 + {4, 8, 16, 32, 64} with j0 = 2
HILBERT_R_LIST = (8.0, 16.0, 32.0, 64.0)


def _announce(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} {name}: {detail}")


def _random_step_fn(rng) -> "make_pcf":
    n = int(rng.integers(1, 9))
    while True:
        bps = np.sort(rng.uniform(-2.0, 2.0, n + 1))
        if np.all(np.diff(bps) >= 1e-6):
            break
    return make_pcf(bps, rng.uniform(-2.0, 2.0, n))


@dataclass(frozen=True)
class Timed:
    result: object
    seconds: float


def _timed(fn, *args, **kwargs) -> Timed:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return Timed(out, time.perf_counter() - t0)


@pytest.fixture(scope="module")
def base_config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def blowup_run(base_config):
    return _timed(exp_linf_blowup, base_config, BLOWUP_DEPTHS)


@pytest.fixture(scope="module")
def contrast_run(base_config, blowup_run):
    # ordered after blowup_run so the shared profile cache is already warm
    return _timed(exp_maximal_contrast, base_config, BLOWUP_DEPTHS)


@pytest.fixture(scope="module")
def lr_run(base_config):
    return _timed(exp_lr_growth, base_config)


@pytest.fixture(scope="module")
def hilbert_config():
    return ExperimentConfig(r_list=HILBERT_R_LIST)


@pytest.fixture(scope="module")
def hilbert_run(hilbert_config):
    return _timed(exp_hilbert_growth, hilbert_config)


def test_criterion_01_reduction_constant():
    timed = _timed(exp_reduction_constant, 2048)
    err = abs(timed.result - 0.5)
    ok = err <= 1e-6 and timed.seconds < 1.0
    _announce(1, "reduction-constant", ok,
              f"value={timed.result:.12f} err={err:.2e} ({timed.seconds:.2f}s)")
    assert err <= 1e-6
    assert timed.seconds < 1.0


def test_criterion_02_integral_representation():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = _random_step_fn(rng)
        s = float(rng.uniform(0.05, 2.0))
        x = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, heat_integral_representation_check(f, s, x, 2048))
    seconds = time.perf_counter() - t0
    ok = worst < 1e-6 and seconds < 10.0
    _announce(2, "integral-representation", ok,
              f"worst residual={worst:.2e} over 100 cases ({seconds:.2f}s)")
    assert worst < 1e-6
    assert seconds < 10.0


def test_criterion_03_variation_dp():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    qs = (1.5, 2.0, 3.0, 5.0)
    for i in range(1000):
        n = int(rng.integers(2, 13))
        v = rng.uniform(-3.0, 3.0, n)
        q = qs[i % 4]
        dp = qvariation(v, q)
        bf = qvariation_bruteforce(v, q)
        assert math.isclose(dp.value, bf.value, rel_tol=1e-12, abs_tol=1e-15)
        along = v[list(dp.subsequence)]
        recomputed = float(np.sum(np.abs(np.diff(along)) ** q) ** (1.0 / q))
        assert math.isclose(recomputed, dp.value, rel_tol=1e-12, abs_tol=1e-15)

    for i in range(200):
        n = int(rng.integers(2, 201))
        v = rng.choice([-1.0, -0.25, 0.0, 0.5, 1.0], size=n)
        pruned, _ = prune_to_local_extrema(v)
        for q in (1.0, 2.0, 3.0):
            assert math.isclose(
                qvariation_value(pruned, q), qvariation_value(v, q),
                rel_tol=1e-12, abs_tol=1e-15,
            )
    seconds = time.perf_counter() - t0
    ok = seconds < 30.0
    _announce(3, "variation-dp", ok,
              f"1000 dp-vs-bruteforce + 200 pruning checks clean ({seconds:.2f}s)")
    assert seconds < 30.0


def test_criterion_04_key_estimate():
    t0 = time.perf_counter()
    params = search_key_params(DEFAULT_BASE_CANDIDATES, K_MIN)
    table = key_estimate_table(params.a, K_MIN, 40)
    stab = max(abs(table[j + 2] - table[j]) for j in range(20, 39))
    seconds = time.perf_counter() - t0
    ok = params.key_constant >= 1e-4 and stab < 1e-6 and seconds < 10.0
    _announce(4, "key-estimate", ok,
              f"a={params.a:g} C={params.key_constant:.6g} "
              f"stabilization={stab:.2e} ({seconds:.2f}s)")
    assert params.key_constant >= 1e-4
    assert stab < 1e-6
    assert seconds < 10.0


def test_criterion_05_linf_blowup(base_config, blowup_run):
    res = blowup_run.result
    ratios = [rep.ratio for rep in res.reports]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    target_slope = 1.0 / base_config.q
    den_err = abs(res.reports[0].denominator / res.denominator_target - 1.0)
    ok = (
        increasing
        and res.fit is not None
        and abs(res.fit.slope - target_slope) <= 0.15
        and res.fit.r_squared >= 0.98
        and den_err <= 0.01
        and blowup_run.seconds < 300.0
    )
    _announce(5, "linf-blowup", ok,
              f"slope={res.fit.slope:.4f} (target {target_slope:.4f}) "
              f"r2={res.fit.r_squared:.5f} den_err={den_err:.2e} "
              f"({blowup_run.seconds:.1f}s)")
    assert increasing
    assert abs(res.fit.slope - target_slope) <= 0.15
    assert res.fit.r_squared >= 0.98
    assert den_err <= 0.01
    assert res.passed
    assert blowup_run.seconds < 300.0


def test_criterion_06_maximal_contrast(contrast_run):
    res = contrast_run.result
    ok = res.maximal_spread < 0.25 and res.variation_growth > 2.0
    _announce(6, "maximal-contrast", ok,
              f"maximal spread={res.maximal_spread:.4f} (< 0.25) "
              f"variation growth={res.variation_growth:.2f}x (> 2x) "
              f"({contrast_run.seconds:.1f}s shared)")
    assert res.maximal_spread < 0.25
    assert res.variation_growth > 2.0
    assert res.passed


def test_criterion_07_lr_growth(base_config, lr_run):
    res = lr_run.result
    target_slope = 1.0 / base_config.q
    margins = [rep.ratio / b for rep, b in zip(res.reports, res.bound_values)]
    ok = (
        res.fit is not None
        and abs(res.fit.slope - target_slope) <= 0.15
        and res.fit.r_squared >= 0.95
        and all(m >= 1.0 for m in margins)
        and lr_run.seconds < 900.0
    )
    _announce(7, "lr-growth", ok,
              f"slope={res.fit.slope:.4f} (target {target_slope:.4f}) "
              f"r2={res.fit.r_squared:.5f} min bound margin={min(margins):.2f}x "
              f"({lr_run.seconds:.1f}s)")
    assert abs(res.fit.slope - target_slope) <= 0.15
    assert res.fit.r_squared >= 0.95
    for rep, bound in zip(res.reports, res.bound_values):
        assert rep.ratio >= bound
    assert res.delta_radius > 0
    assert res.passed
    assert lr_run.seconds < 900.0


def test_criterion_08_hilbert_growth(hilbert_config, hilbert_run):
    t0 = time.perf_counter()
    l2 = hilbert_inner_norm(2.0)
    l2_err = abs(l2 - math.pi / math.sqrt(3.0))
    u = unit_indicator()
    pointwise_ok = all(
        abs(hilbert_apply(u, float(x))) >= 0.5 * math.log(1.0 / x)
        for x in np.geomspace(1e-9, math.exp(-5.0), 20)
    )
    extra_seconds = time.perf_counter() - t0

    res = hilbert_run.result
    margins = [rep.ratio / b for rep, b in zip(res.reports, res.bound_values)]
    total = hilbert_run.seconds + extra_seconds
    ok = (
        l2_err <= 1e-3
        and pointwise_ok
        and res.fit is not None
        and 0.9 <= res.fit.slope <= 1.1
        and all(m >= 1.0 for m in margins)
        and total < 120.0
    )
    _announce(8, "hilbert-growth", ok,
              f"L2={l2:.6f} (err {l2_err:.1e}) pointwise=20/20 "
              f"slope={res.fit.slope:.4f} min bound margin={min(margins):.2f}x "
              f"({total:.1f}s)")
    assert l2_err <= 1e-3
    assert pointwise_ok
    assert 0.9 <= res.fit.slope <= 1.1
    for rep, bound in zip(res.reports, res.bound_values):
        assert rep.ratio >= bound
    assert res.passed
    assert total < 120.0


def test_criterion_09_norm_transfer():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        worst = max(worst, exp_norm_transfer(seed).max_rel_discrepancy)
    seconds = time.perf_counter() - t0
    ok = worst <= 1e-10 and seconds < 60.0
    _announce(9, "norm-transfer", ok,
              f"worst relative discrepancy={worst:.2e} over 100 seeds "
              f"({seconds:.1f}s)")
    assert worst <= 1e-10
    assert seconds < 60.0


def test_criterion_10_grid_stability(base_config, hilbert_config,
                                     blowup_run, lr_run, hilbert_run):
    doubled = GridSpec().doubled()
    fine_base = ExperimentConfig(grid=doubled)
    fine_hilbert = ExperimentConfig(r_list=HILBERT_R_LIST, grid=doubled)

    t0 = time.perf_counter()
    fine_blowup = exp_linf_blowup(fine_base, BLOWUP_DEPTHS)
    fine_lr = exp_lr_growth(fine_base)
    fine_hil = exp_hilbert_growth(fine_hilbert)
    seconds = time.perf_counter() - t0

    def max_shift(coarse, fine):
        return max(
            abs(f.ratio / c.ratio - 1.0)
            for c, f in zip(coarse.reports, fine.reports)
        )

    shifts = {
        "linf": max_shift(blowup_run.result, fine_blowup),
        "lr": max_shift(lr_run.result, fine_lr),
        "hilbert": max_shift(hilbert_run.result, fine_hil),
    }
    worst = max(shifts.values())
    ok = worst < 0.01
    _announce(10, "grid-stability", ok,
              " ".join(f"{k}={v:.2e}" for k, v in shifts.items())
              + f" (all < 1%) ({seconds:.1f}s)")
    for name, shift in shifts.items():
        assert shift < 0.01, f"{name} ratios moved {shift:.3%} under grid doubling"
