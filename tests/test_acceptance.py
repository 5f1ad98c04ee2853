"""End-to-end acceptance suite.

One test per shipped guarantee.  Each test asserts the guarantee at its
stated numeric tolerance and measures its own runtime against the stated
budget, so ``pytest -v tests/test_acceptance.py`` reads as a checklist
with one pass/fail line per guarantee.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from levyou import approx, presets, strategy, valuation
from levyou._backend import get_kernels
from levyou.market import (
    SimConfig,
    analytic_mean,
    analytic_variance,
    build_sim_inputs,
    simulate_paths,
)

SEED = 20120808
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    """Load the compiled kernels before any runtime budget starts."""
    preset = presets.get_preset("benth2012")
    cfg = SimConfig(n_paths=8, n_steps=4, seed=1)
    simulate_paths(preset.market, 0.0, preset.s0, preset.horizon, cfg)
    valuation.estimate_value(preset.market, 0.0, preset.s0, preset.horizon,
                             preset.pi_min, preset.pi_max, config=cfg)
    valuation.compare_strategies(preset.market, 0.0, preset.s0, 1.0,
                                 preset.horizon, preset.pi_min,
                                 preset.pi_max, config=cfg)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"runtime {elapsed:.1f}s exceeded the {self.seconds}s budget"
        )


def _figure_grids(b_fracs, n_points=200):
    """Exact/merton/jump-mean fractions per drift regime on the open
    interior (0, flat price), plus the evaluation grid."""
    out = {}
    for frac in b_fracs:
        preset = presets.get_preset("benth2012", b_frac=frac)
        market = preset.market
        s_flat = market.b / market.lam
        s_values = np.linspace(0.0, s_flat, n_points + 2)[1:-1]
        pi_exact, _ = strategy.optimal_fraction_grid(
            market, 0.0, s_values, preset.pi_min, preset.pi_max
        )
        pi_merton, _, _ = approx.merton_fraction_grid(
            market, 0.0, s_values, preset.pi_min, preset.pi_max
        )
        pi_jump_mean, _, _ = approx.jump_mean_fraction_grid(
            market, 0.0, s_values, preset.pi_min, preset.pi_max
        )
        out[frac] = (preset, s_values, pi_exact, pi_merton, pi_jump_mean)
    return out


def test_calibration_moments():
    budget = _Budget(1.0)
    measure = presets.get_preset("benth2012").market.measure
    # Second moment of the jump-size distribution.
    assert measure.size_second_moment == pytest.approx(0.6254, abs=1e-3)
    # Second moment of the measure itself (hourly rate times size moment).
    assert measure.moment(2) == pytest.approx(0.0971, abs=1e-3)
    budget.check()


def test_closed_form_drag_matches_quadrature():
    budget = _Budget(1.0)
    measure = presets.get_preset("benth2012").market.measure
    for pi in (0.01, 0.1, 1.0, 10.0, 100.0):
        closed = measure.drag(pi, 1.0)
        quad = measure.drag_integral(pi, 1.0)
        assert closed == pytest.approx(quad, rel=1e-6), f"pi={pi}"
    budget.check()


def test_exact_solver_anchors():
    budget = _Budget(5.0)
    # Zero position exactly at the flat price.
    preset = presets.get_preset("benth2012")
    market = preset.market
    s_flat = market.b / market.lam
    opt = strategy.optimal_fraction(market, 0.0, s_flat,
                                    preset.pi_min, preset.pi_max)
    assert abs(opt.value) <= 1e-9

    # Jump-free model: solver equals the closed diffusion ratio.
    gauss = presets.get_preset("gaussian")
    gm = gauss.market
    s_values = np.linspace(0.05, 0.75, 100)  # keeps the ratio unclamped
    pi_grid, _ = strategy.optimal_fraction_grid(
        gm, 0.0, s_values, gauss.pi_min, gauss.pi_max
    )
    expected = (gm.b - gm.lam * s_values) / gm.sigma ** 2
    np.testing.assert_allclose(pi_grid, expected, atol=1e-8, rtol=1e-8)
    budget.check()


def test_fraction_ordering_across_drift_regimes():
    budget = _Budget(30.0)
    grids = _figure_grids((1.5, 0.8, 0.5, 0.2))
    for frac, (preset, s_values, exact, merton, jump_mean) in grids.items():
        # Ordering merton <= exact <= jump-mean at every interior point.
        assert np.all(merton <= exact + 1e-8), f"b_frac={frac}"
        assert np.all(exact <= jump_mean + 1e-8), f"b_frac={frac}"
        # All three vanish identically at and beyond the flat price.
        market = preset.market
        s_flat = market.b / market.lam
        for s in (s_flat, 1.05 * s_flat, 1.5 * s_flat, 3.0 * s_flat):
            assert strategy.optimal_fraction(
                market, 0.0, s, preset.pi_min, preset.pi_max
            ).value == 0.0
            assert approx.merton_fraction(
                market, 0.0, s, preset.pi_min, preset.pi_max
            ).value == 0.0
            assert approx.jump_mean_fraction(
                market, 0.0, s, preset.pi_min, preset.pi_max
            ).value == 0.0
    # The jump-mean approximation tightens as the drift grows.
    gap_high = np.max(np.abs(grids[1.5][2] - grids[1.5][4]))
    gap_low = np.max(np.abs(grids[0.2][2] - grids[0.2][4]))
    assert gap_high < gap_low
    budget.check()


def test_error_bounds_dominate_observed_gaps():
    budget = _Budget(30.0)
    # Jump-mean bound covers the observed gap in every drift regime.
    grids = _figure_grids((1.5, 0.8, 0.5, 0.2))
    for frac, (preset, s_values, exact, merton, jump_mean) in grids.items():
        bound = approx.jump_mean_error_bound(
            preset.market, preset.pi_min, preset.pi_max
        )
        observed = float(np.max(np.abs(exact - jump_mean)))
        assert bound.is_finite
        assert bound.bound_value >= observed, f"b_frac={frac}"

    # The third-moment bound is infinite for the heavy-tailed preset.
    preset = presets.get_preset("benth2012")
    mb = approx.merton_error_bound(preset.market, preset.pi_min,
                                   preset.pi_max)
    assert math.isinf(mb.bound_value) and not mb.is_finite

    # Bounded two-sided jumps: the same bound covers the observed gap.
    uni = presets.get_preset("uniform-two-sided")
    s_values = np.linspace(-1.0, 1.6, 200)
    exact, _ = strategy.optimal_fraction_grid(
        uni.market, 0.0, s_values, uni.pi_min, uni.pi_max
    )
    merton, _, _ = approx.merton_fraction_grid(
        uni.market, 0.0, s_values, uni.pi_min, uni.pi_max
    )
    ub = approx.merton_error_bound(uni.market, uni.pi_min, uni.pi_max)
    observed = float(np.max(np.abs(exact - merton)))
    assert ub.is_finite
    assert ub.bound_value >= observed
    budget.check()


def test_simulation_reproduces_analytic_moments():
    budget = _Budget(60.0)
    preset = presets.get_preset("benth2012")
    cfg = SimConfig(n_paths=100_000, n_steps=96, seed=SEED)
    bundle = simulate_paths(preset.market, 0.0, preset.s0, preset.horizon,
                            cfg)
    terminal = bundle.prices[:, -1]
    n = terminal.shape[0]

    emp_mean = float(np.mean(terminal))
    se_mean = float(np.std(terminal, ddof=1) / math.sqrt(n))
    ana_mean = analytic_mean(preset.market, 0.0, preset.s0, preset.horizon)
    assert abs(emp_mean - ana_mean) <= 3.0 * se_mean

    dev_sq = (terminal - emp_mean) ** 2
    emp_var = float(np.sum(dev_sq) / (n - 1))
    se_var = float(np.std(dev_sq, ddof=1) / math.sqrt(n))
    ana_var = analytic_variance(preset.market, 0.0, preset.horizon)
    assert abs(emp_var - ana_var) <= 3.0 * se_var

    # Nonnegative jumps from a nonnegative start: prices stay >= 0.
    assert int(np.count_nonzero(bundle.prices < 0.0)) == 0
    budget.check()


def test_conditioning_consistency_of_the_value_estimate():
    budget = _Budget(120.0)
    preset = presets.get_preset("benth2012")
    cfg = SimConfig(n_paths=10_000, n_steps=96, seed=SEED)
    half = 0.5 * preset.horizon
    report = valuation.tower_check(
        preset.market, 0.0, preset.s0, half, preset.horizon,
        preset.pi_min, preset.pi_max, config=cfg,
    )
    assert abs(report.discrepancy) <= 3.0 * report.std_err

    # No time left means exactly zero reward.
    for s in (4.0, 5.0, 6.0):
        estimate = valuation.estimate_value(
            preset.market, preset.horizon, s, preset.horizon,
            preset.pi_min, preset.pi_max, config=cfg,
        )
        assert estimate.g_hat == 0.0 and estimate.std_err == 0.0
    budget.check()


def test_exact_strategy_is_empirically_optimal():
    budget = _Budget(120.0)
    preset = presets.get_preset("benth2012")
    cfg = SimConfig(n_paths=10_000, n_steps=96, seed=SEED)
    x0 = 1.0
    report = valuation.compare_strategies(
        preset.market, 0.0, preset.s0, x0, preset.horizon,
        preset.pi_min, preset.pi_max, config=cfg,
    )
    for label in ("merton", "jump_mean", "zero"):
        score = report.score(label)
        assert score.gap_to_ref >= -3.0 * score.gap_std_err, (
            f"{label}: gap {score.gap_to_ref} +/- {score.gap_std_err}"
        )

    # Mean log-wealth under the exact surface matches the value estimate.
    estimate = valuation.estimate_value(
        preset.market, 0.0, preset.s0, preset.horizon,
        preset.pi_min, preset.pi_max, config=cfg,
    )
    exact = report.score("exact")
    diff = exact.mean_log_wealth - (math.log(x0) + estimate.g_hat)
    combined = math.hypot(exact.std_err, estimate.std_err)
    assert abs(diff) <= 3.0 * combined
    budget.check()


def test_property_suite():
    budget = _Budget(60.0)

    # Concavity of the growth rate in the fraction.
    cases = [
        (presets.get_preset("benth2012"), np.linspace(0.0, 0.25, 81), 5.0),
        (presets.get_preset("uniform-two-sided"),
         np.linspace(-0.8, 1.5, 81), 0.2),
        (presets.get_preset("gaussian"), np.linspace(-3.0, 3.0, 81), 0.1),
    ]
    for preset, pi_grid, s in cases:
        values = np.array([
            strategy.growth_rate(pi, preset.market, 0.0, s)
            for pi in pi_grid
        ])
        second_diff = values[2:] - 2.0 * values[1:-1] + values[:-2]
        assert np.all(second_diff <= 1e-10), preset.name

    # Monotonicity and a uniform Lipschitz constant for the fraction in s.
    preset = presets.get_preset("benth2012")
    market = preset.market
    s_values = np.linspace(4.0, 7.0, 101)
    pi_grid, _ = strategy.optimal_fraction_grid(
        market, 0.0, s_values, preset.pi_min, preset.pi_max
    )
    diffs = np.diff(pi_grid)
    assert np.all(diffs <= 1e-12)  # never increases with the price
    curv_min = market.sigma ** 2 + market.measure.curvature_integral(
        preset.pi_max, market.psi
    )
    lipschitz = market.lam / curv_min
    ds = s_values[1] - s_values[0]
    assert np.max(np.abs(diffs)) <= lipschitz * ds * (1.0 + 1e-9) + 1e-12

    # Inverse-price round trip.
    for pi in (0.02, 0.05, 0.1, 0.15, 0.19):
        s = strategy.inverse_price(market, 0.0, pi)
        back = strategy.optimal_fraction(market, 0.0, s,
                                         preset.pi_min, preset.pi_max)
        assert back.value == pytest.approx(pi, abs=1e-10)

    # Envelope derivative of the optimal growth vs finite differences.
    for pre, s in ((preset, 5.0), (presets.get_preset("gaussian"), 0.3)):
        m = pre.market
        _, g_s = strategy.best_growth_gradient(m, 0.0, s,
                                               pre.pi_min, pre.pi_max)
        h = 1e-4
        fd = (
            strategy.best_growth(m, 0.0, s + h, pre.pi_min, pre.pi_max)
            - strategy.best_growth(m, 0.0, s - h, pre.pi_min, pre.pi_max)
        ) / (2.0 * h)
        assert g_s == pytest.approx(fd, abs=1e-5)

    # Determinism across processes.
    script = (
        "from levyou import presets, valuation\n"
        "from levyou.market import SimConfig\n"
        "p = presets.get_preset('benth2012')\n"
        "v = valuation.estimate_value(p.market, 0.0, p.s0, p.horizon,\n"
        "    p.pi_min, p.pi_max,\n"
        "    config=SimConfig(n_paths=2000, n_steps=32, seed=99))\n"
        "print(f'{v.g_hat:.17g},{v.std_err:.17g}')\n"
    )
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]

    # Determinism across batches: the per-path sums of that run, as one
    # batch and as two path_offset batches, are bitwise equal.
    p = presets.get_preset("benth2012")
    cfg = SimConfig(n_paths=2000, n_steps=32, seed=99)
    est = valuation.estimate_value(p.market, 0.0, p.s0, p.horizon, p.pi_min,
                                   p.pi_max, config=cfg, table_ns=33)
    sim = build_sim_inputs(p.market, 0.0, p.horizon, cfg)
    gt = strategy.growth_table(p.market, sim.times, p.pi_min, p.pi_max,
                               ns=33)
    kern = get_kernels()

    def path_sums(offset, n_paths):
        keys = SimConfig(n_paths, cfg.n_steps, cfg.seed,
                         path_offset=offset).path_keys()
        acc, _ = kern.value_paths(keys, np.full(n_paths, p.s0),
                                  *sim.kernel_args, *gt.kernel_args)
        return acc

    whole = path_sums(0, 2000)
    assert float(np.mean(whole)) == est.g_hat
    split = np.concatenate([path_sums(0, 700), path_sums(700, 1300)])
    assert np.array_equal(split, whole)
    budget.check()
