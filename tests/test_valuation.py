"""Monte-Carlo value estimates, wealth simulation, paired comparisons,
and the nested consistency check.

The no-jump reference value was computed by deterministic quadrature:
the growth integrand is piecewise quadratic in the price, its expectation
under the analytic Gaussian law is closed-form in Phi/phi, and the outer
time integral was evaluated to 1e-13 — fully independent of the path
simulator under test.
"""

import dataclasses
import math

import numpy as np
import pytest

from levyou import valuation as vl
from levyou.errors import ConfigError, DomainError
from levyou.jumps import ConstantJump, NoJumps, ParetoJump
from levyou.market import (MarketCoefficients, SimConfig, analytic_mean,
                           analytic_variance, simulate_paths)
from levyou.presets import get_preset
from levyou.strategy import PriceTable, best_growth, constant_fraction_table

LAM = 0.3333 / 24
ETA = 3.7249 / 24

# growth integral of the no-jump market below, from (t=0, s=0.1) to T=2
# on the fraction interval [-2, 2]
GAUSSIAN_VALUE = 0.23216774648954533


def gaussian_market():
    return MarketCoefficients(
        lam=0.5, b=0.2, sigma=0.3, psi=0.0, measure=NoJumps(),
    )


def pareto_market(b_frac=0.8):
    meas = ParetoJump(alpha=2.5406, scale=0.3648, rate=ETA)
    return MarketCoefficients(
        lam=LAM, b=b_frac * ETA * meas.mean_size, sigma=0.0, psi=1.0,
        measure=meas,
    )


class TestMeanSE:
    def test_fewer_than_two_samples_have_no_error(self):
        mean, se = vl._mean_se(np.array([2.5]))
        assert mean == 2.5 and math.isnan(se)

    def test_equal_samples_have_zero_error(self):
        assert vl._mean_se(np.full(7, 0.25)) == (0.25, 0.0)
        assert vl._mean_se(np.zeros(2)) == (0.0, 0.0)

    def test_huge_and_tiny_samples_keep_their_error(self):
        for scale in (1e200, 1e300, 1e-300):
            mean, se = vl._mean_se(np.array([1.0, 2.0, 3.0]) * scale)
            assert mean == pytest.approx(2.0 * scale, rel=1e-15)
            assert se == pytest.approx(scale / math.sqrt(3.0), rel=1e-15)

    def test_scaling_moves_no_bit_of_an_ordinary_error(self):
        rng = np.random.default_rng(4)
        for samples in (rng.normal(0.03, 0.01, 1000),
                        rng.pareto(2.5, 5000) * 1e3, -rng.random(3)):
            n = samples.shape[0]
            want = float(np.std(samples, ddof=1) / math.sqrt(n))
            assert vl._mean_se(samples)[1] == want

    def test_z_score(self):
        assert vl.z_score(0.5, 0.25) == 2.0
        assert vl.z_score(0.0, 0.0) == 0.0
        assert math.isnan(vl.z_score(1e-9, 0.0))
        assert math.isnan(vl.z_score(0.5, math.nan))
        report = vl.TowerReport(1.3, 1.0, 0.3, 0.0, n_paths=4, n_inner=2)
        assert math.isnan(report.z_score)


class TestValueEstimate:
    def test_terminal_time_is_exactly_zero(self):
        est = vl.estimate_value(
            gaussian_market(), 2.0, 0.7, 2.0, -2.0, 2.0,
            SimConfig(n_paths=10, n_steps=4, seed=1),
        )
        assert est == vl.ValueEstimate(0.0, 0.0, 0, 1)

    def test_start_past_horizon_rejected(self):
        with pytest.raises(DomainError):
            vl.estimate_value(
                gaussian_market(), 3.0, 0.7, 2.0, -2.0, 2.0,
                SimConfig(n_paths=10, n_steps=4, seed=1),
            )

    def test_matches_deterministic_quadrature(self):
        est = vl.estimate_value(
            gaussian_market(), 0.0, 0.1, 2.0, -2.0, 2.0,
            SimConfig(n_paths=20_000, n_steps=64, seed=20120808),
            backend="numpy",
        )
        assert est.std_err < 2e-3
        assert est.g_hat == pytest.approx(
            GAUSSIAN_VALUE, abs=3.0 * est.std_err
        )

    def test_zero_position_regime_is_exactly_zero(self):
        # drift at or below zero with positive jumps keeps the drift gap
        # negative along every path, so the integrand vanishes identically
        meas = ParetoJump(alpha=2.5406, scale=0.3648, rate=ETA)
        m = MarketCoefficients(
            lam=LAM, b=-0.01, sigma=0.0, psi=1.0, measure=meas,
        )
        est = vl.estimate_value(
            m, 0.0, 5.0, 24.0, 0.0, 0.2,
            SimConfig(n_paths=500, n_steps=48, seed=3), backend="numpy",
        )
        assert est.g_hat == 0.0
        assert est.std_err == 0.0

    def test_deterministic_given_seed(self):
        cfg = SimConfig(n_paths=400, n_steps=24, seed=99)
        a = vl.estimate_value(
            pareto_market(), 0.0, 5.0, 24.0, 0.0, 0.2, cfg, backend="numpy"
        )
        b = vl.estimate_value(
            pareto_market(), 0.0, 5.0, 24.0, 0.0, 0.2, cfg, backend="numpy"
        )
        assert a == b
        c = vl.estimate_value(
            pareto_market(), 0.0, 5.0, 24.0, 0.0, 0.2,
            SimConfig(n_paths=400, n_steps=24, seed=100), backend="numpy",
        )
        assert c.g_hat != a.g_hat

    def test_price_slope_is_lipschitz(self):
        # common random numbers make the finite-difference slope of the
        # estimate obey the pathwise bound max|pi| * (1 - e^{-lam*tau})
        m = pareto_market()
        cfg = SimConfig(n_paths=4_000, n_steps=96, seed=21)
        tau = 24.0
        cap = 0.2 * (-math.expm1(-m.lam * tau))
        prev = vl.estimate_value(
            m, 0.0, 4.0, tau, 0.0, 0.2, cfg, backend="numpy"
        )
        for s in (4.5, 5.0, 5.5, 6.0):
            cur = vl.estimate_value(
                m, 0.0, s, tau, 0.0, 0.2, cfg, backend="numpy"
            )
            slope = abs(cur.g_hat - prev.g_hat) / 0.5
            assert slope <= cap + 1e-3
            prev = cur


def clamped_growth_mean(m, sd, sg2, pi_min, pi_max):
    """E f*(q) for a drift gap q ~ N(m, sd^2) without jumps, where f* is
    pi_min q - sg2 pi_min^2/2 for q <= sg2 pi_min, pi_max q - sg2
    pi_max^2/2 for q >= sg2 pi_max and q^2/(2 sg2) between: each piece
    from the Gaussian moments truncated at the clamp thresholds."""
    from scipy.special import ndtr

    z = (sg2 * np.array([pi_min, pi_max]) - m) / sd
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    p_lo, p_hi = ndtr(z[0]), ndtr(-z[1])
    p_mid = ndtr(z[1]) - p_lo
    q_lo = m * p_lo - sd * pdf[0]
    q_hi = m * p_hi + sd * pdf[1]
    q2_mid = (m * m * p_mid + 2.0 * m * sd * (pdf[0] - pdf[1])
              + sd * sd * (p_mid - (z[1] * pdf[1] - z[0] * pdf[0])))
    return (pi_min * q_lo - 0.5 * sg2 * pi_min * pi_min * p_lo
            + pi_max * q_hi - 0.5 * sg2 * pi_max * pi_max * p_hi
            + q2_mid / (2.0 * sg2))


def no_jump_value(market, s, T, pi_min, pi_max, n_nodes=128):
    """g(0, s) = ∫_0^T E f*(u, S(u)) du for a market without jumps,
    where S(u) is Gaussian with the analytic mean and variance: Gauss-
    Legendre nodes in u over the closed-form expectation at each."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    total = 0.0
    for u, wu in zip(0.5 * T * (x + 1.0), 0.5 * T * w):
        m = market.foc_drift(u) - market.lam * analytic_mean(market, 0.0,
                                                             s, u)
        sd = market.lam * math.sqrt(analytic_variance(market, 0.0, u))
        total += wu * clamped_growth_mean(m, sd, market.sigma_at(u) ** 2,
                                          pi_min, pi_max)
    return float(total)


def time_varying_gaussian_market():
    return MarketCoefficients(
        lam=0.5, b=lambda t: 0.2 + 0.1 * math.sin(2.0 * t),
        sigma=lambda t: 0.3 + 0.05 * t, psi=0.0, measure=NoJumps(),
        sigma_range=(0.3, 0.4),
    )


@pytest.mark.parametrize("market_fn", [
    lambda: get_preset("gaussian").market, time_varying_gaussian_market,
], ids=["gaussian", "time-varying"])
def test_value_estimate_matches_the_gaussian_oracle(market_fn):
    # Without jumps the value is a deterministic integral of closed-form
    # Gaussian expectations, computed here apart from the path simulator.
    market = market_fn()
    g = no_jump_value(market, 0.1, 2.0, -2.0, 2.0)
    assert g == pytest.approx(no_jump_value(market, 0.1, 2.0, -2.0, 2.0, 64),
                              abs=1e-10)
    est = vl.estimate_value(market, 0.0, 0.1, 2.0, -2.0, 2.0,
                            SimConfig(n_paths=20_000, n_steps=96,
                                      seed=20120808))
    assert est.std_err < 1.5e-3
    assert abs(est.g_hat - g) <= 4.0 * est.std_err


def test_gaussian_oracle_is_the_frozen_value():
    p = get_preset("gaussian")
    assert (p.s0, p.horizon, p.pi_min, p.pi_max) == (0.1, 2.0, -2.0, 2.0)
    assert no_jump_value(p.market, p.s0, p.horizon, p.pi_min,
                         p.pi_max) == pytest.approx(GAUSSIAN_VALUE, abs=1e-12)


@pytest.mark.parametrize("name",
                         ["uniform-two-sided", "benth2012", "gaussian"])
def test_no_mean_reversion_value_is_the_growth_rate_times_horizon(name):
    # Without mean reversion the drift gap, hence every strategy, ignores
    # the price, so each path integrates one constant growth rate.
    p = get_preset(name)
    m = dataclasses.replace(p.market, lam=0.0)
    config = SimConfig(n_paths=200, n_steps=12, seed=5)
    est = vl.estimate_value(m, 0.0, p.s0, p.horizon, p.pi_min, p.pi_max,
                            config)
    g = p.horizon * best_growth(m, 0.0, p.s0, p.pi_min, p.pi_max)
    assert est.g_hat == pytest.approx(g, rel=1e-12)
    assert est.std_err < 1e-12 * abs(g)
    report = vl.compare_strategies(m, 0.0, p.s0, 1.0, p.horizon, p.pi_min,
                                   p.pi_max, config)
    assert [row.label for row in report.scores] == list(vl.STRATEGY_KINDS)


class TestWealthSimulate:
    def test_zero_strategy_keeps_wealth_constant(self):
        m = pareto_market()
        cfg = SimConfig(n_paths=300, n_steps=24, seed=4)
        times = np.linspace(0.0, 24.0, 25)
        run = vl.wealth_simulate(
            m, constant_fraction_table(times, 0.0), 0.0, 5.0, 2.5, 24.0,
            cfg, backend="numpy", label="zero",
        )
        assert np.all(run.terminal_log_wealth == math.log(2.5))
        assert run.positivity_violations == 0
        assert run.label == "zero"
        assert run.std_err <= 1e-16

    def test_pure_jump_compounding_is_exact(self):
        # no decay, no drift, no diffusion: wealth is exactly the product
        # of the per-jump factors, and the jump count can be read off the
        # price change
        y0, rate, frac = 0.6, 2.0, 0.3
        m = MarketCoefficients(
            lam=0.0, b=0.0, sigma=0.0, psi=1.0,
            measure=ConstantJump(size=y0, rate=rate), compensated=False,
        )
        cfg = SimConfig(n_paths=500, n_steps=12, seed=6)
        times = np.linspace(0.0, 3.0, 13)
        run = vl.wealth_simulate(
            m, constant_fraction_table(times, frac), 0.0, 1.0, 1.0, 3.0,
            cfg, backend="numpy",
        )
        bundle = simulate_paths(m, 0.0, 1.0, 3.0, cfg, backend="numpy")
        counts = (bundle.prices[:, -1] - 1.0) / y0
        assert np.allclose(counts, np.round(counts), atol=1e-9)
        expect = np.round(counts) * math.log1p(frac * y0)
        np.testing.assert_allclose(
            run.terminal_log_wealth, expect, rtol=1e-12, atol=1e-12
        )

    def test_positivity_across_many_paths(self):
        m = pareto_market()
        cfg = SimConfig(n_paths=100_000, n_steps=96, seed=12)
        times = np.linspace(0.0, 24.0, 97)
        table = vl.strategy_table(m, "exact", times, 0.0, 0.2)
        run = vl.wealth_simulate(
            m, table, 0.0, 5.0, 1.0, 24.0, cfg,
        )
        assert run.positivity_violations == 0
        assert np.all(np.isfinite(run.terminal_log_wealth))

    def test_initial_wealth_shifts_log_terminal(self):
        m = pareto_market()
        cfg = SimConfig(n_paths=100, n_steps=24, seed=9)
        times = np.linspace(0.0, 24.0, 25)
        table = vl.strategy_table(m, "exact", times, 0.0, 0.2)
        one = vl.wealth_simulate(
            m, table, 0.0, 5.0, 1.0, 24.0, cfg, backend="numpy"
        )
        five = vl.wealth_simulate(
            m, table, 0.0, 5.0, 5.0, 24.0, cfg, backend="numpy"
        )
        np.testing.assert_allclose(
            five.terminal_log_wealth - one.terminal_log_wealth,
            math.log(5.0), rtol=1e-12,
        )

    def test_requires_positive_wealth(self):
        m = pareto_market()
        times = np.linspace(0.0, 24.0, 25)
        with pytest.raises(DomainError):
            vl.wealth_simulate(
                m, constant_fraction_table(times, 0.0), 0.0, 5.0, -1.0,
                24.0, SimConfig(n_paths=10, n_steps=24, seed=1),
            )

    def test_table_rows_must_match_grid(self):
        m = pareto_market()
        times = np.linspace(0.0, 24.0, 25)
        with pytest.raises(ConfigError):
            vl.wealth_simulate(
                m, constant_fraction_table(times, 0.0), 0.0, 5.0, 1.0,
                24.0, SimConfig(n_paths=10, n_steps=48, seed=1),
            )

    def test_csv_round_trip(self, tmp_path):
        m = pareto_market()
        cfg = SimConfig(n_paths=40, n_steps=24, seed=14, path_offset=7)
        times = np.linspace(0.0, 24.0, 25)
        table = vl.strategy_table(m, "merton", times, 0.0, 0.2)
        run = vl.wealth_simulate(
            m, table, 0.0, 5.0, 2.0, 24.0, cfg, backend="numpy",
            label="merton",
        )
        path = tmp_path / "wealth.csv"
        run.to_csv(path)
        assert path.read_text().splitlines()[1] == (
            "# label=merton x0=2 seed=14 path_offset=7 n_paths=40 "
            "violations=0")
        rows = np.loadtxt(path, delimiter=",", skiprows=3)
        np.testing.assert_array_equal(rows[:, 0], np.arange(7, 47))
        np.testing.assert_array_equal(rows[:, 1], run.terminal_log_wealth)


class TestStrategyTable:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            vl.strategy_table(
                pareto_market(), "martingale", np.linspace(0, 24, 25),
                0.0, 0.2,
            )

    def test_zero_kind_is_constant_zero(self):
        tab = vl.strategy_table(
            pareto_market(), "zero", np.linspace(0, 24, 25), 0.0, 0.2
        )
        assert np.all(tab.values == 0.0)


class TestCompareStrategies:
    def test_exact_dominates_on_paired_paths(self):
        rep = vl.compare_strategies(
            pareto_market(), 0.0, 5.0, 1.0, 24.0, 0.0, 0.2,
            SimConfig(n_paths=10_000, n_steps=96, seed=1),
        )
        assert rep.reference == "exact"
        exact = rep.score("exact")
        assert exact.gap_to_ref == 0.0
        assert exact.gap_std_err == 0.0
        for label in ("merton", "jump_mean", "zero"):
            row = rep.score(label)
            assert row.gap_to_ref >= -3.0 * row.gap_std_err

    def test_zero_strategy_scores_zero(self):
        rep = vl.compare_strategies(
            pareto_market(), 0.0, 5.0, 1.0, 24.0, 0.0, 0.2,
            SimConfig(n_paths=500, n_steps=24, seed=2), backend="numpy",
        )
        zero = rep.score("zero")
        assert zero.mean_log_wealth == 0.0
        assert zero.std_err == 0.0

    def test_growth_estimate_matches_realized_log_wealth(self):
        # the growth-integral route and the compounded-wealth route are
        # two independent estimators of the same expectation
        cfg = SimConfig(n_paths=10_000, n_steps=96, seed=17)
        m = pareto_market()
        est = vl.estimate_value(m, 0.0, 5.0, 24.0, 0.0, 0.2, cfg)
        times = np.linspace(0.0, 24.0, 97)
        table = vl.strategy_table(m, "exact", times, 0.0, 0.2)
        run = vl.wealth_simulate(m, table, 0.0, 5.0, 1.0, 24.0, cfg)
        z = (est.g_hat - run.mean_log_wealth) / math.hypot(
            est.std_err, run.std_err
        )
        assert abs(z) <= 3.0

    def test_unknown_reference_rejected(self):
        with pytest.raises(ConfigError):
            vl.compare_strategies(
                pareto_market(), 0.0, 5.0, 1.0, 24.0, 0.0, 0.2,
                SimConfig(n_paths=10, n_steps=8, seed=1),
                kinds=("exact", "zero"), reference="merton",
            )

    def test_unknown_score_rejected(self):
        rep = vl.compare_strategies(
            pareto_market(), 0.0, 5.0, 1.0, 24.0, 0.0, 0.2,
            SimConfig(n_paths=50, n_steps=8, seed=1), backend="numpy",
            kinds=("exact", "zero"),
        )
        with pytest.raises(ConfigError):
            rep.score("martingale")


class TestTowerCheck:
    def test_full_horizon_split_is_exactly_zero(self):
        tw = vl.tower_check(
            gaussian_market(), 0.0, 0.1, 2.0, 2.0, -2.0, 2.0,
            SimConfig(n_paths=50, n_steps=16, seed=1), backend="numpy",
        )
        assert tw.discrepancy == 0.0
        assert tw.std_err == 0.0
        assert tw.z_score == 0.0

    def test_midpoint_split_is_consistent(self):
        tw = vl.tower_check(
            gaussian_market(), 0.0, 0.1, 1.0, 2.0, -2.0, 2.0,
            SimConfig(n_paths=800, n_steps=32, seed=13),
        )
        assert abs(tw.z_score) <= 3.0
        assert tw.n_inner == max(2, math.isqrt(800))

    def test_sides_reconcile_with_discrepancy(self):
        tw = vl.tower_check(
            gaussian_market(), 0.0, 0.1, 0.5, 2.0, -2.0, 2.0,
            SimConfig(n_paths=64, n_steps=16, seed=5), backend="numpy",
        )
        assert tw.lhs - tw.rhs == pytest.approx(
            tw.discrepancy, rel=1e-10, abs=1e-15
        )

    def test_zero_position_regime_both_sides_zero(self):
        meas = ParetoJump(alpha=2.5406, scale=0.3648, rate=ETA)
        m = MarketCoefficients(
            lam=LAM, b=-0.01, sigma=0.0, psi=1.0, measure=meas,
        )
        tw = vl.tower_check(
            m, 0.0, 5.0, 12.0, 24.0, 0.0, 0.2,
            SimConfig(n_paths=100, n_steps=16, seed=2), backend="numpy",
        )
        assert tw.lhs == 0.0
        assert tw.rhs == 0.0
        assert tw.discrepancy == 0.0

    def test_bad_split_rejected(self):
        cfg = SimConfig(n_paths=10, n_steps=8, seed=1)
        with pytest.raises(DomainError):
            vl.tower_check(
                gaussian_market(), 0.0, 0.1, 0.0, 2.0, -2.0, 2.0, cfg
            )
        with pytest.raises(DomainError):
            vl.tower_check(
                gaussian_market(), 0.0, 0.1, 2.5, 2.0, -2.0, 2.0, cfg
            )

    def test_split_needs_two_steps(self, monkeypatch):
        one_step = SimConfig(n_paths=10, n_steps=1, seed=1)
        # no split at t+h == T: one step is enough
        tw = vl.tower_check(gaussian_market(), 0.0, 0.1, 2.0, 2.0, -2.0, 2.0,
                            one_step, backend="numpy")
        assert tw.discrepancy == 0.0

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built before the check")

        monkeypatch.setattr(vl, "growth_table", no_table)
        with pytest.raises(ConfigError, match="at least 2 steps"):
            vl.tower_check(gaussian_market(), 0.0, 0.1, 1.0, 2.0, -2.0, 2.0,
                           one_step)


    def test_piece_forms_are_built_once_per_table(self, monkeypatch):
        # The full, head and tail runs read one piece form each; the 40
        # inner runs share the tail's.
        built = []
        pieces = PriceTable.kernel_args.fget
        monkeypatch.setattr(PriceTable, "kernel_args", property(
            lambda table: built.append(1) or pieces(table)))
        tw = vl.tower_check(
            gaussian_market(), 0.0, 0.1, 1.0, 2.0, -2.0, 2.0,
            SimConfig(n_paths=40, n_steps=8, seed=3), backend="numpy",
        )
        assert tw.n_paths == 40
        assert 0 < len(built) <= 3


class TestValueGrid:
    def test_matches_scalar_estimates_exactly(self):
        m = pareto_market()
        cfg = SimConfig(n_paths=300, n_steps=24, seed=30)
        grid = vl.value_grid(
            m, [0.0, 12.0], [4.5, 5.0, 5.5], 24.0, 0.0, 0.2, cfg,
            backend="numpy",
        )
        assert grid.g_hat.shape == (2, 3)
        for i, tv in enumerate((0.0, 12.0)):
            for j, sv in enumerate((4.5, 5.0, 5.5)):
                one = vl.estimate_value(
                    m, tv, sv, 24.0, 0.0, 0.2, cfg, backend="numpy"
                )
                assert grid.g_hat[i, j] == one.g_hat
                assert grid.std_err[i, j] == one.std_err

    def test_terminal_row_is_zero(self):
        m = gaussian_market()
        cfg = SimConfig(n_paths=50, n_steps=8, seed=3)
        grid = vl.value_grid(
            m, [0.0, 2.0], [0.1], 2.0, -2.0, 2.0, cfg, backend="numpy"
        )
        assert grid.g_hat[1, 0] == 0.0
        assert grid.std_err[1, 0] == 0.0

    def test_past_horizon_rejected(self):
        with pytest.raises(DomainError):
            vl.value_grid(
                gaussian_market(), [0.0, 3.0], [0.1], 2.0, -2.0, 2.0,
                SimConfig(n_paths=10, n_steps=8, seed=1), backend="numpy",
            )

    def test_csv_columns(self, tmp_path):
        m = gaussian_market()
        cfg = SimConfig(n_paths=40, n_steps=8, seed=3)
        grid = vl.value_grid(
            m, [0.0, 1.0], [0.0, 0.2], 2.0, -2.0, 2.0, cfg,
            backend="numpy",
        )
        path = tmp_path / "value.csv"
        grid.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[2] == "t,s,g_hat,std_err"
        assert len(lines) == 3 + 4
        first = lines[3].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        assert float(first[2]) == grid.g_hat[0, 0]


# Each entry point with a start price (or a grid of them) and a start
# wealth on benth2012, at a tiny size: name -> call(s, x).
def _entry_points():
    p = get_preset("benth2012")
    m, T, lo, hi = p.market, p.horizon, p.pi_min, p.pi_max
    cfg = SimConfig(n_paths=8, n_steps=4, seed=2)
    table = constant_fraction_table(np.linspace(0.0, T, 5), 0.1)
    return {
        "estimate_value": lambda s, x: vl.estimate_value(
            m, 0.0, s, T, lo, hi, cfg, backend="numpy"),
        "value_grid": lambda s, x: vl.value_grid(
            m, [0.0], [5.0, s], T, lo, hi, cfg, backend="numpy"),
        "wealth_simulate": lambda s, x: vl.wealth_simulate(
            m, table, 0.0, s, x, T, cfg, backend="numpy"),
        "compare_strategies": lambda s, x: vl.compare_strategies(
            m, 0.0, s, x, T, lo, hi, cfg, backend="numpy"),
        "tower_check": lambda s, x: vl.tower_check(
            m, 0.0, s, T / 2, T, lo, hi, cfg, backend="numpy"),
        "simulate_paths": lambda s, x: simulate_paths(
            m, 0.0, s, T, cfg, backend="numpy"),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_start_price_is_rejected(entry, s):
    # a NaN price used to give NaN estimates and "invalid value
    # encountered in cast" warnings from the kernel's table lookup
    call = _entry_points()[entry]
    call(5.0, 1.0)
    with pytest.raises(DomainError, match="start price must be finite"):
        call(s, 1.0)


@pytest.mark.parametrize("entry", ["wealth_simulate", "compare_strategies"])
@pytest.mark.parametrize("x", [math.nan, math.inf, 0.0])
def test_bad_start_wealth_is_rejected(entry, x):
    with pytest.raises(DomainError, match="initial wealth"):
        _entry_points()[entry](5.0, x)


# Each entry point with start and end times on benth2012, at a tiny size:
# name -> call(t, T, h); only the tower check reads h.
def _timed_entry_points():
    p = get_preset("benth2012")
    m, lo, hi = p.market, p.pi_min, p.pi_max
    cfg = SimConfig(n_paths=8, n_steps=4, seed=2)
    table = constant_fraction_table(np.linspace(0.0, p.horizon, 5), 0.1)
    return {
        "estimate_value": lambda t, T, h: vl.estimate_value(
            m, t, 5.0, T, lo, hi, cfg, backend="numpy"),
        "value_grid": lambda t, T, h: vl.value_grid(
            m, [0.0, t], [5.0], T, lo, hi, cfg, backend="numpy"),
        "wealth_simulate": lambda t, T, h: vl.wealth_simulate(
            m, table, t, 5.0, 1.0, T, cfg, backend="numpy"),
        "compare_strategies": lambda t, T, h: vl.compare_strategies(
            m, t, 5.0, 1.0, T, lo, hi, cfg, backend="numpy"),
        "tower_check": lambda t, T, h: vl.tower_check(
            m, t, 5.0, h, T, lo, hi, cfg, backend="numpy"),
        "simulate_paths": lambda t, T, h: simulate_paths(
            m, t, 5.0, T, cfg, backend="numpy"),
    }


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry in sorted(_timed_entry_points())
    for name in ("t", "T", "h") if name != "h" or entry == "tower_check"
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_is_rejected(entry, name, bad):
    # T = inf used to fail on a NaN Poisson mean from the time grid, and a
    # NaN start time as being "past the horizon"
    times = {"t": 0.0, "T": get_preset("benth2012").horizon}
    times["h"] = times["T"] / 2
    call = _timed_entry_points()[entry]
    call(**times)
    times[name] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        call(**times)
