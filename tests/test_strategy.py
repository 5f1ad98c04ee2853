"""Exact optimal fraction: growth-rate objective, stationarity inversion,
clamping thresholds, envelope gradients, surfaces and kernel tables.

Frozen roots and growth values were computed with mpmath (30 digits):
quadrature of the jump integrals plus findroot on the stationarity
condition — independent of the closed-form transforms and the
Chandrupatla root finder used here.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from levyou import market as mk
from levyou import presets
from levyou import strategy as sg
from levyou.errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainError,
)
from levyou.jumps import (
    CompoundPoisson,
    ConstantJump,
    NoJumps,
    ParetoJump,
    UniformJump,
)

LAM = 0.3333 / 24
ETA = 3.7249 / 24
B_CAL = 0.074695526567830715


def pareto_market():
    return mk.MarketCoefficients(
        lam=LAM, b=B_CAL, sigma=0.0, psi=1.0,
        measure=ParetoJump(alpha=2.5406, scale=0.3648, rate=ETA),
    )


def uniform_market():
    return mk.MarketCoefficients(
        lam=0.3, b=0.1, sigma=0.3, psi=1.0,
        measure=UniformJump(-0.5, 1.0, 1.0),
    )


def gaussian_market():
    return mk.MarketCoefficients(
        lam=0.5, b=0.2, sigma=0.3, psi=0.0, measure=NoJumps(),
    )


# (price, frozen root, frozen growth value) for uniform_market on [-0.5, 1]
UNIFORM_REFERENCE = [
    (0.0, 0.33325264599709105, 0.016021455406515222),
    (0.5, -0.13722962012611842, 0.0035120727020182281),
    (-0.5, 0.94096071100573133, 0.11066375033772411),
]

# (price, frozen root, frozen growth value) for pareto_market on [0, 0.2]
PARETO_REFERENCE = [
    (5.0, 0.06797388330892931, 0.00016978779110648162),
    (5.2, 0.029552325870688967, 3.5496915702098285e-5),
]

PARETO_S_FULL = 4.4446711943128716
PARETO_S_FLAT = 5.3786157744612576


class TestGrowthRate:
    def test_zero_fraction_zero_growth(self):
        assert sg.growth_rate(0.0, uniform_market(), 0.0, 1.0) == 0.0

    # The slope of the growth rate in the fraction is q - G(pi): the drift
    # gap less the stationarity map that the solver inverts.
    @staticmethod
    def slope(pi, m, s):
        return sg.drift_gap(m, 0.0, s) - sg._stationarity(m, 0.0, pi)

    def test_slope_at_zero_is_drift_gap(self):
        m = uniform_market()
        s = 0.7
        assert self.slope(0.0, m, s) == pytest.approx(
            0.1 - 0.3 * s, rel=1e-15
        )

    def test_slope_matches_finite_difference(self):
        m = uniform_market()
        h = 1e-6
        for pi in (-0.3, 0.0, 0.4, 0.9):
            fd = (
                sg.growth_rate(pi + h, m, 0.0, 0.3)
                - sg.growth_rate(pi - h, m, 0.0, 0.3)
            ) / (2 * h)
            assert self.slope(pi, m, 0.3) == pytest.approx(
                fd, rel=1e-7, abs=1e-9
            )

    def test_concavity_on_admissible_interval(self):
        m = uniform_market()
        pis = np.linspace(-0.9, 1.8, 41)
        vals = [sg.growth_rate(p, m, 0.0, 0.2) for p in pis]
        second = np.diff(vals, 2)
        assert np.all(second < 0)


class TestOptimalFraction:
    @pytest.mark.parametrize("s,root,_", UNIFORM_REFERENCE)
    def test_uniform_interior_roots(self, s, root, _):
        opt = sg.optimal_fraction(uniform_market(), 0.0, s, -0.5, 1.0)
        assert not opt.clamped
        assert opt.value == pytest.approx(root, rel=1e-10)
        assert abs(opt.residual) < 1e-12

    @pytest.mark.parametrize("s,root,_", PARETO_REFERENCE)
    def test_pareto_interior_roots(self, s, root, _):
        opt = sg.optimal_fraction(pareto_market(), 0.0, s, 0.0, 0.2)
        assert not opt.clamped
        assert opt.value == pytest.approx(root, rel=1e-10)

    def test_pareto_wide_interval_root(self):
        opt = sg.optimal_fraction(pareto_market(), 0.0, 4.0, 0.0, 0.5)
        assert opt.value == pytest.approx(0.33479445963041394, rel=1e-10)

    def test_clamped_high_when_price_low(self):
        opt = sg.optimal_fraction(pareto_market(), 0.0, 4.0, 0.0, 0.2)
        assert opt.clamped and opt.value == 0.2

    def test_clamped_low_when_price_high(self):
        opt = sg.optimal_fraction(pareto_market(), 0.0, 10.0, 0.0, 0.2)
        assert opt.clamped and opt.value == 0.0

    def test_gaussian_closed_form(self):
        m = gaussian_market()
        s = 0.1
        expected = (0.2 - 0.5 * s) / 0.09
        opt = sg.optimal_fraction(m, 0.0, s, -2.0, 2.0)
        assert not opt.clamped
        assert opt.value == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_price(self):
        m = uniform_market()
        s_grid = np.linspace(-1.0, 2.0, 61)
        pi, _ = sg.optimal_fraction_grid(m, 0.0, s_grid, -0.5, 1.0)
        assert np.all(np.diff(pi) <= 1e-12)

    def test_grid_matches_scalar(self):
        m = uniform_market()
        s_grid = np.array([-0.5, 0.0, 0.31, 0.5, 1.7])
        pi, cl = sg.optimal_fraction_grid(m, 0.0, s_grid, -0.5, 1.0)
        for j, s in enumerate(s_grid):
            opt = sg.optimal_fraction(m, 0.0, float(s), -0.5, 1.0)
            assert pi[j] == pytest.approx(opt.value, rel=1e-13, abs=1e-15)
            assert cl[j] == opt.clamped

    def test_invalid_interval_rejected(self):
        with pytest.raises(AdmissibilityError):
            sg.optimal_fraction(pareto_market(), 0.0, 5.0, -0.1, 0.2)

    @pytest.mark.parametrize("name", ["benth2012", "uniform-two-sided",
                                      "gaussian"])
    def test_nan_price_is_rejected(self, name):
        preset = presets.get_preset(name)
        m, lo, hi = preset.market, preset.pi_min, preset.pi_max
        with pytest.raises(DomainError, match="NaN"):
            sg.optimal_fraction(m, 0.0, math.nan, lo, hi)
        with pytest.raises(DomainError, match="NaN"):
            sg.optimal_fraction_grid(m, 0.0, [0.1, math.nan, 0.3], lo, hi)
        with pytest.raises(DomainError, match="NaN"):
            sg.best_growth(m, 0.0, math.nan, lo, hi)

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_solve_reports_iterations_and_residual(self, name):
        preset = presets.get_preset(name)
        m, lo, hi = preset.market, preset.pi_min, preset.pi_max
        s_full, s_flat = sg.clamp_thresholds(m, 0.0, lo, hi)
        opt = sg.optimal_fraction(m, 0.0, 0.5 * (s_full + s_flat), lo, hi)
        assert not opt.clamped
        assert opt.iterations > 0
        assert abs(opt.residual) < 1e-12
        for s in (s_full - 1.0, s_flat + 1.0):
            opt = sg.optimal_fraction(m, 0.0, s, lo, hi)
            assert opt.clamped
            assert opt.iterations == 0
            assert opt.residual == 0.0

    def test_no_risk_is_bang_bang(self):
        m = mk.MarketCoefficients(lam=0.5, b=0.2, sigma=0.0, psi=0.0,
                                  measure=NoJumps())
        lowprice = sg.optimal_fraction(m, 0.0, 0.0, -1.0, 1.0)
        assert lowprice.clamped and lowprice.value == 1.0
        highprice = sg.optimal_fraction(m, 0.0, 10.0, -1.0, 1.0)
        assert highprice.clamped and highprice.value == -1.0


class TestInversePrice:
    def test_round_trip_through_optimum(self):
        m = uniform_market()
        for s in (-0.2, 0.1, 0.45):
            opt = sg.optimal_fraction(m, 0.0, s, -0.5, 1.0)
            assert not opt.clamped
            back = sg.inverse_price(m, 0.0, opt.value)
            assert back == pytest.approx(s, rel=1e-9, abs=1e-9)

    def test_calibrated_thresholds(self):
        s_full, s_flat = sg.clamp_thresholds(pareto_market(), 0.0, 0.0, 0.2)
        assert s_full == pytest.approx(PARETO_S_FULL, rel=1e-12)
        assert s_flat == pytest.approx(PARETO_S_FLAT, rel=1e-12)

    def test_flat_threshold_is_drift_level(self):
        # at fraction 0 the stationary price is exactly d / lam
        m = pareto_market()
        assert sg.inverse_price(m, 0.0, 0.0) == pytest.approx(
            B_CAL / LAM, rel=1e-15
        )

    def test_no_reversion_rejected(self):
        m = mk.MarketCoefficients(lam=0.0, b=0.1, sigma=0.3, psi=0.0,
                                  measure=NoJumps())
        with pytest.raises(DomainError):
            sg.inverse_price(m, 0.0, 0.5)

    def test_thresholds_split_clamping(self):
        m = pareto_market()
        eps = 1e-6
        below = sg.optimal_fraction(m, 0.0, PARETO_S_FULL - eps, 0.0, 0.2)
        above = sg.optimal_fraction(m, 0.0, PARETO_S_FULL + eps, 0.0, 0.2)
        assert below.clamped and below.value == 0.2
        assert not above.clamped
        inside = sg.optimal_fraction(m, 0.0, PARETO_S_FLAT - eps, 0.0, 0.2)
        outside = sg.optimal_fraction(m, 0.0, PARETO_S_FLAT + eps, 0.0, 0.2)
        assert not inside.clamped and inside.value > 0
        assert outside.clamped and outside.value == 0.0


class TestBestGrowth:
    @pytest.mark.parametrize("s,_,fstar", UNIFORM_REFERENCE)
    def test_uniform_values(self, s, _, fstar):
        val = sg.best_growth(uniform_market(), 0.0, s, -0.5, 1.0)
        assert val == pytest.approx(fstar, rel=1e-9)

    @pytest.mark.parametrize("s,_,fstar", PARETO_REFERENCE)
    def test_pareto_values(self, s, _, fstar):
        val = sg.best_growth(pareto_market(), 0.0, s, 0.0, 0.2)
        assert val == pytest.approx(fstar, rel=1e-9)

    def test_nonnegative_when_zero_is_feasible(self):
        # zero fraction gives zero growth, so the optimum is never worse
        m = uniform_market()
        for s in np.linspace(-1, 2, 13):
            assert sg.best_growth(m, 0.0, float(s), -0.5, 1.0) >= -1e-15

    def test_linear_in_clamped_region(self):
        m = pareto_market()
        s = PARETO_S_FULL - 0.8
        h = 0.1
        f0 = sg.best_growth(m, 0.0, s - h, 0.0, 0.2)
        f1 = sg.best_growth(m, 0.0, s, 0.0, 0.2)
        f2 = sg.best_growth(m, 0.0, s + h, 0.0, 0.2)
        # exactly linear with slope -lam * pi_max
        assert f2 - f1 == pytest.approx(f1 - f0, rel=1e-10)
        assert (f2 - f0) / (2 * h) == pytest.approx(-LAM * 0.2, rel=1e-10)


class TestFractionTable:
    def test_node_values_match_direct_solve(self):
        m = pareto_market()
        times = np.linspace(0, 24, 4)
        tab = sg.exact_fraction_table(m, times, 0.0, 0.2, ns=65)
        assert tab.values.shape == (4, 65)
        assert tab.s1[0] == pytest.approx(PARETO_S_FULL, rel=1e-12)
        assert tab.s2[0] == pytest.approx(PARETO_S_FLAT, rel=1e-12)
        grid = tab.s1[0] + np.linspace(0, 1, 65) * (tab.s2[0] - tab.s1[0])
        direct, _ = sg.optimal_fraction_grid(m, 0.0, grid, 0.0, 0.2)
        assert np.allclose(tab.values[0], direct, rtol=1e-12, atol=1e-14)

    def test_bracket_ends_hit_the_clamps(self):
        m = pareto_market()
        tab = sg.exact_fraction_table(m, [0.0], 0.0, 0.2, ns=33)
        assert tab.values[0, 0] == pytest.approx(0.2, abs=1e-9)
        assert tab.values[0, -1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_end_nodes_are_exactly_the_interval_ends(self, name):
        # the first and last prices of a row are the clamp thresholds
        p = presets.get_preset(name)
        times = np.linspace(0.0, p.horizon, 5)
        tab = sg.exact_fraction_table(p.market, times, p.pi_min, p.pi_max)
        assert np.all(tab.values[:, 0] == p.pi_max)
        assert np.all(tab.values[:, -1] == p.pi_min)

    def test_tables_of_a_density_market_match_the_direct_solve(self):
        # a plain density has no closed forms: its drag and curvature are
        # quadratures
        m = mk.MarketCoefficients(
            lam=0.5, b=0.2, sigma=0.3, psi=0.8,
            measure=CompoundPoisson(0.5, lambda y: 0.75 * (1.0 - y * y),
                                    (-1.0, 1.0)))
        fractions = sg.exact_fraction_table(m, [0.0], -0.5, 0.8, ns=33)
        growth = sg.growth_table(m, [0.0], -0.5, 0.8, ns=33)
        grid = fractions.s1[0] + np.linspace(0, 1, 33) * (
            fractions.s2[0] - fractions.s1[0])
        pi, _ = sg.optimal_fraction_grid(m, 0.0, grid, -0.5, 0.8)
        np.testing.assert_allclose(fractions.values[0], pi, rtol=1e-12)
        np.testing.assert_allclose(growth.values[0],
                                   sg.growth_rate(pi, m, 0.0, grid),
                                   rtol=1e-12)

    def test_a_wrong_slope_fails_the_residual_check(self, monkeypatch):
        # Newton steps with the slope's sign flipped move away from the
        # root; the residual check must see it.
        m = uniform_market()
        curvature = m.measure.curvature
        monkeypatch.setattr(m.measure, "curvature",
                            lambda pi, psi=1.0: -curvature(pi, psi))
        for build in (sg.exact_fraction_table, sg.growth_table):
            with pytest.raises(ConvergenceError, match="residual"):
                build(m, [0.0], -0.5, 1.0, ns=65)

    @pytest.mark.parametrize("psi, measure", [
        (1.0, NoJumps()), (0.0, UniformJump(-0.5, 1.0, 1.0))])
    def test_rows_of_a_flat_stationarity_map_are_the_clamp(self, psi,
                                                          measure):
        # sigma = 0 with no jump impact makes G constant, so G' = 0: every
        # price is clamped, and no Newton step may divide by the slope.
        m = mk.MarketCoefficients(lam=0.5, b=0.2, sigma=0.0, psi=psi,
                                  measure=measure)
        with np.errstate(all="raise"):
            fractions = sg.exact_fraction_table(m, [0.0, 1.0], -0.5, 0.8,
                                                ns=9)
            growth = sg.growth_table(m, [0.0, 1.0], -0.5, 0.8, ns=9)
        grid = fractions.s1[0] + np.linspace(0, 1, 9) * (
            fractions.s2[0] - fractions.s1[0])
        pi, clamped = sg.optimal_fraction_grid(m, 0.0, grid, -0.5, 0.8)
        assert clamped.all() and np.all(pi == -0.5)
        np.testing.assert_array_equal(fractions.values, [pi, pi])
        np.testing.assert_array_equal(
            growth.values, [sg.growth_rate(pi, m, 0.0, grid)] * 2)

    def test_interpolation_accuracy(self):
        m = pareto_market()
        tab = sg.exact_fraction_table(m, [0.0], 0.0, 0.2, ns=257)
        s1, s2 = tab.s1[0], tab.s2[0]
        rng = np.random.default_rng(0)
        for s in rng.uniform(s1, s2, 20):
            x = (s - s1) / (s2 - s1) * 256
            j = min(int(x), 255)
            interp = tab.values[0, j] + (x - j) * (
                tab.values[0, j + 1] - tab.values[0, j]
            )
            exact = sg.optimal_fraction(m, 0.0, float(s), 0.0, 0.2).value
            assert interp == pytest.approx(exact, abs=5e-6)

    @pytest.mark.parametrize("ns", [0, 1])
    def test_fewer_than_two_prices_rejected(self, ns):
        # one price gives no interval to interpolate in: the scalar kernel
        # would read past the row
        with pytest.raises(ConfigError, match="at least 2 prices"):
            sg.exact_fraction_table(pareto_market(), [0.0], 0.0, 0.2, ns=ns)
        with pytest.raises(ConfigError, match="at least 2 prices"):
            sg.growth_table(pareto_market(), [0.0], 0.0, 0.2, ns=ns)

    def test_bracket_end_of_a_uniform_market_builds(self):
        # At the bracket end s2 the drift gap lies within an ulp of
        # G(pi_min); the clamp and the root finder must agree there.
        m = mk.MarketCoefficients(lam=1.24, b=-0.223, sigma=0.38, psi=0.919,
                                  measure=UniformJump(-0.5, 1.0, 2.0))
        for ns in (17, 33, 257, 1025):
            tab = sg.exact_fraction_table(m, [0.0, 1.0], -0.5, 0.5, ns=ns)
            assert tab.values[0, 0] == 0.5
            assert tab.values[0, -1] == -0.5
            assert np.all(np.diff(tab.values[0]) <= 0.0)
            growth = sg.growth_table(m, [0.0, 1.0], -0.5, 0.5, ns=ns)
            assert np.isfinite(growth.values).all()

    @pytest.mark.parametrize("shift, end", [(1e-13, 0), (-1e-13, 1)])
    def test_rejected_bracket_takes_that_ends_fraction(self, monkeypatch,
                                                       shift, end):
        # G evaluated inside an array rounds the other way from the scalar
        # G the clamp uses: q just inside the scalar threshold has G - q of
        # one sign at both ends of find_root's bracket.
        def stationarity(market, t, pi):
            pi = np.asarray(pi, dtype=np.float64)
            return pi + (shift if pi.ndim else 0.0)

        monkeypatch.setattr(sg, "_stationarity", stationarity)
        lo, hi = -0.5, 0.5
        q = np.array([(lo, hi)[end] + 0.5 * shift, 0.1, 2.0])
        pi, clamped, _, resid = sg._solve_q(None, 0.0, q, lo, hi)
        assert pi[0] == (lo, hi)[end]
        assert pi[1] == pytest.approx(0.1, abs=1e-12)
        assert pi[2] == hi
        np.testing.assert_array_equal(clamped, [True, False, True])
        assert resid[0] == resid[2] == 0.0

    def test_rejected_bracket_far_from_the_end_still_raises(self,
                                                            monkeypatch):
        monkeypatch.setattr(
            sg, "_stationarity",
            lambda market, t, pi: np.asarray(pi) + (0.3 if np.ndim(pi)
                                                    else 0.0))
        with pytest.raises(ConvergenceError):
            sg._solve_q(None, 0.0, np.array([-0.4]), -0.5, 0.5)

    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    def test_overflowing_bracket_names_the_mean_reversion(self, lam):
        # (d - G)/lam overflows for a subnormal lam; the error once blamed
        # a price the caller never gave.
        m = mk.MarketCoefficients(lam=lam, b=0.1, sigma=0.3, psi=1.0,
                                  measure=UniformJump(-0.5, 1.0, 2.0))
        for build in (sg.exact_fraction_table, sg.growth_table):
            with pytest.raises(DomainError, match="lam=") as exc:
                build(m, [0.0, 1.0], -0.4, 0.8, ns=17)
            assert "bracket" in str(exc.value)
            assert "check the price" not in str(exc.value)

    def test_tiny_mean_reversion_still_builds(self):
        m = mk.MarketCoefficients(lam=1e-300, b=0.1, sigma=0.3, psi=1.0,
                                  measure=UniformJump(-0.5, 1.0, 2.0))
        tab = sg.exact_fraction_table(m, [0.0, 1.0], -0.4, 0.8, ns=17)
        assert np.isfinite(tab.s1).all() and np.isfinite(tab.s2).all()
        assert tab.values[0, 0] == 0.8 and tab.values[0, -1] == -0.4
        growth = sg.growth_table(m, [0.0, 1.0], -0.4, 0.8, ns=17)
        assert np.isfinite(growth.values).all()

    def test_constant_table(self):
        tab = sg.constant_fraction_table([0.0, 1.0, 2.0], 0.13)
        assert np.all(tab.values == 0.13)
        assert tab.values.shape == (3, 2)


def _fraction_pool(preset, rng):
    """Derandomized fractions of a preset's interval: its ends, the ulps
    next to them, fractions near 0, and uniform draws."""
    lo, hi = preset.pi_min, preset.pi_max
    edges = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
             hi * (1.0 - 1e-12), hi * (1.0 - 1e-6), lo * (1.0 - 1e-12),
             0.0, 5e-324, 1e-300, 1e-16, 1e-9, 1e-4, -5e-324, -1e-16,
             -1e-9, -1e-4]
    pool = np.concatenate([edges, rng.uniform(lo, hi, 40)])
    return pool[(lo <= pool) & (pool <= hi)]


class TestBatchedSolve:
    """One exact solve serves several drift levels because the stationarity
    map gives each fraction the same bits whatever array it sits in."""

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_stationarity_of_a_fraction_does_not_depend_on_its_array(
            self, name):
        preset = presets.get_preset(name)
        rng = np.random.default_rng(20180412)
        pool = _fraction_pool(preset, rng)
        alone = {p: sg._stationarity(preset.market, 0.0, np.array([p]))[0]
                 for p in pool}
        for n in range(1, 65):
            pis = rng.choice(pool, size=n)
            got = sg._stationarity(preset.market, 0.0, pis)
            want = np.array([alone[p] for p in pis])
            np.testing.assert_array_equal(got, want, err_msg=f"length {n}")

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_gaps_of_several_drift_levels_solve_as_one(self, name):
        base = presets.get_preset(name)
        lo, hi = base.pi_min, base.pi_max
        levels = []
        for frac in (1.5, 0.8, 0.5, 0.2):
            market = presets.get_preset(name, b_frac=frac, pi_min=lo,
                                        pi_max=hi).market
            s_flat = market.foc_drift(0.0) / market.lam
            levels.append((market, np.linspace(0.0, 1.1 * s_flat, 50)))
        q = np.concatenate([sg.drift_gap(m, 0.0, s) for m, s in levels])
        pi, clamped = sg.optimal_fraction_gaps(base.market, 0.0, q, lo, hi)
        for k, (market, s_values) in enumerate(levels):
            want, want_clamped = sg.optimal_fraction_grid(market, 0.0,
                                                          s_values, lo, hi)
            np.testing.assert_array_equal(pi[50 * k:50 * (k + 1)], want)
            np.testing.assert_array_equal(clamped[50 * k:50 * (k + 1)],
                                          want_clamped)


class TestGrowthTable:
    def test_values_and_slopes(self):
        m = pareto_market()
        tab = sg.growth_table(m, [0.0, 24.0], 0.0, 0.2, ns=65)
        assert tab.slope_lo == pytest.approx(-LAM * 0.2, rel=1e-15)
        assert tab.slope_hi == pytest.approx(0.0, abs=1e-18)
        grid = tab.s1[0] + np.linspace(0, 1, 65) * (tab.s2[0] - tab.s1[0])
        for j in (0, 17, 40, 64):
            direct = sg.best_growth(m, 0.0, float(grid[j]), 0.0, 0.2)
            assert tab.values[0, j] == pytest.approx(direct, rel=1e-10,
                                                     abs=1e-16)

    @pytest.mark.parametrize("market, lo, hi", [
        (pareto_market(), 0.0, 0.2),
        (uniform_market(), -0.5, 1.0),
        (gaussian_market(), -2.0, 2.0),
    ])
    def test_row_is_growth_rate_on_its_price_grid(self, market, lo, hi):
        tab = sg.growth_table(market, [0.0], lo, hi, ns=65)
        fractions = sg.exact_fraction_table(market, [0.0], lo, hi, ns=65)
        assert (tab.s1[0], tab.s2[0]) == (fractions.s1[0], fractions.s2[0])
        grid = tab.s1[0] + np.linspace(0, 1, 65) * (tab.s2[0] - tab.s1[0])
        np.testing.assert_array_equal(
            sg.growth_rate(fractions.values[0], market, 0.0, grid),
            tab.values[0]
        )
        pi, _ = sg.optimal_fraction_grid(market, 0.0, grid, lo, hi)
        np.testing.assert_allclose(
            tab.values[0], sg.growth_rate(pi, market, 0.0, grid),
            rtol=1e-12, atol=1e-14
        )

    def test_linear_extension_is_exact(self):
        m = pareto_market()
        tab = sg.growth_table(m, [0.0], 0.0, 0.2, ns=33)
        for ds in (0.3, 1.1):
            s = tab.s1[0] - ds
            ext = tab.values[0, 0] + tab.slope_lo * (s - tab.s1[0])
            assert ext == pytest.approx(
                sg.best_growth(m, 0.0, float(s), 0.0, 0.2), rel=1e-12
            )
        s = tab.s2[0] + 0.7
        ext = tab.values[0, -1] + tab.slope_hi * (s - tab.s2[0])
        assert ext == pytest.approx(
            sg.best_growth(m, 0.0, float(s), 0.0, 0.2), abs=1e-15
        )


# Generated markets for the table sweep.
SWEEP_MEASURES = {
    "none": st.just(NoJumps()),
    "pareto": st.builds(
        ParetoJump, st.floats(2.05, 4.5),
        st.floats(0.05, 1.0), st.floats(0.05, 3.0)),
    "uniform": st.tuples(st.floats(-1.0, 0.5), st.floats(0.05, 1.0),
                         st.floats(0.05, 3.0)).map(
        lambda a: UniformJump(a[0], a[0] + a[1], a[2])),
    "constant": st.builds(
        ConstantJump,
        st.floats(-1.0, 1.0).filter(lambda y: abs(y) > 0.01),
        st.floats(0.05, 3.0)),
}


def _coefficient(draw, lo, hi):
    """A constant in [lo, hi], or a line through [lo, hi] over [0, 1] with
    its range."""
    a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    if draw(st.booleans()):
        return a, None
    return (lambda u: a + (b - a) * u), (min(a, b), max(a, b))


@st.composite
def table_cases(draw):
    """(market, pi_min, pi_max, times, ns), the interval inside the
    market's admissible set and containing 0."""
    b, _ = _coefficient(draw, -1.0, 1.0)
    sigma, sigma_range = _coefficient(draw, 0.0, 0.6)
    psi, psi_range = _coefficient(draw, 0.1, 1.0)
    market = mk.MarketCoefficients(
        lam=draw(st.floats(0.0, 3.0)), b=b, sigma=sigma, psi=psi,
        measure=draw(st.sampled_from(sorted(SWEEP_MEASURES)).flatmap(
            SWEEP_MEASURES.get)),
        compensated=draw(st.booleans()), sigma_range=sigma_range,
        psi_range=psi_range)
    adm = market.admissible()
    pi_min = max(adm.lo, -2.0) * draw(st.floats(0.0, 0.95))
    pi_max = min(adm.hi, 2.0) * draw(st.floats(0.05, 0.95))
    return market, pi_min, pi_max, (0.0, 0.5, 1.0), 17


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=table_cases())
# the bracket-end case whose G(pi_min) rounded the other way in an array
@example(case=(mk.MarketCoefficients(lam=1.24, b=-0.223, sigma=0.38,
                                     psi=0.919,
                                     measure=UniformJump(-0.5, 1.0, 2.0)),
               -0.5, 0.5, (0.0, 1.0), 1025))
def test_tables_of_generated_markets_are_clamped_and_monotone(case):
    market, pi_min, pi_max, times, ns = case
    try:
        fractions = sg.exact_fraction_table(market, times, pi_min, pi_max,
                                            ns)
        growth = sg.growth_table(market, times, pi_min, pi_max, ns)
    except ConfigError:
        return
    values = fractions.values
    assert np.all((pi_min <= values) & (values <= pi_max))
    # the grid rises in price; the fraction may not
    assert np.all(np.diff(values, axis=1) <= 0.0)
    assert np.isfinite(growth.values).all()
    # no fraction of a 41-point grid grows faster at a table price
    pis = np.linspace(pi_min, pi_max, 41)[:, None]
    for k, t in enumerate(times):
        prices = fractions.s1[k] + np.linspace(0.0, 1.0, ns) * (
            fractions.s2[k] - fractions.s1[k])
        best = sg.growth_rate(values[k], market, t, prices)
        rival = sg.growth_rate(pis + 0.0 * prices, market, t, prices)
        slack = 1e-12 * (1.0 + np.abs(rival).max(axis=0))
        assert np.all(best >= rival.max(axis=0) - slack)
