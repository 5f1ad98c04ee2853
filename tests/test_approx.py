"""Risk-ratio and jump-mean approximations with their error bounds.

Frozen values were computed with mpmath (50 digits): closed-form moment
algebra plus findroot on the linearized stationarity condition — a route
independent of the quadratic-formula / numpy implementation under test.
"""

import math

import numpy as np
import pytest

from levyou import approx as ax
from levyou import market as mk
from levyou import presets
from levyou import strategy as sg
from levyou.errors import BranchError, CaseError, DegenerateError, DomainError
from levyou.jumps import (
    CompoundPoisson,
    ConstantJump,
    LevyDensity,
    NoJumps,
    ParetoJump,
    UniformJump,
    admissible_set,
    binding_ends,
)
from levyou.market import CaseTag

LAM = 0.3333 / 24
ETA = 3.7249 / 24


def pareto_market(b_frac=0.8, alpha=2.5406):
    meas = ParetoJump(alpha=alpha, scale=0.3648, rate=ETA)
    return mk.MarketCoefficients(
        lam=LAM, b=b_frac * ETA * meas.mean_size, sigma=0.0, psi=1.0,
        measure=meas,
    )


def uniform_market():
    # two-sided sizes on [-0.5, 1], mean 0.25
    return mk.MarketCoefficients(
        lam=0.3, b=0.1, sigma=0.3, psi=1.0,
        measure=UniformJump(-0.5, 1.0, 1.0),
    )


def negative_mean_market():
    # two-sided sizes on [-1, 0.2], mean -0.4
    return mk.MarketCoefficients(
        lam=0.3, b=0.1, sigma=0.3, psi=1.0,
        measure=UniformJump(-1.0, 0.2, 1.0),
    )


def positive_sizes_market():
    # one-sided sizes on [0.2, 0.8] with a scale factor below one
    return mk.MarketCoefficients(
        lam=0.3, b=0.1, sigma=0.25, psi=0.9,
        measure=UniformJump(0.2, 0.8, 2.0),
    )


def negative_sizes_market():
    # one-sided sizes on [-0.8, -0.2]
    return mk.MarketCoefficients(
        lam=0.3, b=0.1, sigma=0.25, psi=1.0,
        measure=UniformJump(-0.8, -0.2, 2.0),
    )


def gaussian_market():
    return mk.MarketCoefficients(
        lam=0.5, b=0.2, sigma=0.3, psi=0.0, measure=NoJumps(),
    )


# calibrated pure-jump market, b at 0.8 of the long-run jump drift
MERTON_AT_5 = 0.05416883410058635
MERTON_RAW_AT_0 = 0.7695224690312045
JUMP_MEAN_AT_5 = 0.0991949436376172
JUMP_MEAN_AT_52 = 0.04536614676532715
S_FLAT = 5.378615774461258

# same market with b at 1.5 of the long-run jump drift: at s=0 the ratio
# formula sits past its pole and the boundary test must clamp first
B15_RAW_AT_0 = -4.98677788504166

# uniform_market quadratic roots (direct mpmath findroot on the linearized
# stationarity condition), prices chosen so q = 0.05 and q = -0.03
UNIFORM_ROOTS = [
    (1.0 / 6.0, 0.33870548805778306),
    (13.0 / 30.0, -0.19272312212854312),
]
# negative_mean_market at q = -0.04: the root is exactly -1/6
NEGATIVE_MEAN_ROOT = (7.0 / 15.0, -1.0 / 6.0)

# frozen bound constants, hand-assembled from the case tables
PRESET_C0 = 0.41208490221025706
PARETO35_BOUND = 0.043776
CASEA_C0 = 1.8823529411764706
CASEA_C = 6.2745098039215685
CASEA_BOUND = 1.1111111111111112
CASEBF_C0 = 0.3531292385196667
CASEBF_C = 0.5517644351869793
CASEBF_BOUND = 0.18759990796357295
CASEC_C = 0.6693440428380187
CASEC_MERTON_BOUND = 0.22757697456492637
SYM_C0 = 0.1568627450980392
SYM_BOUND = 0.09803921568627451
JM_PRESET_C2 = 0.7967411331947749
JM_PRESET_BOUND = 1.7802269182492063
JM_CASEBF_C1 = 4.00390625
JM_CASEBF_C2 = 0.6663890045814244
JM_CASEBF_BOUND = 3.3799851929915508
JM_CASEA_C1 = 14.444444444444445
JM_CASEA_C2 = 0.6944444444444444
JM_CASEA_BOUND = 46.88528994980823
JM_NEGMEAN_C1 = 2550.0
JM_NEGMEAN_C2 = 0.5406574394463668
JM_NEGMEAN_BOUND = 5004.645530828795
JM_CASEC_C1 = 4.444444444444445
JM_CASEC_C2 = 0.64
JM_CASEC_BOUND = 4.025099915918959


class TestMertonFraction:
    def test_calibrated_interior_value(self):
        out = ax.merton_fraction(pareto_market(), 0.0, 5.0, 0.0, 0.2)
        assert out.value == pytest.approx(MERTON_AT_5, rel=1e-12)
        assert not out.clamped
        assert out.unclamped == out.value

    def test_clamps_at_upper_end(self):
        out = ax.merton_fraction(pareto_market(), 0.0, 0.0, 0.0, 0.2)
        assert out.value == 0.2
        assert out.clamped
        assert out.unclamped == pytest.approx(MERTON_RAW_AT_0, rel=1e-12)

    def test_clamps_at_lower_end(self):
        out = ax.merton_fraction(pareto_market(), 0.0, 50.0, 0.0, 0.2)
        assert out.value == 0.0
        assert out.clamped
        assert out.unclamped < 0.0

    def test_vanishes_where_drift_gap_vanishes(self):
        m = pareto_market()
        out = ax.merton_fraction(m, 0.0, m.b_at(0.0) / m.lam, 0.0, 0.2)
        assert abs(out.unclamped) < 1e-14

    def test_no_jumps_reduces_to_sigma_ratio(self):
        m = gaussian_market()
        for s in (-1.0, 0.1, 0.7):
            q = 0.2 - 0.5 * s
            out = ax.merton_fraction(m, 0.0, s, -2.0, 2.0)
            assert out.unclamped == q / 0.09

    def test_grid_matches_scalar(self):
        m = uniform_market()
        s_grid = np.linspace(-1.0, 2.0, 7)
        vals, clamped, raw = ax.merton_fraction_grid(
            m, 0.0, s_grid, -0.4, 0.8
        )
        for i, s in enumerate(s_grid):
            one = ax.merton_fraction(m, 0.0, float(s), -0.4, 0.8)
            assert one.value == vals[i]
            assert one.clamped == clamped[i]

    def test_degenerate_when_no_risk(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.0, psi=0.0,
            measure=UniformJump(-0.5, 1.0, 1.0),
        )
        with pytest.raises(DegenerateError):
            ax.merton_fraction(m, 0.0, 0.2, -0.1, 0.1)


class TestJumpMeanFraction:
    @pytest.mark.parametrize("s,root", UNIFORM_ROOTS)
    def test_quadratic_roots(self, s, root):
        out = ax.jump_mean_fraction(uniform_market(), 0.0, s, -0.45, 1.5)
        assert out.value == pytest.approx(root, rel=1e-12)
        assert not out.clamped

    def test_negative_mean_root(self):
        s, root = NEGATIVE_MEAN_ROOT
        m = negative_mean_market()
        out = ax.jump_mean_fraction(m, 0.0, s, -0.9, 0.9)
        assert out.value == pytest.approx(root, rel=1e-12)

    def test_returned_root_keeps_wealth_factor_positive(self):
        # the selected quadratic root must satisfy 1 + pi*psi*mu > 0
        for m in (uniform_market(), negative_mean_market()):
            mu = m.measure.mean_size
            for s in np.linspace(-0.5, 1.2, 9):
                out = ax.jump_mean_fraction(m, 0.0, float(s), -0.2, 0.2)
                assert 1.0 + out.unclamped * mu > 0.0

    def test_stationarity_residual(self):
        # interior values must solve sg2*pi + eta*mu^2*pi/(1+pi*mu) = q
        for m in (uniform_market(), negative_mean_market(),
                  positive_sizes_market(), negative_sizes_market()):
            eta = m.measure.rate
            mu = m.measure.mean_size
            psi = m.psi_at(0.0)
            sg2 = m.sigma_at(0.0) ** 2
            for s in np.linspace(-0.3, 0.9, 7):
                out = ax.jump_mean_fraction(m, 0.0, float(s), -0.2, 0.2)
                if out.clamped:
                    continue
                pi = out.value
                q = m.foc_drift(0.0) - m.lam * float(s)
                lhs = sg2 * pi + (
                    eta * psi * psi * mu * mu * pi / (1.0 + pi * psi * mu)
                )
                assert lhs == pytest.approx(q, rel=1e-10, abs=1e-14)

    def test_pure_jump_interior_values(self):
        m = pareto_market()
        out5 = ax.jump_mean_fraction(m, 0.0, 5.0, 0.0, 0.2)
        assert out5.value == pytest.approx(JUMP_MEAN_AT_5, rel=1e-12)
        out52 = ax.jump_mean_fraction(m, 0.0, 5.2, 0.0, 0.2)
        assert out52.value == pytest.approx(JUMP_MEAN_AT_52, rel=1e-12)

    def test_pure_jump_pole_is_clamped_away(self):
        # with a high drift the raw ratio crosses its pole and goes negative;
        # the boundary-first clamp must still return the full position
        out = ax.jump_mean_fraction(pareto_market(1.5), 0.0, 0.0, 0.0, 0.2)
        assert out.value == 0.2
        assert out.clamped
        assert out.unclamped == pytest.approx(B15_RAW_AT_0, rel=1e-12)

    def test_vanishes_where_drift_gap_vanishes(self):
        for m, lo in ((pareto_market(), 0.0), (uniform_market(), -0.2)):
            s_flat = m.b_at(0.0) / m.lam
            out = ax.jump_mean_fraction(m, 0.0, s_flat, lo, 0.2)
            assert abs(out.unclamped) < 1e-14

    def test_no_jumps_reduces_to_sigma_ratio(self):
        m = gaussian_market()
        out = ax.jump_mean_fraction(m, 0.0, 0.1, -2.0, 2.0)
        assert out.unclamped == (0.2 - 0.5 * 0.1) / 0.09

    def test_zero_mean_sizes_reduce_to_sigma_ratio(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.3, psi=1.0,
            measure=UniformJump(-0.5, 0.5, 1.0),
        )
        out = ax.jump_mean_fraction(m, 0.0, 0.2, -0.5, 0.5)
        assert out.unclamped == (0.1 - 0.3 * 0.2) / 0.09

    def test_degenerate_without_brownian_or_mean(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.0, psi=1.0,
            measure=UniformJump(-0.5, 0.5, 1.0),
        )
        with pytest.raises(DegenerateError):
            ax.jump_mean_fraction(m, 0.0, 0.2, -0.5, 0.5)

    def test_infinite_activity_rejected(self):
        meas = LevyDensity(
            lambda y: y ** -1.5, (0.0, 1.0), small_order=0.5
        )
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.3, psi=1.0, measure=meas,
        )
        with pytest.raises(CaseError):
            ax.jump_mean_fraction(m, 0.0, 0.2, -0.5, 0.5)

    def test_clamp_mask_follows_boundary_slopes(self):
        m = pareto_market()
        eta = m.measure.rate
        mu = m.measure.mean_size
        s_grid = np.linspace(0.0, 10.0, 41)
        vals, clamped, _ = ax.jump_mean_fraction_grid(
            m, 0.0, s_grid, 0.0, 0.2
        )
        q = m.b_at(0.0) - m.lam * s_grid
        g_hi = eta * mu * mu * 0.2 / (1.0 + 0.2 * mu)
        expect_hi = q >= g_hi
        expect_lo = q <= 0.0
        assert np.array_equal(clamped, expect_hi | expect_lo)
        assert np.all(vals[expect_hi] == 0.2)
        assert np.all(vals[expect_lo] == 0.0)

    def test_grid_matches_scalar(self):
        m = uniform_market()
        s_grid = np.linspace(-1.0, 2.0, 7)
        vals, clamped, _ = ax.jump_mean_fraction_grid(
            m, 0.0, s_grid, -0.4, 0.8
        )
        for i, s in enumerate(s_grid):
            one = ax.jump_mean_fraction(m, 0.0, float(s), -0.4, 0.8)
            assert one.value == vals[i]
            assert one.clamped == clamped[i]

    def test_exact_for_single_size_jumps(self):
        # linearizing around the mean is lossless when every jump has the
        # mean size, so the approximation must agree with the exact solver
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.2, psi=1.0,
            measure=ConstantJump(size=0.6, rate=2.0),
        )
        s_grid = np.linspace(-1.0, 2.0, 21)
        exact, _ = sg.optimal_fraction_grid(m, 0.0, s_grid, -0.5, 0.5)
        vals, _, _ = ax.jump_mean_fraction_grid(m, 0.0, s_grid, -0.5, 0.5)
        assert np.allclose(vals, exact, rtol=0.0, atol=5e-13)


class TestThreeWayShape:
    @pytest.mark.parametrize("b_frac", [1.5, 0.8, 0.5, 0.2])
    def test_ordering_below_the_flat_price(self, b_frac):
        # wherever the position is long, the risk-ratio rule under-invests
        # and the jump-mean rule over-invests relative to the exact optimum
        m = pareto_market(b_frac)
        s_flat = m.b_at(0.0) / m.lam
        s_grid = np.linspace(1e-3, s_flat * (1.0 - 1e-6), 60)
        exact, _ = sg.optimal_fraction_grid(m, 0.0, s_grid, 0.0, 0.2)
        low, _, _ = ax.merton_fraction_grid(m, 0.0, s_grid, 0.0, 0.2)
        high, _, _ = ax.jump_mean_fraction_grid(m, 0.0, s_grid, 0.0, 0.2)
        assert np.all(low <= exact + 1e-12)
        assert np.all(exact <= high + 1e-12)

    def test_all_three_vanish_at_the_flat_price(self):
        m = uniform_market()
        s_flat = m.b_at(0.0) / m.lam
        exact = sg.optimal_fraction(m, 0.0, s_flat, -0.5, 1.0)
        merton = ax.merton_fraction(m, 0.0, s_flat, -0.5, 1.0)
        jm = ax.jump_mean_fraction(m, 0.0, s_flat, -0.5, 1.0)
        assert abs(exact.value) < 1e-12
        assert abs(merton.value) < 1e-14
        assert abs(jm.value) < 1e-14

    def test_all_three_collapse_without_jumps(self):
        m = gaussian_market()
        for s in (0.1, 0.4, 0.7):
            q = 0.2 - 0.5 * s
            exact = sg.optimal_fraction(m, 0.0, s, -2.0, 2.0)
            merton = ax.merton_fraction(m, 0.0, s, -2.0, 2.0)
            jm = ax.jump_mean_fraction(m, 0.0, s, -2.0, 2.0)
            assert exact.value == pytest.approx(q / 0.09, rel=1e-12)
            assert merton.unclamped == q / 0.09
            assert jm.unclamped == q / 0.09


class TestMertonBound:
    def test_heavy_tail_reports_infinite(self):
        # the calibrated tail exponent is below 3, so the required third
        # absolute moment diverges and the bound must be the infinite marker
        b = ax.merton_error_bound(pareto_market(), 0.0, 0.2)
        assert b.bound_value == math.inf
        assert b.case is CaseTag.POSITIVE
        assert b.constants["C0"] == pytest.approx(PRESET_C0, rel=1e-12)
        assert b.constants["C"] == b.constants["C0"]
        assert b.inputs_echo["third_moment"] == math.inf

    def test_lighter_tail_is_plain_product(self):
        # tail exponent 3.5: unbounded positive sizes keep C = C0 and the
        # bound reduces to C0 times the third absolute moment
        b = ax.merton_error_bound(pareto_market(alpha=3.5), 0.0, 0.2)
        assert b.constants["C"] == b.constants["C0"]
        assert b.bound_value == pytest.approx(PARETO35_BOUND, rel=1e-12)

    def test_two_sided_constants(self):
        b = ax.merton_error_bound(uniform_market(), -0.4, 0.8)
        assert b.case is CaseTag.TWO_SIDED
        assert b.inputs_echo["delta"] == pytest.approx(0.6, rel=1e-14)
        assert b.constants["C0"] == pytest.approx(CASEA_C0, rel=1e-12)
        assert b.constants["C"] == pytest.approx(CASEA_C, rel=1e-12)
        assert b.bound_value == pytest.approx(CASEA_BOUND, rel=1e-12)

    def test_bounded_positive_sizes_constants(self):
        b = ax.merton_error_bound(positive_sizes_market(), -0.5, 0.5)
        assert b.case is CaseTag.POSITIVE
        assert b.inputs_echo["delta"] == pytest.approx(8.0 / 9.0, rel=1e-14)
        assert b.constants["C0"] == pytest.approx(CASEBF_C0, rel=1e-12)
        assert b.constants["C"] == pytest.approx(CASEBF_C, rel=1e-12)
        assert b.bound_value == pytest.approx(CASEBF_BOUND, rel=1e-12)

    def test_bounded_negative_sizes_constants(self):
        b = ax.merton_error_bound(negative_sizes_market(), -0.5, 0.5)
        assert b.case is CaseTag.NEGATIVE
        assert b.constants["C"] == pytest.approx(CASEC_C, rel=1e-12)
        assert b.bound_value == pytest.approx(
            CASEC_MERTON_BOUND, rel=1e-12
        )

    def test_symmetric_sizes_give_equal_denominators(self):
        # on symmetric support both two-sided denominators coincide, so the
        # min reduces to a single scaled-gap term
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.2, psi=2.0,
            measure=UniformJump(-1.0, 1.0, 1.5),
        )
        b = ax.merton_error_bound(m, -0.2, 0.2)
        delta = b.inputs_echo["delta"]
        assert delta == pytest.approx(0.3, rel=1e-14)
        assert b.constants["C0"] == pytest.approx(SYM_C0, rel=1e-12)
        assert b.constants["C"] == pytest.approx(
            b.constants["C0"] / (delta * 2.0), rel=1e-14
        )
        assert b.bound_value == pytest.approx(SYM_BOUND, rel=1e-12)

    def test_rejected_without_jumps(self):
        with pytest.raises(CaseError):
            ax.merton_error_bound(gaussian_market(), -1.0, 1.0)

    def test_echo_is_complete(self):
        b = ax.merton_error_bound(uniform_market(), -0.4, 0.8)
        assert set(b.inputs_echo) == {
            "delta", "pi_min", "pi_max", "m", "M", "psi2", "sigma1_sq",
            "third_moment",
        }
        assert b.inputs_echo["m"] == -0.5
        assert b.inputs_echo["M"] == 1.0

    @pytest.mark.parametrize(
        "market_fn,lo,hi",
        [
            (uniform_market, -0.4, 0.8),
            (positive_sizes_market, -0.5, 0.5),
            (negative_sizes_market, -0.5, 0.5),
        ],
    )
    def test_bound_dominates_observed_gap(self, market_fn, lo, hi):
        m = market_fn()
        b = ax.merton_error_bound(m, lo, hi)
        s_grid = np.linspace(-2.0, 3.0, 200)
        exact, _ = sg.optimal_fraction_grid(m, 0.0, s_grid, lo, hi)
        vals, _, _ = ax.merton_fraction_grid(m, 0.0, s_grid, lo, hi)
        assert float(np.max(np.abs(exact - vals))) <= b.bound_value


class TestJumpMeanBound:
    def test_calibrated_constants(self):
        b = ax.jump_mean_error_bound(pareto_market(), 0.0, 0.2)
        assert b.constants["C1"] == 1.0
        assert b.constants["C2"] == pytest.approx(JM_PRESET_C2, rel=1e-12)
        assert b.bound_value == pytest.approx(JM_PRESET_BOUND, rel=1e-12)
        assert b.inputs_echo["mu_F"] == pytest.approx(
            0.601590860703622, rel=1e-14
        )
        assert b.inputs_echo["sigma_F"] == pytest.approx(
            0.5133281281070506, rel=1e-12
        )

    def test_bounded_positive_sizes_constants(self):
        b = ax.jump_mean_error_bound(positive_sizes_market(), -0.5, 0.5)
        assert b.constants["C1"] == pytest.approx(JM_CASEBF_C1, rel=1e-12)
        assert b.constants["C2"] == pytest.approx(JM_CASEBF_C2, rel=1e-12)
        assert b.bound_value == pytest.approx(JM_CASEBF_BOUND, rel=1e-11)

    def test_two_sided_constants(self):
        b = ax.jump_mean_error_bound(uniform_market(), -0.4, 0.8)
        assert b.constants["C1"] == pytest.approx(JM_CASEA_C1, rel=1e-12)
        assert b.constants["C2"] == pytest.approx(JM_CASEA_C2, rel=1e-12)
        assert b.bound_value == pytest.approx(JM_CASEA_BOUND, rel=1e-12)

    def test_negative_mean_uses_lower_corner(self):
        # mu_F < 0 flips the wealth-factor corner to (pi_min, psi1)
        b = ax.jump_mean_error_bound(negative_mean_market(), -0.9, 0.9)
        assert b.constants["C1"] == pytest.approx(JM_NEGMEAN_C1, rel=1e-11)
        assert b.constants["C2"] == pytest.approx(JM_NEGMEAN_C2, rel=1e-12)
        assert b.bound_value == pytest.approx(JM_NEGMEAN_BOUND, rel=1e-11)

    def test_bounded_negative_sizes_constants(self):
        b = ax.jump_mean_error_bound(negative_sizes_market(), -0.5, 0.5)
        assert b.case is CaseTag.NEGATIVE
        assert b.constants["C1"] == pytest.approx(JM_CASEC_C1, rel=1e-12)
        assert b.constants["C2"] == pytest.approx(JM_CASEC_C2, rel=1e-12)
        assert b.bound_value == pytest.approx(JM_CASEC_BOUND, rel=1e-12)

    def test_single_size_jumps_have_zero_bound(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.2, psi=1.0,
            measure=ConstantJump(size=0.6, rate=2.0),
        )
        b = ax.jump_mean_error_bound(m, -0.5, 0.5)
        assert b.bound_value == 0.0
        assert b.inputs_echo["sigma_F"] == 0.0

    def test_degenerate_without_brownian_or_mean(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.0, psi=1.0,
            measure=UniformJump(-0.5, 0.5, 1.0),
        )
        with pytest.raises(DegenerateError):
            ax.jump_mean_error_bound(m, -0.5, 0.5)

    def test_rejected_without_jumps(self):
        with pytest.raises(CaseError):
            ax.jump_mean_error_bound(gaussian_market(), -1.0, 1.0)

    def test_rejected_for_infinite_activity(self):
        meas = LevyDensity(
            lambda y: y ** -1.5, (0.0, 1.0), small_order=0.5
        )
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.3, psi=1.0, measure=meas,
        )
        with pytest.raises(CaseError):
            ax.jump_mean_error_bound(m, -0.5, 0.5)

    def test_echo_is_complete(self):
        b = ax.jump_mean_error_bound(uniform_market(), -0.4, 0.8)
        assert set(b.inputs_echo) == {
            "delta", "pi_min", "pi_max", "m", "M", "psi2", "sigma1_sq",
            "mu_F", "sigma_F",
        }

    @pytest.mark.parametrize(
        "market_fn,lo,hi",
        [
            (pareto_market, 0.0, 0.2),
            (uniform_market, -0.4, 0.8),
            (positive_sizes_market, -0.5, 0.5),
        ],
    )
    def test_bound_dominates_observed_gap(self, market_fn, lo, hi):
        m = market_fn()
        b = ax.jump_mean_error_bound(m, lo, hi)
        s_grid = np.linspace(-2.0, 8.0, 200)
        exact, _ = sg.optimal_fraction_grid(m, 0.0, s_grid, lo, hi)
        vals, _, _ = ax.jump_mean_fraction_grid(m, 0.0, s_grid, lo, hi)
        assert float(np.max(np.abs(exact - vals))) <= b.bound_value


INF = math.inf
#: support, its binding ends, and the admissible set (lo, hi, lo_open,
#: hi_open) at impact 1, for every sign pattern of the support
SIGN_PATTERNS = [
    ((-0.5, 1.0), (1.0, -0.5), (-1.0, 2.0, True, True)),
    ((0.25, 0.5), (0.5,), (-2.0, INF, True, True)),
    ((0.0, 0.5), (0.5,), (-2.0, INF, True, True)),
    ((-0.5, -0.25), (-0.5,), (-INF, 2.0, True, True)),
    ((-0.5, 0.0), (-0.5,), (-INF, 2.0, True, True)),
    ((0.25, INF), (INF,), (0.0, INF, False, True)),
    ((-INF, -0.25), (-INF,), (-INF, 0.0, True, False)),
    ((-0.5, INF), (INF, -0.5), (0.0, 2.0, False, True)),
    ((0.0, 0.0), (), (-INF, INF, True, True)),
]


@pytest.mark.parametrize("support,ends,limits", SIGN_PATTERNS,
                         ids=[str(p[0]) for p in SIGN_PATTERNS])
def test_admissible_set_and_bounds_read_the_same_binding_ends(
        support, ends, limits):
    # A {0} support with a positive rate has no binding end: it admits
    # every fraction (admissible_set divided by M = 0 there), and both
    # bounds take their delta*psi2*|end| terms from the same ends.
    measure = CompoundPoisson(1.0, lambda y: math.exp(-abs(y)), support)
    assert binding_ends(measure) == ends
    adm = admissible_set(measure, 1.0)
    assert (adm.lo, adm.hi, adm.lo_open, adm.hi_open) == limits
    market = mk.MarketCoefficients(lam=0.3, b=0.1, sigma=0.3, psi=1.0,
                                   measure=measure)
    pi_min, pi_max = max(adm.lo / 2.0, -0.5), min(adm.hi / 2.0, 0.5)
    delta = adm.boundary_distance(pi_min, pi_max)
    xs = [delta * abs(end) for end in ends if math.isfinite(end)]
    merton = ax.merton_error_bound(market, pi_min, pi_max)
    assert merton.constants["C"] == merton.constants["C0"] / min([1.0, *xs])
    jump_mean = ax.jump_mean_error_bound(market, pi_min, pi_max)
    c1 = (max([1.0, *(1.0 / (x * x) for x in xs)])
          + max([1.0, *(1.0 / x for x in xs)])) if xs else 1.0
    assert jump_mean.constants["C1"] == c1
    assert merton.case is jump_mean.case is adm.case


class TestApproxTables:
    def test_merton_table_nodes_and_ends(self):
        m = pareto_market()
        times = np.array([0.0, 12.0])
        tab = ax.merton_fraction_table(m, times, 0.0, 0.2, ns=65)
        assert tab.values.shape == (2, 65)
        # constant coefficients: the same row is reused at every time node
        assert np.array_equal(tab.values[0], tab.values[1])
        assert tab.values[0, 0] == pytest.approx(0.2, abs=1e-12)
        assert tab.values[0, -1] == pytest.approx(0.0, abs=1e-12)
        s_nodes = tab.s1[0] + np.linspace(0.0, 1.0, 65) * (
            tab.s2[0] - tab.s1[0]
        )
        direct, _, _ = ax.merton_fraction_grid(m, 0.0, s_nodes, 0.0, 0.2)
        assert np.allclose(tab.values[0], direct, rtol=0.0, atol=1e-12)

    def test_merton_table_interpolation_is_exact(self):
        # the rule is linear in price, so linear interpolation is lossless
        m = uniform_market()
        tab = ax.merton_fraction_table(m, np.array([0.0]), -0.4, 0.8, ns=33)
        s_nodes = tab.s1[0] + np.linspace(0.0, 1.0, 33) * (
            tab.s2[0] - tab.s1[0]
        )
        mid = 0.5 * (s_nodes[:-1] + s_nodes[1:])
        interp = 0.5 * (tab.values[0, :-1] + tab.values[0, 1:])
        direct, _, _ = ax.merton_fraction_grid(m, 0.0, mid, -0.4, 0.8)
        assert np.allclose(interp, direct, rtol=0.0, atol=1e-12)

    def test_jump_mean_table_nodes_and_interpolation(self):
        m = pareto_market()
        tab = ax.jump_mean_fraction_table(
            m, np.array([0.0]), 0.0, 0.2, ns=257
        )
        assert tab.values[0, 0] == pytest.approx(0.2, abs=1e-12)
        assert tab.values[0, -1] == pytest.approx(0.0, abs=1e-12)
        s_nodes = tab.s1[0] + np.linspace(0.0, 1.0, 257) * (
            tab.s2[0] - tab.s1[0]
        )
        direct, _, _ = ax.jump_mean_fraction_grid(m, 0.0, s_nodes, 0.0, 0.2)
        assert np.allclose(tab.values[0], direct, rtol=0.0, atol=1e-12)
        mid = 0.5 * (s_nodes[:-1] + s_nodes[1:])
        interp = 0.5 * (tab.values[0, :-1] + tab.values[0, 1:])
        exact_mid, _, _ = ax.jump_mean_fraction_grid(
            m, 0.0, mid, 0.0, 0.2
        )
        assert np.max(np.abs(interp - exact_mid)) < 5e-6


@pytest.mark.parametrize("grid", [ax.merton_fraction_grid,
                                  ax.jump_mean_fraction_grid])
@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_nan_price_is_rejected_by_the_approximations(grid, name):
    # the rule of the exact solve: a NaN drift gap has no fraction (the
    # grids used to return NaN, marked clamped, or raise BranchError)
    p = presets.get_preset(name)
    grid(p.market, 0.0, [1.0, 2.0], p.pi_min, p.pi_max)
    with pytest.raises(DomainError, match="NaN"):
        grid(p.market, 0.0, [1.0, math.nan], p.pi_min, p.pi_max)


RULES = [sg.optimal_fraction_grid, ax.merton_fraction_grid,
         ax.jump_mean_fraction_grid]


@pytest.mark.parametrize("rule", RULES, ids=["exact", "merton", "jump-mean"])
@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_infinite_price_is_rejected_by_every_rule(rule, name):
    # the exact rule clamped, the risk-ratio rule returned NaN marked
    # clamped, and the jump-mean rule raised BranchError on
    # uniform-two-sided
    p = presets.get_preset(name)
    for s in (math.inf, -math.inf):
        with pytest.raises(DomainError, match="infinite"):
            rule(p.market, 0.0, [1.0, s], p.pi_min, p.pi_max)


@pytest.mark.parametrize("rule", RULES, ids=["exact", "merton", "jump-mean"])
@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_every_rule_clamps_the_largest_finite_prices(rule, name):
    # the risk-ratio rule returned NaN marked clamped on gaussian
    p = presets.get_preset(name)
    pi, clamped = rule(p.market, 0.0, np.array([-1e308, 1e308]), p.pi_min,
                       p.pi_max)[:2]
    assert np.array_equal(pi, [p.pi_max, p.pi_min])
    assert clamped.all()
