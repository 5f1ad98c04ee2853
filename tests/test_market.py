"""Market model: case classification, admissible sets, coefficient
validation, analytic moments, and the path simulator.

Frozen reference values were computed with mpmath (40 digits) from the
closed-form mean/variance integrals; they are independent of the
quadrature route used by the implementation.
"""

import math
import os
import warnings

import numpy as np
import pytest

from levyou import market as mk
from levyou.errors import (
    AdmissibilityError,
    CaseError,
    ConfigError,
    DomainError,
    QuadratureError,
)
from levyou.jumps import (
    CompoundPoisson,
    LevyDensity,
    NoJumps,
    ParetoJump,
    UniformJump,
)

BACKENDS = ["numpy"]

# calibrated example used throughout: hourly mean reversion and jump rate,
# Pareto jump sizes, no Brownian part
LAM = 0.3333 / 24
ETA = 3.7249 / 24
PARETO = dict(alpha=2.5406, scale=0.3648, rate=ETA)
B_CAL = 0.074695526567830715  # 0.8 * eta * mean jump size


def calibrated_market():
    return mk.MarketCoefficients(
        lam=LAM, b=B_CAL, sigma=0.0, psi=1.0,
        measure=ParetoJump(**PARETO), compensated=True,
    )


class TestCaseClassification:
    def test_positive_support(self):
        assert mk.classify_case(ParetoJump(**PARETO)) is mk.CaseTag.POSITIVE
        assert mk.classify_case(UniformJump(0.1, 0.5, 1.0)) is mk.CaseTag.POSITIVE

    def test_two_sided_support(self):
        assert mk.classify_case(UniformJump(-0.5, 1.0, 1.0)) is mk.CaseTag.TWO_SIDED

    def test_negative_support(self):
        assert mk.classify_case(UniformJump(-0.5, -0.1, 1.0)) is mk.CaseTag.NEGATIVE

    def test_no_jumps(self):
        assert mk.classify_case(NoJumps()) is mk.CaseTag.CONTINUOUS

    def test_zero_rate_counts_as_continuous(self):
        assert mk.classify_case(UniformJump(-0.5, 1.0, 0.0)) is mk.CaseTag.CONTINUOUS


class TestAdmissibleSet:
    def test_two_sided(self):
        adm = mk.admissible_set(UniformJump(-0.5, 1.0, 1.0), 1.0)
        assert adm.lo == -1.0 and adm.hi == 2.0
        assert adm.lo_open and adm.hi_open
        assert adm.case is mk.CaseTag.TWO_SIDED

    def test_two_sided_scales_with_impact(self):
        adm = mk.admissible_set(UniformJump(-0.5, 1.0, 1.0), 2.0)
        assert adm.lo == -0.5 and adm.hi == 1.0

    def test_positive_unbounded_sizes(self):
        # unbounded positive jumps: only nonnegative fractions, 0 included
        adm = mk.admissible_set(ParetoJump(**PARETO), 1.0)
        assert adm.lo == 0.0 and not adm.lo_open
        assert math.isinf(adm.hi) and adm.hi_open

    def test_positive_bounded_sizes(self):
        adm = mk.admissible_set(UniformJump(0.1, 0.5, 1.0), 1.0)
        assert adm.lo == -2.0 and adm.lo_open
        assert math.isinf(adm.hi)

    def test_negative_bounded_sizes(self):
        adm = mk.admissible_set(UniformJump(-0.5, -0.1, 1.0), 1.0)
        assert math.isinf(adm.lo) and adm.lo < 0
        assert adm.hi == 2.0 and adm.hi_open

    def test_negative_unbounded_sizes(self):
        meas = CompoundPoisson(
            rate=1.0,
            size_density=lambda y: np.exp(y),
            support=(-math.inf, -0.0),
        )
        adm = mk.admissible_set(meas, 1.0)
        assert math.isinf(adm.lo)
        assert adm.hi == 0.0 and not adm.hi_open

    def test_no_jumps_whole_line(self):
        adm = mk.admissible_set(NoJumps(), 1.0)
        assert math.isinf(adm.lo) and math.isinf(adm.hi)

    def test_zero_impact_whole_line(self):
        adm = mk.admissible_set(UniformJump(-0.5, 1.0, 1.0), 0.0)
        assert math.isinf(adm.lo) and math.isinf(adm.hi)

    def test_boundary_distance_two_sided(self):
        adm = mk.admissible_set(UniformJump(-0.5, 1.0, 1.0), 1.0)
        assert adm.boundary_distance(-0.5, 1.0) == pytest.approx(0.5)
        assert adm.boundary_distance(0.0, 1.5) == pytest.approx(0.5)

    def test_boundary_distance_ignores_infinite_and_closed_ends(self):
        adm = mk.admissible_set(ParetoJump(**PARETO), 1.0)
        assert math.isinf(adm.boundary_distance(0.0, 0.2))
        adm2 = mk.admissible_set(UniformJump(0.1, 0.5, 1.0), 1.0)
        assert adm2.boundary_distance(-1.0, 5.0) == pytest.approx(1.0)

    def test_contains_interval_respects_closed_zero(self):
        adm = mk.admissible_set(ParetoJump(**PARETO), 1.0)
        assert adm.contains_interval(0.0, 0.2)
        assert not adm.contains_interval(-0.01, 0.2)


class TestMarketValidation:
    def test_negative_mean_reversion_rejected(self):
        with pytest.raises(ConfigError):
            mk.MarketCoefficients(lam=-0.1, b=0.0, sigma=0.1, psi=1.0,
                                  measure=NoJumps())

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            mk.MarketCoefficients(lam=0.1, b=0.0, sigma=-0.1, psi=1.0,
                                  measure=NoJumps())

    def test_negative_psi_rejected(self):
        with pytest.raises(ConfigError):
            mk.MarketCoefficients(lam=0.1, b=0.0, sigma=0.1, psi=-1.0,
                                  measure=NoJumps())

    def test_infinite_second_moment_rejected(self):
        heavy = ParetoJump(alpha=1.8, scale=0.3, rate=1.0)
        with pytest.raises(ConfigError):
            mk.MarketCoefficients(lam=0.1, b=0.0, sigma=0.0, psi=1.0,
                                  measure=heavy)

    @pytest.mark.parametrize("density, support, compensated, order", [
        # Pareto alpha = 1.5 as a plain density: infinite second moment
        (lambda y: 1.5 * 0.3**1.5 / y**2.5, (0.3, math.inf), True, "second"),
        (lambda y: 0.5 * 0.3**0.5 / y**1.5, (0.3, math.inf), False, "second"),
        # y**-2.5 near the origin: finite second, divergent first moment
        (lambda y: 0.5 * y**-2.5, (0.0, 1.0), False, "first"),
    ], ids=["pareto-1.5", "pareto-0.5-raw", "origin-singular-raw"])
    def test_divergent_custom_moment_is_a_config_error(
            self, density, support, compensated, order):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConfigError, match=f"finite {order} moment") \
                    as info:
                mk.MarketCoefficients(
                    lam=0.1, b=0.0, sigma=0.0, psi=1.0,
                    measure=CompoundPoisson(1.0, density, support),
                    compensated=compensated)
        assert isinstance(info.value.__cause__, QuadratureError)

    def test_time_varying_needs_ranges(self):
        with pytest.raises(ConfigError):
            mk.MarketCoefficients(lam=0.1, b=0.0, sigma=lambda t: 0.1,
                                  psi=1.0, measure=NoJumps())

    def test_interval_must_contain_zero(self):
        with pytest.raises(AdmissibilityError):
            calibrated_market().validate_interval(0.1, 0.2)

    def test_interval_must_be_ordered(self):
        with pytest.raises(AdmissibilityError):
            calibrated_market().validate_interval(0.2, 0.2)

    def test_interval_must_be_admissible(self):
        with pytest.raises(AdmissibilityError):
            calibrated_market().validate_interval(-0.1, 0.2)
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.3, psi=1.0,
            measure=UniformJump(-0.5, 1.0, 1.0),
        )
        with pytest.raises(AdmissibilityError):
            m.validate_interval(-0.5, 2.5)

    def test_valid_interval_returns_distance(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.3, psi=1.0,
            measure=UniformJump(-0.5, 1.0, 1.0),
        )
        adm, dist = m.validate_interval(-0.5, 1.0)
        assert dist == pytest.approx(0.5)


class TestDriftSemantics:
    def test_compensated_drift_is_b(self):
        m = calibrated_market()
        assert m.foc_drift(3.0) == B_CAL

    def test_uncompensated_drift_adds_jump_flow(self):
        meas = UniformJump(-0.5, 1.0, 2.0)
        m = mk.MarketCoefficients(lam=0.3, b=0.1, sigma=0.3, psi=0.5,
                                  measure=meas, compensated=False)
        # mean jump flow: rate * E[size] = 2 * 0.25
        assert m.foc_drift(0.0) == pytest.approx(0.1 + 0.5 * 0.5, rel=1e-15)

    def test_time_varying_impact_scales_flow(self):
        meas = UniformJump(-0.5, 1.0, 2.0)
        m = mk.MarketCoefficients(
            lam=0.3, b=0.1, sigma=0.3, psi=lambda t: 0.5 + 0.1 * t,
            psi_range=(0.5, 2.9), measure=meas, compensated=False,
        )
        assert m.foc_drift(2.0) == pytest.approx(0.1 + 0.7 * 0.5, rel=1e-14)


class TestAnalyticMoments:
    def test_constant_mean_reference(self):
        m = calibrated_market()
        assert mk.analytic_mean(m, 0.0, 5.0, 24.0) == pytest.approx(
            5.1073166742300015, rel=1e-14
        )

    def test_constant_variance_reference(self):
        m = calibrated_market()
        assert mk.analytic_variance(m, 0.0, 24.0) == pytest.approx(
            1.7003780656881345, rel=1e-14
        )

    def test_time_varying_mean_reference(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=lambda v: 0.1 + 0.05 * math.sin(v), sigma=0.1,
            psi=0.0, measure=NoJumps(),
        )
        assert mk.analytic_mean(m, 0.0, 5.0, 24.0) == pytest.approx(
            0.30493180731383395, rel=1e-12
        )

    def test_time_varying_variance_reference(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=0.0,
            sigma=lambda v: 0.1 + 0.05 * math.sin(v),
            psi=lambda v: 0.5 + 0.1 * math.cos(v),
            sigma_range=(0.05, 0.15), psi_range=(0.4, 0.6),
            measure=UniformJump(-0.5, 1.0, 1.0),
        )
        assert mk.analytic_variance(m, 0.0, 24.0) == pytest.approx(
            0.10591755019938605, rel=1e-12
        )

    def test_zero_reversion_limits(self):
        m = mk.MarketCoefficients(lam=0.0, b=0.2, sigma=0.3, psi=0.0,
                                  measure=NoJumps())
        assert mk.analytic_mean(m, 0.0, 1.0, 3.0) == pytest.approx(1.0 + 0.6)
        assert mk.analytic_variance(m, 0.0, 3.0) == pytest.approx(0.27)

    def test_horizon_before_start_rejected(self):
        with pytest.raises(DomainError):
            mk.analytic_mean(calibrated_market(), 2.0, 5.0, 1.0)


class TestSimulatedMoments:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_calibrated_mean(self, backend):
        m = calibrated_market()
        pb = mk.simulate_paths(m, 0.0, 5.0, 24.0,
                               mk.SimConfig(8000, 48, 42), backend=backend)
        st = pb.prices[:, -1]
        se = st.std(ddof=1) / math.sqrt(len(st))
        assert abs(st.mean() - 5.1073166742300015) < 5 * se

    def test_mixed_uncompensated_mean_and_variance(self):
        meas = UniformJump(-0.5, 1.0, 1.0)
        m = mk.MarketCoefficients(lam=0.3, b=0.1, sigma=0.3, psi=0.7,
                                  measure=meas, compensated=False)
        pb = mk.simulate_paths(m, 0.0, 5.0, 12.0, mk.SimConfig(8000, 48, 43))
        st = pb.prices[:, -1]
        am = mk.analytic_mean(m, 0.0, 5.0, 12.0)
        av = mk.analytic_variance(m, 0.0, 12.0)
        se = st.std(ddof=1) / math.sqrt(len(st))
        assert abs(st.mean() - am) < 5 * se
        v = st.var(ddof=1)
        m4 = np.mean((st - st.mean()) ** 4)
        se_v = math.sqrt((m4 - v * v) / len(st))
        assert abs(v - av) < 5 * se_v

    def test_gaussian_exact_distribution(self):
        # constant coefficients use exact transition sampling: a single
        # step and many steps give the same terminal law
        m = mk.MarketCoefficients(lam=0.5, b=0.2, sigma=0.3, psi=0.0,
                                  measure=NoJumps())
        one = mk.simulate_paths(m, 0.0, 1.0, 2.0, mk.SimConfig(6000, 1, 7))
        many = mk.simulate_paths(m, 0.0, 1.0, 2.0, mk.SimConfig(6000, 64, 8))
        am = mk.analytic_mean(m, 0.0, 1.0, 2.0)
        av = mk.analytic_variance(m, 0.0, 2.0)
        for pb in (one, many):
            st = pb.prices[:, -1]
            se = st.std(ddof=1) / math.sqrt(len(st))
            assert abs(st.mean() - am) < 5 * se
            assert abs(st.var(ddof=1) - av) < 5 * av * math.sqrt(2 / len(st))

    def test_time_varying_coefficients_converge(self):
        m = mk.MarketCoefficients(
            lam=0.3, b=lambda v: 0.1 + 0.05 * math.sin(v),
            sigma=lambda v: 0.1 + 0.05 * math.sin(v),
            psi=lambda v: 0.5 + 0.1 * math.cos(v),
            sigma_range=(0.05, 0.15), psi_range=(0.4, 0.6),
            measure=UniformJump(-0.5, 1.0, 1.0),
        )
        pb = mk.simulate_paths(m, 0.0, 5.0, 24.0, mk.SimConfig(8000, 192, 44))
        st = pb.prices[:, -1]
        am = mk.analytic_mean(m, 0.0, 5.0, 24.0)
        se = st.std(ddof=1) / math.sqrt(len(st))
        # left-node coefficient freezing adds O(dt) bias; budget for it
        assert abs(st.mean() - am) < 5 * se + 2e-3
        assert st.var(ddof=1) == pytest.approx(
            mk.analytic_variance(m, 0.0, 24.0), rel=0.05
        )


class TestDeterminism:
    def test_snapshot(self):
        # regression guard: any change to the sampling scheme shows up here
        m = calibrated_market()
        pb = mk.simulate_paths(m, 0.0, 5.0, 24.0,
                               mk.SimConfig(4, 24, 20120808), backend="numpy")
        expect = [3.9850746526414373, 4.335327235148279,
                  4.325567225850992, 4.935340109590326]
        assert pb.prices[:, -1].tolist() == expect
        assert pb.prices[2, 5] == 4.574390709234927

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bitwise_repeatable(self, backend):
        m = calibrated_market()
        cfg = mk.SimConfig(32, 24, 5)
        a = mk.simulate_paths(m, 0.0, 5.0, 24.0, cfg, backend=backend)
        b = mk.simulate_paths(m, 0.0, 5.0, 24.0, cfg, backend=backend)
        assert np.array_equal(a.prices, b.prices)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batching_invariance(self, backend):
        m = calibrated_market()
        whole = mk.simulate_paths(
            m, 0.0, 5.0, 24.0, mk.SimConfig(50, 24, 6), backend=backend
        )
        first = mk.simulate_paths(
            m, 0.0, 5.0, 24.0, mk.SimConfig(17, 24, 6, path_offset=0),
            backend=backend,
        )
        rest = mk.simulate_paths(
            m, 0.0, 5.0, 24.0, mk.SimConfig(33, 24, 6, path_offset=17),
            backend=backend,
        )
        stitched = np.vstack([first.prices, rest.prices])
        assert np.array_equal(stitched, whole.prices)

    def test_environment_selects_no_backend(self, monkeypatch):
        # numpy is the one backend, so the environment selects nothing:
        # LEVYOU_BACKEND is not read, and a stale value no longer warns
        from levyou import _backend, _kernels_np
        monkeypatch.setenv("LEVYOU_BACKEND", "numba")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _backend._resolve_backend() == "numpy"
            assert _backend.get_kernels() is _kernels_np
            assert _backend.get_kernels("numpy") is _kernels_np

    def test_unknown_backend_name_raises(self):
        from levyou import _backend
        with pytest.raises(ConfigError, match="nmupy"):
            _backend.get_kernels("nmupy")
        with pytest.raises(ConfigError, match="numba"):
            mk.simulate_paths(calibrated_market(), 0.0, 5.0, 24.0,
                              mk.SimConfig(4, 24, 1), backend="numba")


class TestSimulationInputs:
    def test_bad_horizon_rejected(self):
        with pytest.raises(DomainError):
            mk.simulate_paths(calibrated_market(), 5.0, 5.0, 5.0,
                              mk.SimConfig(4, 4, 1))

    def test_infinite_activity_rejected(self):
        dens = LevyDensity(
            density=lambda y: y**-1.5,
            support=(0.0, 1.0),
            small_order=0.5,
        )
        m = mk.MarketCoefficients(lam=0.1, b=0.0, sigma=0.1, psi=1.0,
                                  measure=dens)
        with pytest.raises(CaseError):
            mk.simulate_paths(m, 0.0, 5.0, 24.0, mk.SimConfig(4, 4, 1))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            mk.SimConfig(0, 4, 1)
        with pytest.raises(ConfigError):
            mk.SimConfig(4, 0, 1)

    @pytest.mark.parametrize("name", ["n_paths", "n_steps", "seed",
                                      "path_offset"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), True,
                                       np.bool_(True), "4", None])
    def test_non_integer_config_rejected(self, name, value):
        # a float offset or seed would run truncated but be written to the
        # CSV headers as given
        settings = {"n_paths": 4, "n_steps": 4, "seed": 1, "path_offset": 0}
        settings[name] = value
        with pytest.raises(ConfigError, match=name):
            mk.SimConfig(**settings)

    @pytest.mark.parametrize("settings", [
        {"seed": -1}, {"seed": 2**64}, {"path_offset": -1},
        {"path_offset": 2**63}, {"path_offset": 2**63 - 3},
        {"path_offset": np.int64(2**63 - 1)},
    ])
    def test_out_of_range_seed_or_path_ids_rejected(self, settings):
        # the keys take the seed modulo 2**64 and the path ids as int64, so
        # these ran another seed's paths or overflowed
        with pytest.raises(ConfigError):
            mk.SimConfig(4, 4, **{"seed": 1, **settings})

    def test_largest_seed_and_path_ids_run(self):
        config = mk.SimConfig(4, 4, 2**64 - 1, path_offset=2**63 - 4)
        assert len(set(config.path_keys().tolist())) == 4

    def test_numpy_integer_config_runs_the_same_paths(self):
        m = calibrated_market()
        plain = mk.SimConfig(5, 6, 77, path_offset=3)
        typed = mk.SimConfig(np.int64(5), np.int32(6), np.uint64(77),
                             path_offset=np.int16(3))
        assert np.array_equal(typed.path_keys(), plain.path_keys())
        a = mk.simulate_paths(m, 0.0, 5.0, 24.0, plain, backend="numpy")
        b = mk.simulate_paths(m, 0.0, 5.0, 24.0, typed, backend="numpy")
        assert np.array_equal(a.prices, b.prices)

    @pytest.mark.parametrize("times", [
        [0.0],                    # one node: no step
        [0.0, 12.0, 12.0, 24.0],  # repeated node
        [0.0, 14.0, 12.0, 24.0],  # decreasing
        [1.0, 12.0, 24.0],        # does not start at t
        [0.0, 12.0, 23.0],        # does not end at T
        [0.0, np.nan, 24.0],
    ])
    def test_bad_time_grid_rejected(self, times):
        with pytest.raises(ConfigError, match="time grid"):
            mk.build_sim_inputs(calibrated_market(), 0.0, 24.0,
                                mk.SimConfig(4, 4, 1), times=times)

    @pytest.mark.parametrize("times", [
        None,                                  # the uniform grid
        [0.0, 1.0, 2.0, 6.0, 7.0, 12.0, 24.0],  # three steps of 1
        [0.0, 0.5, 3.0, 24.0],                 # no mean repeats
    ])
    def test_one_poisson_table_per_step_mean(self, times, monkeypatch):
        # Each distinct rate * dt gets one table; the rows equal a table
        # built for every step, padded with 2.0 to the widest.
        m = calibrated_market()
        calls = []
        table = mk._rng.poisson_cdf_table
        monkeypatch.setattr(mk._rng, "poisson_cdf_table",
                            lambda mu: calls.append(mu) or table(mu))
        sim = mk.build_sim_inputs(m, 0.0, 24.0, mk.SimConfig(4, 96, 1),
                                  times=times)
        means = m.measure.rate * np.diff(sim.times)
        assert sorted(calls) == sorted(set(means.tolist()))
        rows = [table(mu) for mu in means]
        want = np.full((len(rows), max(map(len, rows)) + 1), 2.0)
        for k, row in enumerate(rows):
            want[k, :len(row)] = row
        np.testing.assert_array_equal(sim.cdf.view(np.int64),
                                      want.view(np.int64))

    def test_grid_endpoints(self):
        pb = mk.simulate_paths(calibrated_market(), 1.0, 5.0, 24.0,
                               mk.SimConfig(2, 10, 1))
        assert pb.times[0] == 1.0 and pb.times[-1] == 24.0
        assert len(pb.times) == 11
        assert np.all(pb.prices[:, 0] == 5.0)


class TestCSV:
    def test_round_trip(self, tmp_path):
        m = calibrated_market()
        pb = mk.simulate_paths(m, 0.0, 5.0, 24.0,
                               mk.SimConfig(5, 6, 77, path_offset=3))
        f = tmp_path / "paths.csv"
        pb.to_csv(f)
        assert f.read_text().splitlines()[1] == (
            "# seed=77 path_offset=3 n_paths=5 n_steps=6")
        rows = np.loadtxt(f, delimiter=",", skiprows=3)
        assert np.array_equal(rows[:, 0], np.repeat(np.arange(3, 8), 7))
        assert np.array_equal(rows[:, 1], np.tile(pb.times, 5))
        assert np.array_equal(rows[:, 2].reshape(5, 7), pb.prices)
