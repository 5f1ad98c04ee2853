"""Tests for jump measures and their integral transforms.

All reference numbers were computed independently with mpmath quadrature /
closed-form moment algebra at 40- to 90-digit precision and frozen here.
The package route (scipy adaptive quadrature of y^2 nu against a bounded
kernel, on the support cut at 0, +-1 and +-1/|pi psi|) never sees mpmath,
so agreement is a real cross-check of two routes.
"""

import math

import numpy as np
import pytest

from levyou import jumps, presets
from levyou.errors import (AdmissibilityError, CaseError, DomainError,
                           QuadratureError)
from levyou.jumps import (
    CompoundPoisson,
    ConstantJump,
    JumpMeasure,
    LevyDensity,
    NoJumps,
    ParetoJump,
    UniformJump,
    log1p_minus,
)
from levyou.market import MarketCoefficients

ALPHA = 2.5406
SCALE = 0.3648
RATE = 3.7249 / 24.0


@pytest.fixture(scope="module")
def pareto():
    return ParetoJump(alpha=ALPHA, scale=SCALE, rate=RATE)


@pytest.fixture(scope="module")
def uniform():
    return UniformJump(lo=-0.5, hi=1.0, rate=1.0)


@pytest.fixture(scope="module")
def singular():
    # Lévy density y**(-2.5) * exp(-y) on (0, inf): infinite activity with
    # small-jump order 1.5.
    return LevyDensity(
        density=lambda y: y**-2.5 * math.exp(-y),
        support=(0.0, math.inf),
        small_order=1.5,
    )


class TestParetoMoments:
    def test_mean_size(self, pareto):
        np.testing.assert_allclose(
            pareto.mean_size, 0.60159086070362197, rtol=1e-14
        )

    def test_second_size_moment(self, pareto):
        np.testing.assert_allclose(
            pareto.size_second_moment, 0.62541733078801332, rtol=1e-14
        )

    def test_size_std(self, pareto):
        np.testing.assert_allclose(
            pareto.size_std, 0.51332812810705068, rtol=1e-14
        )

    def test_second_measure_moment(self, pareto):
        # eta * E[Y^2], the jump contribution to the quadratic variation rate
        np.testing.assert_allclose(
            pareto.moment(2), 0.097067375643844617, rtol=1e-14
        )

    def test_first_measure_moment(self, pareto):
        np.testing.assert_allclose(
            pareto.moment(1), 0.093369408209788394, rtol=1e-14
        )

    def test_heavy_tail_moments_are_infinite(self, pareto):
        assert pareto.moment(3) == math.inf
        assert pareto.abs_moment(3) == math.inf
        assert pareto.moment(ALPHA) == math.inf

    def test_quadrature_route_agrees_with_closed_form(self, pareto):
        # the generic quadrature path (bypassing the analytic override)
        got = JumpMeasure.moment(pareto, 2)
        np.testing.assert_allclose(got, 0.62541733078801332 * RATE, rtol=1e-9)


class TestParetoTransforms:
    # mpmath references for the quadrature route, psi = 1
    DRAG = {
        0.01: 0.00089490983114224918,
        0.1: 0.0073435814743086872,
        1.0: 0.038419091841385143,
        10.0: 0.080368378696395869,
        100.0: 0.091847256992017126,
    }

    @pytest.mark.parametrize("pi", sorted(DRAG))
    def test_drag_integral(self, pareto, pi):
        np.testing.assert_allclose(
            pareto.drag_integral(pi), self.DRAG[pi], rtol=1e-10
        )

    @pytest.mark.parametrize("pi", sorted(DRAG))
    def test_closed_form_drag(self, pareto, pi):
        np.testing.assert_allclose(
            pareto.drag(pi), self.DRAG[pi], rtol=1e-12
        )

    def test_log_penalty(self, pareto):
        np.testing.assert_allclose(
            pareto.log_penalty_integral(1.0),
            -0.023470812972472134,
            rtol=1e-10,
        )

    def test_curvature(self, pareto):
        np.testing.assert_allclose(
            pareto.curvature_integral(1.0),
            0.020739871946331504,
            rtol=1e-10,
        )

    def test_curvature_closed_form(self, pareto):
        np.testing.assert_allclose(
            pareto.curvature(1.0),
            0.020739871946331504,
            rtol=1e-12,
        )

    def test_curvature_closed_form_at_zero(self, pareto):
        np.testing.assert_allclose(
            pareto.curvature(0.0),
            pareto.moment(2),
            rtol=1e-14,
        )

    def test_tilted_second_moment(self, pareto):
        np.testing.assert_allclose(
            pareto.tilted_second_moment(1.0),
            0.038419091841385143,  # equals drag at pi = psi = 1
            rtol=1e-10,
        )

    # mpmath references (60 digits; quadrature and the 2F1 form agree to
    # 1e-52).  The quadrature route was 2.2e-7 relative off at 5e-13.
    TILTED = {
        5e-13: 0.097067354068828789,
        1e-6: 0.097012426725505647,
        1e-3: 0.094807129769271752,
    }

    @pytest.mark.parametrize("pi", sorted(TILTED))
    def test_tilted_second_moment_at_small_fractions(self, pareto, pi):
        np.testing.assert_allclose(
            pareto.tilted_second_moment(pi), self.TILTED[pi], rtol=1e-13
        )

    def test_scaled_impact_drag(self, pareto):
        np.testing.assert_allclose(
            pareto.drag_integral(0.7, psi=1.3),
            0.047425182789399889,
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            pareto.drag(0.7, psi=1.3),
            0.047425182789399889,
            rtol=1e-12,
        )

    def test_scaled_impact_log_penalty(self, pareto):
        np.testing.assert_allclose(
            pareto.log_penalty_integral(0.7, psi=1.3),
            -0.020099216582475277,
            rtol=1e-10,
        )

    # mpmath references for the closed-form log penalty, psi = 1: quadrature
    # over t = z0/y at 70 digits, which the hypergeometric route matches to
    # 1e-45
    LOGPEN = {
        1e-6: -4.8512056986981184e-14,
        5.3e-4: -1.3454609943331603e-08,
        1.07e-3: -5.450725234035087e-08,
        0.0865: -0.0002964972734110634,
        0.2: -0.0014150656626429254,
    }

    @pytest.mark.parametrize("pi", sorted(LOGPEN))
    def test_closed_form_log_penalty(self, pareto, pi):
        np.testing.assert_allclose(
            pareto.log_penalty(pi), self.LOGPEN[pi], rtol=1e-13
        )

    @pytest.mark.parametrize("pi", sorted(DRAG))
    def test_closed_forms_match_quadrature(self, pareto, pi):
        np.testing.assert_allclose(
            pareto.log_penalty(pi), pareto.log_penalty_integral(pi),
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            pareto.curvature(pi), pareto.curvature_integral(pi), rtol=1e-10
        )

    def test_scaled_impact_closed_form_log_penalty(self, pareto):
        np.testing.assert_allclose(
            pareto.log_penalty(0.7, psi=1.3),
            -0.020099216582475277,
            rtol=1e-10,
        )

    def test_log_penalty_vector_matches_scalar(self, pareto):
        pis = np.linspace(0.0, 0.2, 257)
        vec = pareto.log_penalty(pis)
        scl = np.array([pareto.log_penalty(float(p)) for p in pis])
        np.testing.assert_allclose(vec, scl, rtol=1e-15, atol=0.0)
        assert vec[0] == 0.0

    @pytest.mark.parametrize(
        "pi", [1e-4, 1e-8, 1e-20, 1e-100, 1e-160, 1e-200, 1e-300, 1e-310]
    )
    def test_closed_forms_at_tiny_fractions(self, pareto, pi):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            drag = pareto.drag(pi)
            curvature = pareto.curvature(pi)
            penalty = pareto.log_penalty(pi)
        # Below 1e-154 the penalty is subnormal or zero, where the float
        # grid is absolute (4.9e-324 apart).
        np.testing.assert_allclose(
            curvature, pareto.curvature_integral(pi), rtol=1e-10
        )
        np.testing.assert_allclose(
            drag, pareto.drag_integral(pi), rtol=1e-10
        )
        np.testing.assert_allclose(
            penalty, pareto.log_penalty_integral(pi), rtol=1e-10, atol=1e-322
        )
        # The leading terms pi*m2 and -pi^2*m2/2: the next term is about
        # (pi*z0)**(alpha - 2), 2e-11 relative at 1e-20, so they are checked
        # from there down.
        if pi <= 1e-20:
            m2 = pareto.moment(2)
            np.testing.assert_allclose(drag, pi * m2, rtol=1e-10)
            np.testing.assert_allclose(
                penalty, -0.5 * m2 * pi * pi, rtol=1e-10, atol=1e-322
            )

    def test_drag_vanishes_at_zero(self, pareto):
        assert pareto.drag_integral(0.0) == 0.0
        assert pareto.drag(0.0) == 0.0

    def test_negative_fraction_is_inadmissible(self, pareto):
        assert not pareto.admissible(-0.1)
        with pytest.raises(AdmissibilityError):
            pareto.drag_integral(-0.1)
        with pytest.raises(AdmissibilityError):
            pareto.drag(-0.1)
        with pytest.raises(AdmissibilityError):
            pareto.log_penalty(-0.1)
        with pytest.raises(AdmissibilityError):
            pareto.curvature(np.array([0.1, -0.1]))

    def test_closed_form_vector(self, pareto):
        pis = np.array([0.0, 0.01, 0.1, 1.0, 10.0, 100.0])
        vec = pareto.drag(pis)
        scl = np.array([pareto.drag(p) for p in pis])
        np.testing.assert_array_equal(vec, scl)


# mpmath references (60 digits, quadrature over t = z0/y) of drag, curvature
# and log penalty at psi = 1, for alpha at and within 1e-7 of the integers
INTEGER_ALPHA = {
    (2.0, 1e-4): (4.221260973961194e-05, 0.3808187612797409,
                  -2.213900082991657e-09),
    (2.0, 1e-8): (8.025930951039156e-09, 0.7612842522466102,
                  -4.1162375827884206e-17),
    (2.0, 1e-20): (1.9439986083818464e-20, 1.9026897653738464,
                   -9.82326514942923e-41),
    (3.0, 1e-4): (6.194016577195049e-06, 0.06191932736933326,
                  -3.097368152508949e-10),
    (3.0, 1e-8): (6.196326012021059e-10, 0.061963255954463156,
                  -3.098163076695442e-18),
    (3.0, 1e-20): (6.1963264512e-22, 0.061963264512, -3.0981632256e-42),
    (2.0000001, 1e-4): (4.2212589602840545e-05, 0.38081860005924967,
                        -2.2138989706216185e-09),
    (2.0000001, 1e-8): (8.025923487564741e-09, 0.7612835840929615,
                        -4.1162336504031366e-17),
    (2.0000001, 1e-20): (1.9439941245545185e-20, 1.9026854738804886,
                         -9.823242244294086e-41),
    (1.9999999, 1e-4): (4.221262987639724e-05, 0.3808189225003308,
                        -2.2139011953625016e-09),
    (1.9999999, 1e-8): (8.025938414523163e-09, 0.761284920401069,
                        -4.1162415151788945e-17),
    (1.9999999, 1e-20): (1.9440030922231408e-20, 1.9026940568802737,
                         -9.8232880546365e-41),
}
TRANSFORMS = ("drag", "curvature", "log_penalty")


@pytest.mark.parametrize("alpha,pi", sorted(INTEGER_ALPHA))
def test_closed_forms_at_integer_alpha(alpha, pi):
    measure = ParetoJump(alpha=alpha, scale=SCALE, rate=RATE)
    got = [getattr(measure, name)(pi) for name in TRANSFORMS]
    np.testing.assert_allclose(got, INTEGER_ALPHA[alpha, pi], rtol=1e-13)


@pytest.mark.parametrize("alpha,pi,name", [
    (alpha, pi, name) for alpha, pi in sorted(INTEGER_ALPHA)
    for name in TRANSFORMS])
def test_closed_forms_match_quadrature_at_integer_alpha(alpha, pi, name):
    measure = ParetoJump(alpha=alpha, scale=SCALE, rate=RATE)
    np.testing.assert_allclose(
        getattr(measure, name)(pi), getattr(measure, name + "_integral")(pi),
        rtol=1e-10,
    )


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.0000001, 1.9999999])
@pytest.mark.parametrize("pi", [1e-130, 1e-160, 1e-200, 1e-300, 1e-310])
def test_quadrature_at_tiny_fractions_is_right_or_raises(alpha, pi):
    # With alpha <= 2 the weight of y^2 nu lies out near y = 1/pi, where
    # the density has underflowed; a quadrature that cannot see it must
    # say so, not overflow (the density once raised OverflowError there).
    measure = ParetoJump(alpha=alpha, scale=SCALE, rate=RATE)
    for name in TRANSFORMS:
        try:
            got = getattr(measure, name + "_integral")(pi)
        except QuadratureError:
            continue
        assert math.isfinite(got), name
        np.testing.assert_allclose(got, getattr(measure, name)(pi),
                                   rtol=1e-10, atol=1e-322, err_msg=name)


@pytest.mark.parametrize("alpha,pi", [(2.0, 1e-110), (1.5, 1e-125)])
def test_quadrature_sees_the_far_tail_where_the_density_underflows(alpha,
                                                                   pi):
    # For alpha <= 2 the weight of y^2 nu lies near y = 1/pi, where the
    # Pareto density has underflowed; y^2 nu read in the ratio z0/y is in
    # range there (the quadrature raised QuadratureError).
    measure = ParetoJump(alpha=alpha, scale=SCALE, rate=RATE)
    for name in TRANSFORMS:
        np.testing.assert_allclose(getattr(measure, name + "_integral")(pi),
                                   getattr(measure, name)(pi), rtol=1e-13,
                                   atol=0.0, err_msg=name)


ROUTES = ("drag", "curvature", "log_penalty", "drag_integral",
          "curvature_integral", "log_penalty_integral",
          "tilted_second_moment")


@pytest.mark.parametrize("measure", [
    ParetoJump(alpha=ALPHA, scale=SCALE, rate=RATE),
    UniformJump(lo=-0.5, hi=1.0, rate=1.0),
    ConstantJump(size=-0.6, rate=2.0),
    NoJumps(),
    CompoundPoisson(0.5, lambda y: 0.75 * (1.0 - y * y), (-1.0, 1.0)),
], ids=["pareto", "uniform", "constant", "no-jumps", "compound-poisson"])
def test_every_route_gives_one_admissibility_verdict(measure):
    # At psi = 0 every fraction is admissible (the Pareto closed forms
    # rejected pi < 0), and a negative impact scale is a DomainError for
    # every measure with jumps (the quadrature, uniform and constant routes
    # returned values).
    for route in ROUTES:
        fn = getattr(measure, route)
        at_zero = measure.moment(2) if route == "tilted_second_moment" else 0.0
        assert fn(-0.1, 0.0) == at_zero
        if measure.rate == 0.0:
            assert fn(0.1, -0.5) == 0.0
        else:
            with pytest.raises(DomainError):
                fn(0.1, -0.5)


@pytest.mark.parametrize("measure", [
    ParetoJump(alpha=ALPHA, scale=SCALE, rate=0.0),
    UniformJump(lo=-0.5, hi=1.0, rate=0.0),
    ConstantJump(size=-0.6, rate=0.0),
], ids=["pareto", "uniform", "constant"])
def test_zero_rate_transforms_vanish_at_every_fraction(measure):
    # A zero rate admits every fraction; the closed forms evaluated their
    # kernels beyond the support bound there and returned NaN.
    for route in ROUTES:
        for pi in (-5.0, 5.0):
            assert getattr(measure, route)(pi) == 0.0
    for route in ROUTES[:3]:
        assert not np.any(getattr(measure, route)(np.array([-5.0, 5.0])))


def test_zero_rate_pareto_has_zero_moments():
    # The zero measure has every moment 0; the closed form returned inf for
    # k >= alpha whatever the rate, so a zero-rate market was refused.
    measure = ParetoJump(alpha=1.5, scale=0.3, rate=0.0)
    for k in (1, 1.5, 2, 3):
        assert measure.moment(k) == 0.0
        assert measure.abs_moment(k) == 0.0
    market = MarketCoefficients(lam=0.1, b=0.0, sigma=0.1, psi=1.0,
                                measure=measure)
    assert market.measure is measure


def test_inadmissible_fraction_message_names_one_fraction_and_the_set():
    # The message says the condition fails, and names the fraction furthest
    # outside the admissible set and the set, also for a 257-fraction grid.
    m = UniformJump(lo=-0.5, hi=1.0, rate=1.0)
    pattern = (r"fraction 5\.0 with impact 1\.0 breaks 1 \+ pi\*psi\*y > 0 "
               r".*admissible fractions are \(-1\.0, 2\.0\)$")
    with pytest.raises(AdmissibilityError, match=pattern):
        m.drag(5.0)
    with pytest.raises(AdmissibilityError, match=pattern) as info:
        m.drag(np.linspace(0.0, 5.0, 257))
    assert "4.98" not in str(info.value)
    with pytest.raises(AdmissibilityError, match=r"fraction -3\.0 "):
        m.drag(np.array([-3.0, 0.5]))
    with pytest.raises(AdmissibilityError, match=r"fraction 4\.0 "):
        m.drag(np.array([3.0, 4.0]))
    with pytest.raises(AdmissibilityError, match=r"are \[0\.0, inf\)$"):
        ParetoJump(alpha=ALPHA, scale=SCALE, rate=RATE).drag(-0.1)


class TestUniformTransforms:
    def test_moments(self, uniform):
        np.testing.assert_allclose(uniform.moment(1), 0.25, rtol=1e-14)
        np.testing.assert_allclose(uniform.moment(2), 0.25, rtol=1e-14)
        np.testing.assert_allclose(
            uniform.abs_moment(3), 0.17708333333333333, rtol=1e-14
        )

    def test_moment_quadrature_route(self, uniform):
        got = JumpMeasure.abs_moment(uniform, 3)
        np.testing.assert_allclose(got, 0.17708333333333333, rtol=1e-9)

    DRAG = {0.7: 0.12947097572057776, 1.9: 0.4735351820030322,
            -0.9: -0.83983427936339812}
    LOGPEN = {0.7: -0.049212454984966723, 1.9: -0.3390534207172836,
              -0.9: -0.20535135842481114}

    @pytest.mark.parametrize("pi", sorted(DRAG))
    def test_drag(self, uniform, pi):
        np.testing.assert_allclose(
            uniform.drag_integral(pi), self.DRAG[pi], rtol=1e-10
        )

    @pytest.mark.parametrize("pi", sorted(LOGPEN))
    def test_log_penalty(self, uniform, pi):
        np.testing.assert_allclose(
            uniform.log_penalty_integral(pi), self.LOGPEN[pi], rtol=1e-10
        )

    def test_admissible_window(self, uniform):
        # support [-0.5, 1]: need -1 < pi < 2
        assert uniform.admissible(1.99)
        assert uniform.admissible(-0.99)
        assert not uniform.admissible(2.0)
        assert not uniform.admissible(-1.0)

    # mpmath references (90 digits) for the closed forms, psi = 1:
    # pi -> (drag, curvature, log penalty)
    CLOSED = {
        -0.4: (-0.13811325233310548, 0.4899892938900283,
               -0.024531262646100067),
        -1e-7: (-2.5000001562500137e-08, 0.25000003125000414,
                -1.2500000520833367e-15),
        0.0: (0.0, 0.25, 0.0),
        1e-9: (2.4999999984375e-10, 0.2499999996875,
               -1.2499999994791668e-19),
        0.5: (0.0983924814931875, 0.1619856295828056,
              -0.026387711331890308),
        0.8: (0.1443878006959476, 0.14828975751939028,
              -0.06290719076382616),
    }

    @pytest.mark.parametrize("pi", sorted(CLOSED))
    def test_closed_forms(self, uniform, pi):
        got = (uniform.drag(pi), uniform.curvature(pi),
               uniform.log_penalty(pi))
        np.testing.assert_allclose(got, self.CLOSED[pi], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("pi", sorted(DRAG))
    @pytest.mark.parametrize("psi", [1.0, 0.7])
    def test_closed_forms_match_quadrature(self, uniform, pi, psi):
        pairs = ((uniform.drag, uniform.drag_integral),
                 (uniform.curvature, uniform.curvature_integral),
                 (uniform.log_penalty, uniform.log_penalty_integral))
        for closed, integral in pairs:
            np.testing.assert_allclose(
                closed(pi, psi), integral(pi, psi), rtol=1e-10
            )

    def test_closed_forms_vector_matches_scalar(self, uniform):
        pis = np.append(np.linspace(-0.99, 1.99, 41), 0.0)
        for fn in (uniform.drag, uniform.curvature, uniform.log_penalty):
            np.testing.assert_allclose(
                fn(pis, 0.7), [fn(float(p), 0.7) for p in pis],
                rtol=1e-15, atol=0.0,
            )

    @pytest.mark.parametrize("kernel", [jumps._g_drag, jumps._g_curvature,
                                        jumps._g_log_penalty])
    @pytest.mark.parametrize("u", [0.179, -0.31, 0.4999, 1e-9])
    def test_kernel_value_does_not_depend_on_its_array(self, kernel, u):
        # The series branch (|u| < 0.5) once summed by a BLAS product, so
        # one fraction's value moved with the length of its array.
        one = kernel(np.array([u]))[0]
        for n in range(1, 65):
            np.testing.assert_array_equal(kernel(np.full(n, u)), one)
        mixed = kernel(np.array([0.7, -0.2, u, 0.01, u, 3.0]))
        assert mixed[2] == mixed[4] == one

    def test_inadmissible_fractions_rejected(self, uniform):
        assert uniform.admissible(np.array([-0.99, 0.0, 1.99]))
        assert not uniform.admissible(np.array([0.5, 2.0]))
        for fn in (uniform.drag, uniform.curvature, uniform.log_penalty):
            for bad in (2.0, -1.0, np.array([0.5, 2.5]),
                        np.array([[-1.2], [0.0]])):
                with pytest.raises(AdmissibilityError):
                    fn(bad)
            with pytest.raises(AdmissibilityError):
                fn(1.5, psi=1.5)

    def test_curvature_matches_drag_derivative(self, uniform):
        h = 1e-6
        fd = (uniform.drag_integral(0.7 + h) - uniform.drag_integral(0.7 - h)) / (
            2.0 * h
        )
        np.testing.assert_allclose(
            uniform.curvature_integral(0.7), fd, rtol=1e-8
        )


class TestSingularDensity:
    def test_moments(self, singular):
        np.testing.assert_allclose(
            singular.moment(2), 1.772453850905516, rtol=1e-9
        )
        np.testing.assert_allclose(
            singular.moment(3), 0.88622692545275801, rtol=1e-9
        )
        assert singular.moment(1) == math.inf
        assert singular.abs_moment(1.5) == math.inf
        assert not singular.is_finite_activity

    # pi = 1e-4 and 1e-8 from 40-digit mpmath
    DRAG = {2.0: 2.324323459840332, 0.3: 0.47382181661502086,
            1e-4: 0.00017723652415030525, 1e-8: 1.7724538420432469e-08}
    CURV = {2.0: 0.886226925452758, 0.3: 1.4331956794320786,
            1e-4: 1.7722766453873495, 1e-8: 1.7724538331809779}
    LOGPEN = {2.0: -2.5742292345101578, 0.3: -0.073560118900447559,
              1e-4: -8.861973878779295e-09, 1e-8: -8.8622692249866833e-17}

    @pytest.mark.parametrize("pi", sorted(DRAG))
    def test_drag(self, singular, pi):
        np.testing.assert_allclose(
            singular.drag_integral(pi), self.DRAG[pi], rtol=1e-9
        )

    @pytest.mark.parametrize("pi", sorted(CURV))
    def test_curvature(self, singular, pi):
        np.testing.assert_allclose(
            singular.curvature_integral(pi), self.CURV[pi], rtol=1e-9
        )

    @pytest.mark.parametrize("pi", sorted(LOGPEN))
    def test_log_penalty(self, singular, pi):
        np.testing.assert_allclose(
            singular.log_penalty_integral(pi), self.LOGPEN[pi], rtol=1e-9
        )

    def test_no_sampler(self, singular):
        with pytest.raises(CaseError):
            singular.sampler_code()

    def test_mean_size_undefined(self, singular):
        with pytest.raises(CaseError):
            singular.mean_size


class TestNoJumps:
    def test_all_zero(self):
        none = NoJumps()
        assert none.moment(2) == 0.0
        assert none.drag_integral(5.0) == 0.0
        assert none.log_penalty_integral(5.0) == 0.0
        assert none.curvature_integral(5.0) == 0.0
        assert none.tilted_second_moment(5.0) == 0.0
        assert none.admissible(1e12)
        assert none.rate == 0.0

    @pytest.mark.parametrize("shape", [(), (0,), (4,), (2, 3)])
    def test_transforms_are_zeros_in_the_input_shape(self, shape):
        none = NoJumps()
        pis = np.full(shape, 0.7)
        for fn in (none.drag, none.curvature, none.log_penalty):
            out = fn(pis if shape else 0.7, psi=1.3)
            if shape:
                assert out.shape == shape
                assert not np.any(out)
            else:
                assert out == 0.0 and isinstance(out, float)


class TestEmptySupport:
    """An empty support integrates to 0 with no quadrature, so the zero
    measure never reaches scipy."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def _raise(*_, **__):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(jumps, "_quad", _raise)

    @pytest.mark.parametrize("k", [1, 2])
    def test_moments(self, k):
        assert NoJumps().moment(k) == 0.0
        assert NoJumps().abs_moment(k) == 0.0

    @pytest.mark.parametrize("pi", [-1.5, 0.0, 0.3])
    def test_transforms(self, pi):
        none = NoJumps()
        for fn in (none.drag_integral, none.log_penalty_integral,
                   none.curvature_integral, none.tilted_second_moment,
                   none.drag, none.curvature, none.log_penalty):
            assert fn(pi, 1.2) == 0.0, fn.__name__

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_integrate(self, x):
        assert jumps._integrate(math.exp, 0.0, 0.0, x) == 0.0

    def test_market_coefficients(self):
        market = MarketCoefficients(lam=0.5, b=1.0, sigma=0.2, psi=1.0,
                                    measure=NoJumps())
        assert market.jump_second_moment == 0.0

    @pytest.mark.parametrize("support", [(1.0, 0.0), (math.nan, 1.0),
                                         (0.0, math.nan)])
    def test_a_reversed_or_nan_support_is_rejected(self, support):
        with pytest.raises(DomainError, match="m <= M"):
            CompoundPoisson(1.0, lambda y: 1.0, support)
        with pytest.raises(DomainError, match="m <= M"):
            LevyDensity(lambda y: abs(y) ** -1.5, support, 0.5)


class TestPerFractionQuadrature:
    """The quadrature route for measures without a closed form."""

    @pytest.mark.parametrize("measure", [
        CompoundPoisson(1.0, lambda y: 1.0, (0.0, 1.0)),
        NoJumps(),
    ], ids=["compound-poisson", "no-jumps"])
    def test_two_dimensional_fractions(self, measure):
        pis = np.array([[0.0, 0.3], [-0.2, 1.5]])
        for fn in (measure.drag, measure.curvature, measure.log_penalty):
            out = fn(pis, 1.2)
            assert out.shape == (2, 2)
            np.testing.assert_array_equal(
                out, [[fn(float(p), 1.2) for p in row] for row in pis]
            )

    @pytest.mark.parametrize("measure", [
        ParetoJump(alpha=ALPHA, scale=SCALE, rate=RATE),
        UniformJump(lo=-0.5, hi=1.0, rate=1.0),
        ConstantJump(size=-0.6, rate=2.0),
        NoJumps(),
        CompoundPoisson(0.5, lambda y: 0.75 * (1.0 - y * y), (-1.0, 1.0)),
    ], ids=["pareto", "uniform", "constant", "no-jumps", "compound-poisson"])
    def test_integral_routes_take_arrays(self, measure):
        # An array of fractions is gated once and integrated at each
        # fraction, as the routes taken one fraction at a time (the
        # quadrature routes tested ``pi == 0.0`` on the whole array).
        pis = np.array([[0.0, 0.3], [0.05, 0.6]])
        for name in TRANSFORMS:
            fn = getattr(measure, name + "_integral")
            out = fn(pis, 1.2)
            assert out.shape == (2, 2)
            np.testing.assert_array_equal(
                out, [[fn(float(p), 1.2) for p in row] for row in pis])

    @pytest.mark.parametrize("pi", [1e-6, 1.07e-3])
    def test_relative_accuracy_at_small_fractions(self, pareto, pi):
        # benth2012's jump law as a plain density, against the closed forms;
        # the penalty is 5e-14 at 1e-6, so any fixed absolute tolerance
        # would stop the quadrature early.
        plain = CompoundPoisson(
            RATE, lambda y: ALPHA * SCALE**ALPHA / y ** (ALPHA + 1.0),
            (SCALE, math.inf),
        )
        np.testing.assert_allclose(plain.drag(pi), pareto.drag(pi),
                                   rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(plain.log_penalty(pi),
                                   pareto.log_penalty(pi),
                                   rtol=1e-10, atol=0.0)

    def test_infinite_second_moment_drag(self):
        # alpha = 1.5: ∫y²ν diverges, the drag does not.
        plain = CompoundPoisson(
            1.0, lambda y: 1.5 * 0.3**1.5 / y**2.5, (0.3, math.inf))
        closed = ParetoJump(alpha=1.5, scale=0.3, rate=1.0)
        np.testing.assert_allclose(plain.drag(0.1), closed.drag(0.1),
                                   rtol=1e-9)

    @pytest.mark.parametrize("pi", [1e-9, 1e-6, 1e-3, 3.0])
    def test_infinite_second_moment_at_small_fractions(self, pi):
        # alpha = 1.5 again.  One quadrature over (0.3, inf) called all
        # three transforms divergent at pi = 1e-6; cut at y = 1/pi they
        # match the closed forms.
        plain = CompoundPoisson(
            1.0, lambda y: 1.5 * 0.3**1.5 / y**2.5, (0.3, math.inf))
        closed = ParetoJump(alpha=1.5, scale=0.3, rate=1.0)
        for name in ("drag", "curvature", "log_penalty"):
            np.testing.assert_allclose(getattr(plain, name)(pi),
                                       getattr(closed, name)(pi),
                                       rtol=1e-9, err_msg=name)

    def test_divergent_piece_is_named_in_the_jump_size(self):
        # At pi = 0 the curvature is ∫y²ν itself, which diverges; the error
        # names the piece of the support, not the substituted variable's.
        plain = CompoundPoisson(
            1.0, lambda y: 1.5 * 0.3**1.5 / y**2.5, (0.3, math.inf))
        with pytest.raises(QuadratureError, match=r"piece \(1.0, inf\)"):
            plain.curvature(0.0)
        # So does the quadrature moment: only the measures that know their
        # moments return inf for a divergent one.
        with pytest.raises(QuadratureError, match=r"piece \(1.0, inf\)"):
            plain.moment(2)

    def test_two_sided_infinite_second_moment(self):
        # A bounded left side and a Pareto right tail: the cuts at 0, 1 and
        # 1/pi, against the closed form plus the left side's own quadrature.
        def density(y):
            if y >= 0.3:
                return 1.5 * 0.3**1.5 / y**2.5
            return 2.0 if y <= -0.3 else 0.0
        mixed = CompoundPoisson(1.0, density, (-0.5, math.inf))
        left = CompoundPoisson(0.4, lambda y: 5.0, (-0.5, -0.3))
        right = ParetoJump(alpha=1.5, scale=0.3, rate=1.0)
        for name in ("drag", "curvature", "log_penalty"):
            want = getattr(left, name)(1e-6) + getattr(right, name)(1e-6)
            np.testing.assert_allclose(getattr(mixed, name)(1e-6), want,
                                       rtol=1e-9, err_msg=name)


class TestConstantJump:
    def test_moments_are_rate_scaled_powers(self):
        m = ConstantJump(size=-0.6, rate=2.0)
        assert m.moment(1) == -1.2
        assert m.moment(2) == pytest.approx(0.72, rel=1e-15)
        assert m.abs_moment(3) == pytest.approx(0.432, rel=1e-15)
        assert m.mean_size == -0.6
        assert m.size_std == 0.0

    def test_transforms_match_point_evaluation(self):
        m = ConstantJump(size=0.6, rate=2.0)
        pi, psi = 0.25, 1.5
        x = pi * psi * 0.6
        w = psi * psi * 0.36
        assert m.drag(pi, psi) == pytest.approx(
            2.0 * pi * w / (1 + x), rel=1e-15
        )
        assert m.curvature(pi, psi) == pytest.approx(
            2.0 * w / (1 + x) ** 2, rel=1e-15
        )
        assert m.log_penalty(pi, psi) == pytest.approx(
            2.0 * (math.log1p(x) - x), rel=1e-13
        )
        assert m.tilted_second_moment(pi, psi) == pytest.approx(
            2.0 * 0.36 / (1 + x), rel=1e-15
        )

    def test_vector_transforms_match_scalar(self):
        m = ConstantJump(size=0.6, rate=2.0)
        pis = np.array([-0.5, 0.0, 0.3, 1.0])
        np.testing.assert_allclose(
            m.drag(pis), [m.drag(float(p)) for p in pis], rtol=1e-15
        )
        np.testing.assert_allclose(
            m.curvature(pis), [m.curvature(float(p)) for p in pis],
            rtol=1e-15,
        )
        np.testing.assert_allclose(
            m.log_penalty(pis), [m.log_penalty_integral(float(p))
                                 for p in pis],
            rtol=1e-15,
        )

    def test_integrals_are_the_array_forms(self):
        m = ConstantJump(size=-0.6, rate=2.0)
        pis = np.array([-0.5, 0.0, 0.3, 1.0])
        pairs = ((m.drag_integral, m.drag),
                 (m.curvature_integral, m.curvature),
                 (m.log_penalty_integral, m.log_penalty))
        for integral, closed in pairs:
            np.testing.assert_array_equal(integral(pis, 1.5),
                                          closed(pis, 1.5))
            for p in pis:
                assert integral(float(p), 1.5) == closed(float(p), 1.5)

    def test_inadmissible_fraction_rejected(self):
        m = ConstantJump(size=-0.5, rate=1.0)
        with pytest.raises(AdmissibilityError):
            m.drag_integral(2.5)

    def test_array_transforms_check_admissibility(self):
        m = ConstantJump(size=-2.0, rate=1.0)
        for fn in (m.drag, m.curvature, m.log_penalty):
            with pytest.raises(AdmissibilityError):
                fn(0.6)
            with pytest.raises(AdmissibilityError):
                fn(np.array([0.1, 0.6]))
        assert m.drag(0.4) == m.drag_integral(0.4)

    def test_sampler_and_support(self):
        m = ConstantJump(size=0.6, rate=2.0)
        kind, p0, p1 = m.sampler_code()
        assert p0 == 0.6
        assert m.support() == (0.6, 0.6)

    def test_parameters_validated(self):
        with pytest.raises(DomainError):
            ConstantJump(size=0.0, rate=1.0)
        with pytest.raises(DomainError):
            ConstantJump(size=0.5, rate=-1.0)


class TestGenericCompoundPoisson:
    def test_matches_uniform_specialization(self, uniform):
        generic = CompoundPoisson(
            rate=1.0,
            size_density=lambda y: 1.0 / 1.5,
            support=(-0.5, 1.0),
        )
        np.testing.assert_allclose(
            generic.drag_integral(0.7), uniform.drag_integral(0.7), rtol=1e-9
        )
        np.testing.assert_allclose(
            generic.moment(2), uniform.moment(2), rtol=1e-9
        )
        with pytest.raises(CaseError):
            generic.sampler_code()

    def test_fractional_abs_moment_on_a_negative_support(self):
        # y^1.5 is complex on (-1, -0.1), so |moment(1.5)| raised TypeError
        # there; the quadrature of |y|^1.5 reflects the negative pieces.
        generic = CompoundPoisson(1.0, lambda y: 1.0 / 0.9, (-1.0, -0.1))
        uniform = UniformJump(-1.0, -0.1, 1.0)
        assert uniform.abs_moment(1.5) == 0.44303898770659184
        np.testing.assert_allclose(generic.abs_moment(1.5),
                                   uniform.abs_moment(1.5),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_abs_moment_on_a_negative_support_is_the_moments(
            self, k):
        # The reflected integrand is +-y^k, so the sum is |moment| exactly.
        generic = CompoundPoisson(0.4, lambda y: 5.0, (-5.0, -0.3))
        assert generic.abs_moment(k) == abs(generic.moment(k))


def test_composite_transforms_check_admissibility_once(monkeypatch):
    # The log penalty of Pareto sizes and the tilted second moment are
    # built from the drag; they check the admissibility rule once, not once
    # for themselves and once more for the drag.
    calls = []
    rule = jumps.admissible_set

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(jumps, "admissible_set", counted)
    pareto = presets.get_preset("benth2012").market.measure
    fractions = np.linspace(0.0, 0.2, 257)
    for route in (pareto.log_penalty, pareto.tilted_second_moment,
                  pareto.drag):
        calls.clear()
        route(fractions)
        assert len(calls) == 1, route.__name__


class TestValidation:
    def test_pareto_parameters(self):
        with pytest.raises(DomainError):
            ParetoJump(alpha=0.9, scale=0.3, rate=1.0)
        with pytest.raises(DomainError):
            ParetoJump(alpha=2.5, scale=-0.3, rate=1.0)

    def test_uniform_parameters(self):
        with pytest.raises(DomainError):
            UniformJump(lo=1.0, hi=0.5, rate=1.0)

    def test_negative_rate(self):
        with pytest.raises(DomainError):
            CompoundPoisson(rate=-1.0, size_density=lambda y: 1.0,
                            support=(0.0, 1.0))


def test_log1p_minus_accuracy():
    xs = np.array([-0.5, -1e-2, -1e-5, -1e-9, 0.0, 1e-9, 1e-5, 1e-2, 0.5, 3.0])
    # reference via mpmath-grade formula evaluated in extended precision:
    # log1p(x) - x for float inputs, computed term-wise exactly
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    for x in xs:
        if x == 0.0:
            assert log1p_minus(0.0) == 0.0
            continue
        d = Decimal(float(x))
        ref = (d + 1).ln() - d
        np.testing.assert_allclose(
            log1p_minus(float(x)), float(ref), rtol=5e-13, atol=1e-300
        )
