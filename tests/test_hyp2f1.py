"""Tests for the Euler integrals I_b and J_b behind the Pareto transforms.

Reference values were computed with mpmath.hyp2f1 at 50-digit precision
and frozen here.  They are checked through b·I_b(x) = x⁻¹·2F1(1, b; b+1;
-1/x) and b·J_b(x) = x⁻²·2F1(2, b; b+1; -1/x), so the package's series
are checked against an independent route.
"""

import numpy as np
import pytest

from levyou import hyp2f1
from levyou.errors import ConvergenceError, DomainError
from levyou.hyp2f1 import euler_integral

def scaled_integral(a, b, c, x):
    """x**(-a) * 2F1(a, b; c; -1/x) = b·I_b(x) (a = 1) or b·J_b(x) (a = 2),
    the families whose mpmath values are frozen here."""
    assert a in (1.0, 2.0) and c == b + 1.0
    return b * euler_integral(b, x, order=int(a) - 1)


# (a, b, c, z, mpmath 2F1(a, b; c; z)), checked at x = -1/z, where
# scaled_integral is (-z)**a times the reference: the Pareto drag family
REFERENCE = [
    (1.0, 1.5406, 2.5406, -0.3, 0.84988026503405152),
    (1.0, 1.5406, 2.5406, -2.7412, 0.41147635992975856),
    (1.0, 1.5406, 2.5406, -2.7412280701754386, 0.41147408533491672),
    (1.0, 1.5406, 2.5406, -10.0, 0.17698334796127192),
    (1.0, 1.5406, 2.5406, -274.12, 0.0095847088718402687),
    (1.0, 1.5406, 2.5406, -274.12280701754386, 0.0095846150072142279),
]


@pytest.mark.parametrize("a,b,c,z,expected", REFERENCE)
def test_reference_values(a, b, c, z, expected):
    got = scaled_integral(a, b, c, -1.0 / z)
    np.testing.assert_allclose(got, expected * (-z) ** a, rtol=1e-13)


def test_log_identity():
    # I_1(x) = log1p(1/x), checked at x = 1
    np.testing.assert_allclose(euler_integral(1.0, 1.0), np.log(2.0),
                               rtol=1e-14)


def test_vector_argument_matches_scalar():
    x = 1.0 / np.array([0.01, 0.3, 2.0, 4.0, 4.5, 40.0, 4000.0, 1e9])
    for b, order in ((1.5406, 0), (2.5406, 1), (2.0, 0), (3.0, 1)):
        vec = euler_integral(b, x, order)
        scl = np.array([euler_integral(b, v, order) for v in x])
        np.testing.assert_array_equal(vec, scl)


def test_monotone_decreasing_toward_minus_infinity():
    # 2F1(1, b; b+1; z) = x·b·I_b(x) falls as z = -1/x runs to -infinity
    x = np.logspace(-5, 3, 60)
    vals = x * 1.5406 * euler_integral(1.5406, x)
    assert np.all(np.diff(vals) > 0.0)  # decreasing in |z| = 1/x
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_route_crossover_is_seamless():
    # Connection series just below x = 0.25, Pfaff series at and above
    # it: the two evaluations must agree far beyond the crossover
    # discontinuity level.
    for b in (1.5406, 2.5406, 2.0, 3.0 - 1e-9):
        for order in (0, 1):
            lo = euler_integral(b, 0.25 - 1e-12, order)
            hi = euler_integral(b, 0.25 + 1e-12, order)
            assert abs(lo - hi) < 1e-10 * lo


def test_domain_errors():
    for b, order in ((-1.0, 0), (0.0, 0), (1.5406, 2), (1.5406, -1)):
        with pytest.raises(DomainError):
            euler_integral(b, 1.0, order)


def test_convergence_budget_is_enforced(monkeypatch):
    # Either series (connection at 0.2, Pfaff at 7.5) must say so when it
    # runs out of terms.
    monkeypatch.setattr(hyp2f1, "SERIES_BUDGET", 3)
    for x in (0.2, 7.5):
        with pytest.raises(ConvergenceError):
            euler_integral(1.5406, x)


# (a, b, c, x, mpmath x**-a * 2F1(a, b; c; -1/x)): the Pareto drag
# (1.5406·I_1.5406) and curvature (2.5406·J_2.5406) families, down to
# subnormal x where -1/x overflows
RECIPROCAL = [
    (1.0, 1.5406, 2.5406, 1e-310, 2.849796522382538),
    (1.0, 1.5406, 2.5406, 1e-20, 2.8497965223073094),
    (1.0, 1.5406, 2.5406, 0.1, 1.769833479612719),
    (1.0, 1.5406, 2.5406, 7.5, 0.12348772975419292),
    (2.0, 2.5406, 3.5406, 1e-310, 4.699593044765076),
    (2.0, 2.5406, 3.5406, 1e-20, 4.699593044573951),
    (2.0, 2.5406, 3.5406, 0.3, 1.1697890145569987),
    (2.0, 2.5406, 3.5406, 7.5, 0.014838808566443703),
]


@pytest.mark.parametrize("a,b,c,x,expected", RECIPROCAL)
def test_reciprocal_reference_values(a, b, c, x, expected):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = scaled_integral(a, b, c, x)
    np.testing.assert_allclose(got, expected, rtol=1e-14)


# (b, x, mpmath I_b(x), mpmath J_b(x)) at integer b and within 1e-7 and
# 1e-9 of one, where the two poles of the connection series cancel
INTEGER_B = [
    (1.0, 1e-20, 46.051701859880914, 1e+20),
    (1.0, 1e-09, 20.72326583794641, 999999998.9999999),
    (1.0, 0.0001, 9.210440366976515, 9999.00009999),
    (1.0, 0.2, 1.791759469228055, 4.166666666666666),
    (1.0, 0.3, 1.4663370687934272, 2.5641025641025643),
    (1.0, 7.5, 0.12516314295400602, 0.01568627450980392),
    (2.0, 1e-20, 1.0, 45.051701859880914),
    (2.0, 1e-09, 0.9999999792767341, 19.72326583894641),
    (2.0, 0.0001, 0.9990789559633023, 8.210540356977516),
    (2.0, 0.2, 0.6416481061543889, 0.9584261358947216),
    (2.0, 0.3, 0.5600988793619719, 0.6971062995626578),
    (2.0, 7.5, 0.06127642784495489, 0.007516084130476603),
    (3.0, 1e-20, 0.5, 1.0),
    (3.0, 1e-09, 0.49999999900000003, 0.9999999595534683),
    (3.0, 0.0001, 0.49990009210440367, 0.9982579019276046),
    (3.0, 0.2, 0.3716703787691222, 0.4499628789754447),
    (3.0, 0.3, 0.3319703361914084, 0.35096698949317456),
    (3.0, 7.5, 0.0404267911628383, 0.004905796866380374),
    (2.0000001, 1e-20, 0.9999999000000102, 45.05160026274856),
    (2.0000001, 1e-09, 0.9999998792767659, 19.723246274105282),
    (2.0000001, 0.0001, 0.9990788564039126, 8.210536872020676),
    (2.0000001, 0.2, 0.6416480611399745, 0.958426040142764),
    (2.0000001, 0.3, 0.560098842051024, 0.6971062372328706),
    (2.0000001, 7.5, 0.061276424695495324, 0.00751608373338555),
    (1.9999999, 1e-20, 1.00000010000001, 45.051803457319316),
    (1.9999999, 1e-09, 1.0000000792767225, 19.723285403813602),
    (1.9999999, 0.0001, 0.999079055522712, 8.21054384193639),
    (1.9999999, 0.2, 0.6416481511688095, 0.9584262316466953),
    (1.9999999, 0.3, 0.5600989166729246, 0.6971063618924547),
    (1.9999999, 7.5, 0.061276430994414786, 0.007516084527567696),
    (2.999999999, 1e-20, 0.50000000025, 1.000000001),
    (2.999999999, 1e-09, 0.49999999925000005, 0.999999960553468),
    (2.999999999, 0.0001, 0.4999000923543041, 0.9982579029197137),
    (2.999999999, 0.2, 0.3716703789290934, 0.4499628792340849),
    (2.999999999, 0.3, 0.3319703363294756, 0.3509669896792947),
    (2.999999999, 7.5, 0.040426791176628826, 0.004905796868093141),
]


@pytest.mark.parametrize("b,x,i_ref,j_ref", INTEGER_B)
def test_integer_b_reference_values(b, x, i_ref, j_ref):
    np.testing.assert_allclose(euler_integral(b, x), i_ref, rtol=1e-14)
    np.testing.assert_allclose(euler_integral(b, x, 1), j_ref, rtol=1e-14)


def test_reciprocal_domain_errors():
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            euler_integral(1.5406, bad)
