"""Tests for the restricted Gauss hypergeometric evaluator.

Reference values were computed with mpmath.hyp2f1 at 50-digit precision and
frozen here, so the package's series/connection implementation is checked
against an independent route.
"""

import numpy as np
import pytest

from levyou.errors import ConvergenceError, DomainError
from levyou.hyp2f1 import hyp2f1_reciprocal

# (a, b, c, z, mpmath 2F1(a, b; c; z)), checked at x = -1/z, where
# hyp2f1_reciprocal is (-z)**a times the reference
REFERENCE = [
    # the parameter family used by the Pareto drag closed form
    (1.0, 1.5406, 2.5406, -0.3, 0.84988026503405152),
    (1.0, 1.5406, 2.5406, -2.7412, 0.41147635992975856),
    (1.0, 1.5406, 2.5406, -2.7412280701754386, 0.41147408533491672),
    (1.0, 1.5406, 2.5406, -10.0, 0.17698334796127192),
    (1.0, 1.5406, 2.5406, -274.12, 0.0095847088718402687),
    (1.0, 1.5406, 2.5406, -274.12280701754386, 0.0095846150072142279),
    # generic parameters exercising the inversion route
    (2.2, 3.1, 4.05, -7.5, 0.01978331018308469),
]


@pytest.mark.parametrize("a,b,c,z,expected", REFERENCE)
def test_reference_values(a, b, c, z, expected):
    got = hyp2f1_reciprocal(a, b, c, -1.0 / z)
    np.testing.assert_allclose(got, expected * (-z) ** a, rtol=1e-13)


def test_log_identity():
    # 2F1(1, 1; 2; z) = -log(1 - z)/z, checked at z = -1 (x = 1)
    np.testing.assert_allclose(
        hyp2f1_reciprocal(1.0, 1.0, 2.0, 1.0), np.log(2.0), rtol=1e-14
    )


def test_vector_argument_matches_scalar():
    x = 1.0 / np.array([0.01, 0.3, 2.0, 4.0, 4.5, 40.0, 4000.0])
    vec = hyp2f1_reciprocal(1.0, 1.5406, 2.5406, x)
    scl = np.array([hyp2f1_reciprocal(1.0, 1.5406, 2.5406, v) for v in x])
    np.testing.assert_array_equal(vec, scl)


def test_monotone_decreasing_toward_minus_infinity():
    # 2F1 = x**a * hyp2f1_reciprocal falls as z = -1/x runs to -infinity
    x = np.logspace(-5, 3, 60)
    vals = x * hyp2f1_reciprocal(1.0, 1.5406, 2.5406, x)
    assert np.all(np.diff(vals) > 0.0)  # decreasing in |z| = 1/x
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def test_route_crossover_is_seamless():
    # Inversion route just below x = 0.25, Pfaff route at and above it:
    # the two evaluations must agree far beyond the crossover
    # discontinuity level.
    lo = hyp2f1_reciprocal(1.0, 1.5406, 2.5406, 0.25 - 1e-12)
    hi = hyp2f1_reciprocal(1.0, 1.5406, 2.5406, 0.25 + 1e-12)
    assert abs(lo - hi) < 1e-10 * lo


def test_domain_errors():
    for abc in ((-1.0, 1.5406, 2.5406), (1.0, 0.0, 2.5406),
                (1.0, 1.5406, -2.5406)):
        with pytest.raises(DomainError):
            hyp2f1_reciprocal(*abc, 1.0)


def test_convergence_budget_is_enforced():
    # integer a - b disables the inversion route; at extreme arguments the
    # Pfaff series then exceeds any reasonable budget and must say so.
    with pytest.raises(ConvergenceError):
        hyp2f1_reciprocal(1.0, 2.0, 3.0, 1e-9)


# (a, b, c, x, mpmath x**-a * 2F1(a, b; c; -1/x)): the Pareto drag and
# curvature families, down to subnormal x where -1/x overflows
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
        got = hyp2f1_reciprocal(a, b, c, x)
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_reciprocal_domain_errors():
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            hyp2f1_reciprocal(1.0, 1.5406, 2.5406, bad)
