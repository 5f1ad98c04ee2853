"""Gauss hypergeometric function on the restricted domain used here.

The closed-form drag expression for Pareto jump sizes needs 2F1(a, b; c; z)
with positive parameters and a real argument z < 0 (the argument is
-1/(fraction * impact * scale), and admissible positive fractions keep it
negative).  ``hyp2f1_reciprocal`` evaluates x**(-a) * 2F1(a, b; c; -1/x)
at x = -1/z > 0, because at tiny fractions -1/x overflows and the x**(-a)
factor cancels the Pareto transforms' 1/pi powers.  Two complementary
evaluation routes cover the domain:

* moderate arguments (x >= 1/4, i.e. -4 <= z < 0): the Pfaff transform
  2F1(a, b; c; z) = (1-z)^(-a) * 2F1(a, c-b; c; z/(z-1)) maps z onto
  w = z/(z-1) = 1/(1 + x) in (0, 0.8], where the Gauss series converges
  geometrically;
* large arguments (x < 1/4): the inversion connection formula in powers of
  1/z = -x, which converges in a few dozen terms precisely where the Pfaff
  route slows down.  It requires a - b to stay away from the integers; when
  it does not, the Pfaff route is used with a larger term budget.

Both routes accept scalar or ndarray ``x`` and run all series elementwise.
"""

import math

import numpy as np

from .errors import ConvergenceError, DomainError

#: Terms allowed for the z/(z-1) series (slow only when pushed far outside
#: the intended argument range, e.g. integer a-b at very large |z|).
PFAFF_BUDGET = 500_000

#: Terms allowed for the 1/z connection series (geometric with ratio < 1/4).
INVERSION_BUDGET = 10_000

#: Series terms below this multiple of the running sum, twice in a row,
#: terminate the summation.
SERIES_EPS = 5e-17

#: a - b (and the derived lower parameters) must be at least this far from
#: the integers for the inversion route to be well conditioned.
INTEGER_GAP = 1e-6


def _gauss_series(p, q, r, x, budget, label):
    """Sum 2F1(p, q; r; x) by the defining series, elementwise in ``x``.

    ``r`` must not be a nonpositive integer and ``|x|`` must stay below 1;
    callers guarantee both.
    """
    x = np.asarray(x, dtype=np.float64)
    term = np.ones_like(x)
    total = np.ones_like(x)
    prev_small = np.zeros(x.shape, dtype=bool)
    for n in range(budget):
        term = term * x * ((p + n) * (q + n) / ((r + n) * (n + 1.0)))
        total = total + term
        small = np.abs(term) <= SERIES_EPS * np.abs(total)
        if np.all(small & prev_small):
            return total
        prev_small = small
    raise ConvergenceError(
        f"hypergeometric {label} series did not converge within "
        f"{budget} terms (parameters p={p}, q={q}, r={r})"
    )


def _is_near_integer(x, gap=INTEGER_GAP):
    return abs(x - round(x)) < gap


def _inversion_usable(a, b, c):
    """The 1/z connection route needs all gamma factors finite and both
    lower series parameters away from the nonpositive integers."""
    if _is_near_integer(a - b):
        return False
    for arg in (c - a, c - b):
        if arg < INTEGER_GAP and _is_near_integer(arg):
            return False
    return True


def _check_parameters(a, b, c):
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise DomainError(
            f"hyp2f1 parameters must be positive, got a={a}, b={b}, c={c}"
        )


def _pfaff(a, b, c, w):
    """2F1(a, c - b; c; w): the Pfaff-transformed series at w = z/(z - 1)."""
    return _gauss_series(a, c - b, c, w, PFAFF_BUDGET, "pfaff")


def _inversion(a, b, c, x):
    """x**(-a) * 2F1(a, b; c; -1/x) by the 1/z connection formula.

    Written in x rather than z, so nothing overflows as x -> 0.
    """
    coef_a = (
        math.gamma(c)
        * math.gamma(b - a)
        / (math.gamma(b) * math.gamma(c - a))
    )
    coef_b = (
        math.gamma(c)
        * math.gamma(a - b)
        / (math.gamma(a) * math.gamma(c - b))
    )
    s1 = _gauss_series(a, a - c + 1.0, a - b + 1.0, -x, INVERSION_BUDGET,
                       "inversion")
    s2 = _gauss_series(b, b - c + 1.0, b - a + 1.0, -x, INVERSION_BUDGET,
                       "inversion")
    return coef_a * s1 + coef_b * x ** (b - a) * s2


def hyp2f1_reciprocal(a, b, c, x):
    """Evaluate x**(-a) * 2F1(a, b; c; -1/x) for a, b, c > 0 and x > 0.

    The Pfaff series runs at 1/(1 + x) (x >= 1/4, or every x when a - b
    is near an integer), and the inversion series at -x.  Nothing
    overflows or underflows as x -> 0.

    Parameters
    ----------
    a, b, c : float
        Positive parameters.
    x : float or ndarray
        Positive finite argument(s).

    Returns
    -------
    float or ndarray
        Function values, matching the shape of ``x``.
    """
    _check_parameters(a, b, c)
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if not np.all((x_arr > 0.0) & np.isfinite(x_arr)):
        raise DomainError("hyp2f1_reciprocal argument must be finite and > 0")

    out = np.empty_like(x_arr)
    invertible = _inversion_usable(a, b, c)
    far = x_arr < 0.25 if invertible else np.zeros(x_arr.shape, dtype=bool)
    near = ~far

    if np.any(near):
        xn = x_arr[near]
        out[near] = (1.0 + xn) ** (-a) * _pfaff(a, b, c, 1.0 / (1.0 + xn))

    if np.any(far):
        out[far] = _inversion(a, b, c, x_arr[far])

    return float(out[0]) if scalar else out
