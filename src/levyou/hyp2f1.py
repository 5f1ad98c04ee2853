"""The two Euler integrals behind the Pareto jump transforms.

For Pareto sizes the drag and the curvature reduce to

    I_b(x) = ∫₀¹ t^(b-1)/(x+t) dt  and  J_b(x) = ∫₀¹ t^(b-1)/(x+t)² dt,

which are b·I_b = x⁻¹·2F1(1, b; b+1; -1/x) and b·J_b = x⁻²·2F1(2, b; b+1;
-1/x) (DLMF 15.6.1).  x = pi * psi * scale is tiny at tiny fractions, so
both are computed in x itself.  ``euler_integral`` picks one series by x:

* x >= 1/4: the Pfaff series 2F1(order+1, 1; b+1; w) / (b·(1+x)^(order+1))
  at w = 1/(1+x) <= 4/5;
* x < 1/4: the connection series
  I_b = pi·x^(b-1)/sin(pi b) - Σ_k (-x)^k/(k+1-b), and J_b = -dI_b/dx.
  With b = m + eps and m = max(1, round(b)), the first term and the term
  k = m-1 have poles at eps = 0 that cancel.  They are summed as one term,
  (-1)^m·x^(m-1)·expm1(eps·ln x + ln(pi eps/sin pi eps))/eps, which is
  (-1)^m·x^(m-1)·ln x at eps = 0, so integer b needs no other route.
"""

import itertools
import math
import operator

import numpy as np

from .errors import ConvergenceError, DomainError

#: Terms allowed for either series; both are geometric, with ratio at most
#: 4/5 (Pfaff) or 1/4 (connection).
SERIES_BUDGET = 10_000

#: Series terms below this multiple of the running sum, twice in a row,
#: terminate the summation.
SERIES_EPS = 5e-17


def _power_series(coefs, y, total, label):
    """``total`` + Σ_n coefs[n]·y^n, elementwise in the array ``y``."""
    power = np.ones_like(y)
    prev_small = np.zeros(y.shape, dtype=bool)
    for coef in itertools.islice(coefs, SERIES_BUDGET):
        term = coef * power
        total = total + term
        small = np.abs(term) <= SERIES_EPS * np.abs(total)
        if np.all(small & prev_small):
            return total
        prev_small = small
        power = power * y
    raise ConvergenceError(
        f"{label} series did not converge within {SERIES_BUDGET} terms"
    )


def _log_pi_eps_over_sin(eps):
    """ln(pi eps/sin pi eps); below |eps| = 1/4 as Σ_k zeta(2k)·eps^(2k)/k,
    since the direct form loses about 1e-16/|eps| there."""
    if abs(eps) >= 0.25:
        return math.log(math.pi * eps / math.sin(math.pi * eps))
    from scipy.special import zeta

    k = np.arange(1.0, 17.0)
    return float(np.sum(zeta(2.0 * k) * eps ** (2.0 * k) / k))


def _connection(b, x, order):
    """I_b or J_b from the connection series in powers of -x."""
    m = max(1, round(b))
    eps = b - m
    log_x = np.log(x)
    if eps == 0.0:
        e, g = log_x, 1.0
    else:
        exponent = eps * log_x + _log_pi_eps_over_sin(eps)
        e, g = np.expm1(exponent) / eps, np.exp(exponent)
    if order == 0:
        pair = (-1.0) ** m * x ** (m - 1) * e
    else:
        # -d/dx of the pair, with g for 1 + eps*e, which would cancel
        # where g is tiny
        pair = (-1.0) ** (m + 1) * x ** (m - 2) * ((m - 1) * e + g)
    # term j is -(j+1)^order (-x)^j/(j+1+order-b); the pole term is in pair
    skip = m - 1 - order
    coefs = (0.0 if j == skip else -(j + 1.0) ** order / (j + 1.0 + order - b)
             for j in itertools.count())
    return _power_series(coefs, -x, pair, "connection")


def euler_integral(b, x, order=0):
    """I_b(x) (order 0) or J_b(x) = -dI_b/dx (order 1) for b > 0 and
    scalar or ndarray x > 0, in the shape of ``x``.

    Nothing overflows or underflows as x -> 0 unless the integral does.
    """
    if not b > 0.0 or order not in (0, 1):
        raise DomainError(
            f"euler_integral needs b > 0 and order 0 or 1, got b={b}, "
            f"order={order}"
        )
    x_arr = np.asarray(x, dtype=np.float64)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if not np.all((x_arr > 0.0) & np.isfinite(x_arr)):
        raise DomainError("euler_integral argument must be finite and > 0")

    out = np.empty_like(x_arr)
    far = x_arr >= 0.25
    if np.any(far):
        xf = x_arr[far]
        coefs = itertools.accumulate(
            ((order + 1.0 + n) / (b + 1.0 + n) for n in itertools.count()),
            operator.mul, initial=1.0)
        out[far] = (_power_series(coefs, 1.0 / (1.0 + xf), 0.0, "Pfaff")
                    / (b * (1.0 + xf) ** (order + 1)))
    if not np.all(far):
        out[~far] = _connection(b, x_arr[~far], order)
    return float(out[0]) if scalar else out
