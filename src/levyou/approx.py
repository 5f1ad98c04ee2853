"""Closed-form approximations of the optimal fraction, with error bounds.

Two approximations are provided, both driven by the drift gap
q = d(t) - lam*s (see :mod:`levyou.strategy`):

* ``merton_fraction`` — the risk-ratio rule q / (sigma^2 + sigma_L^2) with
  sigma_L^2 = psi^2 * (second jump moment): the jump integral is replaced
  by its second-order expansion around a zero fraction.
* ``jump_mean_fraction`` — the jump integrand is linearized around the
  mean jump size mu_F, which turns the stationarity condition into a
  quadratic (or into an explicit ratio when there is no Brownian part).

Both are clamped like the exact fraction: boundary-first, where the drift
gap leaves the rule's own stationarity map evaluated at the interval ends
(:func:`levyou.strategy._clamp`), so an extreme price gives exactly
pi_min or pi_max.  Both report the clamp flag plus the raw (unclamped)
value.  ``merton_error_bound`` and ``jump_mean_error_bound``
give rigorous uniform-in-price bounds on the distance to the exact
fraction, with constants from the binding ends of the jump support
(:func:`levyou.jumps.binding_ends`); the first needs a finite third
absolute jump moment and reports an infinite bound otherwise.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import BranchError, CaseError, DegenerateError
from .jumps import CaseTag, binding_ends, classify_case
from .strategy import _clamp, drift_gap, fraction_table


class ApproxFraction(NamedTuple):
    """An approximate fraction, its clamp flag, and the raw value."""

    value: float
    clamped: bool
    unclamped: float


def _clamped_grid(market, t, s_grid, pi_min, pi_max, stationarity,
                  raw_fraction):
    """Fractions of an approximation rule for an array of prices.

    ``stationarity(market, t, pi)`` is the rule's increasing map G and
    ``raw_fraction(market, t, q)`` its inverse at the drift gaps q.  The
    clamp decision is made boundary-first on G, so a pole or an overflow
    of the inverse (prices deep in a clamped region) never reaches the
    result.

    Returns (values, clamped, raw) arrays.
    """
    market.validate_interval(pi_min, pi_max)
    q = drift_gap(market, t, s_grid)
    g_hi = stationarity(market, t, pi_max)
    g_lo = stationarity(market, t, pi_min)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = raw_fraction(market, t, q)
    val, clamped = _clamp(q, g_lo, g_hi, pi_min, pi_max)
    val[~clamped] = raw[~clamped]
    return val, clamped, raw


# -- risk-ratio approximation ------------------------------------------------


def merton_denominator(market, t):
    """sigma(t)^2 + psi(t)^2 * (second jump moment)."""
    psi = market.psi_at(t)
    sg = market.sigma_at(t)
    return sg * sg + psi * psi * market.jump_second_moment


def _merton_stationarity(market, t, pi):
    """Stationarity map of the risk-ratio rule: merton_denominator * pi."""
    return merton_denominator(market, t) * pi


def _merton_raw(market, t, q):
    """Unclamped risk-ratio fractions for an array of drift gaps."""
    denom = merton_denominator(market, t)
    if denom <= 0.0:
        raise DegenerateError(
            "risk-ratio approximation needs sigma^2 + psi^2 * m2 > 0"
        )
    return q / denom


def merton_fraction_grid(market, t, s_grid, pi_min, pi_max):
    """Risk-ratio fractions for an array of prices.

    Returns (values, clamped, raw) arrays.
    """
    return _clamped_grid(market, t, s_grid, pi_min, pi_max,
                         _merton_stationarity, _merton_raw)


def merton_fraction(market, t, s, pi_min, pi_max):
    val, clamped, raw = merton_fraction_grid(
        market, t, np.array([s]), pi_min, pi_max
    )
    return ApproxFraction(float(val[0]), bool(clamped[0]), float(raw[0]))


# -- jump-mean approximation ---------------------------------------------


def _jump_mean_params(market, t):
    meas = market.measure
    if not meas.is_finite_activity:
        raise CaseError(
            "the jump-mean approximation needs a finite-activity measure"
        )
    eta = meas.rate
    mu = meas.mean_size if eta > 0.0 else 0.0
    return eta, mu


def jump_mean_drag(market, t, pi):
    """Drag of the mean-size point measure: eta*psi^2*mu^2*pi/(1+pi*psi*mu)."""
    eta, mu = _jump_mean_params(market, t)
    psi = market.psi_at(t)
    return eta * psi * psi * mu * mu * pi / (1.0 + pi * psi * mu)


def _jump_mean_stationarity(market, t, pi):
    """Stationarity map of the jump-mean rule: sigma^2*pi + jump_mean_drag."""
    sg = market.sigma_at(t)
    return sg * sg * pi + jump_mean_drag(market, t, pi)


def _jump_mean_raw(market, t, q):
    """Unclamped jump-mean fractions for an array of drift gaps.

    With a Brownian part the stationarity condition is a quadratic; the
    admissible root is the one keeping 1 + pi*psi*mu_F positive (the pole
    always separates the two roots, so exactly one qualifies).  Without a
    Brownian part the condition is linear in disguise and inverts to an
    explicit ratio, whose pole is handled by the boundary checks upstream.
    """
    eta, mu = _jump_mean_params(market, t)
    psi = market.psi_at(t)
    sg = market.sigma_at(t)
    sg2 = sg * sg
    q = np.asarray(q, dtype=np.float64)
    if mu == 0.0 and sg2 == 0.0:
        raise DegenerateError(
            "jump-mean approximation needs a Brownian part or a nonzero "
            "mean jump size"
        )
    if mu == 0.0 or psi == 0.0:
        # the point measure carries no jump risk: pure risk-ratio in sigma
        return q / sg2
    if sg2 == 0.0:
        denom = psi * mu * (q - eta * psi * mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -q / denom
    p1 = mu * psi * q - mu * mu * psi * psi * eta - sg2
    p2 = mu * q * sg2 * psi
    p3 = mu * psi * sg2
    disc = p1 * p1 + 4.0 * p2
    if np.any(disc < 0.0):
        raise BranchError(
            "jump-mean quadratic has no real root (discriminant < 0)"
        )
    sq = np.sqrt(disc)
    r_plus = (p1 + sq) / (2.0 * p3)
    r_minus = (p1 - sq) / (2.0 * p3)
    ok_plus = 1.0 + r_plus * psi * mu > 0.0
    ok_minus = 1.0 + r_minus * psi * mu > 0.0
    if np.any(ok_plus == ok_minus):
        raise BranchError(
            "jump-mean quadratic root selection is ambiguous: the "
            "admissibility condition does not single out one root"
        )
    return np.where(ok_plus, r_plus, r_minus)


def jump_mean_fraction_grid(market, t, s_grid, pi_min, pi_max):
    """Jump-mean fractions for an array of prices.

    Returns (values, clamped, raw) arrays.
    """
    return _clamped_grid(market, t, s_grid, pi_min, pi_max,
                         _jump_mean_stationarity, _jump_mean_raw)


def jump_mean_fraction(market, t, s, pi_min, pi_max):
    val, clamped, raw = jump_mean_fraction_grid(
        market, t, np.array([s]), pi_min, pi_max
    )
    return ApproxFraction(float(val[0]), bool(clamped[0]), float(raw[0]))


# -- error bounds ------------------------------------------------------------


@dataclass(frozen=True)
class ApproxBound:
    """A uniform-in-price bound on |exact - approximate| fraction."""

    bound_value: float
    constants: dict
    case: CaseTag
    inputs_echo: dict


def _window_scales(market):
    psi1, psi2 = market.psi_range
    sigma1 = market.sigma_range[0]
    return psi1, psi2, sigma1 * sigma1


def _end_distances(measure, delta, psi2):
    """delta psi2 |end| for each finite one of :func:`binding_ends`, with
    delta the interval's distance to the admissible set's open ends."""
    return [delta * psi2 * abs(end) for end in binding_ends(measure)
            if math.isfinite(end)]


def merton_error_bound(market, pi_min, pi_max):
    """Uniform bound on the risk-ratio approximation error.

    Requires a finite third absolute jump moment; otherwise the bound is
    reported as infinity (never raised as an error).
    """
    case = classify_case(market.measure)
    if case is CaseTag.CONTINUOUS:
        raise CaseError(
            "the risk-ratio bound is vacuous without jumps: the "
            "approximation is exact"
        )
    adm, delta = market.validate_interval(pi_min, pi_max)
    psi1, psi2, sigma1_sq = _window_scales(market)
    m, big = market.measure.support()
    sv2 = market.jump_second_moment
    c0 = psi2**3 * max(pi_min * pi_min, pi_max * pi_max) / (
        sigma1_sq + psi2 * psi2 * sv2
    )
    c = c0 / min([1.0, *_end_distances(market.measure, delta, psi2)])
    third = market.measure.abs_moment(3)
    bound = c * third if math.isfinite(third) else math.inf
    return ApproxBound(
        bound_value=bound,
        constants={"C0": c0, "C": c},
        case=case,
        inputs_echo={
            "delta": delta, "pi_min": pi_min, "pi_max": pi_max,
            "m": m, "M": big, "psi2": psi2, "sigma1_sq": sigma1_sq,
            "third_moment": third,
        },
    )


def jump_mean_error_bound(market, pi_min, pi_max):
    """Uniform bound on the jump-mean approximation error."""
    case = classify_case(market.measure)
    if case is CaseTag.CONTINUOUS:
        raise CaseError(
            "the jump-mean bound needs a jump component"
        )
    meas = market.measure
    if not meas.is_finite_activity:
        raise CaseError(
            "the jump-mean bound needs a finite-activity measure"
        )
    adm, delta = market.validate_interval(pi_min, pi_max)
    psi1, psi2, sigma1_sq = _window_scales(market)
    m, big = meas.support()
    eta = meas.rate
    mu_f = meas.mean_size
    sigma_f = meas.size_std
    if sigma1_sq == 0.0 and mu_f == 0.0:
        raise DegenerateError(
            "the jump-mean bound needs a Brownian part or a nonzero mean "
            "jump size"
        )
    xs = _end_distances(meas, delta, psi2)
    c1 = (max([1.0, *(1.0 / (x * x) for x in xs)])
          + max([1.0, *(1.0 / x for x in xs)])) if xs else 1.0
    if mu_f > 0.0:
        c2 = 1.0 / (1.0 + pi_max * psi2 * mu_f) ** 2
    elif mu_f < 0.0:
        c2 = 1.0 / (1.0 + pi_min * psi1 * mu_f) ** 2
    else:
        c2 = 1.0
    bound = (eta * psi2 * psi2 * c1 * sigma_f) / (
        sigma1_sq + eta * psi2 * psi2 * c2 * mu_f * mu_f
    )
    return ApproxBound(
        bound_value=bound,
        constants={"C1": c1, "C2": c2},
        case=case,
        inputs_echo={
            "delta": delta, "pi_min": pi_min, "pi_max": pi_max,
            "m": m, "M": big, "psi2": psi2, "sigma1_sq": sigma1_sq,
            "mu_F": mu_f, "sigma_F": sigma_f,
        },
    )


# -- kernel tables -------------------------------------------------------


def _rule_table(market, times, pi_min, pi_max, ns, grid, stationarity):
    """Dense table of an approximation rule: its fractions ``grid`` on the
    bracket of its stationarity map ``stationarity(market, t, pi)``."""
    market.validate_interval(pi_min, pi_max)
    return fraction_table(
        market, times, lambda tv, s: grid(market, tv, s, pi_min, pi_max)[0],
        partial(stationarity, market), pi_min, pi_max, ns)


def merton_fraction_table(market, times, pi_min, pi_max, ns=257):
    """Dense table of the risk-ratio strategy for the simulation kernels.

    Its stationarity map is G(t, pi) = merton_denominator(t) * pi.
    """
    return _rule_table(market, times, pi_min, pi_max, ns,
                       merton_fraction_grid, _merton_stationarity)


def jump_mean_fraction_table(market, times, pi_min, pi_max, ns=257):
    """Dense table of the jump-mean strategy for the simulation kernels.

    Its stationarity map is G(t, pi) = sigma(t)^2 * pi + jump_mean_drag.
    """
    return _rule_table(market, times, pi_min, pi_max, ns,
                       jump_mean_fraction_grid, _jump_mean_stationarity)
