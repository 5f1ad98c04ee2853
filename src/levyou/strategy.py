"""Exact optimal trading fraction and its value.

For a fraction pi held at time t with price s, the expected log-wealth
growth rate per unit time is

    growth(pi; t, s) = (d(t) - lam*s) * pi - sigma(t)^2 * pi^2 / 2
                       + integral of [log(1 + pi*psi(t)*y) - pi*psi(t)*y]
                         against the jump measure,

with d the effective mean drift (``MarketCoefficients.foc_drift``).  The
function is strictly concave on the admissible set, and its stationarity
condition is

    q = G(pi),   q = d(t) - lam*s,   G(pi) = sigma^2 * pi + drag(pi),

where G is strictly increasing.  The optimal fraction on an interval
[pi_min, pi_max] is therefore the monotone inverse of G clamped to the
interval; all price dependence enters through the scalar q, which makes
whole-grid solves cheap and the clamping thresholds in price explicit.

With mean reversion the inverse is explicit the other way round: pi is
optimal at the price s(pi) = (d - G(pi))/lam (:func:`inverse_price`).
The kernel tables (:func:`exact_fraction_table`, :func:`growth_table`)
are built from that map, with no root finder: s(pi) sampled at evenly
spaced fractions and interpolated onto the row's prices, then two Newton
steps on q = G(pi) with the exact slope G'(pi) = sigma^2 + curvature(pi).
Single solves, the ``solve`` and ``figure`` commands and rows without
mean reversion use Chandrupatla's bracketing root finder
(``scipy.optimize.elementwise.find_root``), one bracket per price.  G does
not depend on the drift b, so markets that differ only in b share it:
:func:`optimal_fraction_gaps` solves their concatenated drift gaps in one
call, and each fraction comes out bit-equal to a solve of its own gap.
"""

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError

RESIDUAL_SLACK = 1e-7


def growth_rate(pi, market, t, s):
    """Expected log-wealth growth rate per unit time for fraction ``pi``.

    ``pi`` and ``s`` may be scalars or matching ndarrays."""
    psi = market.psi_at(t)
    sg = market.sigma_at(t)
    q = market.foc_drift(t) - market.lam * s
    return (
        q * pi
        - 0.5 * sg * sg * pi * pi
        + market.measure.log_penalty(pi, psi)
    )


class OptimalFraction(NamedTuple):
    """Solution record for one optimal-fraction solve."""

    value: float
    clamped: bool
    iterations: int
    residual: float


def drift_gap(market, t, s):
    """The drift gaps q = d(t) - lam*s of an array of prices.

    A NaN or infinite gap (a NaN or infinite price) raises
    :class:`DomainError`: no fraction solves the stationarity condition
    there.
    """
    q = market.foc_drift(t) - market.lam * np.asarray(s, dtype=np.float64)
    if not np.isfinite(q).all():
        raise DomainError(
            "the drift gap d(t) - lam*s is NaN or infinite; check the price")
    return q


def _solve_q(market, t, q, pi_min, pi_max):
    """Invert the stationarity condition for an array of drift gaps ``q``
    from :func:`drift_gap`.

    Returns (pi, clamped, iterations, residual) arrays.  ``residual`` is the
    remaining slope q - G(pi); it is zero at clamped points by convention.
    Each interior point is bracketed by [pi_min, pi_max] and solved at
    ``find_root``'s default tolerances.  A point whose bracket ``find_root``
    rejects (G - q has one sign at both ends) lies within rounding of a
    clamp threshold: it takes that end's fraction and counts as clamped,
    once q - G there passes the residual check.
    """
    G = partial(_stationarity, market, t)
    g_hi = float(G(pi_max))
    g_lo = float(G(pi_min))
    pi, clamped = _clamp(q, g_lo, g_hi, pi_min, pi_max)
    interior = ~clamped
    iters = 0
    resid = np.zeros_like(q)
    if np.any(interior):
        from scipy.optimize.elementwise import find_root

        qi = q[interior]
        res = find_root(lambda p, qv: G(p) - qv,
                        (float(pi_min), float(pi_max)), args=(qi,))
        f_lo, f_hi = res.f_bracket
        edge = res.status == -1
        at_lo = edge & (f_lo > 0.0)
        r = -np.where(at_lo, f_lo, np.where(edge, f_hi, res.f_x))
        pi[interior] = np.where(at_lo, pi_min, np.where(edge, pi_max, res.x))
        clamped[interior] = edge
        resid[interior] = np.where(edge, 0.0, r)
        iters = int(res.nit.max())
        worst = float(np.max(np.abs(r) / np.maximum(1.0, np.abs(qi))))
        if not ((res.success | edge).all() and worst <= RESIDUAL_SLACK):
            raise ConvergenceError(
                "optimal-fraction solve did not converge to the residual "
                f"target; worst relative residual {worst}"
            )
    return pi, clamped, iters, resid


def _clamp(q, g_lo, g_hi, pi_min, pi_max):
    """Boundary-first clamp of the solution of q = G(pi), G increasing.

    With g_lo = G(pi_min) and g_hi = G(pi_max), the fraction is pi_max
    where q >= g_hi and pi_min where q <= g_lo.  Returns (pi, clamped);
    ``pi`` is unset at the interior points.
    """
    hi = q >= g_hi
    lo = q <= g_lo
    pi = np.empty_like(q)
    pi[hi] = pi_max
    pi[lo] = pi_min
    return pi, hi | lo


def optimal_fraction(market, t, s, pi_min, pi_max):
    """Optimal fraction at time ``t`` and price ``s`` on [pi_min, pi_max]."""
    market.validate_interval(pi_min, pi_max)
    q = drift_gap(market, t, [s])
    pi, clamped, iters, resid = _solve_q(market, t, q, pi_min, pi_max)
    return OptimalFraction(
        value=float(pi[0]),
        clamped=bool(clamped[0]),
        iterations=int(iters),
        residual=float(resid[0]),
    )


def optimal_fraction_gaps(market, t, q, pi_min, pi_max):
    """Optimal fractions for an array of drift gaps ``q`` from
    :func:`drift_gap`; returns (pi, clamped).

    Only the stationarity map of ``market`` is used, so the gaps may come
    from markets that differ from it only in the drift b.  The interval is
    not validated here.
    """
    pi, clamped, _, _ = _solve_q(market, t, q, pi_min, pi_max)
    return pi, clamped


def optimal_fraction_grid(market, t, s_grid, pi_min, pi_max):
    """Optimal fractions for an array of prices; returns (pi, clamped)."""
    market.validate_interval(pi_min, pi_max)
    return optimal_fraction_gaps(market, t, drift_gap(market, t, s_grid),
                                 pi_min, pi_max)


def inverse_price(market, t, pi):
    """The price at which ``pi`` is exactly optimal (stationary).

    Solves q = G(pi) for the price inside q = d(t) - lam*s.
    """
    if market.lam == 0.0:
        raise DomainError(
            "the stationary price is undefined without mean reversion"
        )
    return (market.foc_drift(t) - _stationarity(market, t, pi)) / market.lam


def clamp_thresholds(market, t, pi_min, pi_max):
    """Prices (s_full, s_flat) bracketing the interior region: the optimal
    fraction is pi_max at or below ``s_full`` and pi_min at or above
    ``s_flat``."""
    return inverse_price(market, t, pi_max), inverse_price(market, t, pi_min)


def best_growth(market, t, s, pi_min, pi_max):
    """Optimal growth rate: the growth rate at the optimal fraction."""
    opt = optimal_fraction(market, t, s, pi_min, pi_max)
    return growth_rate(opt.value, market, t, s)


# -- dense tables for the simulation kernels --------------------------------


class PriceTable(NamedTuple):
    """Per-node price brackets plus tabulated values on a unit grid.

    Row k holds the value at prices s1[k] + x * (s2[k] - s1[k]) for x on a
    uniform grid over [0, 1].  Outside the bracket the value is exactly
    linear in the price, with slope ``slope_lo`` below s1 and ``slope_hi``
    above s2, which the kernels apply exactly.  Fraction tables are flat
    there (slopes 0.0: pi_max below, pi_min above); the growth table has
    slopes -lam*pi_max and -lam*pi_min.  The kernels take the table as
    :attr:`kernel_args`.
    """

    values: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    slope_lo: float
    slope_hi: float

    def rows(self, start, stop=None):
        """The table restricted to the time nodes ``start:stop``."""
        nodes = slice(start, stop)
        return self._replace(values=self.values[nodes], s1=self.s1[nodes],
                             s2=self.s2[nodes])

    @property
    def kernel_args(self):
        """The table in piece form, ``(value, slope, knot, s1, inv_h)``, in
        the order the kernels take it after the simulation inputs.

        Row k of ``value``, ``slope`` and ``knot`` holds the ns + 1 linear
        pieces of the row, each read as ``value + slope * (s - knot)``: the
        lower extension (the row's first value and ``slope_lo`` at s1), the
        ns - 1 intervals of the bracket (left value, slope and node), and
        the upper extension (the last value and ``slope_hi`` at s2).  The
        extensions are the exact lines above.  A price s lies in piece
        ``floor((s - s1) * inv_h) + 1``, clamped to [0, ns], where
        ``inv_h`` is (ns - 1)/(s2 - s1) rounded up, when needed, so that s2
        lands in the upper piece.  Each access builds the arrays anew, so a
        caller builds them once per table.
        """
        v = np.asarray(self.values, dtype=np.float64)
        s1 = np.asarray(self.s1, dtype=np.float64)
        top = v.shape[1] - 1
        width = self.s2 - s1
        inv_h = top / width
        short = width * inv_h < top
        inv_h[short] = np.nextafter(inv_h[short], np.inf)
        grid = np.linspace(0.0, 1.0, top + 1)[:-1]
        rows = v.shape[0]
        value = np.concatenate([v[:, :1], v], axis=1)
        slope = np.concatenate([
            np.full((rows, 1), self.slope_lo),
            np.diff(v, axis=1) / (width / top)[:, None],
            np.full((rows, 1), self.slope_hi)], axis=1)
        knot = np.concatenate([
            s1[:, None], s1[:, None] + grid * width[:, None],
            np.asarray(self.s2, dtype=np.float64)[:, None]], axis=1)
        return value, slope, knot, s1, inv_h


def _stationarity(market, t, pi):
    """G(pi) = sigma(t)^2 * pi + drag(pi), the exact stationarity map, for
    a scalar or ndarray ``pi``."""
    sg = market.sigma_at(t)
    return sg * sg * pi + market.measure.drag(pi, market.psi_at(t))


def fraction_table(market, times, solver, stationarity, pi_min, pi_max,
                   ns=257):
    """Tabulate a price-monotone strategy at every time node.

    ``solver(t, s_arr)`` returns the tabulated values (fractions, or growth
    rates for :func:`growth_table`).  The strategy depends on the price only
    through q = d(t) - lam*s and is clamped where q leaves
    [G(t, pi_min), G(t, pi_max)], with G = ``stationarity`` its map, so the
    bracket is s1 = (d - G(t, pi_max))/lam, s2 = (d - G(t, pi_min))/lam.
    Without mean reversion the strategy ignores the price and the bracket
    is [0, 1]; a degenerate bracket becomes [s1, s1 + 1].  The result has
    zero slopes; a constant market reuses the first row.  A table needs
    at least 2 prices, or :class:`ConfigError` is raised; a bracket that
    overflows (lam too small for the division) raises :class:`DomainError`.
    """
    if ns < 2:
        raise ConfigError(f"a price table needs at least 2 prices, got {ns}")
    times = np.asarray(times, dtype=np.float64)
    nk = len(times)
    x = np.linspace(0.0, 1.0, ns)
    vals = np.empty((nk, ns))
    s1 = np.empty(nk)
    s2 = np.empty(nk)
    lam = market.lam
    prev = None
    for k, tv in enumerate(times):
        if market.is_constant and prev is not None:
            vals[k], s1[k], s2[k] = prev
            continue
        tv = float(tv)
        if lam == 0.0:
            a, b = 0.0, 1.0
        else:
            d = market.foc_drift(tv)
            a = (d - stationarity(tv, pi_max)) / lam
            b = (d - stationarity(tv, pi_min)) / lam
            if not a < b:
                b = a + 1.0
            if not math.isfinite(b - a):
                raise DomainError(
                    f"the price bracket [{a}, {b}] of the table at t={tv} is "
                    f"not finite: (d - G)/lam overflows for lam={lam}")
        vals[k] = solver(tv, a + x * (b - a))
        s1[k], s2[k] = a, b
        prev = (vals[k], a, b)
    return PriceTable(vals, s1, s2, 0.0, 0.0)


def _table_fractions(market, t, s, pi_min, pi_max):
    """Exact optimal fractions at the prices ``s`` of one table row, which
    run evenly from s(pi_max) to s(pi_min).

    Without mean reversion this is :func:`optimal_fraction_grid`.  With
    it, the prices that :func:`_clamp` sends to an end of the interval
    take that end, and so do the row's first and last prices, which are
    the clamp thresholds, unless G is flat, where the clamp sets the whole
    row as in :func:`_solve_q`.  Every other price starts from s(pi) at ns
    evenly spaced fractions, interpolated linearly in price, and takes
    two Newton steps on q = G(pi), each clipped to the interval.  A
    remaining relative residual above ``RESIDUAL_SLACK`` raises
    :class:`ConvergenceError`, as in :func:`_solve_q`.
    """
    if market.lam == 0.0:
        pi, _ = optimal_fraction_grid(market, t, s, pi_min, pi_max)
        return pi
    q = drift_gap(market, t, s)
    G = partial(_stationarity, market, t)
    g_lo, g_hi = float(G(pi_min)), float(G(pi_max))
    pi, clamped = _clamp(q, g_lo, g_hi, pi_min, pi_max)
    if not g_lo < g_hi:
        # G is flat (no volatility and no jump impact): the clamp sets
        # every price, and G' = 0 leaves no Newton step.
        return pi
    pi[0], pi[-1] = pi_max, pi_min
    clamped[[0, -1]] = True
    inner = ~clamped
    if not inner.any():
        return pi
    knots = np.linspace(pi_min, pi_max, len(s))
    p = np.interp(s[inner], inverse_price(market, t, knots)[::-1],
                  knots[::-1])
    qi = q[inner]
    sg2 = market.sigma_at(t) ** 2
    psi = market.psi_at(t)
    for _ in range(2):
        slope = sg2 + market.measure.curvature(p, psi)
        p = np.clip(p + (qi - G(p)) / slope, pi_min, pi_max)
    worst = float(np.max(np.abs(qi - G(p)) / np.maximum(1.0, np.abs(qi))))
    if not worst <= RESIDUAL_SLACK:
        raise ConvergenceError(
            "table row did not converge to the residual target; worst "
            f"relative residual {worst}")
    pi[inner] = p
    return pi


def exact_fraction_table(market, times, pi_min, pi_max, ns=257):
    """Dense table of the exact optimal fraction for the kernels."""
    market.validate_interval(pi_min, pi_max)
    return fraction_table(
        market, times,
        lambda tv, s: _table_fractions(market, tv, s, pi_min, pi_max),
        partial(_stationarity, market), pi_min, pi_max, ns)


def constant_fraction_table(times, value):
    """Table for a fraction that ignores the price entirely."""
    nk = len(times)
    return PriceTable(np.full((nk, 2), float(value)), np.zeros(nk),
                      np.ones(nk), 0.0, 0.0)


def growth_table(market, times, pi_min, pi_max, ns=257):
    """Tabulate the optimal growth rate at every time node: the growth
    rate at :func:`exact_fraction_table`'s fractions.

    Below s1 the optimum is pi_max and the growth rate is exactly linear in
    the price with slope -lam*pi_max (and likewise above s2), so the linear
    extension used by the kernels is exact outside the bracket.
    """
    market.validate_interval(pi_min, pi_max)

    def solver(tv, grid):
        pi = _table_fractions(market, tv, grid, pi_min, pi_max)
        return growth_rate(pi, market, tv, grid)

    table = fraction_table(market, times, solver,
                           partial(_stationarity, market), pi_min, pi_max, ns)
    return table._replace(slope_lo=-market.lam * pi_max,
                          slope_hi=-market.lam * pi_min)
