"""Scalar reference kernels for path simulation, value quadrature and wealth.

A plain-Python oracle for the tests: one path and one step at a time, with
the same arithmetic as the vectorized kernels in ``levyou._kernels_np``,
operation by operation.  Both consume the counter-based stream defined in
``levyou._rng`` with identical slot assignments, so a given (seed, path id)
produces the same path in either (up to last-ulp libm differences).  The
normal quantile is Wichura's PPND16 (:func:`_normal_ppf`) rather than the
numpy kernels' ``scipy.special.ndtri``; the two agree to about 1e-15.

The simulation scheme freezes the coefficient functions at the left node of
every step and is otherwise exact in distribution: between consecutive event
times (nodes and jump times) the price decays at the mean-reversion rate
with the exact integrated drift and an exact-variance Gaussian increment;
jumps add ``psi * size`` at their drawn times.  Per-step Poisson jump counts
are inverted from precomputed CDF tables shared with the numpy kernels.

The reward and fraction tables come in piece form
(``strategy.PriceTable.kernel_args``): per row, the lower extension, each
interval of the bracket and the upper extension as a line
``value + slope * (s - knot)``.  :func:`_interp_slope` picks a price's piece
by ``floor((s - s1) * inv_h)``, clamped to the row, with the numpy lookup's
arithmetic, so the two read a table bit for bit alike.

One walk (:func:`_walk`) serves the three entry points; its mode picks what
it accumulates along the path, and it writes into arrays the entry points
allocate, so every argument keeps one type across modes.
"""

import math

import numpy as np

from levyou._rng import (
    GOLDEN,
    MAX_JUMPS_PER_STEP,
    MIX1,
    MIX2,
    SIZE_CONSTANT,
    SIZE_PARETO,
    SIZE_UNIFORM,
    SLOT_GAUSS,
    SLOT_SIZE,
    SLOT_SPACE,
    SLOT_TIME,
    _INV53,
    _U11,
    _U27,
    _U30,
    _U31,
)

_USPACE = np.uint64(SLOT_SPACE)

# What the walk accumulates: node prices, the trapezoid integral of a
# tabulated reward, or log-wealth under a tabulated fraction.
PRICE, VALUE, WEALTH = 0, 1, 2


def _mix64(z):
    z = z ^ (z >> _U30)
    z = z * MIX1
    z = z ^ (z >> _U27)
    z = z * MIX2
    z = z ^ (z >> _U31)
    return z


def _uniform(key, step, slot):
    ctr = np.uint64(step) * _USPACE + np.uint64(slot)
    w = _mix64(key ^ _mix64(ctr * GOLDEN + MIX2))
    return (np.float64(w >> _U11) + 0.5) * _INV53


# Rational minimax coefficients for the standard normal quantile function
# (Wichura's PPND16 scheme: central region plus two tail regions, each a
# degree-7 over degree-7 rational in a shifted variable).
PPF_A = np.array((
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
))
PPF_B = np.array((
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
))
PPF_C = np.array((
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
))
PPF_D = np.array((
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
))
PPF_E = np.array((
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
))
PPF_F = np.array((
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
))


def _horner(c, x):
    acc = c[c.shape[0] - 1]
    for i in range(c.shape[0] - 2, -1, -1):
        acc = acc * x + c[i]
    return acc


def _normal_ppf(p):
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _horner(PPF_A, r) / _horner(PPF_B, r)
    if q < 0.0:
        r = p
    else:
        r = 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r = r - 1.6
        val = _horner(PPF_C, r) / _horner(PPF_D, r)
    else:
        r = r - 5.0
        val = _horner(PPF_E, r) / _horner(PPF_F, r)
    if q < 0.0:
        return -val
    return val


def _poisson_count(u, cdf_row):
    j = 0
    while u > cdf_row[j]:
        j += 1
    return j


def _size_from_uniform(kind, p0, p1, u):
    if kind == SIZE_PARETO:
        return p0 * u ** (-1.0 / p1)
    if kind == SIZE_UNIFORM:
        return p0 + (p1 - p0) * u
    if kind == SIZE_CONSTANT:
        return p0
    return 0.0


def _decay_drift_std(lam, bc, sig, delta):
    """(decay, drift, std) of the exact transition over a quiet interval."""
    if lam > 0.0:
        ed = math.exp(-lam * delta)
        drift = bc * (-math.expm1(-lam * delta)) / lam
        var = -math.expm1(-2.0 * lam * delta) / (2.0 * lam)
    else:
        ed = 1.0
        drift = bc * delta
        var = delta
    return ed, drift, sig * math.sqrt(var)


def _interp_slope(value, slope, knot, s1, inv_h, row, s):
    """Piecewise-linear table lookup with linear extension outside, from
    the piece form of ``strategy.PriceTable.kernel_args``: the piece index
    and the line of ``_kernels_np._lookup``, element by element."""
    f = (s - s1[row]) * inv_h[row]
    top = value.shape[1] - 2
    if not f >= -1.0:  # below the bracket, or NaN
        p = 0
    elif f >= top:
        p = top + 1
    else:
        p = int(math.floor(f)) + 1
    return value[row, p] + slope[row, p] * (s - knot[row, p])


def _walk(mode, nodes, acc, fin, keys, s0, times, b_step, sig_step,
          psi_step, comp_step, lam, cdf, kind, p0, p1,
          value, slope, knot, s1, inv_h):
    """Exact transition walk over the step grid, accumulating per ``mode``.

    PRICE writes the node prices into ``nodes``; VALUE and WEALTH write
    the accumulated integral into ``acc`` and the final prices into
    ``fin``, reading the table in piece form (``value`` to ``inv_h``).
    Unused arrays may be empty.
    """
    n = keys.shape[0]
    n_steps = times.shape[0] - 1
    tbuf = np.empty(MAX_JUMPS_PER_STEP + 1)
    ybuf = np.empty(MAX_JUMPS_PER_STEP + 1)
    for i in range(n):
        key = keys[i]
        s = s0[i]
        total = 0.0
        f_prev = 0.0
        if mode == PRICE:
            nodes[i, 0] = s
        elif mode == VALUE:
            f_prev = _interp_slope(value, slope, knot, s1, inv_h, 0, s)
        for k in range(n_steps):
            t_left = times[k]
            dt = times[k + 1] - t_left
            bc = b_step[k] - comp_step[k]
            sig = sig_step[k]
            psi = psi_step[k]
            pi = 0.0
            if mode == WEALTH:
                pi = _interp_slope(value, slope, knot, s1, inv_h, k, s)
            s_left = s
            cnt = _poisson_count(_uniform(key, k, 0), cdf[k])
            for j in range(cnt):
                tbuf[j] = t_left + dt * _uniform(key, k, SLOT_TIME + j)
                ybuf[j] = _size_from_uniform(
                    kind, p0, p1, _uniform(key, k, SLOT_SIZE + j)
                )
            for a in range(1, cnt):
                tv = tbuf[a]
                yv = ybuf[a]
                b2 = a - 1
                while b2 >= 0 and tbuf[b2] > tv:
                    tbuf[b2 + 1] = tbuf[b2]
                    ybuf[b2 + 1] = ybuf[b2]
                    b2 -= 1
                tbuf[b2 + 1] = tv
                ybuf[b2 + 1] = yv
            prev = t_left
            sumy = 0.0
            for j in range(cnt):
                delta = tbuf[j] - prev
                ed, drift, std = _decay_drift_std(lam, bc, sig, delta)
                g = _normal_ppf(_uniform(key, k, SLOT_GAUSS + j))
                s = s * ed + drift + std * g
                if mode == VALUE:
                    f_pre = _interp_slope(value, slope, knot, s1, inv_h, k, s)
                    total += 0.5 * (f_prev + f_pre) * delta
                s = s + psi * ybuf[j]
                if mode == VALUE:
                    f_prev = _interp_slope(value, slope, knot, s1, inv_h, k, s)
                elif mode == WEALTH:
                    total += math.log1p(pi * psi * ybuf[j])
                    sumy += ybuf[j]
                prev = tbuf[j]
            delta = times[k + 1] - prev
            ed, drift, std = _decay_drift_std(lam, bc, sig, delta)
            g = _normal_ppf(_uniform(key, k, SLOT_GAUSS + cnt))
            s = s * ed + drift + std * g
            if mode == PRICE:
                nodes[i, k + 1] = s
            elif mode == VALUE:
                f_right = _interp_slope(value, slope, knot, s1, inv_h, k + 1,
                                        s)
                total += 0.5 * (f_prev + f_right) * delta
                f_prev = f_right
            else:
                total += pi * (s - s_left - psi * sumy)
                total -= 0.5 * pi * pi * sig * sig * dt
        if mode != PRICE:
            acc[i] = total
            fin[i] = s


def price_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                lam, cdf, kind, p0, p1):
    """Simulate prices at the grid nodes.

    Returns an (n_paths, n_nodes) array of prices.
    """
    nodes = np.empty((keys.shape[0], times.shape[0]))
    none = np.empty(0)
    _walk(PRICE, nodes, none, none, keys, s0, times, b_step, sig_step,
          psi_step, comp_step, lam, cdf, kind, p0, p1,
          np.empty((0, 0)), np.empty((0, 0)), np.empty((0, 0)), none, none)
    return nodes


def value_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                lam, cdf, kind, p0, p1,
                tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h):
    """Trapezoid integral of the tabulated running reward along each path.

    The integrand is evaluated from a per-node table in the piece form of
    ``strategy.PriceTable.kernel_args`` (one row per node, linearly
    extended outside the row's bracket).  Jump times are quadrature nodes:
    both one-sided values enter the trapezoid rule.  Returns (integrals,
    final prices).
    """
    n = keys.shape[0]
    integ = np.empty(n)
    fin = np.empty(n)
    _walk(VALUE, np.empty((0, 0)), integ, fin, keys, s0, times, b_step,
          sig_step, psi_step, comp_step, lam, cdf, kind, p0, p1,
          tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h)
    return integ, fin


def wealth_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                 lam, cdf, kind, p0, p1,
                 tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h):
    """Log-wealth of the tabulated fraction along each path.

    The fraction is read from the per-node table at the left node of each
    step, as in :func:`value_paths` (fraction tables have zero slopes, so
    the extension is flat), and held fixed across the step.  Returns
    (log-wealth, final prices); initial wealth is 1 (log 0).
    """
    n = keys.shape[0]
    logw = np.empty(n)
    fin = np.empty(n)
    _walk(WEALTH, np.empty((0, 0)), logw, fin, keys, s0, times, b_step,
          sig_step, psi_step, comp_step, lam, cdf, kind, p0, p1,
          tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h)
    return logw, fin
