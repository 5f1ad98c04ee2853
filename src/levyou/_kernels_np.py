"""Vectorized numpy kernels, twins of the numba scalar kernels.

Same stream, same slot layout, same per-step walk over sorted jump times;
vectorization runs across paths.  Each step draws every path's jump count,
then walks jump slot ``j`` only on the paths with more than ``j`` jumps
that step: their state is gathered, advanced to the jump and scattered
back, so no lane does masked or zero-length work.  The final quiet advance
to the right node runs on every path.  Each variate is addressed by
(path key, step, slot), so the per-path arithmetic is identical to the
scalar backend and does not depend on which other paths jump.

One walk (:func:`_walk`) serves the three entry points; its mode picks
what it accumulates along the path.
"""

import numpy as np

from . import _rng

# What the walk accumulates: node prices, the trapezoid integral of a
# tabulated reward, or log-wealth under a tabulated fraction.
PRICE, VALUE, WEALTH = 0, 1, 2


def _sorted_jumps(keys, k, t_left, dt, cnt, kind, p0, p1):
    """Jump times (sorted ascending, padded with +inf) and matching sizes."""
    kmax = int(cnt.max())
    j = np.arange(kmax)
    tu = _rng.uniforms(keys[:, None], k, _rng.SLOT_TIME + j)
    su = _rng.uniforms(keys[:, None], k, _rng.SLOT_SIZE + j)
    times = t_left + dt * tu
    sizes = _rng.sample_sizes(kind, p0, p1, su)
    dead = j[None, :] >= cnt[:, None]
    times[dead] = np.inf
    order = np.argsort(times, axis=1, kind="stable")
    return (
        np.take_along_axis(times, order, axis=1),
        np.take_along_axis(sizes, order, axis=1),
    )


def _decay_drift_std(lam, bc, sig, delta):
    if lam > 0.0:
        ed = np.exp(-lam * delta)
        drift = bc * (-np.expm1(-lam * delta)) / lam
        var = -np.expm1(-2.0 * lam * delta) / (2.0 * lam)
    else:
        ed = np.ones_like(delta)
        drift = bc * delta
        var = delta
    return ed, drift, sig * np.sqrt(var)


def _interp_slope(vals, row, s1, s2, slope_lo, slope_hi, s):
    """Piecewise-linear table lookup with linear extension outside."""
    ns = vals.shape[1]
    x = (s - s1) / (s2 - s1)
    f = x * (ns - 1)
    j = np.clip(f.astype(np.int64), 0, ns - 2)
    fr = f - j
    mid = vals[row, j] * (1.0 - fr) + vals[row, j + 1] * fr
    lo = vals[row, 0] + slope_lo * (s - s1)
    hi = vals[row, ns - 1] + slope_hi * (s - s2)
    return np.where(x <= 0.0, lo, np.where(x >= 1.0, hi, mid))


def _quiet_advance(keys, k, slot, lam, bc, sig, delta, s):
    """Exact transition over a quiet interval of per-path length delta."""
    ed, drift, std = _decay_drift_std(lam, bc, sig, delta)
    g = _rng.normal_ppf(_rng.uniforms(keys, k, slot))
    return s * ed + drift + std * g


def _walk(mode, keys, s0, times, b_step, sig_step, psi_step, comp_step,
          lam, cdf, kind, p0, p1, vals=None, s1=None, s2=None,
          slope_lo=0.0, slope_hi=0.0):
    """Exact transition walk over the step grid, accumulating per ``mode``.

    Jump slot ``j`` of a step runs on the compacted rows of the paths with
    more than ``j`` jumps in it; paths without jumps only take the step's
    final quiet advance.

    Returns the (n_paths, n_nodes) node prices for PRICE, else the
    accumulated integral and the final prices.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    n_steps = times.shape[0] - 1
    s = s0.astype(np.float64).copy()
    acc = np.zeros(n)
    if mode == PRICE:
        nodes = np.empty((n, n_steps + 1))
        nodes[:, 0] = s
    elif mode == VALUE:
        f_prev = _interp_slope(vals, 0, s1[0], s2[0], slope_lo, slope_hi, s)
    for k in range(n_steps):
        t_left = times[k]
        dt = times[k + 1] - t_left
        bc = b_step[k] - comp_step[k]
        sig = sig_step[k]
        psi = psi_step[k]
        if mode == WEALTH:
            pi = _interp_slope(vals, k, s1[k], s2[k], slope_lo, slope_hi, s)
            s_left = s.copy()  # s is written in place below
            sumy = np.zeros(n)
        cnt = _rng.poisson_counts(
            _rng.uniforms(keys, k, _rng.SLOT_COUNT), cdf[k]
        )
        prev = np.full(n, t_left)
        rows = np.flatnonzero(cnt)
        if rows.size:
            rcnt = cnt[rows]
            jt, jy = _sorted_jumps(keys[rows], k, t_left, dt, rcnt,
                                   kind, p0, p1)
            for j in range(jt.shape[1]):
                live = np.flatnonzero(rcnt > j)
                idx = rows[live]
                tj = jt[live, j]
                y = jy[live, j]
                delta = tj - prev[idx]
                s_pre = _quiet_advance(
                    keys[idx], k, _rng.SLOT_GAUSS + j, lam, bc, sig, delta,
                    s[idx]
                )
                s_post = s_pre + psi * y
                if mode == VALUE:
                    f_pre = _interp_slope(vals, k, s1[k], s2[k],
                                          slope_lo, slope_hi, s_pre)
                    acc[idx] += 0.5 * (f_prev[idx] + f_pre) * delta
                    f_prev[idx] = _interp_slope(vals, k, s1[k], s2[k],
                                                slope_lo, slope_hi, s_post)
                elif mode == WEALTH:
                    acc[idx] += np.log1p(pi[idx] * psi * y)
                    sumy[idx] += y
                s[idx] = s_post
                prev[idx] = tj
        delta = times[k + 1] - prev
        s = _quiet_advance(
            keys, k, _rng.SLOT_GAUSS + cnt, lam, bc, sig, delta, s
        )
        if mode == PRICE:
            nodes[:, k + 1] = s
        elif mode == VALUE:
            f_right = _interp_slope(vals, k + 1, s1[k + 1], s2[k + 1],
                                    slope_lo, slope_hi, s)
            acc += 0.5 * (f_prev + f_right) * delta
            f_prev = f_right
        else:
            acc += pi * (s - s_left - psi * sumy)
            acc -= 0.5 * pi * pi * sig * sig * dt
    if mode == PRICE:
        return nodes
    return acc, s


def price_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                lam, cdf, kind, p0, p1):
    """Prices at the grid nodes, shape (n_paths, n_nodes)."""
    return _walk(PRICE, keys, s0, times, b_step, sig_step, psi_step,
                 comp_step, lam, cdf, kind, p0, p1)


def value_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                lam, cdf, kind, p0, p1,
                tab_vals, tab_s1, tab_s2, slope_lo, slope_hi):
    """(trapezoid integral of the tabulated reward, final prices)."""
    return _walk(VALUE, keys, s0, times, b_step, sig_step, psi_step,
                 comp_step, lam, cdf, kind, p0, p1,
                 tab_vals, tab_s1, tab_s2, slope_lo, slope_hi)


def wealth_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                 lam, cdf, kind, p0, p1,
                 tab_vals, tab_s1, tab_s2, slope_lo, slope_hi):
    """(log-wealth of the tabulated fraction, final prices).

    The table arguments are those of :func:`value_paths`; a fraction
    table has zero slopes, so it is flat outside its bracket.
    """
    return _walk(WEALTH, keys, s0, times, b_step, sig_step, psi_step,
                 comp_step, lam, cdf, kind, p0, p1,
                 tab_vals, tab_s1, tab_s2, slope_lo, slope_hi)
