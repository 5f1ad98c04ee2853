"""Vectorized numpy kernels, twins of the numba scalar kernels.

Same stream, same slot layout and the same arithmetic per element as the
scalar backend.  Each variate is addressed by (path key, step, slot), so
nothing random depends on the prices, and the walk runs in two parts over
blocks of ``max(1, BLOCK_PATH_STEPS // n_paths)`` steps:

1. :func:`_skeleton` draws the block's random skeleton with a few array
   calls across paths *and* steps: the jump counts, each path's jump times
   (sorted) and sizes, the interval before each jump and before each step's
   right node, and for every interval its decay factor, drift and Gaussian
   noise term.
2. :func:`_walk` then steps through the block doing only what depends on
   the price.  Jump rank ``j`` of a step runs on the compacted rows of the
   paths with more than ``j`` jumps in it (``s * decay + drift + noise``,
   then the jump); every path then advances the same way to the step's
   right node.  The mode's table lookups and accumulators run alongside.

A small call draws its whole skeleton at once; a large one keeps its memory
bounded by the block.  No output depends on the block length or on which
other paths share the batch.  One walk serves the three entry points; its
mode picks what it accumulates along the path.
"""

from typing import NamedTuple

import numpy as np

from . import _rng

# What the walk accumulates: node prices, the trapezoid integral of a
# tabulated reward, or log-wealth under a tabulated fraction.
PRICE, VALUE, WEALTH = 0, 1, 2

# Path-steps whose skeleton is drawn at once; bounds the walk's memory.
BLOCK_PATH_STEPS = 1 << 14


class _Skeleton(NamedTuple):
    """The random part of a block of steps, as the walk consumes it.

    ``ed``, ``drift``, ``noise`` and ``delta`` are (steps, paths) arrays
    for the last quiet interval of each step.  The ``j_`` arrays hold one
    entry per jump, ordered by (step, rank, path): the path, the quiet
    interval up to the jump and its terms, and the jump size.
    ``groups[r]`` holds one slice of them per jump rank of block step ``r``.
    """

    ed: np.ndarray
    drift: np.ndarray
    noise: np.ndarray
    delta: np.ndarray
    j_path: np.ndarray
    j_ed: np.ndarray
    j_drift: np.ndarray
    j_noise: np.ndarray
    j_delta: np.ndarray
    j_size: np.ndarray
    groups: list


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


def _skeleton(keys, ks, times, bc_step, sig_step, lam, cdf, kind, p0, p1):
    """Everything random of the steps ``ks`` on all paths; see
    :class:`_Skeleton`."""
    n = keys.shape[0]
    t_left = times[ks]
    dt = times[ks + 1] - t_left
    cnt = _rng.poisson_counts(
        _rng.uniforms(keys, ks[:, None], _rng.SLOT_COUNT), cdf[ks]
    )

    # One entry per jump, grouped by (block step, path) in step-major order
    # and numbered by slot within its group.
    pair = np.flatnonzero(cnt)
    c = cnt.ravel()[pair]
    first = np.cumsum(c) - c
    owner = np.repeat(pair, c)
    n_jumps = owner.shape[0]
    rank = np.arange(n_jumps) - np.repeat(first, c)
    row, path = np.divmod(owner, n)
    step = ks[row]
    key = keys[path]
    tj = t_left[row] + dt[row] * _rng.uniforms(key, step,
                                               _rng.SLOT_TIME + rank)
    su = _rng.uniforms(key, step, _rng.SLOT_SIZE + rank)
    size = _rng.sample_sizes(kind, p0, p1, su) if n_jumps else su
    # Sort each path's jumps by time; ties keep slot order.  Each group
    # stays in place, so ``rank`` now numbers the jumps in time order.
    order = np.lexsort((tj, owner))
    tj = tj[order]
    size = size[order]
    prev = np.empty_like(tj)
    prev[1:] = tj[:-1]
    prev[first] = t_left[row[first]]
    last = np.repeat(t_left, n)
    last[pair] = tj[first + c - 1]

    # Decay, drift and noise of every quiet interval: first those ending at
    # a jump, then those ending at a step's right node.
    delta = np.concatenate(
        [tj - prev, (times[ks + 1][:, None] - last.reshape(cnt.shape)).ravel()]
    )
    at = np.concatenate([row, np.repeat(np.arange(ks.shape[0]), n)])
    u = np.concatenate([
        _rng.uniforms(key, step, _rng.SLOT_GAUSS + rank),
        _rng.uniforms(keys, ks[:, None], _rng.SLOT_GAUSS + cnt).ravel(),
    ])
    ed, drift, std = _decay_drift_std(lam, bc_step[ks][at],
                                      sig_step[ks][at], delta)
    noise = std * _rng.normal_ppf(u)

    # The walk takes jump rank j of a step on all its paths at once.
    order = np.lexsort((rank, row))
    groups = [[] for _ in range(ks.shape[0])]
    if n_jumps:
        row, rank = row[order], rank[order]
        cut = np.flatnonzero(np.diff(row) | np.diff(rank)) + 1
        edges = [0, *cut.tolist(), n_jumps]
        for r, a, b in zip(row[edges[:-1]].tolist(), edges[:-1], edges[1:]):
            groups[r].append(slice(a, b))
    tail = slice(n_jumps, None)
    shape = cnt.shape
    return _Skeleton(
        ed[tail].reshape(shape), drift[tail].reshape(shape),
        noise[tail].reshape(shape), delta[tail].reshape(shape),
        path[order], ed[order], drift[order], noise[order], delta[order],
        size[order], groups,
    )


def _interp_slope(vals, row, s1, s2, slope_lo, slope_hi, s):
    """Piecewise-linear table lookup with linear extension outside."""
    v = vals[row]
    top = v.shape[0] - 1
    d = s - s1
    x = d / (s2 - s1)
    f = x * top
    j = f.astype(np.int64)
    np.maximum(j, 0, out=j)
    np.minimum(j, top - 1, out=j)
    fr = f - j
    mid = v[j] * (1.0 - fr) + v[j + 1] * fr
    lo = v[0] + slope_lo * d
    hi = v[top] + slope_hi * (s - s2)
    return np.where(x <= 0.0, lo, np.where(x >= 1.0, hi, mid))


def _walk(mode, keys, s0, times, b_step, sig_step, psi_step, comp_step,
          lam, cdf, kind, p0, p1, vals=None, s1=None, s2=None,
          slope_lo=0.0, slope_hi=0.0):
    """Exact transition walk over the step grid, accumulating per ``mode``.

    Returns the (n_paths, n_nodes) node prices for PRICE, else the
    accumulated integral and the final prices.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    n_steps = times.shape[0] - 1
    bc_step = b_step - comp_step
    block = max(1, BLOCK_PATH_STEPS // max(n, 1))
    s = s0.astype(np.float64).copy()
    acc = np.zeros(n)
    if mode == PRICE:
        nodes = np.empty((n, n_steps + 1))
        nodes[:, 0] = s
    elif mode == VALUE:
        f_prev = _interp_slope(vals, 0, s1[0], s2[0], slope_lo, slope_hi, s)
    for k0 in range(0, n_steps, block):
        ks = np.arange(k0, min(k0 + block, n_steps))
        sk = _skeleton(keys, ks, times, bc_step, sig_step, lam, cdf, kind,
                       p0, p1)
        for r, k in enumerate(ks.tolist()):
            psi = psi_step[k]
            if mode == WEALTH:
                pi = _interp_slope(vals, k, s1[k], s2[k], slope_lo, slope_hi,
                                   s)
                s_left = s.copy()  # s is written in place below
                sumy = np.zeros(n)
            for jumps in sk.groups[r]:
                idx = sk.j_path[jumps]
                y = sk.j_size[jumps]
                delta = sk.j_delta[jumps]
                s_pre = s[idx] * sk.j_ed[jumps] + sk.j_drift[jumps] \
                    + sk.j_noise[jumps]
                s_post = s_pre + psi * y
                if mode == VALUE:
                    # one lookup for the rewards just before and after
                    f = _interp_slope(vals, k, s1[k], s2[k], slope_lo,
                                      slope_hi,
                                      np.concatenate([s_pre, s_post]))
                    m = idx.shape[0]
                    acc[idx] += 0.5 * (f_prev[idx] + f[:m]) * delta
                    f_prev[idx] = f[m:]
                elif mode == WEALTH:
                    acc[idx] += np.log1p(pi[idx] * psi * y)
                    sumy[idx] += y
                s[idx] = s_post
            s = s * sk.ed[r] + sk.drift[r] + sk.noise[r]
            if mode == PRICE:
                nodes[:, k + 1] = s
            elif mode == VALUE:
                f_right = _interp_slope(vals, k + 1, s1[k + 1], s2[k + 1],
                                        slope_lo, slope_hi, s)
                acc += 0.5 * (f_prev + f_right) * sk.delta[r]
                f_prev = f_right
            else:
                sig = sig_step[k]
                acc += pi * (s - s_left - psi * sumy)
                acc -= 0.5 * pi * pi * sig * sig * (times[k + 1] - times[k])
        # Free this block's skeleton before the next is drawn: holding two
        # at once fragments the heap and raised the peak RSS of large runs.
        del sk
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
