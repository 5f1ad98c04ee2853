"""Vectorized numpy kernels, twins of the numba scalar kernels.

Same stream, same slot layout and the same arithmetic per element as the
scalar backend, except the normal quantile: ``scipy.special.ndtri`` here,
Wichura's PPND16 in the numba kernels (about 1e-15 apart).  Each variate
is addressed by (path key, step, slot), so nothing random depends on the
prices, and the price recursion reads no table.  The walk therefore runs
over blocks of ``max(1, BLOCK_PATH_STEPS // n_paths)`` steps, and does
each block in these parts:

1. :func:`_skeleton` draws the block's random skeleton with a few array
   calls across paths *and* steps: the jump counts (one Poisson inversion
   for the block when its CDF rows are equal), each path's jump times
   (sorted) and sizes, the interval before each jump and before each step's
   right node, and for every interval its decay factor, drift and Gaussian
   noise term.  The decay and drift are computed once per step for the
   node intervals that no jump cut (they span the whole step) and one by
   one only for the others.  A block whose volatility is zero on every
   step has no noise: it draws no Gaussian uniforms and no quantiles, and
   the price loop adds no noise term.  Skipping a draw shifts no other
   variate, and the skipped noise terms are zeros, so no output moves.
2. The price loop steps through the block running only the price
   recursion.  Jump rank ``j`` of a step runs on the compacted rows of the
   paths with more than ``j`` jumps in it (``s * decay + drift + noise``,
   then the jump); every path then advances the same way, in place, to the
   step's right node.  It records every node price and each jump's pre-
   and post-jump price.
3. The mode's table lookups then read all of the block's recorded prices
   at once (:func:`_lookup` takes a table row per element), and
   :func:`_value_terms` or :func:`_wealth_terms` turn them into one term
   per jump and per node.
4. A last loop adds the terms to the accumulator in the order of a
   step-by-step walk: each step's jump ranks, then its node.  No sum is
   regrouped, so no bit moves.

A small call draws its whole skeleton at once; a large one keeps its memory
bounded by the block.  No output depends on the block length or on which
other paths share the batch.  One walk serves the three entry points; its
mode picks what it accumulates along the path.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from . import _rng

# What the walk accumulates: node prices, the trapezoid integral of a
# tabulated reward, or log-wealth under a tabulated fraction.
PRICE, VALUE, WEALTH = 0, 1, 2

# Path-steps whose skeleton is drawn at once; bounds the walk's memory.
BLOCK_PATH_STEPS = 1 << 14


class _Skeleton(NamedTuple):
    """The random part of a block of steps, as the walk consumes it.

    ``ed``, ``drift``, ``noise`` and ``delta`` are (steps, paths) arrays
    for the last quiet interval of each step; ``ed`` and ``drift`` hold one
    per-step value wherever no jump cut that interval.  The ``j_`` arrays
    hold one entry per jump, ordered by (rank, step, path): the block step
    and the path, the quiet interval up to the jump and its terms, and the
    jump size.  ``noise`` and ``j_noise`` are None when the volatility is
    zero on every step of the block.  ``groups[r]`` holds one slice of them
    per jump rank of block step ``r``, in rank order; ``ranks[j]`` is the
    slice of rank ``j``.
    """

    ed: np.ndarray
    drift: np.ndarray
    noise: np.ndarray
    delta: np.ndarray
    j_row: np.ndarray
    j_path: np.ndarray
    j_ed: np.ndarray
    j_drift: np.ndarray
    j_noise: np.ndarray
    j_delta: np.ndarray
    j_size: np.ndarray
    groups: list
    ranks: list


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

    # Decay, drift and noise of every quiet interval.  A node interval that
    # no jump cut spans the whole step, so it takes its step's terms,
    # computed once on ``dt``; only the jump intervals and the node
    # intervals after a step's last jump are computed one by one.
    shape = cnt.shape
    bc = bc_step[ks]
    sig = sig_step[ks]
    delta = times[ks + 1][:, None] - last.reshape(shape)
    j_delta = tj - prev
    at = np.concatenate([row, row[first]])
    part = _decay_drift_std(lam, bc[at], sig[at],
                            np.concatenate([j_delta, delta.ravel()[pair]]))
    whole = _decay_drift_std(lam, bc, sig, dt)

    def per_node(i):
        out = np.repeat(whole[i], n)
        out[pair] = part[i][n_jumps:]
        return out.reshape(shape)

    ed, drift = per_node(0), per_node(1)
    # Without volatility in the block every noise term is zero: draw none.
    noise = j_noise = None
    if sig.any():
        z = ndtri(np.concatenate([
            _rng.uniforms(key, step, _rng.SLOT_GAUSS + rank),
            _rng.uniforms(keys, ks[:, None], _rng.SLOT_GAUSS + cnt).ravel(),
        ]))
        j_noise = part[2][:n_jumps] * z[:n_jumps]
        noise = per_node(2) * z[n_jumps:].reshape(shape)

    # The walk takes jump rank j of a step on all its paths at once; the
    # jumps are ordered by (rank, step, path), so each (step, rank) group
    # and each rank of the whole block is one slice.
    order = np.lexsort((row, rank))
    groups = [[] for _ in range(ks.shape[0])]
    ranks = []
    if n_jumps:
        row, rank = row[order], rank[order]
        cut = np.flatnonzero(np.diff(row) | np.diff(rank)) + 1
        edges = [0, *cut.tolist(), n_jumps]
        for r, a, b in zip(row[edges[:-1]].tolist(), edges[:-1], edges[1:]):
            groups[r].append(slice(a, b))
        edges = [0, *(np.flatnonzero(np.diff(rank)) + 1).tolist(), n_jumps]
        ranks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    return _Skeleton(
        ed, drift, noise, delta, row, path[order], part[0][order],
        part[1][order], None if j_noise is None else j_noise[order],
        j_delta[order], size[order], groups, ranks,
    )


def _lookup(vals, s1, s2, slope_lo, slope_hi, row, s):
    """Piecewise-linear table lookup with linear extension outside.

    Element ``i`` reads table row ``row[i]`` at price ``s[i]``; ``row``
    broadcasts against ``s``.
    """
    top = vals.shape[1] - 1
    d = s - s1[row]
    x = d / (s2[row] - s1[row])
    f = x * top
    j = f.astype(np.int64)
    np.maximum(j, 0, out=j)
    np.minimum(j, top - 1, out=j)
    fr = f - j
    at = j + row * (top + 1)
    flat = vals.ravel()
    mid = flat[at] * (1.0 - fr) + flat[at + 1] * fr
    lo = vals[row, 0] + slope_lo * d
    hi = vals[row, top] + slope_hi * (s - s2[row])
    return np.where(x <= 0.0, lo, np.where(x >= 1.0, hi, mid))


def _value_terms(table, ks, sk, price, jumped, f_left):
    """Trapezoid terms of a block's jumps and nodes, and the reward at its
    last node.  ``f_left`` is the reward at the block's first node."""
    n = price.shape[1]
    f = _lookup(*table, (ks + 1)[:, None], price[1:])
    f_jump = _lookup(*table, ks[sk.j_row], jumped)
    f_prev = np.empty_like(f)  # the reward where each step last stood
    f_prev[0] = f_left
    f_prev[1:] = f[:-1]
    # A rank holds at most one jump per (step, path): ``at`` is each
    # jump's flat position in the (steps, paths) arrays.
    at = sk.j_row * n + sk.j_path
    flat = f_prev.ravel()
    jump_term = np.empty_like(sk.j_delta)
    for ranked in sk.ranks:
        on = at[ranked]
        jump_term[ranked] = 0.5 * (flat[on] + f_jump[0, ranked]) \
            * sk.j_delta[ranked]
        flat[on] = f_jump[1, ranked]
    return jump_term, 0.5 * (f_prev + f) * sk.delta, f[-1]


def _wealth_terms(table, ks, sk, price, times, psi_step, sig_step):
    """Log-wealth terms of a block's jumps and nodes: the jumps' log1p,
    then per node the price move net of jumps and the variance drag."""
    n = price.shape[1]
    pi = _lookup(*table, ks[:, None], price[:-1])
    at = sk.j_row * n + sk.j_path
    jump_term = np.log1p(pi.ravel()[at] * psi_step[ks][sk.j_row] * sk.j_size)
    sumy = np.zeros_like(pi)
    flat = sumy.ravel()
    for ranked in sk.ranks:
        flat[at[ranked]] += sk.j_size[ranked]
    psi = psi_step[ks][:, None]
    sig = sig_step[ks][:, None]
    dt = (times[ks + 1] - times[ks])[:, None]
    return (jump_term, pi * (price[1:] - price[:-1] - psi * sumy),
            0.5 * pi * pi * sig * sig * dt)


def _walk(mode, keys, s0, times, b_step, sig_step, psi_step, comp_step,
          lam, cdf, kind, p0, p1, vals=None, s1=None, s2=None,
          slope_lo=0.0, slope_hi=0.0):
    """Exact transition walk over the step grid, accumulating per ``mode``.

    After each block's skeleton is drawn, the block runs in three parts:
    the price loop records the node prices and every jump's pre- and
    post-jump price; the mode's table lookups then read the whole block at
    once and give each jump and node its term; a last loop adds the terms
    in the order of a step-by-step walk (each step's jump ranks, then its
    node), so no sum is regrouped.

    Returns the (n_paths, n_nodes) node prices for PRICE, else the
    accumulated integral and the final prices.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    n_steps = times.shape[0] - 1
    bc_step = b_step - comp_step
    block = max(1, BLOCK_PATH_STEPS // max(n, 1))
    s = s0.astype(np.float64)
    acc = np.zeros(n)
    table = (vals, s1, s2, slope_lo, slope_hi)
    if mode == PRICE:
        nodes = np.empty((n, n_steps + 1))
        nodes[:, 0] = s
    elif mode == VALUE:
        f_left = _lookup(*table, 0, s)
    for k0 in range(0, n_steps, block):
        ks = np.arange(k0, min(k0 + block, n_steps))
        sk = _skeleton(keys, ks, times, bc_step, sig_step, lam, cdf, kind,
                       p0, p1)

        # The price loop: row r of ``price`` is the left node of block step r,
        # row r + 1 its right node; ``jumped`` holds each jump's pre- and
        # post-jump price in the skeleton's jump order.
        price = np.empty((ks.shape[0] + 1, n))
        price[0] = s
        jumped = np.empty((2, sk.j_path.shape[0]))
        shift = psi_step[ks][sk.j_row] * sk.j_size
        for r, groups in enumerate(sk.groups):
            s = price[r + 1]
            left = price[r]
            if groups:
                s[...] = left
                for jumps in groups:
                    idx = sk.j_path[jumps]
                    pre = s[idx] * sk.j_ed[jumps] + sk.j_drift[jumps]
                    if sk.j_noise is not None:
                        pre += sk.j_noise[jumps]
                    jumped[0, jumps] = pre
                    s[idx] = jumped[1, jumps] = pre + shift[jumps]
                left = s
            np.multiply(left, sk.ed[r], out=s)
            s += sk.drift[r]
            if sk.noise is not None:
                s += sk.noise[r]

        # The table lookups of the whole block, and the terms.
        if mode == PRICE:
            nodes[:, ks + 1] = price[1:].T
        else:
            if mode == VALUE:
                jump_term, node_term, f_left = _value_terms(
                    table, ks, sk, price, jumped, f_left)
            else:
                jump_term, node_term, drag = _wealth_terms(
                    table, ks, sk, price, times, psi_step, sig_step)
            # Accumulate in walk order.
            for r, groups in enumerate(sk.groups):
                for jumps in groups:
                    acc[sk.j_path[jumps]] += jump_term[jumps]
                acc += node_term[r]
                if mode == WEALTH:
                    acc -= drag[r]
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
