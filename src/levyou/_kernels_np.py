"""Vectorized numpy kernels: the one kernel implementation.

The tests keep a scalar reference walk (``tests/scalar_kernels.py``) with
the same stream, slot layout and arithmetic per element, except the normal
quantile: ``scipy.special.ndtri`` here, Wichura's PPND16 there (about
1e-15 apart).  Each variate is addressed by (path key, step, slot), so
nothing random depends on the prices, and the price recursion reads no
table.  The walk therefore runs over blocks of
``max(1, BLOCK_PATH_STEPS // n_paths)`` steps, and does each block in these
parts:

1. :func:`_skeleton` draws the block's random skeleton with a few array
   calls across paths *and* steps: the jump counts (one Poisson inversion
   for the block when its CDF rows are equal), each path's jump times
   (sorted) and sizes, the interval before each jump and before each step's
   right node, and for every interval its decay factor, drift and Gaussian
   noise term.  It is kept compact: the decay, drift and length of the
   node intervals that no jump cut (they span the whole step) are held
   once per step, and only the jump intervals and the node intervals after
   a step's last jump one by one.  The walk expands them to dense (steps,
   paths) rows for the block and frees those with it.  A block whose
   volatility is zero on every step has no noise: it draws no Gaussian
   uniforms and no quantiles, and the price loop adds no noise term.
   Skipping a draw shifts no other variate, and the skipped noise terms are
   zeros, so no output moves.
2. The price loop steps through the block running only the price
   recursion.  Jump rank ``j`` of a step runs on the compacted rows of the
   paths with more than ``j`` jumps in it (``s * decay + drift + noise``,
   then the jump); every path then advances the same way, in place, to the
   step's right node.  It records every node price and each jump's pre-
   and post-jump price.  The node prices are held node-major, one
   contiguous row of paths per node: for PRICE the block's rows are the
   rows of the output itself, which is returned transposed, as the
   (n_paths, n_nodes) view of that (n_nodes, n_paths) array, without a
   copy.  PRICE also has a node-free form (``price_paths(...,
   nodes=False)``, the RANGE mode): the block's rows are the leading rows
   of one buffer that every block reuses, and are folded into a running
   per-path minimum and maximum, which start at the start prices; the walk
   returns the last prices, the minima and the maxima.  Those are the last column and the row extremes of the node
   array bit for bit, since min and max round nothing, and the walk holds
   one block of rows instead of every node.
3. The mode's table lookups then read all of the block's recorded prices
   at once (:func:`_lookup` takes a table row per element), and
   :func:`_value_terms` or :func:`_wealth_terms` turn them into one term
   per jump and per node.  The table comes in piece form
   (``PriceTable.kernel_args``, built once per table by the caller): each
   row's lower extension, its intervals and its upper extension as
   ``value + slope * (s - knot)``.  A lookup is one piece index,
   ``floor((s - s1) * inv_h)`` clamped to the row's pieces, then three
   gathers and that line, with no branch per element.
4. A last loop adds the terms to the accumulator in the order of a
   step-by-step walk: each step's jump ranks, then its node.  No sum is
   regrouped, so no bit moves.

A small call draws its whole skeleton at once; a large one keeps its memory
bounded by the block.  No output depends on the block length or on which
other paths share the batch.  The budget is 2**15 path-steps: 15 000 paths
walk blocks of 2 steps, 3 000 paths blocks of 10.  Larger blocks cost fewer
numpy calls per path-step; 2**16 was a little faster still on the large
calls, but the VALUE and WEALTH working set of a 3 000-path call, in blocks of
21 steps, then raised the peak RSS of a mixed value, compare and simulate
run by 2.4 MB.  One walk serves the three entry points; its
mode picks what it accumulates along the path.

The skeleton depends only on the keys, the time grid and the market's
drift, volatility, rate, Poisson tables and size sampler, not on the start
prices, the jump impact or the tables.  The walk keeps the skeleton blocks
of its last call, under the bytes of those inputs, when the call has at
most ``MEMO_PATH_STEPS`` path-steps; a next call on equal inputs (another
start price of a value grid, another strategy of a comparison) walks them
instead of drawing again, and gives the outputs a fresh draw would.  A
call on other inputs drops them before it draws.
"""

from typing import NamedTuple

import numpy as np

from . import _rng

# What the walk accumulates: node prices, the trapezoid integral of a
# tabulated reward, log-wealth under a tabulated fraction, or each path's
# lowest and highest node price.
PRICE, VALUE, WEALTH, RANGE = 0, 1, 2, 3

# Path-steps whose skeleton is drawn at once; bounds the walk's memory.
BLOCK_PATH_STEPS = 1 << 15
# Path-steps of the largest call whose skeleton is kept for the next call.
MEMO_PATH_STEPS = 1 << 19

# (tag, blocks): the skeleton blocks of the last call that was within
# MEMO_PATH_STEPS, under the bytes of every input they were drawn from.
# Rebound whole, never mutated, so a reader never pairs one call's tag with
# another call's blocks.
_memo = None


def ndtri(u):
    """The standard normal quantile of ``u``: ``scipy.special.ndtri``,
    imported on the first call, so a walk that draws no normal (zero
    volatility on every step) never loads scipy."""
    from scipy.special import ndtri

    return ndtri(u)


class _Skeleton(NamedTuple):
    """The random part of a block of steps, kept compact.

    ``ed``, ``drift`` and ``dt`` hold one value per step: the decay factor,
    drift and length of a node interval that no jump cut, which spans the
    whole step.  ``cut`` holds the flat (step, path) index of each node
    interval that a jump cut, which starts at the step's last jump, and
    ``cut_ed``, ``cut_drift`` and ``cut_delta`` its terms; :func:`_per_node`
    expands a step value and its cut values to (steps, paths) rows.
    ``noise`` is the (steps, paths) Gaussian noise term of every node
    interval.  The ``j_`` arrays hold one entry per jump, ordered by (rank,
    step, path): the block step and the path, the quiet interval up to the
    jump and its terms, and the jump size.  ``noise`` and ``j_noise`` are
    None when the volatility is zero on every step of the block.
    ``groups[r]`` holds one slice of them per jump rank of block step
    ``r``, in rank order; ``ranks[j]`` is the slice of rank ``j``.
    """

    ed: np.ndarray
    drift: np.ndarray
    dt: np.ndarray
    cut: np.ndarray
    cut_ed: np.ndarray
    cut_drift: np.ndarray
    cut_delta: np.ndarray
    noise: np.ndarray
    j_row: np.ndarray
    j_path: np.ndarray
    j_ed: np.ndarray
    j_drift: np.ndarray
    j_noise: np.ndarray
    j_delta: np.ndarray
    j_size: np.ndarray
    groups: list
    ranks: list


def _per_node(whole, cut_values, cut, n):
    """(steps, paths) rows of a node-interval term: each step's value for
    ``whole``, ``cut_values`` at the flat indices ``cut``."""
    out = np.repeat(whole, n)
    out[cut] = cut_values
    return out.reshape(-1, n)


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

    # Decay, drift and noise of every quiet interval.  A node interval that
    # no jump cut spans the whole step, so it takes its step's terms,
    # computed once on ``dt``; only the jump intervals and the node
    # intervals after a step's last jump are computed one by one.
    bc = bc_step[ks]
    sig = sig_step[ks]
    cut_delta = times[ks + 1][row[first]] - tj[first + c - 1]
    j_delta = tj - prev
    at = np.concatenate([row, row[first]])
    part = _decay_drift_std(lam, bc[at], sig[at],
                            np.concatenate([j_delta, cut_delta]))
    whole = _decay_drift_std(lam, bc, sig, dt)
    # Without volatility in the block every noise term is zero: draw none.
    noise = j_noise = None
    if sig.any():
        z = ndtri(np.concatenate([
            _rng.uniforms(key, step, _rng.SLOT_GAUSS + rank),
            _rng.uniforms(keys, ks[:, None], _rng.SLOT_GAUSS + cnt).ravel(),
        ]))
        j_noise = part[2][:n_jumps] * z[:n_jumps]
        noise = _per_node(whole[2], part[2][n_jumps:], pair, n) \
            * z[n_jumps:].reshape(cnt.shape)

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
        whole[0], whole[1], dt, pair, part[0][n_jumps:], part[1][n_jumps:],
        cut_delta, noise, row, path[order], part[0][order], part[1][order],
        None if j_noise is None else j_noise[order], j_delta[order],
        size[order], groups, ranks,
    )


def _lookup(value, slope, knot, s1, inv_h, row, s):
    """Piecewise-linear table lookup with linear extension outside, from
    the piece form of ``strategy.PriceTable.kernel_args``.

    Element ``i`` reads table row ``row[i]`` at price ``s[i]``; ``row``
    broadcasts against ``s``.  Each element takes one piece index and
    three gathers, with no branch.  The index is clamped with ``fmax`` and
    ``fmin``, which send a NaN price to the lower extension, whose line
    gives NaN; an infinite price takes the extension on its side.
    """
    width = value.shape[1]
    f = s - s1[row]
    f *= inv_h[row]
    np.floor(f, out=f)
    np.fmax(f, -1.0, out=f)
    np.fmin(f, width - 2, out=f)
    f += row * width + 1
    at = f.astype(np.intp)
    # value + slope * (s - knot), in place; ``f`` takes the gathers
    out = knot.take(at)
    np.subtract(s, out, out=out)
    # "clip" leaves the in-range indices as they are, and lets ``take``
    # write to ``out`` without buffering.
    out *= slope.take(at, out=f, mode="clip")
    out += value.take(at, out=f, mode="clip")
    return out


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
    # 0.5 * (f_prev + f) * delta, in place
    f_prev += f
    f_prev *= 0.5
    f_prev *= _per_node(sk.dt, sk.cut_delta, sk.cut, n)
    return jump_term, f_prev, f[-1].copy()


def _wealth_terms(table, ks, sk, price, times, psi_step, sig_step):
    """Log-wealth terms of a block's jumps and nodes: the jumps' log1p,
    then per node the price move net of jumps and the variance drag.  The
    drag is None when the volatility is zero on every step of the block."""
    n = price.shape[1]
    pi = _lookup(*table, ks[:, None], price[:-1])
    at = sk.j_row * n + sk.j_path
    jump_term = np.log1p(pi.ravel()[at] * psi_step[ks][sk.j_row] * sk.j_size)
    sumy = np.zeros_like(pi)
    flat = sumy.ravel()
    for ranked in sk.ranks:
        flat[at[ranked]] += sk.j_size[ranked]
    # pi * (price[1:] - price[:-1] - psi * sumy), in place
    sumy *= psi_step[ks][:, None]
    move = np.subtract(price[1:], price[:-1])
    move -= sumy
    move *= pi
    sig = sig_step[ks][:, None]
    drag = None
    if sig.any():
        # 0.5 * pi * pi * sig * sig * dt, in place
        drag = 0.5 * pi
        drag *= pi
        drag *= sig
        drag *= sig
        drag *= (times[ks + 1] - times[ks])[:, None]
    return jump_term, move, drag


def _walk(mode, keys, s0, times, b_step, sig_step, psi_step, comp_step,
          lam, cdf, kind, p0, p1, *table):
    """Exact transition walk over the step grid, accumulating per ``mode``.

    After each block's skeleton is drawn, or taken from the last call's,
    and its node intervals are expanded to dense rows, the block runs in
    three parts:
    the price loop records the node prices and every jump's pre- and
    post-jump price; the mode's table lookups then read the whole block at
    once and give each jump and node its term; a last loop adds the terms
    in the order of a step-by-step walk (each step's jump ranks, then its
    node), so no sum is regrouped.

    ``table`` is the piece form of the mode's table (empty for PRICE and
    RANGE).  Returns the (n_paths, n_nodes) node prices for PRICE, the
    final, lowest and highest prices for RANGE, else the accumulated
    integral and the final prices.
    """
    global _memo
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    n_steps = times.shape[0] - 1
    bc_step = b_step - comp_step
    block = max(1, BLOCK_PATH_STEPS // max(n, 1))
    # The skeleton is a function of these inputs alone; the last call's
    # blocks serve this one if they are all equal bit for bit.
    tag = None
    if n * n_steps <= MEMO_PATH_STEPS:
        tag = (block, cdf.shape, keys.tobytes(), times.tobytes(),
               bc_step.tobytes(), sig_step.tobytes(), cdf.tobytes(),
               np.array([lam, p0, p1], dtype=np.float64).tobytes(), kind)
    memo = _memo
    blocks = memo[1] if memo is not None and memo[0] == tag else None
    if blocks is None:
        _memo = None  # free the old skeleton before drawing a new one
        drawn = []
    s = s0.astype(np.float64)
    acc = np.zeros(n)
    if mode == PRICE:
        # Node-major, so the price loop writes each node row in place.
        nodes = np.empty((n_steps + 1, n))
        nodes[0] = s
    elif mode == VALUE:
        f_left = _lookup(*table, 0, s)
    elif mode == RANGE:
        low, high = s.copy(), s.copy()
        rows = np.empty((min(block, n_steps) + 1, n))  # reused by each block
    for b, k0 in enumerate(range(0, n_steps, block)):
        ks = np.arange(k0, min(k0 + block, n_steps))
        if blocks is None:
            sk = _skeleton(keys, ks, times, bc_step, sig_step, lam, cdf,
                           kind, p0, p1)
            if tag is not None:
                drawn.append(sk)
        else:
            sk = blocks[b]
        ed = _per_node(sk.ed, sk.cut_ed, sk.cut, n)
        drift = _per_node(sk.drift, sk.cut_drift, sk.cut, n)

        # The price loop: row r of ``price`` is the left node of block step r,
        # row r + 1 its right node; ``jumped`` holds each jump's pre- and
        # post-jump price in the skeleton's jump order.  In PRICE mode the
        # rows are the block's rows of ``nodes``; row 0 already holds ``s``.
        # In RANGE mode they are the leading rows of ``rows``.
        if mode == PRICE:
            price = nodes[k0:k0 + ks.shape[0] + 1]
        else:
            price = (rows[:ks.shape[0] + 1] if mode == RANGE
                     else np.empty((ks.shape[0] + 1, n)))
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
            np.multiply(left, ed[r], out=s)
            s += drift[r]
            if sk.noise is not None:
                s += sk.noise[r]
        del ed, drift

        if mode == RANGE:
            # min and max round nothing, so the range is the node array's
            np.minimum(low, price[1:].min(axis=0), out=low)
            np.maximum(high, price[1:].max(axis=0), out=high)
        # The table lookups of the whole block, and the terms.
        elif mode != PRICE:
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
                if mode == WEALTH and drag is not None:
                    acc -= drag[r]
            del jump_term, node_term
        if mode != PRICE:
            s = s.copy()  # not a view, which would keep this block's rows
        # Free this block's rows and terms, and its skeleton unless it is
        # kept, before the next is drawn (the dense rows went after the price
        # loop): holding two at once fragments the heap and raised the peak
        # RSS of large runs.
        del sk, price, jumped
    if blocks is None and tag is not None:
        _memo = (tag, tuple(drawn))
    if mode == PRICE:
        return nodes.T
    if mode == RANGE:
        return s, low, high
    return acc, s


def price_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                lam, cdf, kind, p0, p1, nodes=True):
    """Prices at the grid nodes, shape (n_paths, n_nodes); with
    ``nodes=False`` (last prices, lowest prices, highest prices), each of
    shape (n_paths,), the last column and the row minimum and maximum of
    those nodes, from a walk that holds one block of them at a time."""
    return _walk(PRICE if nodes else RANGE, keys, s0, times, b_step,
                 sig_step, psi_step, comp_step, lam, cdf, kind, p0, p1)


def value_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                lam, cdf, kind, p0, p1,
                tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h):
    """(trapezoid integral of the tabulated reward, final prices).

    The table comes in the piece form of ``PriceTable.kernel_args``."""
    return _walk(VALUE, keys, s0, times, b_step, sig_step, psi_step,
                 comp_step, lam, cdf, kind, p0, p1,
                 tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h)


def wealth_paths(keys, s0, times, b_step, sig_step, psi_step, comp_step,
                 lam, cdf, kind, p0, p1,
                 tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h):
    """(log-wealth of the tabulated fraction, final prices).

    The table arguments are those of :func:`value_paths`; a fraction
    table has zero slopes, so it is flat outside its bracket.
    """
    return _walk(WEALTH, keys, s0, times, b_step, sig_step, psi_step,
                 comp_step, lam, cdf, kind, p0, p1,
                 tab_value, tab_slope, tab_knot, tab_s1, tab_inv_h)
