"""Counter-based random number generation (vectorized reference version).

Every random variate consumed by the simulators is addressed by a triple
``(path key, step, slot)`` and produced by hashing a 64-bit counter with a
splitmix64-style finalizer.  There is no sequential state, so the stream seen
by one path is independent of how many paths run in the same batch, of the
batch order, and of the number of worker batches — batching schemes can be
changed freely without changing results.

Slot layout within a step (4096 slots per step):

==============  =====================================================
slot            variate
==============  =====================================================
0               uniform driving the Poisson jump-count inversion
1 + j           uniform for the time of jump ``j`` (j < 1023)
1024 + j        uniform for the size of jump ``j``
2048 + i        standard normal for sub-segment ``i`` (i < 2047)
==============  =====================================================

The scalar twins of these functions, in the tests' reference walk
(``tests/scalar_kernels.py``), follow the exact same arithmetic, operation
by operation.  A Gaussian slot's uniform becomes a standard normal through
the quantile function: ``scipy.special.ndtri`` in the numpy kernels,
Wichura's PPND16 (``scalar_kernels._normal_ppf``) in the reference walk.
The two agree to about 1e-15.
"""

import sys

import numpy as np

from .errors import ConfigError

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)

SLOT_SPACE = 4096
SLOT_COUNT = 0
SLOT_TIME = 1
SLOT_SIZE = 1024
SLOT_GAUSS = 2048
MAX_JUMPS_PER_STEP = 1023

_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV53 = 2.0**-53

# Jump size sampler codes shared with the kernels.
SIZE_NONE = 0
SIZE_PARETO = 1
SIZE_UNIFORM = 2
SIZE_CONSTANT = 3


def mix64(z, out=None):
    """splitmix64 finalizer, elementwise on uint64 arrays.

    The result goes to ``out`` when given, a uint64 array of ``z``'s
    broadcast shape that may be ``z`` itself; else to a new array (0-d for
    a scalar ``z``).  The shifts and xors run in place through one scratch
    buffer, so a call allocates one temporary of that shape.
    """
    if out is None:
        out = np.array(z, dtype=np.uint64)
    elif out is not z:
        np.copyto(out, z)
    tmp = np.empty_like(out)
    out ^= np.right_shift(out, _U30, out=tmp)
    out *= MIX1
    out ^= np.right_shift(out, _U27, out=tmp)
    out *= MIX2
    out ^= np.right_shift(out, _U31, out=tmp)
    return out


def _word(x):
    """``x`` modulo 2**64 as uint64: a Python integer, or an integer array
    elementwise."""
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64)
    return np.array(int(x) % (1 << 64), dtype=np.uint64)


def derive_keys(seed, path_ids):
    """Per-path hash keys for ``seed`` and integer path identifiers.

    ``seed`` may be an array of seeds, which broadcasts against
    ``path_ids``.
    """
    pid = np.asarray(path_ids, dtype=np.uint64)
    base = mix64(_word(seed) ^ GOLDEN)
    return mix64(base ^ (pid * MIX1))


def derive_seed(seed, stream):
    """A child seed for an auxiliary stream (e.g. nested-simulation inner
    paths of one outer path), independent of batching by construction.

    Given an array of streams, returns the uint64 array of their seeds.
    """
    word = mix64(_word(seed) + _word(stream) * GOLDEN) ^ MIX2
    return word if isinstance(stream, np.ndarray) else int(word)


def raw_words(keys, step, slot):
    """uint64 hash words for (key, step, slot); ``step``/``slot`` may be
    scalars or arrays broadcastable against ``keys``.

    The counter is hashed in place in an array of the (step, slot) shape,
    and the words in one array of the full shape."""
    # ``np.asarray`` makes an array of a scalar result, for the in-place
    # steps; an array result is already new.
    ctr = np.asarray(np.asarray(step, dtype=np.uint64) * np.uint64(SLOT_SPACE)
                     + np.asarray(slot, dtype=np.uint64))
    ctr *= GOLDEN
    ctr += MIX2
    mix64(ctr, out=ctr)
    words = np.asarray(np.asarray(keys, dtype=np.uint64) ^ ctr)
    return mix64(words, out=words)


def uniforms(keys, step, slot):
    """Uniform variates on the open interval (0, 1); a float for 0-d
    inputs."""
    w = raw_words(keys, step, slot)
    w >>= _U11
    u = w.astype(np.float64)
    u += 0.5
    u *= _INV53
    return u if u.ndim else u[()]


def poisson_cdf_table(mu, cap=MAX_JUMPS_PER_STEP):
    """Cumulative Poisson(mu) probabilities for count inversion.

    Terms are accumulated until the point mass is negligible (past the mode
    and below 1e-20, far under the 2**-54 gap between the largest producible
    uniform and 1).  The final entry is clamped to exactly 1.0, so inversion
    always lands inside the table and counts never exceed
    ``len(table) - 1 <= cap``.

    Raises :class:`ConfigError` when the table cannot be built faithfully:
    ``exp(-mu)`` is subnormal (mu above about 708), or ``cap`` terms are
    reached while the point mass is still above 1e-20.  A finer time grid
    lowers the per-step mean ``mu``.
    """
    p = float(np.exp(-mu))
    if not p >= sys.float_info.min:
        raise ConfigError(
            f"Poisson mean {float(mu):.6g} per step underflows exp(-mu); "
            "use more time steps"
        )
    cdf = [p]
    k = 0
    while not (k > mu and p < 1e-20):
        if k == cap:
            raise ConfigError(
                f"Poisson mean {float(mu):.6g} per step needs more than "
                f"{cap} jumps in one step; use more time steps"
            )
        k += 1
        p *= mu / k
        cdf.append(cdf[-1] + p)
    table = np.minimum(np.asarray(cdf), 1.0)
    table[-1] = 1.0
    return table


def poisson_counts(u, cdf):
    """Invert uniforms through a Poisson CDF table.

    With a 2-D ``cdf``, row ``k`` of ``u`` is inverted through row ``k`` of
    the table.  When every row is the same (a constant rate on a uniform
    grid), all of ``u`` is inverted through that row in one search; a
    uniform at or below the row's first entry is a count of 0, which is
    what the search would give, and only the others are searched.  Through
    unequal rows, a count is the number of its row's entries below the
    uniform, which is what the search gives on a non-decreasing row.  It is
    summed over all of ``u`` in one pass per table column, up to the first
    column at or above every uniform; a row's padding (at or above 1) is
    never below a uniform, so it never counts.
    """
    if cdf.ndim == 2 and len(cdf) and (cdf == cdf[0]).all():
        cdf = cdf[0]
    out = np.zeros(u.shape, dtype=np.intp)
    if cdf.ndim == 1:
        live = ~(u <= cdf[0])
        out[live] = np.searchsorted(cdf, u[live], side="left")
        return out
    top = u.max(initial=0.0)
    for column in cdf.T:
        # The rows do not decrease, so neither do the column minima: once
        # one is at or above every uniform, no later entry counts.  (A table
        # of no rows has columns of no entries, which count nothing.)
        if not column.min(initial=1.0) < top:
            break
        out += column.reshape(-1, *[1] * (u.ndim - 1)) < u
    return out


def sample_sizes(kind, p0, p1, u):
    """Jump sizes from uniforms for the coded size distribution."""
    if kind == SIZE_PARETO:
        return p0 * u ** (-1.0 / p1)
    if kind == SIZE_UNIFORM:
        return p0 + (p1 - p0) * u
    if kind == SIZE_CONSTANT:
        return np.full_like(u, p0)
    raise ValueError(f"unknown size sampler code {kind}")
