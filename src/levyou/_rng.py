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


def mix64(z):
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    z = np.asarray(z, dtype=np.uint64).copy()
    z ^= z >> _U30
    z *= MIX1
    z ^= z >> _U27
    z *= MIX2
    z ^= z >> _U31
    return z


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
    scalars or arrays broadcastable against ``keys``."""
    ctr = np.asarray(
        np.asarray(step, dtype=np.uint64) * np.uint64(SLOT_SPACE)
        + np.asarray(slot, dtype=np.uint64),
        dtype=np.uint64,
    ).copy()
    ctr *= GOLDEN
    ctr += MIX2
    return mix64(np.asarray(keys, dtype=np.uint64) ^ mix64(ctr))


def uniforms(keys, step, slot):
    """Uniform variates on the open interval (0, 1)."""
    w = raw_words(keys, step, slot)
    return ((w >> _U11).astype(np.float64) + 0.5) * _INV53


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
    the table; when every row is the same (a constant rate on a uniform
    grid), all of ``u`` is inverted through that row in one call.  A
    uniform at or below the table's first entry is a count of 0, which is
    what the search would give; only the others are searched.
    """
    if cdf.ndim == 2 and len(cdf) and (cdf == cdf[0]).all():
        cdf = cdf[0]
    out = np.zeros(u.shape, dtype=np.intp)
    if cdf.ndim == 1:
        live = ~(u <= cdf[0])
        out[live] = np.searchsorted(cdf, u[live], side="left")
        return out
    for k, row in enumerate(cdf):
        live = ~(u[k] <= row[0])
        out[k, live] = np.searchsorted(row, u[k, live], side="left")
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
