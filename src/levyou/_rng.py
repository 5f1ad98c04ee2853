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

The scalar twins of these functions (used inside the numba kernels) live in
``_kernels_nb`` and follow the exact same arithmetic, operation by operation.
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


def derive_keys(seed, path_ids):
    """Per-path hash keys for ``seed`` and integer path identifiers."""
    pid = np.asarray(path_ids, dtype=np.uint64)
    base = mix64(np.array(int(seed) % (1 << 64), dtype=np.uint64) ^ GOLDEN)
    return mix64(base ^ (pid * MIX1))


def derive_seed(seed, stream):
    """A child seed for an auxiliary stream (e.g. nested-simulation inner
    paths of one outer path), independent of batching by construction."""
    word = mix64(
        np.array(int(seed) % (1 << 64), dtype=np.uint64)
        + np.array(int(stream) % (1 << 64), dtype=np.uint64) * GOLDEN
    )
    return int(word ^ MIX2)


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


def _horner(coeffs, x):
    acc = x * coeffs[-1]
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def normal_ppf(p):
    """Standard normal quantile, accurate to ~1e-15 relative on (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _horner(PPF_A, r) / _horner(PPF_B, r)

    tails = ~central
    if np.any(tails):
        qt = q[tails]
        r = np.where(qt < 0.0, p[tails], 1.0 - p[tails])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = _horner(PPF_C, rn) / _horner(PPF_D, rn)
        far = ~near
        if np.any(far):
            rf = r[far] - 5.0
            val[far] = _horner(PPF_E, rf) / _horner(PPF_F, rf)
        out[tails] = np.where(qt < 0.0, -val, val)

    return out[0] if scalar else out


def normals(keys, step, slot):
    """Standard normal variates for (key, step, slot)."""
    return normal_ppf(uniforms(keys, step, slot))


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
    the table.
    """
    if cdf.ndim == 1:
        return np.searchsorted(cdf, u, side="left")
    out = np.empty(u.shape, dtype=np.intp)
    for k, row in enumerate(cdf):
        out[k] = np.searchsorted(row, u[k], side="left")
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
