"""Market model: mean-reverting price with additive jumps.

The price follows, for u in [t, T],

    dS(u) = -lam * S(u) du + dL(u),

where L is an additive process with local drift b(u), Brownian scale
sigma(u), and jumps of size psi(u) * y arriving according to the jump
measure.  With ``compensated=True`` the stored drift b is the drift of the
compensated decomposition (jump part centered; mean price dynamics driven
by b alone); with ``compensated=False`` b is the raw drift and the mean
dynamics pick up the jump mean flow psi(u) * ∫ y nu(dy) on top of it.

Everything downstream (first-order condition, approximations, simulation)
consistently uses the effective mean drift ``foc_drift``.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _csv, _rng
from ._backend import get_kernels
from .errors import (AdmissibilityError, CaseError, ConfigError, DomainError,
                     QuadratureError)
# The admissibility rule lives in jumps; its names stay importable here.
from .jumps import (AdmissibleSet, CaseTag, JumpMeasure,  # noqa: F401
                    _quad, admissible_set, classify_case)


def _as_range(value, rng, name):
    """Resolve a coefficient's (min, max) range over the trading window."""
    if callable(value):
        if rng is None:
            raise ConfigError(
                f"{name} is time-varying: an explicit (min, max) range "
                "is required"
            )
        return (float(rng[0]), float(rng[1]))
    v = float(value)
    return (v, v)


def _finite_moment(moment, k, order):
    """``moment(k)``, or a :class:`ConfigError` when it is infinite or its
    quadrature diverges (the quadrature error is kept as the cause)."""
    message = f"the jump measure must have a finite {order} moment"
    try:
        value = moment(k)
    except QuadratureError as exc:
        raise ConfigError(message) from exc
    if not math.isfinite(value):
        raise ConfigError(message)
    return value


@dataclass
class MarketCoefficients:
    """Coefficients of the price model plus the jump measure.

    Parameters
    ----------
    lam : float
        Mean-reversion speed (>= 0).
    b, sigma, psi : float or callable
        Drift, Brownian scale and jump impact scale; constants or functions
        of time.  Time-varying coefficients need explicit ranges.
    measure : JumpMeasure
    compensated : bool
        Interpretation of ``b`` (see module docstring).
    sigma_range, psi_range : (float, float), optional
        Bounds over the trading window for time-varying coefficients.
    """

    lam: float
    b: object
    sigma: object
    psi: object
    measure: JumpMeasure
    compensated: bool = True
    sigma_range: tuple = None
    psi_range: tuple = None
    _j1: float = field(init=False, repr=False, default=0.0)
    _j2: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if self.lam < 0.0 or not math.isfinite(self.lam):
            raise ConfigError(f"mean reversion must be finite and >= 0, "
                              f"got {self.lam}")
        if not isinstance(self.measure, JumpMeasure):
            raise ConfigError("measure must be a JumpMeasure")
        self.sigma_range = _as_range(self.sigma, self.sigma_range, "sigma")
        self.psi_range = _as_range(self.psi, self.psi_range, "psi")
        if self.sigma_range[0] < 0.0:
            raise ConfigError("sigma must be >= 0")
        if self.psi_range[0] < 0.0:
            raise ConfigError("psi must be >= 0")
        self._j2 = _finite_moment(self.measure.moment, 2, "second")
        if self.measure.rate > 0.0:
            if not self.compensated:
                _finite_moment(self.measure.abs_moment, 1, "first")
            self._j1 = _finite_moment(self.measure.moment, 1, "first")
        else:
            self._j1 = 0.0

    # -- pointwise coefficient access -------------------------------------

    def b_at(self, t):
        return float(self.b(t)) if callable(self.b) else float(self.b)

    def sigma_at(self, t):
        return float(self.sigma(t)) if callable(self.sigma) else float(self.sigma)

    def psi_at(self, t):
        return float(self.psi(t)) if callable(self.psi) else float(self.psi)

    @staticmethod
    def _dot(fn, t, h=1e-6):
        """Central difference of a callable coefficient; 0 for a constant."""
        if not callable(fn):
            return 0.0
        return (fn(t + h) - fn(t - h)) / (2.0 * h)

    def b_dot_at(self, t):
        return self._dot(self.b, t)

    def sigma_dot_at(self, t):
        return self._dot(self.sigma, t)

    def psi_dot_at(self, t):
        return self._dot(self.psi, t)

    @property
    def is_constant(self):
        return not (callable(self.b) or callable(self.sigma)
                    or callable(self.psi))

    @property
    def jump_mean_flow(self):
        """∫ y nu(dy), the mean jump flow per unit impact."""
        return self._j1

    @property
    def jump_second_moment(self):
        """∫ y^2 nu(dy)."""
        return self._j2

    def foc_drift(self, t):
        """Drift of the mean price dynamics (and of the first-order
        condition): b(t) itself when compensated, otherwise b(t) plus the
        jump mean flow."""
        d = self.b_at(t)
        if not self.compensated:
            d += self.psi_at(t) * self._j1
        return d

    def admissible(self):
        """Admissible fraction set under the worst-case impact scale."""
        return admissible_set(self.measure, self.psi_range[1])

    def validate_interval(self, pi_min, pi_max):
        """Check [pi_min, pi_max] is a valid fraction interval; return the
        admissible set and the distance to its finite open endpoints."""
        if not (pi_min < pi_max):
            raise AdmissibilityError(
                f"need pi_min < pi_max, got [{pi_min}, {pi_max}]"
            )
        if not (pi_min <= 0.0 <= pi_max):
            raise AdmissibilityError(
                f"the fraction interval must contain 0, got "
                f"[{pi_min}, {pi_max}]"
            )
        adm = self.admissible()
        if not adm.contains_interval(pi_min, pi_max):
            raise AdmissibilityError(
                f"[{pi_min}, {pi_max}] is not inside the admissible set "
                f"({adm.lo}, {adm.hi}) for case {adm.case.value}"
            )
        return adm, adm.boundary_distance(pi_min, pi_max)

    # -- simulation support ------------------------------------------------

    def step_arrays(self, times):
        """Left-node coefficient arrays (b, sigma, psi, compensator flow)
        for the steps of a time grid."""
        lefts = np.asarray(times, dtype=np.float64)[:-1]
        b = np.array([self.b_at(u) for u in lefts])
        sg = np.array([self.sigma_at(u) for u in lefts])
        ps = np.array([self.psi_at(u) for u in lefts])
        comp = ps * self._j1 if self.compensated else np.zeros_like(ps)
        return b, sg, ps, comp


def analytic_mean(market, t, s, T):
    """E[S(T) | S(t) = s], exactly (quadrature for time-varying drift)."""
    if T < t:
        raise DomainError(f"need T >= t, got t={t}, T={T}")
    lam = market.lam
    tau = T - t
    decay = math.exp(-lam * tau)
    if market.is_constant:
        d = market.foc_drift(t)
        flow = d * (-math.expm1(-lam * tau)) / lam if lam > 0 else d * tau
        return s * decay + flow
    return s * decay + _quad(
        lambda v: math.exp(-lam * (T - v)) * market.foc_drift(v), t, T
    )


def analytic_variance(market, t, T):
    """Var[S(T) | S(t)], exactly (quadrature for time-varying coefficients)."""
    if T < t:
        raise DomainError(f"need T >= t, got t={t}, T={T}")
    lam = market.lam
    tau = T - t
    j2 = market.jump_second_moment
    if market.is_constant:
        r = market.sigma_at(t) ** 2 + market.psi_at(t) ** 2 * j2
        if lam > 0:
            return r * (-math.expm1(-2.0 * lam * tau)) / (2.0 * lam)
        return r * tau
    return _quad(
        lambda v: math.exp(-2.0 * lam * (T - v))
        * (market.sigma_at(v) ** 2 + market.psi_at(v) ** 2 * j2),
        t,
        T,
    )


@dataclass
class SimConfig:
    """Monte Carlo run configuration.

    ``path_offset`` shifts the path identifiers, so a run can be split into
    consecutive batches ([0, k), [k, n), ...) that reproduce exactly the
    paths of one big batch — results are independent of the batching.
    """

    n_paths: int = 10_000
    n_steps: int = 96
    seed: int = 20120808
    path_offset: int = 0

    def __post_init__(self):
        for name in ("n_paths", "n_steps", "seed", "path_offset"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_paths <= 0 or self.n_steps <= 0:
            raise ConfigError("n_paths and n_steps must be positive")
        # the path keys take the seed modulo 2**64 and the path ids as int64
        seed, offset = int(self.seed), int(self.path_offset)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
        if not 0 <= offset <= 2**63 - int(self.n_paths):
            raise ConfigError(
                "path ids must lie in [0, 2**63): got path_offset "
                f"{self.path_offset} with {self.n_paths} paths"
            )

    def path_keys(self):
        """Counter-based keys of the run's paths, ids ``path_offset`` on."""
        return _rng.derive_keys(
            self.seed, self.path_offset + np.arange(self.n_paths)
        )


class SimInputs(NamedTuple):
    """Time grid, per-step coefficient arrays, Poisson CDF table, jump
    sampler code and mean-reversion rate of a simulation run."""

    times: np.ndarray
    b_step: np.ndarray
    sig_step: np.ndarray
    psi_step: np.ndarray
    comp_step: np.ndarray
    cdf: np.ndarray
    kind: int
    p0: float
    p1: float
    lam: float

    @property
    def kernel_args(self):
        """The inputs in the order the kernels take them after
        ``(keys, s0)``."""
        return (self.times, self.b_step, self.sig_step, self.psi_step,
                self.comp_step, self.lam, self.cdf, self.kind, self.p0,
                self.p1)


def build_sim_inputs(market, t, T, config, times=None):
    """Time grid, per-step coefficient arrays, Poisson CDF table and jump
    sampler code for a simulation run, as :class:`SimInputs`.

    ``times`` overrides the uniform grid (e.g. to place a node exactly at
    an intermediate conditioning time); it must have at least two strictly
    increasing nodes, start at ``t`` and end at ``T``, or
    :class:`ConfigError` is raised.
    """
    check_times(t=t, T=T)
    if not T > t:
        raise DomainError(f"need T > t, got t={t}, T={T}")
    if times is None:
        times = np.linspace(t, T, config.n_steps + 1)
    else:
        times = np.asarray(times, dtype=np.float64)
        if not (times.ndim == 1 and times.shape[0] >= 2
                and times[0] == t and times[-1] == T
                and np.all(np.diff(times) > 0.0)):
            raise ConfigError(
                "a time grid needs at least 2 strictly increasing nodes "
                f"from t={t} to T={T}"
            )
    b, sg, ps, comp = market.step_arrays(times)
    rate = market.measure.rate
    if not math.isfinite(rate):
        raise CaseError("path simulation needs a finite-activity measure")
    kind, p0, p1 = market.measure.sampler_code()
    # One table per distinct step mean; each step takes its mean's row.
    means, step_row = np.unique(rate * np.diff(times), return_inverse=True)
    rows = [_rng.poisson_cdf_table(mu) for mu in means]
    width = max(len(r) for r in rows)
    cdf = np.full((len(rows), width + 1), 2.0)
    for k, r in enumerate(rows):
        cdf[k, : len(r)] = r
    cdf = cdf[step_row]
    return SimInputs(times, b, sg, ps, comp, cdf, kind, p0, p1, market.lam)


@dataclass
class PathBundle:
    """Simulated prices at the grid nodes of one run."""

    times: np.ndarray
    prices: np.ndarray
    seed: int
    path_offset: int = 0

    @property
    def n_paths(self):
        return self.prices.shape[0]

    def to_csv(self, path):
        n_paths, n_times = self.prices.shape
        header = {"seed": self.seed, "path_offset": self.path_offset,
                  "n_paths": n_paths, "n_steps": n_times - 1}
        rows = ((self.path_offset + i, self.times[k], self.prices[i, k])
                for i in range(n_paths) for k in range(n_times))
        _csv.write(path, "path bundle", [header], ("path_id", "time", "price"),
                   rows)

    @classmethod
    def from_csv(cls, path):
        header, rows = _csv.read_runs(path, 3)
        cells = {(pid, tv) for pid, tv, _ in rows}
        ids = sorted({pid for pid, _ in cells})
        times = sorted({tv for _, tv in cells})
        offset = _csv.check_path_ids(ids, header, path)
        n_times = int(header.get("n_steps", len(times) - 1)) + 1
        if (len(times) != n_times or len(cells) != len(rows)
                or len(rows) != len(ids) * n_times):
            raise ConfigError(
                f"{path} does not hold every (path, time) cell exactly once"
            )
        tindex = {tv: k for k, tv in enumerate(times)}
        prices = np.empty((len(ids), len(times)))
        for pid, tv, pv in rows:
            prices[pid - offset, tindex[tv]] = pv
        return cls(
            times=np.array(times), prices=prices,
            seed=int(header.get("seed", 0)), path_offset=offset,
        )


def check_start(s, x=1.0):
    """Raise :class:`DomainError` unless every start price in ``s`` is
    finite and the start wealth ``x`` is positive and finite."""
    s = np.asarray(s, dtype=np.float64)
    bad = s[~np.isfinite(s)]
    if bad.size:
        raise DomainError(f"start price must be finite, got {bad[0]}")
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"initial wealth must be positive, got {x}")


def check_times(**times):
    """Raise :class:`DomainError` unless every named time (a number or an
    array of them), such as ``t``, ``T`` or the tower step ``h``, is
    finite."""
    for name, value in times.items():
        value = np.asarray(value, dtype=np.float64)
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise DomainError(f"{name} must be finite, got {bad[0]}")


def _walk_prices(market, t, s, T, config, backend, nodes):
    """The time grid and the price walk of a run from ``s``; see
    ``price_paths`` of the kernels for ``nodes``."""
    check_start(s)
    sim = build_sim_inputs(market, t, T, config)
    s0 = np.full(config.n_paths, float(s))
    return sim.times, get_kernels(backend).price_paths(
        config.path_keys(), s0, *sim.kernel_args, nodes=nodes
    )


def simulate_paths(market, t, s, T, config, backend=None):
    """Simulate price paths; returns a :class:`PathBundle`.

    Batch-splitting invariance: running this twice with offsets 0 and k (and
    path counts k and n-k) concatenates to exactly the single-run result.
    """
    times, prices = _walk_prices(market, t, s, T, config, backend, True)
    return PathBundle(
        times=times, prices=prices, seed=config.seed,
        path_offset=config.path_offset,
    )


def price_range(market, t, s, T, config, backend=None):
    """(terminal prices, lowest prices, highest prices) of each path of
    :func:`simulate_paths`, equal bit for bit to the last column and the
    row minimum and maximum of its prices, from a walk that holds no node
    array."""
    return _walk_prices(market, t, s, T, config, backend, False)[1]
