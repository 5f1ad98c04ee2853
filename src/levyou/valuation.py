"""Monte-Carlo value function, wealth simulation, and consistency checks.

The value estimator averages the pathwise time integral of the optimal
growth rate (trapezoid over the step grid, with the simulated jump
instants as extra quadrature nodes).  The wealth simulator compounds a
tabulated strategy through the per-step stochastic exponential, so the
portfolio stays positive by construction whenever the fraction interval
is admissible.  Runs keyed by the same seed share paths exactly (common
random numbers), which makes strategy comparisons and the nested
consistency check nearly noise-free.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _csv, _rng
from ._backend import get_kernels
from .approx import jump_mean_fraction_table, merton_fraction_table
from .errors import ConfigError, DomainError
from .market import SimConfig, build_sim_inputs, check_start, check_times
from .strategy import (
    constant_fraction_table,
    exact_fraction_table,
    growth_table,
)

STRATEGY_KINDS = ("exact", "merton", "jump_mean", "zero")


class ValueEstimate(NamedTuple):
    """Sample mean and standard error of the pathwise growth integral."""

    g_hat: float
    std_err: float
    n_paths: int
    seed: int


class TowerReport(NamedTuple):
    """Nested-simulation consistency check of the value estimate.

    ``lhs`` is the direct estimate over the full horizon; ``rhs`` restarts
    at the intermediate time from each simulated state.  The shared head
    segment cancels exactly under common random numbers, so ``std_err``
    reflects only the tail-vs-restart noise.
    """

    lhs: float
    rhs: float
    discrepancy: float
    std_err: float
    n_paths: int
    n_inner: int

    @property
    def z_score(self):
        return z_score(self.discrepancy, self.std_err)


@dataclass
class WealthRun:
    """Terminal log-wealth of one strategy over a bundle of paths."""

    terminal_log_wealth: np.ndarray
    positivity_violations: int
    label: str
    x0: float
    seed: int
    path_offset: int = 0

    @property
    def n_paths(self):
        return self.terminal_log_wealth.shape[0]

    @property
    def mean_log_wealth(self):
        return _mean_se(self.terminal_log_wealth)[0]

    @property
    def std_err(self):
        return _mean_se(self.terminal_log_wealth)[1]

    def to_csv(self, path):
        header = {"label": self.label, "x0": self.x0, "seed": self.seed,
                  "path_offset": self.path_offset, "n_paths": self.n_paths,
                  "violations": self.positivity_violations}
        rows = enumerate(self.terminal_log_wealth, self.path_offset)
        _csv.write(path, "wealth run", [header],
                   ("path_id", "log_terminal_wealth"), rows)


class StrategyScore(NamedTuple):
    """Mean terminal log-wealth of one strategy, plus the paired gap to
    the reference strategy under common random numbers."""

    label: str
    mean_log_wealth: float
    std_err: float
    gap_to_ref: float
    gap_std_err: float


@dataclass
class ComparisonReport:
    """Common-random-number comparison of several strategies."""

    reference: str
    scores: list
    x0: float
    seed: int

    def score(self, label):
        for row in self.scores:
            if row.label == label:
                return row
        raise ConfigError(f"no strategy named {label!r} in the comparison")


@dataclass
class ValueGrid:
    """Value estimates over a (time, price) grid, exportable as CSV."""

    t_values: np.ndarray
    s_values: np.ndarray
    g_hat: np.ndarray
    std_err: np.ndarray
    seed: int

    def csv_text(self, headers=()):
        """The grid as CSV text, with the ``headers`` before the seed."""
        rows = ((tv, sv, self.g_hat[i, j], self.std_err[i, j])
                for i, tv in enumerate(self.t_values)
                for j, sv in enumerate(self.s_values))
        return _csv.text("value grid", [*headers, {"seed": self.seed}],
                         ("t", "s", "g_hat", "std_err"), rows)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def _mean_se(samples):
    """Sample mean and its standard error (nan for fewer than 2 samples).

    The spread is taken of the samples scaled by a power of two, which is
    exact, so the squared deviations do not overflow where the standard
    error itself is finite.
    """
    n = samples.shape[0]
    mean = float(np.mean(samples))
    if n < 2:
        return mean, math.nan
    e = math.frexp(float(np.max(np.abs(samples))))[1]
    sd = float(np.std(np.ldexp(samples, -e), ddof=1))
    return mean, math.ldexp(sd, e) / math.sqrt(n)


def z_score(gap, se):
    """``gap`` in standard errors: 0 for a gap of exactly 0 with no error,
    nan for any other gap with none."""
    if se == 0.0:
        return 0.0 if gap == 0.0 else math.nan
    return gap / se


def strategy_table(market, kind, times, pi_min, pi_max, ns=257):
    """Fraction table for one of the named strategies on a time grid."""
    if kind == "exact":
        return exact_fraction_table(market, times, pi_min, pi_max, ns)
    if kind == "merton":
        return merton_fraction_table(market, times, pi_min, pi_max, ns)
    if kind == "jump_mean":
        return jump_mean_fraction_table(market, times, pi_min, pi_max, ns)
    if kind == "zero":
        return constant_fraction_table(times, 0.0)
    raise ConfigError(
        f"unknown strategy kind {kind!r}; expected one of {STRATEGY_KINDS}"
    )


def estimate_value(market, t, s, T, pi_min, pi_max, config=None,
                   backend=None, table_ns=257):
    """Monte-Carlo estimate of the expected growth integral from (t, s).

    The integrand — the optimal growth rate along the simulated price —
    comes from a per-node table (documented interpolation error decreasing
    in ``table_ns``; the linear extension outside the table bracket is
    exact).  It is the one cell of :func:`value_grid` at ``(t, s)``: at
    ``T == t`` the estimate is exactly zero, and ``T < t`` is rejected.
    """
    config = config or SimConfig()
    grid = value_grid(market, [t], [s], T, pi_min, pi_max, config, backend,
                      table_ns)
    n_paths = config.n_paths if T > t else 0
    return ValueEstimate(float(grid.g_hat[0, 0]), float(grid.std_err[0, 0]),
                         n_paths, config.seed)


def wealth_simulate(market, table, t, s, x, T, config=None, backend=None,
                    label="custom"):
    """Simulate terminal log-wealth under a tabulated strategy.

    ``table`` holds the fraction per (time node, price); the position is
    held over each step and every simulated jump multiplies wealth by its
    own stochastic-exponential factor.  Non-finite terminal values are
    counted as positivity violations (impossible for fractions ranged in
    an admissible interval; reported for auditability).
    """
    config = config or SimConfig()
    check_start(s, x)
    sim = build_sim_inputs(market, t, T, config)
    if table.values.shape[0] != sim.times.shape[0]:
        raise ConfigError(
            f"strategy table has {table.values.shape[0]} time rows, the "
            f"run needs {sim.times.shape[0]}"
        )
    s0 = np.full(config.n_paths, float(s))
    acc, _ = get_kernels(backend).wealth_paths(
        config.path_keys(), s0, *sim.kernel_args, *table.kernel_args
    )
    bad = int(np.count_nonzero(~np.isfinite(acc)))
    return WealthRun(
        terminal_log_wealth=math.log(x) + acc,
        positivity_violations=bad,
        label=label,
        x0=x,
        seed=config.seed,
        path_offset=config.path_offset,
    )


def compare_strategies(market, t, s, x, T, pi_min, pi_max, config=None,
                       backend=None, kinds=STRATEGY_KINDS, reference="exact",
                       table_ns=257):
    """Paired comparison of strategies on common random numbers.

    Every strategy is driven through identical paths; the per-path gap to
    the reference strategy therefore has far smaller variance than the
    difference of independent runs would.
    """
    config = config or SimConfig()
    check_start(s, x)
    check_times(t=t, T=T)
    if reference not in kinds:
        raise ConfigError(
            f"reference {reference!r} is not among the kinds {kinds}"
        )
    times = np.linspace(t, T, config.n_steps + 1)
    runs = {}
    for kind in kinds:
        table = strategy_table(market, kind, times, pi_min, pi_max, table_ns)
        runs[kind] = wealth_simulate(
            market, table, t, s, x, T, config, backend, label=kind
        )
    ref = runs[reference].terminal_log_wealth
    scores = []
    for kind in kinds:
        w = runs[kind].terminal_log_wealth
        mean, se = _mean_se(w)
        gap, gap_se = _mean_se(ref - w)
        scores.append(StrategyScore(kind, mean, se, gap, gap_se))
    return ComparisonReport(
        reference=reference, scores=scores, x0=x, seed=config.seed
    )


def tower_check(market, t, s, h, T, pi_min, pi_max, config=None,
                backend=None, table_ns=257):
    """Nested-simulation check that restarting at t+h preserves the value.

    The full-horizon integral of each outer path is split at t+h; its tail
    is compared with an inner estimate restarted from the path's state,
    using a child seed per outer path.  The head segment is common to both
    sides and cancels exactly, so the reported discrepancy is the mean of
    (pathwise tail) - (inner estimate), with its standard error.  Inner
    runs use roughly the square root of the outer path count.
    """
    config = config or SimConfig()
    check_start(s)
    check_times(t=t, h=h, T=T)
    if not (t < t + h <= T):
        raise DomainError(
            f"need t < t+h <= T, got t={t}, h={h}, T={T}"
        )
    t_mid = t + h
    if t_mid < T and config.n_steps < 2:
        raise ConfigError(
            f"a split needs at least 2 steps, got n_steps={config.n_steps}"
        )
    frac = h / (T - t)
    n1 = min(max(1, int(round(config.n_steps * frac))), config.n_steps - 1) \
        if t_mid < T else config.n_steps
    n2 = config.n_steps - n1
    full_times = np.linspace(t, t_mid, n1 + 1)
    if n2 > 0:
        full_times = np.concatenate(
            [full_times, np.linspace(t_mid, T, n2 + 1)[1:]]
        )
    kern = get_kernels(backend)
    keys = config.path_keys()
    s0 = np.full(config.n_paths, float(s))

    # the head and tail runs take the node slices [:n1+1] and [n1:] of
    # full_times, so one table serves all three runs; each run's piece form
    # is built once, outside the inner loop
    gt = growth_table(market, full_times, pi_min, pi_max, ns=table_ns)
    inputs_full = build_sim_inputs(market, t, T, config, times=full_times)
    acc_full, _ = kern.value_paths(keys, s0, *inputs_full.kernel_args,
                                   *gt.kernel_args)

    inputs_head = build_sim_inputs(market, t, t_mid, config,
                                   times=full_times[:n1 + 1])
    acc_head, s_mid = kern.value_paths(
        keys, s0, *inputs_head.kernel_args, *gt.rows(0, n1 + 1).kernel_args
    )
    tails = acc_full - acc_head

    n_inner = max(2, math.isqrt(config.n_paths))
    inner = np.zeros(config.n_paths)
    if n2 > 0:
        inputs_tail = build_sim_inputs(
            market, t_mid, T, config, times=full_times[n1:]
        )
        tail_args = (*inputs_tail.kernel_args, *gt.rows(n1).kernel_args)
        # row i: the inner keys of outer path i, from its child seed
        streams = np.uint64(config.path_offset) \
            + np.arange(1, config.n_paths + 1, dtype=np.uint64)
        children = _rng.derive_seed(config.seed, streams)
        keys_in = _rng.derive_keys(children[:, None], np.arange(n_inner))
        for i in range(config.n_paths):
            s_in = np.full(n_inner, s_mid[i])
            acc_in, _ = kern.value_paths(keys_in[i], s_in, *tail_args)
            inner[i] = float(np.mean(acc_in))

    diff = tails - inner
    disc, se = _mean_se(diff)
    lhs, _ = _mean_se(acc_full)
    rhs, _ = _mean_se(acc_head + inner)
    return TowerReport(
        lhs=lhs, rhs=rhs, discrepancy=disc, std_err=se,
        n_paths=config.n_paths, n_inner=n_inner,
    )


def value_grid(market, t_values, s_values, T, pi_min, pi_max, config=None,
               backend=None, table_ns=257):
    """Value estimates over a rectangle of start times and prices.

    Simulation inputs and the growth table's piece form are built once per
    start time and shared across prices (the paths differ only in their
    start state).
    """
    config = config or SimConfig()
    t_values = np.asarray(t_values, dtype=np.float64)
    s_values = np.asarray(s_values, dtype=np.float64)
    check_start(s_values)
    check_times(t=t_values, T=T)
    g_hat = np.zeros((t_values.shape[0], s_values.shape[0]))
    std_err = np.zeros_like(g_hat)
    kern = get_kernels(backend)
    keys = config.path_keys()
    for i, tv in enumerate(t_values):
        if not tv <= T:
            raise DomainError(f"start time {tv} is past the horizon {T}")
        if tv == T:
            continue
        sim = build_sim_inputs(market, float(tv), T, config)
        args = (*sim.kernel_args, *growth_table(
            market, sim.times, pi_min, pi_max, ns=table_ns).kernel_args)
        for j, sv in enumerate(s_values):
            s0 = np.full(config.n_paths, float(sv))
            acc, _ = kern.value_paths(keys, s0, *args)
            g_hat[i, j], std_err[i, j] = _mean_se(acc)
    return ValueGrid(
        t_values=t_values, s_values=s_values, g_hat=g_hat, std_err=std_err,
        seed=config.seed,
    )
