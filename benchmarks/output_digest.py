#!/usr/bin/env python3
"""Print one SHA-256 digest per group of levyou outputs.

A refactor that claims bit-identical outputs can be checked by running
this script on the old and the new code and diffing what it prints.  The
groups are:

* per preset: the growth table, the exact, risk-ratio and jump-mean
  fraction tables, a 101-price ``optimal_fraction_grid``, ``best_growth``
  at three prices and the clamp thresholds;
* per preset that can be simulated: numpy-backend ``price_paths``,
  ``value_paths`` and ``wealth_paths``;
* on benth2012: a small ``TowerReport`` at h = T/2 and at h = T - t;
  ``estimate_value`` at a point, at T == t and at T < t (an error); the
  mean log-wealth and standard error of a ``WealthRun``;
* every ``levyou`` result file: ``solve`` at a point and, per preset, on a
  grid; the ``figure`` CSVs and SVGs per preset; the ``simulate`` summary
  and its ``--out`` paths; the ``value`` and ``compare`` CSVs on
  benth2012, and a ``value`` run whose settings come from a config file;
* the CSVs of the four run records: ``PathBundle``, ``WealthRun``,
  ``ValueGrid`` and ``StrategySurface``;
* per preset measure, plus a ``ConstantJump`` and a plain
  ``CompoundPoisson`` density: the array transforms on a fraction grid,
  the ``*_integral`` and ``tilted_second_moment`` routes at each of its
  fractions, and every route at impact scale 0 and at a negative one;
* per preset: the exact, risk-ratio and jump-mean grids at the prices
  ±1e308 and ±inf.

A group whose computation raises a levyou error digests the error's type
and message instead, so a changed error shows up as well.  Runs in a few seconds on
one core; takes no flags.

Usage::

    PYTHONPATH=src python3 benchmarks/output_digest.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from levyou import _rng, approx, cli, presets, strategy, valuation
from levyou._backend import get_kernels
from levyou.errors import LevyOUError
from levyou.jumps import CompoundPoisson, ConstantJump
from levyou.market import SimConfig, build_sim_inputs, simulate_paths

NS = 257
STEPS = 24
PATHS = 500
SEED = 7


def digest(*parts):
    """SHA-256 of arrays, tuples of them, floats and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, tuple):
            h.update(digest(*part).encode())
            continue
        arr = np.asarray(part)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def guarded(fn):
    """``fn()``, or the type and message of the levyou error it raised."""
    try:
        return fn()
    except LevyOUError as exc:
        return f"{type(exc).__name__}: {exc}"


def table_groups(preset):
    market, lo, hi = preset.market, preset.pi_min, preset.pi_max
    times = np.linspace(0.0, preset.horizon, STEPS + 1)
    builders = {
        "growth_table": strategy.growth_table,
        "exact_fraction_table": strategy.exact_fraction_table,
        "merton_fraction_table": approx.merton_fraction_table,
        "jump_mean_fraction_table": approx.jump_mean_fraction_table,
    }
    for label, build in builders.items():
        yield label, guarded(lambda: tuple(build(market, times, lo, hi, NS)))
    s_grid = np.linspace(0.0, 2.0 * preset.s0, 101)
    yield "optimal_fraction_grid", guarded(
        lambda: strategy.optimal_fraction_grid(market, 0.0, s_grid, lo, hi))
    yield "best_growth", guarded(lambda: tuple(
        strategy.best_growth(market, 0.0, s, lo, hi)
        for s in (0.0, preset.s0, 2.0 * preset.s0)))
    yield "clamp_thresholds", guarded(
        lambda: strategy.clamp_thresholds(market, 0.0, lo, hi))


def kernel_groups(preset):
    market, lo, hi = preset.market, preset.pi_min, preset.pi_max
    config = SimConfig(n_paths=PATHS, n_steps=STEPS, seed=SEED)
    sim = build_sim_inputs(market, 0.0, preset.horizon, config)
    keys = _rng.derive_keys(SEED, np.arange(PATHS))
    s0 = np.full(PATHS, float(preset.s0))
    kern = get_kernels("numpy")
    gt = strategy.growth_table(market, sim.times, lo, hi, NS)
    ft = strategy.exact_fraction_table(market, sim.times, lo, hi, NS)
    yield "price_paths", kern.price_paths(keys, s0, *sim.kernel_args)
    yield "value_paths", kern.value_paths(keys, s0, *sim.kernel_args,
                                         *gt.kernel_args)
    yield "wealth_paths", kern.wealth_paths(keys, s0, *sim.kernel_args,
                                           *ft.kernel_args)


def cli_files(argv):
    """Exit code, stdout and every file ``levyou`` wrote for ``argv``, in
    which ``{tmp}`` stands for a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([arg.format(tmp=tmp) for arg in argv])
        parts = [f"exit={code}", buf.getvalue().replace(tmp, "{tmp}")]
        for root, _, names in sorted(os.walk(tmp)):
            for name in sorted(names):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    parts += [os.path.relpath(fh.name, tmp), fh.read()]
        return "\n".join(parts)


def cli_csv(command, extra):
    return cli_files([command, "--preset", "benth2012",
                      "--steps", str(STEPS), "--paths", str(PATHS),
                      "--seed", str(SEED), "--backend", "numpy",
                      "--out", "{tmp}/out.csv", *extra])


def cli_groups():
    for name in presets.PRESET_NAMES:
        hi = 2.0 * presets.get_preset(name).s0
        yield f"{name} cli solve", cli_files(
            ["solve", "--preset", name, "--s-grid", f"0:{hi:g}:41"])
        yield f"{name} cli figure", cli_files(
            ["figure", "--preset", name, "--points", "40",
             "--fractions", "1.5,0.2", "--out", "{tmp}"])
    yield "cli solve point", cli_files(
        ["solve", "--s", "4.5", "--b-frac", "0.5", "--t", "2"])
    yield "cli simulate", cli_csv("simulate", [])
    yield "cli value", cli_csv("value", ["--s-grid", "4:6:3"])
    yield "cli compare", cli_csv("compare", [])
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "run.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write("[benth2012]\nb_frac = 0.5\npaths = 200\nsteps = 12\n"
                     "seed = 3\ns_grid = 4:6:3\nhorizon = 12\n")
        yield "cli value --config", cli_files(
            ["value", "--config", ini, "--backend", "numpy"])


def record_text(record):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.csv")
        record.to_csv(path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def record_groups(preset):
    market, lo, hi = preset.market, preset.pi_min, preset.pi_max
    config = SimConfig(n_paths=40, n_steps=STEPS, seed=SEED, path_offset=5)
    T = preset.horizon
    table = strategy.exact_fraction_table(
        market, np.linspace(0.0, T, STEPS + 1), lo, hi, NS)
    yield "PathBundle", simulate_paths(
        market, 0.0, preset.s0, T, config, backend="numpy")
    yield "WealthRun", valuation.wealth_simulate(
        market, table, 0.0, preset.s0, 2.0, T, config, backend="numpy",
        label="exact")
    yield "ValueGrid", valuation.value_grid(
        market, [0.0, T / 2.0], [4.0, 5.0, 6.0], T, lo, hi, config=config,
        backend="numpy")
    yield "StrategySurface", strategy.strategy_surface(
        market, [0.0, T / 2.0], np.linspace(0.0, 10.0, 11), lo, hi)


def valuation_groups(preset):
    market, lo, hi = preset.market, preset.pi_min, preset.pi_max
    T = preset.horizon
    config = SimConfig(n_paths=16, n_steps=STEPS, seed=SEED)
    for label, h in (("tower_check", T / 2.0), ("tower_check h=T-t", T)):
        yield label, repr(tuple(valuation.tower_check(
            market, 0.0, preset.s0, h, T, lo, hi, config=config,
            backend="numpy")))
    config = SimConfig(n_paths=PATHS, n_steps=STEPS, seed=SEED)
    for label, t in (("point", 0.0), ("T == t", T), ("T < t", T + 1.0)):
        yield f"estimate_value {label}", guarded(lambda: repr(tuple(
            valuation.estimate_value(market, t, preset.s0, T, lo, hi,
                                     config=config, backend="numpy"))))
    table = strategy.exact_fraction_table(
        market, np.linspace(0.0, T, STEPS + 1), lo, hi, NS)
    run = valuation.wealth_simulate(market, table, 0.0, preset.s0, 2.0, T,
                                    config, backend="numpy")
    yield "WealthRun mean and std_err", repr(
        (run.mean_log_wealth, run.std_err))


FRACTIONS = np.array([0.0, 1e-6, 0.05, 0.2, 0.8])
ROUTES = ("drag", "curvature", "log_penalty", "drag_integral",
          "curvature_integral", "log_penalty_integral",
          "tilted_second_moment")


def measure_groups(measure):
    yield "transforms", tuple(
        getattr(measure, name)(FRACTIONS, psi)
        for name in ("drag", "curvature", "log_penalty") for psi in (1.0, 0.7))
    for name in ROUTES[3:]:
        yield name, guarded(lambda: np.array(
            [getattr(measure, name)(float(p), 1.0) for p in FRACTIONS]))
    for label, pi, psi in (("psi=0", -0.1, 0.0), ("psi<0", 0.1, -0.5)):
        yield f"every route {label}", tuple(
            guarded(lambda: getattr(measure, name)(pi, psi))
            for name in ROUTES)


def measures():
    for name in presets.PRESET_NAMES:
        yield f"{name} measure", presets.get_preset(name).market.measure
    yield "ConstantJump", ConstantJump(size=-0.6, rate=2.0)
    yield "CompoundPoisson", CompoundPoisson(
        0.5, lambda y: 0.75 * (1.0 - y * y), (-1.0, 1.0))


def edge_price_groups(preset):
    market, lo, hi = preset.market, preset.pi_min, preset.pi_max
    rules = {"exact": strategy.optimal_fraction_grid,
             "merton": approx.merton_fraction_grid,
             "jump_mean": approx.jump_mean_fraction_grid}
    for label, s in (("1e308", 1e308), ("inf", np.inf)):
        for rule, grid in rules.items():
            yield f"{rule} grid at s=±{label}", guarded(
                lambda: grid(market, 0.0, np.array([-s, s]), lo, hi))


def groups():
    for name in presets.PRESET_NAMES:
        preset = presets.get_preset(name)
        for label, value in table_groups(preset):
            yield f"{name} {label}", value
        sim = guarded(lambda: list(kernel_groups(preset)))
        if isinstance(sim, str):
            yield f"{name} kernels", sim
            continue
        for label, value in sim:
            yield f"{name} {label}", value
    preset = presets.get_preset("benth2012")
    for label, value in valuation_groups(preset):
        yield f"benth2012 {label}", value
    yield from cli_groups()
    for label, record in record_groups(preset):
        yield f"benth2012 {label} csv", record_text(record)
    for owner, measure in measures():
        for label, value in measure_groups(measure):
            yield f"{owner} {label}", value
    for name in presets.PRESET_NAMES:
        for label, value in edge_price_groups(presets.get_preset(name)):
            yield f"{name} {label}", value


def main():
    for label, value in groups():
        if isinstance(value, str):
            value = np.frombuffer(value.encode(), dtype=np.uint8)
        print(f"{digest(value)}  {label}")


if __name__ == "__main__":
    main()
