#!/usr/bin/env python3
"""Compare the outputs of two levyou trees, group by group, in numbers.

The groups are:

* per preset: the growth table, the exact, risk-ratio and jump-mean
  fraction tables, a 101-price ``optimal_fraction_grid``, ``best_growth``
  at three prices and the clamp thresholds;
* per preset that can be simulated: numpy-backend ``price_paths``,
  ``value_paths`` and ``wealth_paths``;
* the same table groups as per preset for a market on a plain
  ``CompoundPoisson`` density, whose drag and curvature are quadratures;
* on benth2012: a small ``TowerReport`` at h = T/2 and at h = T - t;
  ``estimate_value`` at a point, at T == t and at T < t (an error); the
  mean log-wealth and standard error of a ``WealthRun``;
* every ``levyou`` result file: ``solve`` at a point and, per preset, on a
  grid; the ``figure`` CSVs and SVGs per preset; the ``simulate`` summary
  with its ``--out`` paths, and without ``--out`` (the node-free walk);
  the ``value`` and ``compare`` CSVs on benth2012, and a ``value`` run
  whose settings come from a config file;
* the CSVs of the three run records: ``PathBundle``, ``WealthRun`` and
  ``ValueGrid``;
* per preset measure, plus a ``ConstantJump`` and a plain
  ``CompoundPoisson`` density: the array transforms on a fraction grid,
  the ``*_integral`` routes at each of its fractions, and every route at
  impact scale 0 and at a negative one;
* per preset: the exact, risk-ratio and jump-mean grids at the prices
  ±1e308 and ±inf.

A group whose computation raises a levyou error holds the error's type
and message instead, so a changed error shows up as well; any other
exception aborts the run.  This file's ``groups()`` runs for each tree in
its own subprocess, with that tree's ``src`` first on the path, so both
trees are computed by the same group code.  Loading this file imports no
levyou module.  The script prints one line per group:

* ``same`` when the group is bit-identical in both trees;
* otherwise the largest absolute and relative difference of the group's
  numbers.  Numbers inside text groups (result files, reprs, error
  messages) are parsed with ``_NUMBER``, the same pattern as the perfbench
  output checks;
* ``TEXT DIFFERS`` when the group's text, with the numbers taken out,
  differs, or its arrays change shape or count.

A last line sums up the groups and the largest differences.  The exit
status is 1 when a group is flagged or found in one tree only, or, with
``--atol X``, when a group's numbers move by more than X absolute (a NaN
or infinity facing another value moves by inf); else 0.  Runs in a few
seconds per tree on one core.

Usage::

    python3 benchmarks/output_diff.py OLD_TREE NEW_TREE [--atol X]
"""

import argparse
import contextlib
import io
import os
import pickle
import re
import subprocess
import sys
import tempfile

import numpy as np

# A number in result text: signed decimals and exponents, nan and inf.
_NUMBER = re.compile(
    r"[-+]?(?:nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
)

NS = 257
STEPS = 24
PATHS = 500
SEED = 7


def guarded(fn):
    """``fn()``, or the type and message of the levyou error it raised."""
    from levyou.errors import LevyOUError

    try:
        return fn()
    except LevyOUError as exc:
        return f"{type(exc).__name__}: {exc}"


def table_groups(preset):
    from levyou import approx, strategy

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
    from levyou import _rng, strategy
    from levyou._backend import get_kernels
    from levyou.market import SimConfig, build_sim_inputs

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
    from levyou import cli

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


def cli_run(command, extra=()):
    return cli_files([command, "--preset", "benth2012",
                      "--steps", str(STEPS), "--paths", str(PATHS),
                      "--seed", str(SEED), "--backend", "numpy", *extra])


def cli_csv(command, extra):
    return cli_run(command, ["--out", "{tmp}/out.csv", *extra])


def cli_groups():
    from levyou import presets

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
    yield "cli simulate without --out", cli_run("simulate")
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
    from levyou import strategy, valuation
    from levyou.market import SimConfig, simulate_paths

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


def valuation_groups(preset):
    from levyou import strategy, valuation
    from levyou.market import SimConfig

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
          "curvature_integral", "log_penalty_integral")


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


def density_measure():
    """A plain ``CompoundPoisson`` density: it has no closed forms, so its
    every transform is a quadrature."""
    from levyou.jumps import CompoundPoisson

    return CompoundPoisson(0.5, lambda y: 0.75 * (1.0 - y * y), (-1.0, 1.0))


def density_preset():
    """A constant market on :func:`density_measure`, with s0 between its
    clamp thresholds (0.13 and 0.56 at these coefficients)."""
    from levyou.market import MarketCoefficients
    from levyou.presets import Preset

    market = MarketCoefficients(lam=0.5, b=0.2, sigma=0.3, psi=0.8,
                                measure=density_measure())
    return Preset(name="CompoundPoisson market", description="",
                  market=market, s0=0.4, horizon=1.0, pi_min=-0.5,
                  pi_max=0.8, time_unit="unit")


def measures():
    from levyou import presets
    from levyou.jumps import ConstantJump

    for name in presets.PRESET_NAMES:
        yield f"{name} measure", presets.get_preset(name).market.measure
    yield "ConstantJump", ConstantJump(size=-0.6, rate=2.0)
    yield "CompoundPoisson", density_measure()


def edge_price_groups(preset):
    from levyou import approx, strategy

    market, lo, hi = preset.market, preset.pi_min, preset.pi_max
    rules = {"exact": strategy.optimal_fraction_grid,
             "merton": approx.merton_fraction_grid,
             "jump_mean": approx.jump_mean_fraction_grid}
    for label, s in (("1e308", 1e308), ("inf", np.inf)):
        for rule, grid in rules.items():
            yield f"{rule} grid at s=±{label}", guarded(
                lambda: grid(market, 0.0, np.array([-s, s]), lo, hi))


def groups():
    """Every output group as (label, value), in order; the value is an
    array, a string or a tuple of them.  Imports levyou from the first
    ``src`` on the path."""
    from levyou import presets

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
    density = density_preset()
    for label, value in table_groups(density):
        yield f"{density.name} {label}", value
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


def leaves(value):
    """A group's value as a flat list of strings and arrays."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in leaves(part)]
    return [np.asarray(value)]


# Run for each tree: this file's groups, on that tree's levyou, pickled.
_CHILD = """
import pickle, sys
tool_dir, tree, out = sys.argv[1:]
sys.path[:0] = [tree + "/src", tool_dir]
import output_diff
with open(out, "wb") as fh:
    pickle.dump([(label, output_diff.leaves(value))
                 for label, value in output_diff.groups()], fh)
"""


def run_groups(tree):
    """The groups of ``tree`` as an ordered dict of label -> leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "groups.pickle")
        subprocess.run([sys.executable, "-c", _CHILD,
                        os.path.dirname(os.path.abspath(__file__)),
                        os.path.abspath(tree), out], check=True)
        with open(out, "rb") as fh:
            return dict(pickle.load(fh))


def numbers(leaf):
    """The numbers of one leaf as a float array, and its text with the
    numbers taken out (the dtype and shape, for an array)."""
    if isinstance(leaf, str):
        return (np.array([float(x) for x in _NUMBER.findall(leaf)]),
                _NUMBER.sub("#", leaf))
    return leaf.astype(np.float64).ravel(), (leaf.dtype.str, leaf.shape)


def bitwise_equal(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def largest_difference(a, b):
    """(largest absolute, largest relative) difference of two float
    arrays; equal values, NaN pairs included, differ by 0, and a NaN or
    infinity facing another value by inf."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(same, 0.0, np.abs(a - b))
        d[np.isnan(d)] = np.inf
        rel = np.where(same, 0.0, d / np.maximum(np.abs(a), np.abs(b)))
        rel[np.isnan(rel)] = np.inf
    return float(d.max(initial=0.0)), float(rel.max(initial=0.0))


def compare(old, new):
    """(status, largest absolute, largest relative difference) of one
    group's leaves; the status is "same", "changed" or "flagged"."""
    if len(old) == len(new) and all(map(bitwise_equal, old, new)):
        return "same", 0.0, 0.0
    status = "changed" if len(old) == len(new) else "flagged"
    worst_abs = worst_rel = 0.0
    for a, b in zip(old, new):
        (xa, skel_a), (xb, skel_b) = numbers(a), numbers(b)
        if skel_a != skel_b or xa.shape != xb.shape:
            status = "flagged"
            continue
        d, r = largest_difference(xa, xb)
        worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, r)
    return status, worst_abs, worst_rel


def report(old, new, atol=None):
    """Print one line per group of ``old`` and ``new`` (label -> leaves)
    and a summary; return the exit status: 1 when a group is flagged,
    found in one tree only, or moved by more than ``atol`` absolute."""
    counts = {"same": 0, "changed": 0, "flagged": 0}
    worst_abs = worst_rel = 0.0
    over = 0
    for label in [*old, *(label for label in new if label not in old)]:
        if label not in old or label not in new:
            status = "flagged"
            line = f"only in {'NEW' if label in new else 'OLD'}"
        else:
            status, d, r = compare(old[label], new[label])
            line = f"abs {d:.3g}  rel {r:.3g}"
            if status == "changed":
                worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, r)
            elif status == "same":
                line = "same"
            else:
                line = f"TEXT DIFFERS; numbers {line}"
            if atol is not None and d > atol:
                over += 1
                line += f"  OVER --atol {atol:g}"
        counts[status] += 1
        print(f"{label}: {line}")
    summary = (f"-- {counts['same']} same, {counts['changed']} changed in "
               f"numbers only (largest abs {worst_abs:.3g}, rel "
               f"{worst_rel:.3g}), {counts['flagged']} flagged")
    if atol is not None:
        summary += f", {over} over --atol {atol:g}"
    print(summary)
    return 1 if counts["flagged"] or over else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare the outputs of two levyou trees, group by "
                    "group.")
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--atol", type=float, default=None,
                        help="also exit 1 when a group's numbers move by "
                             "more than this, absolute")
    args = parser.parse_args(argv)
    old, new = run_groups(args.old_tree), run_groups(args.new_tree)
    return report(old, new, args.atol)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
