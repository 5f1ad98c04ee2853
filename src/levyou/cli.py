"""Command line front end.

Subcommands
-----------
solve            optimal and approximate fractions (plus error bounds) as CSV
figure           fraction-vs-price curves for several drift levels (CSV + SVG)
simulate         simulate price paths; analytic vs empirical moment summary
value            Monte Carlo reward estimates over a price grid as CSV
compare          mean terminal log-wealth of the candidate strategies
describe-preset  show a preset's coefficients and time-unit convention

Conventions
-----------
* Settings resolve in three layers: preset defaults, then the matching
  section of an INI config file (``--config``), then command line flags.
  ``presets.SETTINGS`` declares each run setting once (type, default,
  help); it gives the flags, the config-file keys and the defaults.
  Float settings must be finite.
* A flag value may start with ``-`` (``--s-grid -2:2:3``): a token of
  ``-`` and then a digit or ``.`` is read as a value (``_Parser``).
* Result files are written by ``levyou._csv``: 17 significant digits,
  ``#`` comment headers carrying the run parameters, to ``--out``
  (stdout otherwise).
* Every command is deterministic given its flags; Monte Carlo commands
  take an explicit ``--seed``.
* ``solve`` and ``figure`` make one exact solve per command: the drift
  levels of a figure share the stationarity map, so their drift gaps are
  solved together (``strategy.optimal_fraction_gaps``).  A level that
  fails therefore fails before any file is written.
* ``main`` builds the argument parser on its first call and reuses it.
* Exit codes: 0 success, 2 configuration/usage error, 3 numerical
  failure.
* ``--backend`` accepts only ``numpy``, the one kernel implementation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import _csv, _svg, approx, presets, strategy, valuation
from .errors import (
    CONFIG_ERRORS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    NUMERICAL_ERRORS,
    CaseError,
    ConfigError,
    DegenerateError,
)
from .market import (SimConfig, analytic_mean, analytic_variance,
                     price_range, simulate_paths)

__all__ = ["main"]


def _parse_grid(spec):
    """Parse a ``min:max:n`` grid string into a float array."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like min:max:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must look like min:max:n, got {spec!r}") \
            from None
    if n < 2 or not lo < hi or not math.isfinite(hi - lo):
        raise ConfigError(
            f"grid needs finite min < max and n >= 2 points, got {spec!r}"
        )
    return np.linspace(lo, hi, n)


def _parse_fractions(spec):
    """Parse a comma-separated list of drift fractions."""
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad fraction list {spec!r}") from None
    if not values:
        raise ConfigError("fraction list is empty")
    return values


def _emit(text, out_path):
    """Write text to ``out_path``, or to stdout when no path was given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out_path}")


# -- settings resolution --------------------------------------------------


def _resolve(args, need_sim=False):
    """Merge preset defaults, config file section and flags.

    Returns ``(preset, settings)`` where ``settings`` holds the resolved
    run settings (``presets.SETTINGS``), with ``s`` and ``horizon`` filled
    in from the preset and, with ``need_sim``, a ``SimConfig`` as ``sim``.
    """
    file_values = {}
    if getattr(args, "config", None):
        file_values = presets.load_config(args.config).get(args.preset, {})
    defaults = {key: setting.default
                for key, setting in presets.SETTINGS.items()}
    flag_values = {key: getattr(args, key, None) for key in defaults}
    settings = presets.merge_overrides(defaults, file_values, flag_values)
    for key, setting in presets.SETTINGS.items():
        value = settings[key]
        if (setting.type is float and value is not None
                and not math.isfinite(value)):
            raise ConfigError(f"{key} must be finite, got {value}")

    preset = presets.get_preset(
        args.preset, b=settings["b"], b_frac=settings["b_frac"],
        pi_min=settings["pi_min"], pi_max=settings["pi_max"],
    )
    for key, value in (("horizon", preset.horizon), ("s", preset.s0)):
        if settings[key] is None:
            settings[key] = value
    if need_sim:
        settings["sim"] = SimConfig(n_paths=settings["paths"],
                                    n_steps=settings["steps"],
                                    seed=settings["seed"])
    if not 0.0 <= settings["t"] <= settings["horizon"]:
        raise ConfigError(
            f"need 0 <= t <= horizon, got t={settings['t']} "
            f"horizon={settings['horizon']}"
        )
    return preset, settings


def _params(preset, settings, keys):
    """Header parameters: the preset's drift and interval, then ``keys``."""
    return {"preset": preset.name, "b": preset.market.b,
            "pi_min": preset.pi_min, "pi_max": preset.pi_max,
            **{key: settings[key] for key in keys}}


def _prices(settings):
    """The prices a run covers: the ``s_grid`` setting, else ``s``."""
    if settings["s_grid"] is not None:
        return _parse_grid(settings["s_grid"])
    return np.array([settings["s"]])


def _fractions(levels, t, pi_min, pi_max):
    """The exact, risk-ratio and jump-mean fractions of each level.

    ``levels`` lists (market, prices) pairs whose markets differ only in
    the drift b.  The exact stationarity map does not depend on b, so one
    solve over the concatenated drift gaps serves every level; the two
    approximations are closed forms, evaluated per level.
    """
    market = levels[0][0]
    market.validate_interval(pi_min, pi_max)
    gaps = [strategy.drift_gap(m, t, s_values) for m, s_values in levels]
    exact, _ = strategy.optimal_fraction_gaps(market, t, np.concatenate(gaps),
                                              pi_min, pi_max)
    ends = np.cumsum([len(q) for q in gaps])[:-1]
    columns = []
    for pi, (m, s_values) in zip(np.split(exact, ends), levels):
        args = (m, t, s_values, pi_min, pi_max)
        columns.append((pi, approx.merton_fraction_grid(*args)[0],
                        approx.jump_mean_fraction_grid(*args)[0]))
    return columns


# -- subcommands -----------------------------------------------------------


def _bound_or_nan(fn, market, pi_min, pi_max):
    """Evaluate an error bound, mapping 'bound undefined' to NaN."""
    try:
        return fn(market, pi_min, pi_max).bound_value
    except (CaseError, DegenerateError):
        return math.nan


def _cmd_solve(args):
    preset, settings = _resolve(args)
    market, pi_min, pi_max = preset.market, preset.pi_min, preset.pi_max
    s_values = _prices(settings)
    (columns,) = _fractions([(market, s_values)], settings["t"], pi_min,
                            pi_max)
    bounds = [_bound_or_nan(fn, market, pi_min, pi_max)
              for fn in (approx.merton_error_bound,
                         approx.jump_mean_error_bound)]
    rows = [(*row, *bounds) for row in zip(s_values, *columns)]
    _emit(_csv.text("solve", [_params(preset, settings, ("t",))],
                    ("s", "pi_exact", "pi_merton", "pi_jump_mean",
                     "bound_merton", "bound_jump_mean"), rows), args.out)
    return EXIT_OK


def _cmd_figure(args):
    preset, settings = _resolve(args)
    if settings["b"] is not None or settings["b_frac"] is not None:
        raise ConfigError(
            "figure sweeps drift fractions; use --fractions, not --b or "
            "--b-frac"
        )
    fractions = _parse_fractions(settings["fractions"])
    n_points = args.points
    if n_points < 2:
        raise ConfigError(f"need at least 2 grid points, got {n_points}")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    t = settings["t"]
    levels = []
    for frac in fractions:
        market = presets.get_preset(
            args.preset, b_frac=frac,
            pi_min=preset.pi_min, pi_max=preset.pi_max,
        ).market
        if market.lam == 0.0:
            raise ConfigError("figure needs a mean-reverting model (lam > 0)")
        s_flat = market.foc_drift(t) / market.lam
        levels.append((market, np.linspace(0.0, 1.1 * s_flat, n_points)))
    solved = _fractions(levels, t, preset.pi_min, preset.pi_max)

    written = []
    for frac, (market, s_values), columns in zip(fractions, levels, solved):
        stem = os.path.join(out_dir, f"figure_bfrac_{frac:g}")
        header = {"preset": preset.name, "b_frac": f"{frac:g}",
                  "b": market.b, "t": t, "pi_min": preset.pi_min,
                  "pi_max": preset.pi_max}
        _csv.write(stem + ".csv", "figure", [header],
                   ("s", "pi_exact", "pi_merton", "pi_jump_mean"),
                   zip(s_values, *columns))
        svg = _svg.line_chart(
            [(label, s_values, column) for label, column
             in zip(("exact", "merton", "jump-mean"), columns)],
            title=f"optimal fraction vs price (drift = {frac:g} x jump drift)",
            xlabel="price s",
            ylabel="fraction of wealth",
        )
        with open(stem + ".svg", "w", encoding="utf-8") as fh:
            fh.write(svg)
        written.extend([stem + ".csv", stem + ".svg"])
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args):
    preset, settings = _resolve(args, need_sim=True)
    market = preset.market
    t, s, T = settings["t"], settings["s"], settings["horizon"]
    if not t < T:
        raise ConfigError(f"simulate needs t < horizon, got {t} >= {T}")
    # Without a file to write, the walk keeps no node array.
    if args.out is None:
        terminal, low, high = price_range(market, t, s, T, settings["sim"],
                                          backend=args.backend)
    else:
        bundle = simulate_paths(market, t, s, T, settings["sim"],
                                backend=args.backend)
        terminal = bundle.prices[:, -1]
        low = high = bundle.prices
    n = terminal.shape[0]

    emp_mean, se_mean = valuation._mean_se(terminal)
    dev_sq = (terminal - emp_mean) ** 2
    emp_var = float(np.sum(dev_sq) / (n - 1)) if n > 1 else math.nan
    # Two paths' squared deviations are equal but for rounding, so their
    # spread says nothing: the variance's SE needs three paths.
    se_var = valuation._mean_se(dev_sq)[1] if n > 2 else math.nan
    ana_mean = analytic_mean(market, t, s, T)
    ana_var = analytic_variance(market, t, T)

    def z(emp, ana, se):
        return valuation.z_score(emp - ana, se)

    header = _params(preset, settings,
                     ("t", "s", "horizon", "paths", "steps", "seed"))
    print(_csv.text("simulate", [header]) + "\n".join([
        f"terminal mean:     empirical {emp_mean:.6g} +/- {se_mean:.3g}"
        f" | analytic {ana_mean:.6g} | z = {z(emp_mean, ana_mean, se_mean):+.2f}",
        f"terminal variance: empirical {emp_var:.6g} +/- {se_var:.3g}"
        f" | analytic {ana_var:.6g} | z = {z(emp_var, ana_var, se_var):+.2f}",
        f"price range:       [{np.min(low):.6g}, {np.max(high):.6g}]",
    ]))
    if args.out is not None:
        bundle.to_csv(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_value(args):
    preset, settings = _resolve(args, need_sim=True)
    grid = valuation.value_grid(
        preset.market, np.array([settings["t"]]), _prices(settings),
        settings["horizon"], preset.pi_min, preset.pi_max,
        config=settings["sim"], backend=args.backend,
    )
    header = _params(preset, settings,
                     ("t", "horizon", "paths", "steps", "seed"))
    _emit(grid.csv_text([header]), args.out)
    return EXIT_OK


def _cmd_compare(args):
    preset, settings = _resolve(args, need_sim=True)
    market = preset.market
    t, s, T = settings["t"], settings["s"], settings["horizon"]
    x0 = settings["x0"]
    if not t < T:
        raise ConfigError(f"compare needs t < horizon, got {t} >= {T}")
    report = valuation.compare_strategies(
        market, t, s, x0, T, preset.pi_min, preset.pi_max,
        config=settings["sim"], backend=args.backend,
    )
    value = valuation.estimate_value(
        market, t, s, T, preset.pi_min, preset.pi_max,
        config=settings["sim"], backend=args.backend,
    )
    total = math.log(x0) + value.g_hat

    header = _params(preset, settings,
                     ("t", "s", "x0", "horizon", "paths", "steps", "seed"))
    text = _csv.text("compare", [header],
                     ("label", "mean_log_wealth", "std_err", "gap_to_exact",
                      "gap_std_err"), report.scores)
    text += (f"# log-value estimate: log(x0) + g_hat = {_csv.cell(total)} "
             f"+/- {_csv.cell(value.std_err)}\n")
    _emit(text, args.out)
    return EXIT_OK


def _cmd_describe(args):
    if args.name is None:
        width = max(len(name) for name in presets.PRESET_NAMES)
        for name in presets.PRESET_NAMES:
            preset = presets.get_preset(name)
            print(f"{name:<{width}}  {preset.description}")
        return EXIT_OK
    print(presets.describe(presets.get_preset(args.name)))
    return EXIT_OK


# -- parser ----------------------------------------------------------------


#: Flags of every subcommand but describe-preset, and of the simulating ones.
_MODEL_FLAGS = ("preset", "config", "b", "b_frac", "pi_min", "pi_max", "t",
                "horizon")
_SIM_FLAGS = ("paths", "steps", "seed", "backend")

#: Flags that are not run settings (those are in ``presets.SETTINGS``).
_FLAGS = {
    "preset": {"default": "benth2012",
               "help": "model preset (default %(default)s)"},
    "config": {"help": "INI config file; flags win over its [preset] section"},
    "backend": {"choices": ("numpy",),
                "help": "kernel implementation (only numpy)"},
    "points": {"type": int, "default": 200,
               "help": "grid points per curve (default %(default)s)"},
    "out": {"help": "output file (default stdout); figure: a directory "
                    "(default .); simulate: a file for the paths"},
}

#: Subcommand: (handler, help, flags besides the model flags).
_COMMANDS = {
    "solve": (_cmd_solve, "fractions and error bounds as CSV",
              ("s", "s_grid", "out")),
    "figure": (_cmd_figure, "fraction curves per drift level (CSV + SVG)",
               ("fractions", "points", "out")),
    "simulate": (_cmd_simulate, "simulate paths and check analytic moments",
                 (*_SIM_FLAGS, "s", "out")),
    "value": (_cmd_value, "Monte Carlo reward estimates over a price grid",
              (*_SIM_FLAGS, "s", "s_grid", "out")),
    "compare": (_cmd_compare, "terminal log-wealth of the strategies",
                (*_SIM_FLAGS, "s", "x0", "out")),
}


def _flag(name):
    """``add_argument`` keywords; a setting's flag defaults to None (unset)."""
    setting = presets.SETTINGS.get(name)
    if setting is None:
        return _FLAGS[name]
    default = "" if setting.default is None else f" (default {setting.default})"
    return {"type": setting.type, "help": setting.help + default}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token of ``-`` and then a digit or
    ``.`` as a value, such as ``-2:2:3``, ``-1e-3`` or ``-.5,0.2``; no
    levyou flag looks like that.  (argparse takes only plain negative
    decimals for values.)  Its subcommand parsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and kept for the
    process."""
    parser = _Parser(
        prog="levyou",
        description="Log-optimal trading fractions for mean-reverting "
                    "jump price models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*_MODEL_FLAGS, *flags):
            p.add_argument("--" + name.replace("_", "-"), **_flag(name))
        p.set_defaults(func=func)

    p = sub.add_parser("describe-preset", help="show or list the presets")
    p.add_argument("name", nargs="?", default=None,
                   help="preset name; omit to list all")
    p.set_defaults(func=_cmd_describe)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
