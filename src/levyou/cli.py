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
* CSV output uses 17 significant digits, ``#`` comment headers carrying
  the run parameters, and is written to ``--out`` (stdout otherwise).
* Every command is deterministic given its flags; Monte Carlo commands
  take an explicit ``--seed``.
* Exit codes: 0 success, 2 configuration/usage error, 3 numerical
  failure.
* ``LEVYOU_BACKEND`` (or ``--backend``) picks ``numba`` or ``numpy``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import _svg, approx, presets, strategy, valuation
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
from .market import SimConfig, analytic_mean, analytic_variance, simulate_paths

__all__ = ["main"]

_DEFAULT_FRACTIONS = "1.5,0.8,0.5,0.2"


def _fmt(value):
    """CSV float formatting: 17 significant digits."""
    return f"{float(value):.17g}"


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
    if n < 2 or not lo < hi:
        raise ConfigError(
            f"grid needs min < max and n >= 2 points, got {spec!r}"
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
    scalar run parameters (t, s, x0, horizon, paths, steps, seed, grids).
    """
    file_values = {}
    if getattr(args, "config", None):
        sections = presets.load_config(args.config)
        file_values = sections.get(args.preset, {})

    defaults = {
        "b": None, "b_frac": None, "pi_min": None, "pi_max": None,
        "t": 0.0, "s": None, "x0": 1.0, "horizon": None,
        "paths": 10_000, "steps": 96, "seed": 20120808,
        "s_grid": None, "fractions": _DEFAULT_FRACTIONS,
    }
    flag_values = {
        key: getattr(args, key, None) for key in defaults
    }
    merged = presets.merge_overrides(defaults, file_values, flag_values)

    preset = presets.get_preset(
        args.preset, b=merged["b"], b_frac=merged["b_frac"],
        pi_min=merged["pi_min"], pi_max=merged["pi_max"],
    )
    settings = dict(merged)
    settings["horizon"] = (preset.horizon if merged["horizon"] is None
                           else float(merged["horizon"]))
    settings["s"] = preset.s0 if merged["s"] is None else float(merged["s"])
    if need_sim:
        if settings["paths"] < 1 or settings["steps"] < 1:
            raise ConfigError("paths and steps must be positive")
        settings["sim"] = SimConfig(
            n_paths=int(settings["paths"]), n_steps=int(settings["steps"]),
            seed=int(settings["seed"]),
        )
    if not 0.0 <= settings["t"] <= settings["horizon"]:
        raise ConfigError(
            f"need 0 <= t <= horizon, got t={settings['t']} "
            f"horizon={settings['horizon']}"
        )
    return preset, settings


def _header(command, preset, settings, keys):
    """Two-line CSV comment header with the run parameters."""
    tokens = [f"preset={preset.name}", f"b={_fmt(preset.market.b)}",
              f"pi_min={_fmt(preset.pi_min)}", f"pi_max={_fmt(preset.pi_max)}"]
    for key in keys:
        value = settings[key]
        tokens.append(
            f"{key}={value if isinstance(value, int) else _fmt(value)}"
        )
    return f"# levyou {command}\n# " + " ".join(tokens) + "\n"


# -- subcommands -----------------------------------------------------------


def _bound_or_nan(fn, market, pi_min, pi_max):
    """Evaluate an error bound, mapping 'bound undefined' to NaN."""
    try:
        return fn(market, pi_min, pi_max).bound_value
    except (CaseError, DegenerateError):
        return math.nan


def _cmd_solve(args):
    preset, settings = _resolve(args)
    market = preset.market
    t = settings["t"]
    if settings["s_grid"] is not None:
        s_values = _parse_grid(settings["s_grid"])
    else:
        s_values = np.array([settings["s"]])

    pi_exact, _ = strategy.optimal_fraction_grid(
        market, t, s_values, preset.pi_min, preset.pi_max
    )
    pi_merton, _, _ = approx.merton_fraction_grid(
        market, t, s_values, preset.pi_min, preset.pi_max
    )
    pi_jump_mean, _, _ = approx.jump_mean_fraction_grid(
        market, t, s_values, preset.pi_min, preset.pi_max
    )
    bound_m = _bound_or_nan(approx.merton_error_bound, market,
                            preset.pi_min, preset.pi_max)
    bound_j = _bound_or_nan(approx.jump_mean_error_bound, market,
                            preset.pi_min, preset.pi_max)

    lines = [_header("solve", preset, settings, ("t",)).rstrip("\n")]
    lines.append("s,pi_exact,pi_merton,pi_jump_mean,"
                 "bound_merton,bound_jump_mean")
    for j, sv in enumerate(s_values):
        lines.append(
            f"{_fmt(sv)},{_fmt(pi_exact[j])},{_fmt(pi_merton[j])},"
            f"{_fmt(pi_jump_mean[j])},{_fmt(bound_m)},{_fmt(bound_j)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_figure(args):
    if getattr(args, "b", None) is not None:
        raise ConfigError(
            "figure sweeps drift fractions; use --fractions, not --b"
        )
    preset, settings = _resolve(args)
    fractions = _parse_fractions(settings["fractions"])
    n_points = args.points
    if n_points < 2:
        raise ConfigError(f"need at least 2 grid points, got {n_points}")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    t = settings["t"]
    written = []
    for frac in fractions:
        sub = presets.get_preset(
            args.preset, b_frac=frac,
            pi_min=preset.pi_min, pi_max=preset.pi_max,
        )
        market = sub.market
        if market.lam == 0.0:
            raise ConfigError("figure needs a mean-reverting model (lam > 0)")
        s_flat = market.foc_drift(t) / market.lam
        s_values = np.linspace(0.0, 1.1 * s_flat, n_points)
        pi_exact, _ = strategy.optimal_fraction_grid(
            market, t, s_values, sub.pi_min, sub.pi_max
        )
        pi_merton, _, _ = approx.merton_fraction_grid(
            market, t, s_values, sub.pi_min, sub.pi_max
        )
        pi_jump_mean, _, _ = approx.jump_mean_fraction_grid(
            market, t, s_values, sub.pi_min, sub.pi_max
        )

        stem = os.path.join(out_dir, f"figure_bfrac_{frac:g}")
        lines = [
            "# levyou figure",
            f"# preset={sub.name} b_frac={frac:g} b={_fmt(market.b)} "
            f"t={_fmt(t)} pi_min={_fmt(sub.pi_min)} "
            f"pi_max={_fmt(sub.pi_max)}",
            "s,pi_exact,pi_merton,pi_jump_mean",
        ]
        for j, sv in enumerate(s_values):
            lines.append(f"{_fmt(sv)},{_fmt(pi_exact[j])},"
                         f"{_fmt(pi_merton[j])},{_fmt(pi_jump_mean[j])}")
        with open(stem + ".csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        svg = _svg.line_chart(
            [("exact", s_values, pi_exact),
             ("merton", s_values, pi_merton),
             ("jump-mean", s_values, pi_jump_mean)],
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
    bundle = simulate_paths(market, t, s, T, settings["sim"],
                            backend=args.backend)
    terminal = bundle.prices[:, -1]
    n = terminal.shape[0]

    emp_mean = float(np.mean(terminal))
    se_mean = float(np.std(terminal, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    dev_sq = (terminal - emp_mean) ** 2
    emp_var = float(np.sum(dev_sq) / (n - 1)) if n > 1 else 0.0
    se_var = float(np.std(dev_sq, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    ana_mean = analytic_mean(market, t, s, T)
    ana_var = analytic_variance(market, t, T)

    def z(emp, ana, se):
        return (emp - ana) / se if se > 0.0 else 0.0

    lines = [
        _header("simulate", preset, settings,
                ("t", "s", "horizon", "paths", "steps", "seed")).rstrip("\n"),
        f"terminal mean:     empirical {emp_mean:.6g} +/- {se_mean:.3g}"
        f" | analytic {ana_mean:.6g} | z = {z(emp_mean, ana_mean, se_mean):+.2f}",
        f"terminal variance: empirical {emp_var:.6g} +/- {se_var:.3g}"
        f" | analytic {ana_var:.6g} | z = {z(emp_var, ana_var, se_var):+.2f}",
        f"price range:       [{np.min(bundle.prices):.6g}, "
        f"{np.max(bundle.prices):.6g}]",
    ]
    print("\n".join(lines))
    if args.out is not None:
        bundle.to_csv(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_value(args):
    preset, settings = _resolve(args, need_sim=True)
    market = preset.market
    t, T = settings["t"], settings["horizon"]
    if settings["s_grid"] is not None:
        s_values = _parse_grid(settings["s_grid"])
    else:
        s_values = np.array([settings["s"]])
    grid = valuation.value_grid(
        market, np.array([t]), s_values, T, preset.pi_min, preset.pi_max,
        config=settings["sim"], backend=args.backend,
    )
    lines = grid.csv_text().splitlines()
    lines.insert(1, _header("value", preset, settings,
                            ("t", "horizon", "paths", "steps",
                             "seed")).splitlines()[1])
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_compare(args):
    preset, settings = _resolve(args, need_sim=True)
    market = preset.market
    t, s, T = settings["t"], settings["s"], settings["horizon"]
    x0 = float(settings["x0"])
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

    lines = [_header("compare", preset, settings,
                     ("t", "s", "x0", "horizon", "paths", "steps",
                      "seed")).rstrip("\n")]
    lines.append("label,mean_log_wealth,std_err,gap_to_exact,gap_std_err")
    for row in report.scores:
        lines.append(
            f"{row.label},{_fmt(row.mean_log_wealth)},{_fmt(row.std_err)},"
            f"{_fmt(row.gap_to_ref)},{_fmt(row.gap_std_err)}"
        )
    lines.append(
        f"# log-value estimate: log(x0) + g_hat = {_fmt(total)} "
        f"+/- {_fmt(value.std_err)}"
    )
    _emit("\n".join(lines) + "\n", args.out)
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


def _add_model_flags(parser):
    parser.add_argument("--preset", default="benth2012",
                        help="model preset (see describe-preset)")
    parser.add_argument("--config", default=None,
                        help="INI config file; its [preset] section "
                             "overrides preset defaults, flags win")
    parser.add_argument("--b", type=float, default=None,
                        help="absolute drift level")
    parser.add_argument("--b-frac", dest="b_frac", type=float, default=None,
                        help="drift as a fraction of the mean jump drift")
    parser.add_argument("--pi-min", dest="pi_min", type=float, default=None,
                        help="lower end of the fraction interval")
    parser.add_argument("--pi-max", dest="pi_max", type=float, default=None,
                        help="upper end of the fraction interval")
    parser.add_argument("--t", type=float, default=None,
                        help="start time (default 0)")
    parser.add_argument("--horizon", type=float, default=None,
                        help="trading horizon T (default from preset)")


def _add_sim_flags(parser):
    parser.add_argument("--paths", type=int, default=None,
                        help="Monte Carlo path count (default 10000)")
    parser.add_argument("--steps", type=int, default=None,
                        help="time steps per path (default 96)")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default 20120808)")
    parser.add_argument("--backend", choices=("numba", "numpy"), default=None,
                        help="simulation backend (default: LEVYOU_BACKEND "
                             "env var, else numba when importable, else "
                             "numpy)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levyou",
        description="Log-optimal trading fractions for mean-reverting "
                    "jump price models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="fractions and error bounds as CSV")
    _add_model_flags(p)
    p.add_argument("--s", type=float, default=None,
                   help="single price (default: preset start price)")
    p.add_argument("--s-grid", dest="s_grid", default=None,
                   help="price grid min:max:n")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("figure",
                       help="fraction curves per drift level (CSV + SVG)")
    _add_model_flags(p)
    p.add_argument("--fractions", default=None,
                   help=f"comma list of drift fractions "
                        f"(default {_DEFAULT_FRACTIONS})")
    p.add_argument("--points", type=int, default=200,
                   help="grid points per curve (default 200)")
    p.add_argument("--out", default=None,
                   help="output directory (default: current)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("simulate",
                       help="simulate paths and check analytic moments")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--s", type=float, default=None,
                   help="start price (default: preset start price)")
    p.add_argument("--out", default=None, help="write the paths as CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("value",
                       help="Monte Carlo reward estimates over a price grid")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--s", type=float, default=None,
                   help="single price (default: preset start price)")
    p.add_argument("--s-grid", dest="s_grid", default=None,
                   help="price grid min:max:n")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("compare",
                       help="terminal log-wealth of the candidate strategies")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--s", type=float, default=None,
                   help="start price (default: preset start price)")
    p.add_argument("--x0", type=float, default=None,
                   help="starting wealth (default 1)")
    p.add_argument("--out", default=None, help="output CSV path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("describe-preset",
                       help="show a preset (or list all presets)")
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
