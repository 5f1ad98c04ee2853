"""Named model configurations and config-file loading.

A preset bundles a complete, validated market (mean reversion, drift,
Brownian scale, jump impact, jump measure) with a starting price, a
trading horizon and a default fraction interval, so the command line
tool and the test suite can refer to a calibrated model by name.

The ``benth2012`` preset is an electricity intraday calibration quoted
in *daily* rates; this module converts it to *hourly* rates (divide by
24) so that the horizon is expressed in hours.  ``describe`` surfaces
that convention.  Its drift level has no published calibration, so it
defaults to 80 % of the mean jump drift and is meant to be overridden
via ``b`` or ``b_frac``.

Config files use INI syntax with one section per preset::

    [benth2012]
    b_frac = 0.5
    paths = 20000

Values read from a config file sit between preset defaults and command
line flags: flags win over the file, the file wins over the defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from typing import NamedTuple

from .errors import ConfigError
from .jumps import NoJumps, ParetoJump, UniformJump
from .market import MarketCoefficients, SimConfig

__all__ = [
    "Preset",
    "PRESET_NAMES",
    "SETTINGS",
    "Setting",
    "get_preset",
    "load_config",
    "merge_overrides",
    "describe",
]

#: Hours per day, used to convert daily calibrated rates to hourly ones.
_HOURS_PER_DAY = 24.0

# Daily calibration behind the ``benth2012`` preset.
_CAL_LAMBDA_PER_DAY = 0.3333
_CAL_ETA_PER_DAY = 3.7249
_CAL_PARETO_ALPHA = 2.5406
_CAL_PARETO_SCALE = 0.3648


@dataclasses.dataclass(frozen=True)
class Preset:
    """A named, fully specified model configuration.

    Attributes
    ----------
    name : str
        Registry key.
    description : str
        One-line human description, including the time-unit convention.
    market : MarketCoefficients
    s0 : float
        Starting price for simulations.
    horizon : float
        Trading horizon ``T`` in the preset's time unit.
    pi_min, pi_max : float
        Default fraction interval.
    time_unit : str
        Name of the time unit (``"hour"``, ...) used by ``lam``/``eta``
        and ``horizon``.
    notes : tuple of str
        Extra caveats shown by ``describe``.
    """

    name: str
    description: str
    market: MarketCoefficients
    s0: float
    horizon: float
    pi_min: float
    pi_max: float
    time_unit: str
    notes: tuple = ()


def _calibrated_pareto():
    """The ``benth2012`` jump measure, in hourly rates."""
    return ParetoJump(alpha=_CAL_PARETO_ALPHA, scale=_CAL_PARETO_SCALE,
                      rate=_CAL_ETA_PER_DAY / _HOURS_PER_DAY)


_HOURLY_NOTE = ("rates are per hour: the published per-day rates were "
                "divided by 24, so horizon=24 covers one day")


class _Spec(NamedTuple):
    """What :func:`get_preset` builds a preset from: the market without
    its drift, the default drift fraction, and the preset's fields."""

    description: str
    lam: float
    sigma: float
    psi: float
    measure: object  # zero-argument callable returning the JumpMeasure
    compensated: bool
    b_frac: float
    s0: float
    horizon: float
    pi_min: float
    pi_max: float
    notes: tuple = ()
    base_b: float = None  # what b_frac scales when there are no jumps


_SPECS = {
    "benth2012": _Spec(
        description=("one-sided Pareto jumps, no Brownian part; daily "
                     "calibration converted to hourly rates"),
        lam=_CAL_LAMBDA_PER_DAY / _HOURS_PER_DAY, sigma=0.0, psi=1.0,
        measure=_calibrated_pareto, compensated=True, b_frac=0.8,
        s0=5.0, horizon=24.0, pi_min=0.0, pi_max=0.2,
        notes=(_HOURLY_NOTE,
               "the drift level has no published calibration; default is "
               "b = 0.8 * eta * E[Y] (override with b or b_frac)"),
    ),
    "benth2012-raw": _Spec(
        description=("benth2012 with the raw-drift convention: b is the "
                     "full price drift and jumps are not compensated"),
        lam=_CAL_LAMBDA_PER_DAY / _HOURS_PER_DAY, sigma=0.0, psi=1.0,
        measure=_calibrated_pareto, compensated=False, b_frac=0.0,
        s0=5.0, horizon=24.0, pi_min=0.0, pi_max=0.2,
        notes=(_HOURLY_NOTE,
               "b defaults to 0: all upward drift then comes from the jumps"),
    ),
    "uniform-two-sided": _Spec(
        description=("uniform jumps on [-0.5, 1] with a Brownian part; "
                     "all error bounds are finite"),
        lam=0.3, sigma=0.3, psi=1.0,
        measure=lambda: UniformJump(lo=-0.5, hi=1.0, rate=1.0),
        compensated=True, b_frac=0.4,
        s0=0.2, horizon=6.0, pi_min=-0.4, pi_max=0.8,
    ),
    "gaussian": _Spec(
        description=("no jumps: closed-form optimal fraction "
                     "(b - lam*s)/sigma^2, used as an exact reference"),
        lam=0.5, sigma=0.3, psi=0.0, measure=NoJumps, compensated=True,
        b_frac=1.0, base_b=0.2,
        s0=0.1, horizon=2.0, pi_min=-2.0, pi_max=2.0,
    ),
}

#: Names accepted by :func:`get_preset`, in presentation order.
PRESET_NAMES = tuple(_SPECS)


def get_preset(name, b=None, b_frac=None, pi_min=None, pi_max=None):
    """Build a preset by name, optionally overriding the drift and interval.

    Parameters
    ----------
    name : str
        One of :data:`PRESET_NAMES`.
    b : float, optional
        Absolute drift level; wins over ``b_frac``.
    b_frac : float, optional
        Drift as a fraction of the mean jump drift ``eta * E[Y]``
        (presets without jumps scale their base drift instead).  Each
        preset has a default fraction.
    pi_min, pi_max : float, optional
        Fraction interval overrides.

    Raises
    ------
    ConfigError
        Unknown name, or drift/interval values that fail validation.
    """
    try:
        spec = _SPECS[name]
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise ConfigError(f"unknown preset {name!r} (known: {known})") \
            from None
    if b is not None and b_frac is not None:
        raise ConfigError("give at most one of b and b_frac")
    for label, value in (("b", b), ("b_frac", b_frac),
                         ("pi_min", pi_min), ("pi_max", pi_max)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{label} must be finite, got {value}")
    measure = spec.measure()
    if b is None:
        frac = spec.b_frac if b_frac is None else float(b_frac)
        b = frac * (measure.moment(1) if spec.base_b is None else spec.base_b)
    market = MarketCoefficients(lam=spec.lam, b=float(b), sigma=spec.sigma,
                                psi=spec.psi, measure=measure,
                                compensated=spec.compensated)
    preset = Preset(
        name=name, description=spec.description, market=market,
        s0=spec.s0, horizon=spec.horizon,
        pi_min=float(spec.pi_min if pi_min is None else pi_min),
        pi_max=float(spec.pi_max if pi_max is None else pi_max),
        time_unit="hour", notes=spec.notes,
    )
    if preset.pi_min >= preset.pi_max:
        raise ConfigError(
            f"pi_min must be < pi_max, got [{preset.pi_min}, {preset.pi_max}]"
        )
    return preset


class Setting(NamedTuple):
    """A run setting: its parser, its default and its help text."""

    type: type
    default: object
    help: str


#: The run settings a config-file section or a flag can set, with their
#: parsers and defaults; a ``None`` default comes from the preset.
SETTINGS = {
    "b": Setting(float, None, "absolute drift level"),
    "b_frac": Setting(float, None, "drift as a fraction of the jump drift"),
    "pi_min": Setting(float, None, "lower end of the fraction interval"),
    "pi_max": Setting(float, None, "upper end of the fraction interval"),
    "t": Setting(float, 0.0, "start time"),
    "s": Setting(float, None, "price (default: the preset's start price)"),
    "x0": Setting(float, 1.0, "starting wealth"),
    "horizon": Setting(float, None,
                       "trading horizon T (default: the preset's)"),
    "paths": Setting(int, SimConfig.n_paths, "Monte Carlo path count"),
    "steps": Setting(int, SimConfig.n_steps, "time steps per path"),
    "seed": Setting(int, SimConfig.seed, "random seed"),
    "s_grid": Setting(str, None, "price grid min:max:n"),
    "fractions": Setting(str, "1.5,0.8,0.5,0.2",
                         "comma list of drift fractions"),
}


def load_config(path):
    """Read an INI config file into ``{section: {key: parsed value}}``.

    Every section must name a preset in :data:`PRESET_NAMES`; keys must
    be names in :data:`SETTINGS` and parse with the setting's type.

    Raises
    ------
    ConfigError
        Missing file, INI syntax errors, unknown sections or keys, or bad
        values.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError, OSError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    sections = {}
    for section in parser.sections():
        if section not in _SPECS:
            known = ", ".join(PRESET_NAMES)
            raise ConfigError(
                f"config section [{section}] names no preset "
                f"(known: {known})"
            )
        values = {}
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            if key not in SETTINGS:
                known = ", ".join(sorted(SETTINGS))
                raise ConfigError(
                    f"unknown key {key!r} in config section [{section}] "
                    f"(known: {known})"
                )
            try:
                values[key] = SETTINGS[key].type(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in config section "
                    f"[{section}]: {raw!r}"
                ) from exc
        sections[section] = values
    return sections


def merge_overrides(defaults, file_values, flag_values):
    """Merge setting layers: flags win over the file, the file over defaults.

    All three arguments are dicts; ``None`` values in ``flag_values``
    mean "flag not given" and are skipped.
    """
    merged = dict(defaults)
    merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def describe(preset):
    """Multi-line human description of a preset, including time units."""
    market = preset.market
    measure = market.measure
    lines = [
        f"preset:       {preset.name}",
        f"description:  {preset.description}",
        f"time unit:    {preset.time_unit} (rates and horizon use it)",
        f"mean rev:     lam = {market.lam:.10g} per {preset.time_unit}",
        f"drift:        b = {market.b:.10g} "
        f"({'compensated' if market.compensated else 'raw'} convention)",
        f"brownian:     sigma = {market.sigma:.10g}",
        f"jump impact:  psi = {market.psi:.10g}",
        f"jump measure: {measure!r}",
        f"start price:  s0 = {preset.s0:.10g}",
        f"horizon:      T = {preset.horizon:.10g} {preset.time_unit}s",
        f"fractions:    [{preset.pi_min:.10g}, {preset.pi_max:.10g}]",
    ]
    if measure.rate > 0.0:
        mu_l = measure.moment(1)
        lines.append(f"jump drift:   eta*E[Y] = {mu_l:.10g} per "
                     f"{preset.time_unit} (flat price at s = "
                     f"{_flat_price(market):.10g})")
    for note in preset.notes:
        lines.append(f"note:         {note}")
    return "\n".join(lines)


def _flat_price(market):
    """Price level where the reverting drift balances the forecast drift."""
    if market.lam == 0.0:
        return math.inf
    return market.foc_drift(0.0) / market.lam
