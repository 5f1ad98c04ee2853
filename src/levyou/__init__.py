"""levyou: log-optimal trading fractions for mean-reverting jump models.

The package solves, approximates and Monte-Carlo-validates the
log-utility optimal trading fraction for a price that mean-reverts
around zero drift and moves by Brownian noise plus compound-Poisson (or
more general Lévy) jumps:

* :mod:`levyou.jumps` — jump measures, their admissible fraction sets
  and their integral transforms;
* :mod:`levyou.market` — model coefficients, exact simulation and
  analytic moments;
* :mod:`levyou.strategy` — the exact optimal fraction (first-order
  condition inverted by Chandrupatla's bracketing root finder) and
  fraction and growth tables (built from the explicit price map with
  Newton steps);
* :mod:`levyou.approx` — two closed-form approximations with uniform
  error bounds;
* :mod:`levyou.valuation` — Monte Carlo reward estimates, strategy
  comparisons under common random numbers, and a conditioning
  consistency check;
* :mod:`levyou.presets` — named calibrated model configurations;
* :mod:`levyou.cli` — the ``levyou`` command line tool.
"""

from ._backend import available_backends, get_kernels
from .approx import (
    ApproxBound,
    ApproxFraction,
    jump_mean_drag,
    jump_mean_error_bound,
    jump_mean_fraction,
    jump_mean_fraction_grid,
    jump_mean_fraction_table,
    merton_denominator,
    merton_error_bound,
    merton_fraction,
    merton_fraction_grid,
    merton_fraction_table,
)
from .errors import (
    AdmissibilityError,
    BranchError,
    CaseError,
    ConfigError,
    ConvergenceError,
    DegenerateError,
    DomainError,
    LevyOUError,
    NumericalError,
    QuadratureError,
)
from .jumps import (
    AdmissibleSet,
    CaseTag,
    CompoundPoisson,
    ConstantJump,
    JumpMeasure,
    LevyDensity,
    NoJumps,
    ParetoJump,
    UniformJump,
    admissible_set,
    classify_case,
)
from .market import (
    MarketCoefficients,
    PathBundle,
    SimConfig,
    analytic_mean,
    analytic_variance,
    simulate_paths,
)
from .presets import PRESET_NAMES, Preset, get_preset, load_config
from .strategy import (
    OptimalFraction,
    PriceTable,
    best_growth,
    clamp_thresholds,
    constant_fraction_table,
    exact_fraction_table,
    fraction_table,
    growth_rate,
    growth_table,
    inverse_price,
    optimal_fraction,
    optimal_fraction_grid,
)
from .valuation import (
    STRATEGY_KINDS,
    ComparisonReport,
    StrategyScore,
    TowerReport,
    ValueEstimate,
    ValueGrid,
    WealthRun,
    compare_strategies,
    estimate_value,
    strategy_table,
    tower_check,
    value_grid,
    wealth_simulate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LevyOUError", "ConfigError", "AdmissibilityError", "DomainError",
    "CaseError", "DegenerateError", "NumericalError", "QuadratureError",
    "ConvergenceError", "BranchError",
    # jumps
    "JumpMeasure", "NoJumps", "CompoundPoisson", "ParetoJump",
    "UniformJump", "ConstantJump", "LevyDensity", "CaseTag",
    "classify_case", "AdmissibleSet", "admissible_set",
    # market
    "MarketCoefficients", "SimConfig", "PathBundle", "simulate_paths",
    "analytic_mean", "analytic_variance",
    # strategy
    "OptimalFraction", "growth_rate", "optimal_fraction",
    "optimal_fraction_grid", "inverse_price", "clamp_thresholds",
    "best_growth", "PriceTable", "fraction_table", "exact_fraction_table",
    "constant_fraction_table", "growth_table",
    # approx
    "ApproxFraction", "ApproxBound", "merton_denominator",
    "merton_fraction", "merton_fraction_grid", "merton_error_bound",
    "jump_mean_drag", "jump_mean_fraction", "jump_mean_fraction_grid",
    "jump_mean_error_bound", "merton_fraction_table",
    "jump_mean_fraction_table",
    # valuation
    "STRATEGY_KINDS", "ValueEstimate", "TowerReport", "WealthRun",
    "StrategyScore", "ComparisonReport", "ValueGrid", "estimate_value",
    "wealth_simulate", "compare_strategies", "tower_check", "value_grid",
    "strategy_table",
    # presets
    "Preset", "PRESET_NAMES", "get_preset", "load_config",
    # backends
    "get_kernels", "available_backends",
]
