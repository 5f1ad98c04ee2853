"""Exception types shared across the package.

Configuration problems (bad measures, bad intervals, bad domains) and
numerical failures (quadrature, series, root branches) are kept in two
separate families so the command line tool can map them to distinct exit
codes.
"""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class LevyOUError(Exception):
    """Base class for all package errors."""


class ConfigError(LevyOUError):
    """Invalid user configuration (CLI flags, config file, preset name)."""


class AdmissibilityError(ConfigError):
    """Requested fraction interval is not inside the admissible open set."""


class DomainError(ConfigError):
    """Argument outside the mathematical domain of a function."""


class CaseError(ConfigError):
    """Operation not defined for this jump-support case or measure type."""


class DegenerateError(ConfigError):
    """Degenerate model input (e.g. zero mean jump where a division needs it)."""


class NumericalError(LevyOUError):
    """Base class for numerical failures."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class ConvergenceError(NumericalError):
    """Iterative scheme (series, root finder or Newton steps) exhausted
    its budget."""


class BranchError(NumericalError):
    """Closed-form root selection failed (negative discriminant)."""


#: Exception classes that map to the configuration exit code.
CONFIG_ERRORS = (ConfigError,)

#: Exception classes that map to the numerical-failure exit code.
NUMERICAL_ERRORS = (NumericalError,)
