"""Kernel lookup.

``_kernels_np`` is the one kernel implementation.  Callers call its kernels
as attributes of the module :func:`get_kernels` returns, so each kernel is
looked up at call time.
"""

from . import _kernels_np
from .errors import ConfigError


def _resolve_backend():
    """The backend used when none is named: numpy, the only one."""
    return "numpy"


def available_backends():
    """Names of the kernel backends: numpy is the only one."""
    return ("numpy",)


def get_kernels(force=None):
    """Return the kernel module; ``force`` may be None or ``"numpy"``."""
    if force not in (None, "numpy"):
        raise ConfigError(f"unknown kernel backend {force!r}; "
                          "the only one is 'numpy'")
    return _kernels_np
