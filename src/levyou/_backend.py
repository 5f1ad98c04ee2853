"""Kernel lookup.

``_kernels_np`` is the one kernel implementation.  Callers call its kernels
as attributes of the module :func:`get_kernels` returns, so each kernel is
looked up at call time.  ``LEVYOU_BACKEND`` accepts only ``"numpy"``; any
other value warns and is ignored.
"""

import os
import warnings

from . import _kernels_np
from .errors import ConfigError


def _resolve_backend():
    requested = os.environ.get("LEVYOU_BACKEND", "").strip().lower()
    if requested not in ("", "numpy"):
        warnings.warn(f"LEVYOU_BACKEND={requested!r} not recognized; "
                      "using the numpy kernels", RuntimeWarning)
    return "numpy"


def available_backends():
    """Names of the kernel backends: numpy is the only one."""
    return ("numpy",)


def get_kernels(force=None):
    """Return the kernel module; ``force`` may be None or ``"numpy"``."""
    if force is None:
        _resolve_backend()
    elif force != "numpy":
        raise ConfigError(f"unknown kernel backend {force!r}; "
                          "the only one is 'numpy'")
    return _kernels_np
