"""Kernel backend selection.

The hot numerical loops (path simulation, running-value quadrature, wealth
accumulation) exist twice: a scalar version compiled with numba
(``_kernels_nb``) and a vectorized pure-numpy version (``_kernels_np``).
Both consume the same counter-based random stream, so they produce the same
paths for the same seed, up to last-ulp libm differences in ``exp``/``log``
and in the normal quantile (``scipy.special.ndtri`` for numpy, Wichura's
PPND16 for numba; about 1e-15 apart).

Environment variables
---------------------
LEVYOU_BACKEND
    ``"numba"`` or ``"numpy"``.  Default: numba when it is importable.
"""

import os
import warnings

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - depends on environment
    numba = None
    HAVE_NUMBA = False


def _identity_jit(*args, **kwargs):
    """Stand-in for ``numba.njit`` that leaves the function untouched."""
    if args and callable(args[0]):
        return args[0]

    def decorate(fn):
        return fn

    return decorate


def _resolve_backend():
    requested = os.environ.get("LEVYOU_BACKEND", "").strip().lower()
    if requested not in ("", "numba", "numpy"):
        warnings.warn(
            f"LEVYOU_BACKEND={requested!r} not recognized; "
            "falling back to automatic selection",
            RuntimeWarning,
        )
        requested = ""
    if requested == "numba" and not HAVE_NUMBA:
        warnings.warn(
            "LEVYOU_BACKEND=numba requested but numba is not importable; "
            "using the numpy backend",
            RuntimeWarning,
        )
        requested = "numpy"
    if requested == "":
        requested = "numba" if HAVE_NUMBA else "numpy"
    return requested


njit = numba.njit if HAVE_NUMBA else _identity_jit


def available_backends():
    """Names of the kernel backends importable in this environment."""
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


def get_kernels(force=None):
    """Return the kernel module for ``force`` or the configured backend.

    Parameters
    ----------
    force : str, optional
        ``"numba"`` or ``"numpy"`` to bypass the environment selection
        (used by the cross-backend tests and the benchmark script).
    """
    name = _resolve_backend() if force is None else force
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is missing")
        from . import _kernels_nb

        return _kernels_nb
    from . import _kernels_np

    return _kernels_np
