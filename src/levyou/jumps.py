"""Jump measures, their admissible fractions and their integral
transforms.

A jump measure nu is represented through its Lévy density (mass
``rate = nu(R)`` may be infinite).  Three integral transforms of nu appear
throughout the first-order analysis of the log-utility objective; writing
x = pi * psi * y:

``drag_integral``       I(pi) = ∫ pi psi^2 y^2 / (1 + x) nu(dy)
``log_penalty_integral``P(pi) = ∫ [log(1 + x) - x] nu(dy)
``curvature_integral``  C(pi) = ∫ psi^2 y^2 / (1 + x)^2 nu(dy)

They are related by C = dI/dpi, and all require the fraction to be
admissible (1 + x > 0 on the support of nu).
:func:`binding_ends` decides once which ends of the support bound the
fraction; :func:`admissible_set` and the error bounds of
:mod:`levyou.approx` read them.  A negative impact scale is a
:class:`DomainError` for any measure with jumps.

The ``*_integral`` methods write each transform as a prefactor times one
integral of the second-moment density y^2 nu(y) against a bounded kernel
of x y: 1/(1 + x y) for the drag, 1/(1 + x y)^2 for the curvature and
q(x y) = log1p_minus(x y)/(x y)^2 for the log penalty.  One integrator,
:func:`_integrate`, computes that integral and the base-class moments: it
cuts the support at 0, at +-1 and at +-1/|x| and runs one adaptive
quadrature per piece, to a relative tolerance of the sum so far.  A
density with a non-integrable singularity at the origin (``LevyDensity``)
needs nothing more, since y^2 nu(y) is integrable there.

Every transform route takes a scalar or an ndarray of fractions and goes
through ``JumpMeasure._transform``, the one place that checks
admissibility and returns zeros for a zero rate.  The base ``drag``,
``curvature`` and ``log_penalty`` are the quadrature routes, run at each
fraction of an array of any shape.  The drag is written once per measure,
unchecked, as ``_drag``: ``drag`` runs it behind the check, and the
Pareto log penalty, which is built from the drag, calls it inside its own,
so each call checks once.  The simulated jump laws override these with
closed forms:

* Pareto sizes: ``ParetoJump.drag`` and ``ParetoJump.curvature`` through
  the Euler integrals I_b(w) = ∫₀¹ t^(b-1)/(w+t) dt and
  J_b(w) = ∫₀¹ t^(b-1)/(w+t)² dt at w = pi psi scale, integer alpha
  included, the log penalty from the drag by parts;
* uniform sizes: elementary antiderivatives in u = pi psi y, with a Taylor
  series near u = 0;
* constant sizes: point evaluation, which is also their ``*_integral``.

An empty support makes every moment and transform zero, so the zero
measure ``NoJumps`` overrides none.  The Pareto and uniform closed forms
share no code with the quadrature route but the Taylor series of
log1p(u) - u, so each is a cross-check of the other.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .errors import (
    AdmissibilityError,
    CaseError,
    DomainError,
    QuadratureError,
)
from .hyp2f1 import euler_integral

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10
QUAD_LIMIT = 200

#: Below this |u| the log kernels sum their Taylor series, whose truncation
#: error is under 3e-19 relative; the direct forms cancel to about 2 eps/|u|.
_LOG_SERIES_CUTOFF = 1e-3


def _q_series(u):
    """(log1p(u) - u)/u^2 by its Taylor series, for |u| < 1e-3."""
    return -0.5 + u * (1.0 / 3.0 + u * (-0.25 + u * (0.2 + u * (
        -1.0 / 6.0 + u / 7.0))))


def _q(u):
    """The log-penalty kernel (log1p(u) - u)/u^2 of a float, -1/2 at 0."""
    if abs(u) < _LOG_SERIES_CUTOFF:
        return _q_series(u)
    return (math.log1p(u) - u) / u / u


def log1p_minus(x):
    """log(1 + x) - x, accurate for small |x| where the direct form cancels."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < _LOG_SERIES_CUTOFF
    xs = np.where(small, x, 0.0)
    series = xs * xs * _q_series(xs)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.log1p(np.where(small, 0.0, x)) - np.where(small, 0.0, x)
    out = np.where(small, series, direct)
    return float(out) if out.ndim == 0 else out


#: Below this |u| the uniform kernels sum their Taylor series, whose 56
#: terms leave a remainder under 2e-17.  Above it the direct forms lose
#: about 3 eps/u^2 to cancellation, so a cut-off at 0.1 would cost 300 eps.
_SERIES_CUTOFF = 0.5
_TERM = np.arange(56.0)
_ALTERNATING = (-1.0) ** _TERM
#: Taylor coefficients of the three uniform kernels G below.
_DRAG_SERIES = _ALTERNATING / (_TERM + 3.0)
_CURVATURE_SERIES = _ALTERNATING * (_TERM + 1.0) / (_TERM + 3.0)
_LOG_PENALTY_SERIES = -_ALTERNATING / ((_TERM + 2.0) * (_TERM + 3.0))


def _series_or_direct(u, series, direct):
    """Kernel G(u): its Taylor series for small |u|, else ``direct(u)``."""
    u = np.asarray(u, dtype=np.float64)
    small = np.abs(u) < _SERIES_CUTOFF
    # Horner's rule in place, in elementwise ufuncs (the bits of numpy's
    # polyval without its temporaries): one fraction's value does not
    # depend on the array it sits in, as a BLAS-summed product's would.
    x = np.where(small, u, 0.0)
    near = np.full(x.shape, series[-1])
    for c in series[-2::-1].tolist():
        near *= x
        near += c
    return np.where(small, near, direct(np.where(small, 1.0, u)))


# The direct forms are nested so that no power of u can overflow.

def _g_drag(u):
    """(log1p(u) - u + u^2/2) / u^3, from ∫ u^2/(1 + u) du."""
    return _series_or_direct(
        u, _DRAG_SERIES, lambda u: ((np.log1p(u) / u - 1.0) / u + 0.5) / u)


def _g_curvature(u):
    """(u - 2 log1p(u) + u/(1 + u)) / u^3, from ∫ u^2/(1 + u)^2 du."""
    return _series_or_direct(
        u, _CURVATURE_SERIES,
        lambda u: (1.0 + 1.0 / (1.0 + u) - 2.0 * np.log1p(u) / u) / u / u)


def _g_log_penalty(u):
    """((1 + u) log1p(u) - u - u^2/2) / u^3, from ∫ [log1p(u) - u] du."""
    return _series_or_direct(
        u, _LOG_PENALTY_SERIES,
        lambda u: (((1.0 + 1.0 / u) * np.log1p(u) - 1.0) / u - 0.5) / u)


def _quad(fn, lo, hi, epsabs=QUAD_EPSABS):
    """scipy.integrate.quad with this package's tolerances and error policy;
    the jump integrals pass their own ``epsabs``, the time integrals of
    ``market`` keep the default.  scipy is imported here, on the first
    call, so a process that never integrates never loads it."""
    from scipy.integrate import quad

    res = quad(
        fn,
        lo,
        hi,
        epsabs=epsabs,
        epsrel=QUAD_EPSREL,
        limit=QUAD_LIMIT,
        full_output=1,
    )
    if len(res) > 3:
        raise QuadratureError(
            f"quadrature on ({lo}, {hi}) failed: {res[3].strip()}"
        )
    return res[0]


def _integrate(fn, m, big, x):
    """∫ fn over the support (m, big), for a transform at x = pi psi or a
    moment at x = 0.

    A transform integrand follows y^2 nu up to |y| = 1/|x| and bends to a
    slower tail after it, and a heavy-tailed measure puts its weight far
    beyond |y| = 1.  One quadrature over the support cannot resolve that
    across many decades.  So the support is cut at 0, at +-1 and at
    +-1/|x|.  A piece with an end at 0 is integrated as it is, one out to
    infinity in 1/|y|, any other on a log scale.  Each piece stops at
    ``QUAD_EPSREL`` relative to itself or to the sum of the pieces before
    it, whichever is looser, so a piece far smaller than the total does
    not chase digits that the sum cannot show.  An empty support
    (``m == big``, as ``NoJumps`` has) integrates to 0 with no quadrature.
    """
    if not m < big:
        return 0.0
    c = 1.0 / abs(float(x)) if x != 0.0 else math.inf
    cuts = {v for v in (-c, -1.0, 0.0, 1.0, c) if m < v < big}
    edges = [m, *sorted(cuts), big]
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo < 0.0:  # the piece (-hi, -lo) of fn(-y)
            f, a, b = (lambda y: fn(-y)), -hi, -lo
        else:
            f, a, b = fn, lo, hi
        tol = QUAD_EPSREL * abs(math.fsum(parts))
        try:
            if a == 0.0:
                part = _quad(f, a, b, tol)
            elif math.isinf(b):
                part = _quad(lambda u: f(a / u) * a / u / u, 0.0, 1.0, tol)
            else:
                part = _quad(lambda v: f(math.exp(v)) * math.exp(v),
                             math.log(a), math.log(b), tol)
        except QuadratureError as exc:  # name the piece in y, not in u or v
            raise QuadratureError(f"on the piece ({lo}, {hi}) of the "
                                  f"support: {exc}") from None
        parts.append(part)
    return math.fsum(parts)


def _interval(support):
    """``support`` as a float pair (m, M), which must have m <= M: a
    reversed or NaN pair would integrate to 0 in silence."""
    m, big = float(support[0]), float(support[1])
    if not m <= big:
        raise DomainError(f"jump support must satisfy m <= M, got {support}")
    return m, big


class CaseTag(enum.Enum):
    """Sign pattern of the jump support, the admissible set's label."""

    TWO_SIDED = "A"      # m < 0 < M
    POSITIVE = "B"       # 0 <= m <= M, {0} included
    NEGATIVE = "C"       # m <= M <= 0, m != 0
    CONTINUOUS = "D"     # no jumps


def classify_case(measure):
    """Classify a jump measure by the sign pattern of its support."""
    if measure.rate == 0.0:
        return CaseTag.CONTINUOUS
    m, big = measure.support()
    if m < 0.0 < big:
        return CaseTag.TWO_SIDED
    if m >= 0.0:
        return CaseTag.POSITIVE
    return CaseTag.NEGATIVE


@dataclass(frozen=True)
class AdmissibleSet:
    """Open (or half-open) interval of fractions keeping 1 + pi psi y > 0."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    case: CaseTag

    def contains_interval(self, pi_min, pi_max):
        lo_ok = pi_min > self.lo if self.lo_open else pi_min >= self.lo
        hi_ok = pi_max < self.hi if self.hi_open else pi_max <= self.hi
        return lo_ok and hi_ok

    def boundary_distance(self, pi_min, pi_max):
        """Distance from [pi_min, pi_max] to the finite open endpoints
        (infinity when there is none)."""
        d = math.inf
        if self.lo_open and math.isfinite(self.lo):
            d = min(d, pi_min - self.lo)
        if self.hi_open and math.isfinite(self.hi):
            d = min(d, self.hi - pi_max)
        return d


def binding_ends(measure):
    """The ends of the support that bound the fraction, finite or not: M
    when M > 0, which bounds pi from below, and m when m < 0, which
    bounds it from above.  The zero measure has none."""
    if measure.rate == 0.0:
        return ()
    m, big = measure.support()
    return tuple(end for end, binds in ((big, big > 0.0), (m, m < 0.0))
                 if binds)


def admissible_set(measure, psi_max):
    """Admissible fractions for a measure under the worst-case impact scale.

    Each of :func:`binding_ends` sets one limit: -1/(end psi_max), open,
    for a finite end, and 0, closed, for an infinite one, since only the
    flat position survives arbitrarily large adverse jumps.  A side with
    no binding end is unbounded."""
    case = classify_case(measure)
    if case is CaseTag.CONTINUOUS or psi_max == 0.0:
        return AdmissibleSet(-math.inf, math.inf, True, True,
                             CaseTag.CONTINUOUS if psi_max == 0.0 else case)
    if psi_max < 0.0:
        raise DomainError(f"impact scale must be >= 0, got {psi_max}")
    lo, lo_open, hi, hi_open = -math.inf, True, math.inf, True
    for end in binding_ends(measure):
        limit = ((-1.0 / (end * psi_max), True) if math.isfinite(end)
                 else (0.0, False))
        if end > 0.0:
            lo, lo_open = limit
        else:
            hi, hi_open = limit
    return AdmissibleSet(lo, hi, lo_open, hi_open, case)


class JumpMeasure:
    """Base class: a Lévy measure given through its density.

    Subclasses provide ``density``, ``support`` and (when available)
    analytic moments, sampling codes and fast transform routes.

    Parameters
    ----------
    rate : float
        Total mass of the measure (``math.inf`` for infinite activity).
    """

    def __init__(self, rate):
        self.rate = float(rate)

    # -- interface -------------------------------------------------------

    def density(self, y):
        raise NotImplementedError

    def support(self):
        """(m, M): infimum and supremum of the support (may be infinite)."""
        raise NotImplementedError

    @property
    def is_finite_activity(self):
        return math.isfinite(self.rate)

    def sampler_code(self):
        """(kind, p0, p1) coding the size distribution for the simulators."""
        raise CaseError(
            f"{type(self).__name__} does not support path simulation"
        )

    # -- moments ---------------------------------------------------------

    def moment(self, k):
        """∫ y^k nu(dy) by :func:`_integrate`.  A divergent moment raises
        :class:`QuadratureError` naming the piece of the support where the
        quadrature failed; subclasses that know a moment diverges return
        math.inf instead."""
        m, big = self.support()
        return _integrate(lambda y: y**k * self.density(y), m, big, 0.0)

    def abs_moment(self, k):
        """∫ |y|^k nu(dy): |:meth:`moment`| on a support in [0, inf), else
        by :func:`_integrate`, which reflects the negative pieces, so that
        on a negative support it is |:meth:`moment`| bit for bit for an
        integer k and stays real for a fractional one."""
        m, big = self.support()
        if m >= 0.0:
            return abs(self.moment(k))
        return _integrate(lambda y: abs(y) ** k * self.density(y), m, big,
                          0.0)

    @property
    def mean_size(self):
        """Mean of the size distribution (finite-activity measures only)."""
        if not self.is_finite_activity:
            raise CaseError("mean jump size needs a finite-activity measure")
        if self.rate == 0.0:
            raise CaseError("mean jump size undefined for a zero measure")
        return self.moment(1) / self.rate

    @property
    def size_second_moment(self):
        if not self.is_finite_activity or self.rate == 0.0:
            raise CaseError("size moments need a finite-activity measure")
        return self.moment(2) / self.rate

    @property
    def size_std(self):
        m2 = self.size_second_moment
        mu = self.mean_size
        return math.sqrt(max(m2 - mu * mu, 0.0))

    # -- admissibility ----------------------------------------------------

    def admissible(self, pi, psi=1.0):
        """True when every fraction in ``pi`` (scalar or ndarray) lies in
        :func:`admissible_set` of this measure at impact scale ``psi``; a
        NaN fraction lies in none."""
        pi = np.asarray(pi, dtype=np.float64)
        return admissible_set(self, psi).contains_interval(
            pi.min(initial=math.inf), pi.max(initial=-math.inf))

    def _require_admissible(self, pi, psi):
        """Raise :class:`AdmissibilityError` naming the fraction of ``pi``
        furthest outside :func:`admissible_set` and the set itself."""
        if self.admissible(pi, psi):
            return
        pi = np.asarray(pi, dtype=np.float64)
        adm = admissible_set(self, psi)
        # 0 is always admissible, so (lo, 0) fails only where lo does.
        lo = pi.min()
        bad = pi.max() if adm.contains_interval(lo, 0.0) else lo
        raise AdmissibilityError(
            f"fraction {bad} with impact {psi} breaks 1 + pi*psi*y > 0 on "
            f"support {self.support()}; the admissible fractions are "
            f"{'(' if adm.lo_open else '['}{adm.lo}, "
            f"{adm.hi}{')' if adm.hi_open else ']'}"
        )

    # -- transforms -------------------------------------------------------

    def _transform(self, pi, psi, formula):
        """``formula(pi)`` once the fractions of a scalar or ndarray ``pi``
        pass the admissibility rule, in the shape of ``pi`` (a float for a
        scalar); zeros for the zero measure.  Every transform route goes
        through here, and nothing else checks admissibility."""
        pi = np.asarray(pi, dtype=np.float64)
        self._require_admissible(pi, psi)
        out = np.zeros_like(pi) if self.rate == 0.0 else formula(pi)
        return float(out) if pi.ndim == 0 else out

    def _quadrature(self, p, psi, kernel, factors):
        """c1 (c2 ∫ y^2 kernel(x y) nu(dy)) at each x = p psi of an ndarray
        ``p`` of admissible fractions, with (c1, c2) = ``factors(x)``: the
        one loop of the quadrature routes.

        The transform's prefactor c1 c2 stays off the integrand, so that
        the integrand does not sink into subnormals at tiny x, and each
        factor multiplies in turn, so that no power of x underflows
        alone.  Where a factor is 0 the transform is 0 without the
        integral, which may diverge there."""

        def at(x):
            c1, c2 = factors(x)
            if c1 == 0.0 or c2 == 0.0:
                return 0.0
            return c1 * (c2 * self._against_y2(kernel, x))

        return np.array([at(x) for x in (p * psi).ravel().tolist()]
                        ).reshape(p.shape)

    def _drag_quadrature(self, p, psi):
        return self._quadrature(p, psi, lambda u: 1.0 / (1.0 + u),
                                lambda x: (x * psi, 1.0))

    def drag_integral(self, pi, psi=1.0):
        """∫ pi psi^2 y^2/(1 + pi psi y) nu(dy) by quadrature."""
        return self._transform(pi, psi,
                               lambda p: self._drag_quadrature(p, psi))

    def log_penalty_integral(self, pi, psi=1.0):
        """∫ [log(1 + pi psi y) - pi psi y] nu(dy) by quadrature."""
        return self._transform(pi, psi, lambda p: self._quadrature(
            p, psi, _q, lambda x: (x, x)))

    def curvature_integral(self, pi, psi=1.0):
        """∫ psi^2 y^2/(1 + pi psi y)^2 nu(dy) by quadrature."""
        return self._transform(pi, psi, lambda p: self._quadrature(
            p, psi, lambda u: 1.0 / ((1.0 + u) * (1.0 + u)),
            lambda x: (psi * psi, 1.0)))

    def _against_y2(self, kernel, x):
        """∫ y^2 kernel(x y) nu(dy) by :func:`_integrate`."""

        def fn(y):
            w = self._y2_density(y)
            # a vanished y^2 nu at an infinite y would give NaN
            return 0.0 if w == 0.0 else w * kernel(x * y)

        m, big = self.support()
        return _integrate(fn, m, big, x)

    def _y2_density(self, y):
        """y^2 nu(y), the integrand of every transform before its kernel;
        subclasses whose density underflows before y^2 nu does override
        it."""
        d = self.density(y)
        # y*y overflows past 1.3e154
        return 0.0 if d == 0.0 else y * (y * d)

    # The drag at an ndarray of fractions that passed the admissibility
    # rule, unchecked: :meth:`drag` checks and calls it, and the Pareto log
    # penalty, which is built from the drag, calls it inside its own check,
    # so each call checks the rule once.  The closed-form subclasses
    # override it, ``curvature`` and ``log_penalty``.
    _drag = _drag_quadrature

    def drag(self, pi, psi=1.0):
        """∫ pi psi^2 y^2/(1 + pi psi y) nu(dy) of a scalar or ndarray
        ``pi``."""
        return self._transform(pi, psi, lambda p: self._drag(p, psi))

    curvature = curvature_integral
    log_penalty = log_penalty_integral


class NoJumps(JumpMeasure):
    """The zero measure: a purely continuous price.  Its empty support
    makes every moment and transform of the base class zero."""

    def __init__(self):
        super().__init__(rate=0.0)

    def __repr__(self):
        return "NoJumps()"

    def density(self, y):
        return 0.0

    def support(self):
        return (0.0, 0.0)

    def sampler_code(self):
        return (_rng.SIZE_NONE, 0.0, 0.0)


class CompoundPoisson(JumpMeasure):
    """Finite-activity measure nu = rate * (size distribution).

    Parameters
    ----------
    rate : float
        Jump intensity (mass of nu).
    size_density : callable
        Probability density of the jump size distribution.
    support : (float, float)
        Support of the size distribution.
    sampler : tuple, optional
        ``(kind, p0, p1)`` size-sampling code understood by the kernels;
        without it the measure cannot be simulated.
    """

    def __init__(self, rate, size_density, support, sampler=None):
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise DomainError(f"jump rate must be finite and >= 0, got {rate}")
        super().__init__(rate=rate)
        self._size_density = size_density
        self._support = _interval(support)
        self._sampler = sampler

    def density(self, y):
        m, big = self._support
        if y < m or y > big:
            return 0.0
        return self.rate * self._size_density(y)

    def support(self):
        return self._support

    def sampler_code(self):
        if self._sampler is None:
            return super().sampler_code()
        return self._sampler


class ParetoJump(CompoundPoisson):
    """Pareto(alpha, scale) jump sizes arriving at a Poisson rate.

    The size density is alpha * scale**alpha / y**(alpha+1) on
    [scale, infinity).  Moments of order k >= alpha are infinite.
    """

    def __init__(self, alpha, scale, rate):
        if alpha <= 1.0:
            raise DomainError(f"Pareto alpha must exceed 1, got {alpha}")
        if scale <= 0.0:
            raise DomainError(f"Pareto scale must be positive, got {scale}")
        self.alpha = float(alpha)
        self.scale = float(scale)
        super().__init__(
            rate=rate,
            size_density=self._pdf,
            support=(scale, math.inf),
            sampler=(_rng.SIZE_PARETO, float(scale), float(alpha)),
        )

    def __repr__(self):
        return (f"ParetoJump(alpha={self.alpha:.10g}, "
                f"scale={self.scale:.10g}, rate={self.rate:.10g})")

    def _pdf(self, y):
        # in the ratio z0/y, which underflows to 0 where y**(a+1) would
        # overflow
        a, z0 = self.alpha, self.scale
        return a / z0 * (z0 / y) ** (a + 1.0)

    def _y2_density(self, y):
        """rate alpha z0 (z0/y)^(alpha-1) on the support: the powers of y
        cancel, so it stays in range out to y ~ 1/pi where the density
        has underflowed for alpha <= 2."""
        return (self.rate * self.alpha * self.scale
                * (self.scale / y) ** (self.alpha - 1.0))

    def moment(self, k):
        if self.rate == 0.0:
            return 0.0
        if k >= self.alpha:
            return math.inf
        return self.rate * self.alpha * self.scale**k / (self.alpha - k)

    def _euler(self, p, psi, at_zero, positive):
        """``positive(w)`` at each w = p*psi*z0 > 0 of an ndarray ``p``
        and ``at_zero`` at w = 0."""
        w = p * psi * self.scale
        pos = w > 0.0
        out = np.full_like(w, at_zero)
        if np.any(pos):
            out[pos] = positive(w[pos])
        return out

    def _drag(self, p, psi):
        """Drag through the Euler integral I_(alpha-1).

        With w = pi * psi * z0, substituting t = z0/y gives
        psi * eta * alpha * z0 * w * I_(alpha-1)(w) for pi > 0, and 0 at
        w = 0.  I_b is evaluated in w itself, so this stays in range at
        any positive w, subnormal included.
        """
        a = self.alpha
        return self._euler(
            p, psi, 0.0, lambda w: psi * self.rate * a * self.scale
            * w * euler_integral(a - 1.0, w))

    def curvature(self, pi, psi=1.0):
        """d(drag)/d(pi) through the Euler integral J_alpha.

        Equals eta * (psi*z0)^2 * alpha * J_alpha(w) with w = pi*psi*z0, so
        that no 1/pi^2 can overflow or underflow; psi^2 * nu(y^2) at w = 0.
        """
        a = self.alpha
        at_zero = psi * psi * self.moment(2) if psi > 0.0 else 0.0
        return self._transform(pi, psi, lambda p: self._euler(
            p, psi, at_zero, lambda w: self.rate * (psi * self.scale) ** 2
            * a * euler_integral(a, w, order=1)))

    def log_penalty(self, pi, psi=1.0):
        """Closed form by parts against the tail mass eta*(z0/y)**alpha:
        P(pi) = eta*log1p_minus(pi*psi*z0) - pi*drag(pi)/alpha."""
        return self._transform(pi, psi, lambda p: (
            self.rate * log1p_minus(p * psi * self.scale)
            - p * self._drag(p, psi) / self.alpha))


class UniformJump(CompoundPoisson):
    """Uniform(lo, hi) jump sizes arriving at a Poisson rate."""

    def __init__(self, lo, hi, rate):
        if not lo < hi:
            raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        super().__init__(
            rate=rate,
            size_density=lambda y: 1.0 / (hi - lo),
            support=(lo, hi),
            sampler=(_rng.SIZE_UNIFORM, float(lo), float(hi)),
        )

    def __repr__(self):
        return (f"UniformJump(lo={self.lo:.10g}, hi={self.hi:.10g}, "
                f"rate={self.rate:.10g})")

    def moment(self, k):
        lo, hi = self.lo, self.hi
        return self.rate * (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))

    def abs_moment(self, k):
        """rate (F(hi) - F(lo)) / ((k + 1)(hi - lo)) with
        F(y) = sign(y) |y|^(k+1), on a support of either sign."""

        def F(y):
            return math.copysign(abs(y) ** (k + 1), y)

        return self.rate * (F(self.hi) - F(self.lo)) / (
            (k + 1) * (self.hi - self.lo))

    def _closed_form(self, kernel, k, p, psi):
        """rate/(hi - lo) * psi^(2-k) * x^k * [hi^3 G(x hi) - lo^3 G(x lo)]
        with x = p*psi at each admissible fraction of an ndarray ``p``,
        where u^3 G(u) is an antiderivative of the transform's integrand
        in u = x*y; the y^3 G(x y) form stays exact at x = 0."""
        x = p * psi
        # both ends in one kernel call; the kernel is elementwise
        g_hi, g_lo = kernel(np.multiply.outer((self.hi, self.lo), x))
        gap = self.hi**3 * g_hi - self.lo**3 * g_lo
        return (self.rate * psi ** (2 - k) * x**k * gap
                / (self.hi - self.lo))

    def _drag(self, p, psi):
        return self._closed_form(_g_drag, 1, p, psi)

    def curvature(self, pi, psi=1.0):
        return self._transform(pi, psi, lambda p: self._closed_form(
            _g_curvature, 0, p, psi))

    def log_penalty(self, pi, psi=1.0):
        return self._transform(pi, psi, lambda p: self._closed_form(
            _g_log_penalty, 2, p, psi))


class ConstantJump(JumpMeasure):
    """Every jump has the same fixed size, arriving at a Poisson rate.

    The size distribution is a point mass, so all transforms are exact
    closed forms, the size standard deviation is zero, and the mean-size
    linearization of the optimizer is exact.
    """

    def __init__(self, size, rate):
        if size == 0.0 or not math.isfinite(size):
            raise DomainError(
                f"jump size must be finite and nonzero, got {size}"
            )
        if not (rate >= 0.0 and math.isfinite(rate)):
            raise DomainError(f"jump rate must be finite and >= 0, got {rate}")
        super().__init__(rate=rate)
        self.size = float(size)

    def __repr__(self):
        return f"ConstantJump(size={self.size:.10g}, rate={self.rate:.10g})"

    def density(self, y):
        raise DomainError("a point-mass size distribution has no density")

    def support(self):
        return (self.size, self.size)

    def sampler_code(self):
        return (_rng.SIZE_CONSTANT, self.size, 0.0)

    def moment(self, k):
        return self.rate * self.size**k

    def abs_moment(self, k):
        return self.rate * abs(self.size) ** k

    def _drag(self, p, psi):
        y = self.size
        return self.rate * p * psi * psi * y * y / (1.0 + p * psi * y)

    def curvature(self, pi, psi=1.0):
        y = self.size
        return self._transform(pi, psi, lambda p: (
            self.rate * psi * psi * y * y / (1.0 + p * psi * y) ** 2))

    def log_penalty(self, pi, psi=1.0):
        return self._transform(pi, psi, lambda p: (
            self.rate * log1p_minus(p * psi * self.size)))

    # point evaluation is exact, so the closed forms are the integrals
    drag_integral = JumpMeasure.drag
    curvature_integral = curvature
    log_penalty_integral = log_penalty


class LevyDensity(JumpMeasure):
    """General (possibly infinite-activity) measure from a Lévy density.

    Parameters
    ----------
    density : callable
        Lévy density, evaluated pointwise away from the origin.
    support : (float, float)
        Support interval.
    small_order : float
        Exponent beta in [0, 2) with density ~ |y|**(-1-beta) near the
        origin; moments of order <= beta are reported as infinite.
    """

    def __init__(self, density, support, small_order):
        super().__init__(rate=math.inf)
        if small_order < 0.0:
            raise DomainError(
                "LevyDensity is for origin-singular densities; use "
                "CompoundPoisson for finite activity"
            )
        if small_order >= 2.0:
            raise DomainError(
                "small-jump order must be < 2 for a square-integrable measure"
            )
        self._density = density
        self._support = _interval(support)
        self.small_order = float(small_order)

    def density(self, y):
        m, big = self._support
        if y < m or y > big:
            return 0.0
        return self._density(y)

    def support(self):
        return self._support

    def moment(self, k):
        if k <= self.small_order:
            return math.inf
        return super().moment(k)

    def abs_moment(self, k):
        if k <= self.small_order:
            return math.inf
        return super().abs_moment(k)

