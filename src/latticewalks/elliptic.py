"""Complete elliptic integrals and the product-density closed forms.

K and E are evaluated with the arithmetic-geometric mean, which converges
quadratically and is accurate near both ends of the modulus range when
started from the complementary modulus.  The three product densities on
[-4, 4] (arcsine x arcsine, semicircle x arcsine, semicircle x semicircle
under multiplicative convolution) are expressed through K and E of
xi(x) = sqrt(1 - x^2/16); note that xi's complementary modulus is exactly
|x|/4, so no cancellation occurs near the singular center.

A small adaptive Gauss-Kronrod integrator (7/15 pair, bisection, global
error heap) backs the numerical Mellin convolution and the moment checks.
Panels never evaluate integrands at their endpoints.  The Mellin
convolution integrates in log coordinates under a cosine map, whose
sin t Jacobian cancels the inverse-square-root edges of the arcsine
factors, so the integrand it hands the integrator is smooth.  Near the
support edge x = 4, where rounding of the kernel arguments would swamp
the requested tolerance at a singular factor edge, it raises
NumericalError instead of returning an inaccurate value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .errors import KindTable, NumericalError

# a few ulps: the AGM gap stalls near half an ulp of a and never hits 0
_EPS = 4.0e-16
_MAX_AGM_ITER = 60


@dataclass(frozen=True)
class EllipticPair:
    """K(k) and E(k) with the AGM iteration count that produced them."""

    modulus: float
    K: float
    E: float
    iterations: int


def _agm(kp: float) -> tuple[float, float, float, int]:
    """(K, head, tail, iterations) from the complementary modulus
    kp = sqrt(1-k^2), with E = K (1 - head - tail) (Abramowitz & Stegun
    17.6): head = k^2/2 and tail = sum_{n>=1} 2^(n-1) c_n^2.

    Both parts are sums of positive terms, so K - E = K (head + tail) and
    (2 - k^2) K - 2E = 2 K tail need no subtraction.  Relative accuracy is
    ~1e-15 for kp in (0, 1]; kp = 0 diverges.
    """
    if kp <= 0.0:
        raise ValueError("complete elliptic integrals diverge at modulus 1")
    head = 0.5 * (1.0 - kp) * (1.0 + kp)
    a, b = 1.0, kp
    tail = 0.0
    power = 0.5
    it = 0
    # at least one step: c_1 = (1 - kp)/2 is exact, and for kp within a
    # few ulps of 1 it is all of the tail
    while True:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        it += 1
        power *= 2.0
        tail += power * c * c
        if abs(a - b) <= _EPS * a or it >= _MAX_AGM_ITER:
            return math.pi / (2.0 * a), head, tail, it


def elliptic_KE(k: float) -> EllipticPair:
    """Complete elliptic integrals of the first and second kind.

    Domain 0 <= k < 1 (K diverges at k = 1).  Relative error is below
    1e-13 across the domain.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k!r}")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    big_k, head, tail, it = _agm(kp)
    return EllipticPair(k, big_k, big_k * (1.0 - head - tail), it)


# ---------------------------------------------------------------------------
# product densities on [-4, 4]

_PI2 = math.pi * math.pi

# kind: (c, d, value).  Near x = 0 the kernel behaves like
# c * (log(16/|x|) + d), which feeds the analytic value of the singular
# head panel [0, eps] and the underflow case of density; value(K, head,
# tail) is the kernel from the output of _agm.
_KERNELS = KindTable("density", {
    "aa": (1.0 / (2.0 * _PI2), 0.0, lambda big_k, head, tail: big_k / (2.0 * _PI2)),
    "wa": (1.0 / _PI2, -1.0, lambda big_k, head, tail: big_k * (head + tail) / _PI2),
    "ww": (2.0 / _PI2, -2.0, lambda big_k, head, tail: 4.0 * big_k * tail / _PI2),
})


def density(kind: str, x: float) -> float:
    """Pointwise value of a product density.

    All three kinds diverge logarithmically at x = 0 (K(xi) blows up as
    log(16/|x|)); the exact center returns +inf as an explicit marker.
    Outside [-4, 4] the value is 0.  On 0 < |x| < 4 the relative error is
    below 2e-15 for every kind, also near |x| = 4 where wa and ww tend to 0:
    their closed forms K - E and (1 + x^2/16) K - 2E come from
    :func:`_agm` without a subtraction.
    """
    c, d, value = _KERNELS[kind]
    ax = abs(float(x))
    if ax > 4.0:
        return 0.0
    if ax == 0.0:
        return math.inf
    # complementary modulus of xi(x) is exactly |x|/4
    kp = ax / 4.0
    if kp == 0.0:
        # |x|/4 underflows for the smallest subnormal x, where the head
        # asymptotics c (log(16/|x|) + d) are exact to rounding
        return c * (math.log(16.0) - math.log(ax) + d)
    big_k, head, tail, _ = _agm(kp)
    return value(big_k, head, tail)


def arcsine_density(x: float) -> float:
    """Density of the arcsine law on (-2, 2); +inf at the endpoints."""
    t = 4.0 - x * x
    if t < 0.0:
        return 0.0
    if t == 0.0:
        return math.inf
    return 1.0 / (math.pi * math.sqrt(t))


def semicircle_density(x: float) -> float:
    """Density of the semicircle law on [-2, 2]."""
    t = 4.0 - x * x
    if t <= 0.0:
        return 0.0
    return math.sqrt(t) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature

# 15-point Kronrod nodes on [-1, 1] (positive half plus center) and the
# matching weights; odd-index nodes form the embedded 7-point Gauss rule.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
       0.4179591836734694)

DEFAULT_PANEL_BUDGET = 100_000


def _gk_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    # Kronrod nodes are interior, so f is never evaluated at a or b.
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        pair = f(mid - x) + f(mid + x)
        resk += _WGK[j] * pair
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    resk *= half
    resg *= half
    return resk, abs(resk - resg)


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        abs_tol: float = 1e-9, rel_tol: float = 1e-9,
                        panel_budget: int = DEFAULT_PANEL_BUDGET) -> float:
    """Integral of f over [a, b] by globally adaptive bisection.

    The worst panel (by the Kronrod-Gauss error estimate) is split until
    the summed estimate meets max(abs_tol, rel_tol * |integral|).
    Integrable endpoint singularities are handled by the geometric panel
    refinement itself.  Raises NumericalError when the panel budget is
    exhausted first.
    """
    if b <= a:
        return 0.0
    val, err = _gk_panel(f, a, b)
    panels = 1
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    total_val, total_err = val, err
    while total_err > max(abs_tol, rel_tol * abs(total_val)):
        if not heap or panels + 2 > panel_budget:
            raise NumericalError(
                f"quadrature on [{a}, {b}] did not converge within "
                f"{panel_budget} panels (error estimate {total_err:.3e})")
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa <= _EPS * (abs(pa) + abs(pb)):
            # panel no longer splittable in double precision
            raise NumericalError(
                f"quadrature stalled on a zero-width panel at [{pa}, {pb}]")
        mid = 0.5 * (pa + pb)
        lv, le = _gk_panel(f, pa, mid)
        rv, re = _gk_panel(f, mid, pb)
        panels += 2
        total_val += lv + rv - pval
        total_err += le + re - perr
        heapq.heappush(heap, (-le, seq, pa, mid, lv, le))
        heapq.heappush(heap, (-re, seq + 1, mid, pb, rv, re))
        seq += 2
    return total_val


# ---------------------------------------------------------------------------
# Mellin convolution and moments of the product densities

# smallest (2 - x/2) * tol at which a kernel with an infinite edge still
# convolves accurately near x = 4 (see mellin_density_convolve)
_EDGE_RESOLUTION = 1e-14


def mellin_density_convolve(f: Callable[[float], float],
                            g: Callable[[float], float],
                            x: float, tol: float = 1e-9) -> float:
    """Density of the multiplicative convolution of two symmetric kernels.

    Both kernels must be supported in [-2, 2]; the result, evaluated at
    x > 0, is 2 * integral of f(x/y) g(y) dy/y over y in [x/2, 2].
    Beyond the product support (x >= 4) the value is 0.

    The integral is taken in s = log y, where dy/y = ds, under the cosine
    map s = c - r cos t, t in [0, pi], with c and r the center and
    half-width of [log(x/2), log 2].  The integrand becomes
    f(x/y) g(y) r sin t; sin t vanishes like the square root of the
    distance to either end, which cancels inverse-square-root edges of
    the kernels and leaves a smooth integrand.

    The kernels see y rounded to a fixed absolute precision.  When a
    kernel is infinite at its edge 2 and [x/2, 2] is too narrow for that
    rounding to stay below tol ((2 - x/2) * tol < 1e-14), NumericalError
    is raised instead of returning an inaccurate value.
    """
    if x <= 0.0:
        raise ValueError("convolution point must be positive; use symmetry for x < 0")
    if x >= 4.0:
        return 0.0
    if ((2.0 - 0.5 * x) * tol < _EDGE_RESOLUTION
            and (math.isinf(f(2.0)) or math.isinf(g(2.0)))):
        raise NumericalError(
            f"Mellin convolution at x={x!r} is too close to the support edge 4 "
            f"to reach tol={tol!r}: [x/2, 2] is narrower than rounding at a "
            f"singular kernel edge allows; use a larger tol or a smaller x")
    hi = math.log(2.0)
    lo = math.log(x) - hi
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def integrand(t: float) -> float:
        y = math.exp(c - r * math.cos(t))
        v = f(x / y) * g(y) * r * math.sin(t)
        # y can round onto a factor's edge singularity (x/y or y landing
        # exactly on 2.0); the true contribution of that measure-zero point
        # is finite, so drop it rather than poison the sum
        return v if math.isfinite(v) else 0.0

    val = adaptive_quadrature(integrand, 0.0, math.pi,
                              abs_tol=0.5 * tol, rel_tol=0.5 * tol)
    return 2.0 * val


_HEAD_EPS = 1e-6


def density_moment(kind: str, m: int, tol: float = 1e-9) -> float:
    """Moment integral x^m against a product density over [-4, 4].

    Only even orders are meaningful for these symmetric kernels; odd m is
    rejected.  The logarithmic singularity at 0 is integrated analytically
    on [0, 1e-6] from the leading asymptotics; the rest is adaptive
    quadrature.  Absolute error is below tol * max(1, result).
    """
    c, d, _ = _KERNELS[kind]
    if m < 0 or m % 2:
        raise ValueError("moment order must be even and nonnegative")
    eps = _HEAD_EPS
    head = c * eps ** (m + 1) / (m + 1) * (math.log(16.0 / eps) + 1.0 / (m + 1) + d)

    def integrand(x: float) -> float:
        return x ** m * density(kind, x)

    tail = adaptive_quadrature(integrand, eps, 4.0,
                               abs_tol=0.25 * tol, rel_tol=0.25 * tol)
    return 2.0 * (head + tail)
