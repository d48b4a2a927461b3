"""Complete elliptic integrals and the product-density closed forms.

K and E are evaluated with the arithmetic-geometric mean, which converges
quadratically and is accurate near both ends of the modulus range when
started from the complementary modulus.  The three product densities on
[-4, 4] (arcsine x arcsine, semicircle x arcsine, semicircle x semicircle
under multiplicative convolution) are expressed through K and E of
xi(x) = sqrt(1 - x^2/16); note that xi's complementary modulus is exactly
|x|/4, so no cancellation occurs near the singular center.  Each kind has
one pointwise evaluator, built once, with the AGM loop inlined: aa needs
K alone and skips the E tail, wa and ww carry it.

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
from math import cos, exp, fsum, inf, isfinite, isinf, log, pi, sin, sqrt
from typing import Callable, NamedTuple

from .errors import KindTable, NumericalError

# a few ulps: the AGM gap stalls near half an ulp of a and never hits 0
_EPS = 4.0e-16
_MAX_AGM_ITER = 60
# the evaluators' step budget, one range shared by every call
_AGM_STEPS = range(_MAX_AGM_ITER)


class EllipticPair(NamedTuple):
    """K(k) and E(k) with the AGM iteration count that produced them.

    A NamedTuple, so it compares equal to the plain tuple
    (modulus, K, E, iterations).
    """

    modulus: float
    K: float
    E: float
    iterations: int


def elliptic_KE(k: float) -> EllipticPair:
    """Complete elliptic integrals of the first and second kind.

    Domain 0 <= k < 1 (K diverges at k = 1).  Relative error is below
    1e-13 across the domain.  The AGM starts from the complementary
    modulus kp = sqrt(1-k^2), and E = K (1 - head - tail) (Abramowitz &
    Stegun 17.6) with head = k^2/2 and tail = sum_{n>=1} 2^(n-1) c_n^2.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k!r}")
    kp = sqrt((1.0 - k) * (1.0 + k))
    a, b = 1.0, kp
    tail, power = 0.0, 0.5
    # at least one step: c_1 = (1 - kp)/2 is exact, and for kp within a
    # few ulps of 1 it is all of the tail
    for it in range(1, _MAX_AGM_ITER + 1):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), sqrt(a * b)
        power *= 2.0
        tail += power * c * c
        if abs(a - b) <= _EPS * a:
            break
    big_k = pi / (2.0 * a)
    head = 0.5 * (1.0 - kp) * (1.0 + kp)
    return EllipticPair(k, big_k, big_k * (1.0 - head - tail), it)


# ---------------------------------------------------------------------------
# product densities on [-4, 4]

_PI2 = pi * pi
_TWO_PI2 = 2.0 * _PI2
_LOG16 = log(16.0)


def _evaluator(kind: str, c: float, d: float) -> Callable[[float], float]:
    """The pointwise density of one kind, with the AGM of K(xi(x)) inlined.

    The complementary modulus of xi(x) is exactly kp = |x|/4.  aa is
    K / (2 pi^2) and runs the AGM for K alone.  wa and ww also sum
    tail = sum_{n>=1} 2^(n-1) c_n^2 of 1 - E/K = head + tail with
    head = (1 - kp^2)/2 (Abramowitz & Stegun 17.6): wa = K (head + tail)
    / pi^2 and ww = 4 K tail / pi^2 are K - E and (1 + x^2/16) K - 2E as
    sums of positive terms, so nothing cancels as they tend to 0 at x = 4.
    """
    k_only = kind == "aa"
    with_head = kind == "wa"

    def value(x: float) -> float:
        ax = abs(float(x))
        if not ax <= 4.0:
            if ax != ax:
                raise ValueError(f"density point x must not be NaN, got x={x!r}")
            return 0.0
        if ax == 0.0:
            return inf
        kp = ax / 4.0
        if kp == 0.0:
            # |x|/4 underflows for the smallest subnormal x, where the head
            # asymptotics c (log(16/|x|) + d) are exact to rounding
            return c * (_LOG16 - log(ax) + d)
        # the loops take at least one step, as elliptic_KE's do
        a, b = 1.0, kp
        if k_only:
            for _ in _AGM_STEPS:
                a, b = 0.5 * (a + b), sqrt(a * b)
                if abs(a - b) <= _EPS * a:
                    break
            return pi / (2.0 * a) / _TWO_PI2
        tail, power = 0.0, 0.5
        for _ in _AGM_STEPS:
            cn = 0.5 * (a - b)
            a, b = 0.5 * (a + b), sqrt(a * b)
            power *= 2.0
            tail += power * cn * cn
            if abs(a - b) <= _EPS * a:
                break
        big_k = pi / (2.0 * a)
        if with_head:
            return big_k * (0.5 * (1.0 - kp) * (1.0 + kp) + tail) / _PI2
        return 4.0 * big_k * tail / _PI2

    return value


# kind: (c, d, evaluator).  Near x = 0 the kernel behaves like
# c * (log(16/|x|) + d), which feeds the analytic value of the singular
# head panel [0, eps] and the underflow case of the evaluator.
_KERNELS = KindTable("density", {
    kind: (c, d, _evaluator(kind, c, d))
    for kind, c, d in (("aa", 1.0 / _TWO_PI2, 0.0),
                       ("wa", 1.0 / _PI2, -1.0),
                       ("ww", 2.0 / _PI2, -2.0))
})


def density(kind: str, x: float) -> float:
    """Pointwise value of a product density.

    All three kinds diverge logarithmically at x = 0 (K(xi) blows up as
    log(16/|x|)); the exact center returns +inf as an explicit marker.
    Outside [-4, 4] the value is 0, and a NaN x raises ValueError.  On
    0 < |x| < 4 the relative error is below 2e-15 for every kind, also
    near |x| = 4 where wa and ww tend to 0 (see :func:`_evaluator`).
    """
    return _KERNELS[kind][2](x)


def arcsine_density(x: float) -> float:
    """Density of the arcsine law on (-2, 2); +inf at the endpoints."""
    t = 4.0 - x * x
    if t < 0.0:
        return 0.0
    if t == 0.0:
        return inf
    return 1.0 / (pi * sqrt(t))


def semicircle_density(x: float) -> float:
    """Density of the semicircle law on [-2, 2]."""
    t = 4.0 - x * x
    if t <= 0.0:
        return 0.0
    return sqrt(t) / (2.0 * pi)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature

# 15-point Kronrod rule on [-1, 1]: (node, Kronrod weight, Gauss weight)
# for the positive nodes, whose Gauss weight is None off the embedded
# 7-point Gauss rule, and the two weights of the center node.
_GK_NODES = (
    (0.9914553711208126, 0.02293532201052922, None),
    (0.9491079123427585, 0.06309209262997855, 0.1294849661688697),
    (0.8648644233597691, 0.1047900103222502, None),
    (0.7415311855993944, 0.1406532597155259, 0.2797053914892767),
    (0.5860872354676911, 0.1690047266392679, None),
    (0.4058451513773972, 0.1903505780647854, 0.3818300505051189),
    (0.2077849550078985, 0.2044329400752989, None),
)
_GK_CENTER = (0.2094821410847278, 0.4179591836734694)

DEFAULT_PANEL_BUDGET = 100_000


def _gk_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    # Kronrod nodes are interior, so f is never evaluated at a or b.
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    resk = _GK_CENTER[0] * fc
    resg = _GK_CENTER[1] * fc
    for node, wk, wg in _GK_NODES:
        x = half * node
        pair = f(mid - x) + f(mid + x)
        resk += wk * pair
        if wg is not None:
            resg += wg * pair
    resk *= half
    resg *= half
    return resk, abs(resk - resg)


def _check_tol(name: str, tol: float, share: float = 1.0) -> None:
    # share * tol is the tolerance handed to adaptive_quadrature, which a
    # subnormal tol can round to 0
    if not 0.0 < share * tol < inf:
        if 0.0 < tol < inf:
            raise ValueError(f"{name} is too small, got {tol!r}: "
                             f"{share} * {name} rounds to 0")
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        abs_tol: float = 1e-9, rel_tol: float = 1e-9,
                        panel_budget: int = DEFAULT_PANEL_BUDGET) -> float:
    """Integral of f over [a, b] by globally adaptive bisection.

    The worst panel (by the Kronrod-Gauss error estimate) is split until
    the summed estimate meets max(abs_tol, rel_tol * |integral|).
    Integrable endpoint singularities are handled by the geometric panel
    refinement itself.  Splitting a panel that outweighs the rest cancels
    in the running sums, so convergence is re-checked on exact sums
    (``math.fsum``), and the loop goes on from them if it fails.  Raises
    NumericalError when the panel budget is exhausted first, when a panel
    shrinks to zero width, or when the integral or its error estimate is
    not finite.  abs_tol and rel_tol must be finite and > 0.
    """
    _check_tol("abs_tol", abs_tol)
    _check_tol("rel_tol", rel_tol)
    if b <= a:
        return 0.0
    val, err = _gk_panel(f, a, b)
    panels = 1
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    total_val, total_err = val, err
    while True:
        while total_err > max(abs_tol, rel_tol * abs(total_val)):
            if panels + 2 > panel_budget:
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
        # a NaN estimate ends the loop as if it had converged
        if not (isfinite(total_val) and isfinite(total_err)):
            raise NumericalError(
                f"quadrature on [{a}, {b}] produced a non-finite value {total_val!r} "
                f"(error estimate {total_err!r})")
        exact_val, exact_err = fsum(p[4] for p in heap), fsum(p[5] for p in heap)
        tol = max(abs_tol, rel_tol * abs(exact_val))
        if exact_err <= tol and abs(total_val - exact_val) <= tol:
            return total_val
        total_val, total_err = exact_val, exact_err


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
    is raised instead of returning an inaccurate value.  tol must be
    finite and > 0, and 0.5 * tol must not round to 0.
    """
    _check_tol("tol", tol, 0.5)
    if not x > 0.0:
        raise ValueError("convolution point must be positive; use symmetry for x < 0")
    if x >= 4.0:
        return 0.0
    if ((2.0 - 0.5 * x) * tol < _EDGE_RESOLUTION
            and (isinf(f(2.0)) or isinf(g(2.0)))):
        raise NumericalError(
            f"Mellin convolution at x={x!r} is too close to the support edge 4 "
            f"to reach tol={tol!r}: [x/2, 2] is narrower than rounding at a "
            f"singular kernel edge allows; use a larger tol or a smaller x")
    hi = log(2.0)
    lo = log(x) - hi
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def integrand(t: float) -> float:
        y = exp(c - r * cos(t))
        v = f(x / y) * g(y) * r * sin(t)
        # y can round onto a factor's edge singularity (x/y or y landing
        # exactly on 2.0); the true contribution of that measure-zero point
        # is finite, so drop it rather than poison the sum
        return v if isfinite(v) else 0.0

    val = adaptive_quadrature(integrand, 0.0, pi,
                              abs_tol=0.5 * tol, rel_tol=0.5 * tol)
    return 2.0 * val


_HEAD_EPS = 1e-6


def density_moment(kind: str, m: int, tol: float = 1e-9) -> float:
    """Moment integral x^m against a product density over [-4, 4].

    Only even orders are meaningful for these symmetric kernels; odd m is
    rejected, and so is m > 510, where x^m overflows near 4.  The
    logarithmic singularity at 0 is integrated analytically on
    [0, 1e-6] from the leading asymptotics; the rest is adaptive
    quadrature.  Absolute error is below tol * max(1, result), for a
    finite tol > 0 whose quarter does not round to 0.
    """
    c, d, value = _KERNELS[kind]
    if m < 0 or m % 2:
        raise ValueError("moment order must be even and nonnegative")
    if m > 510:
        raise ValueError(f"moment order {m} exceeds 510: x^m overflows a float near 4")
    _check_tol("tol", tol, 0.25)
    eps = _HEAD_EPS
    head = c * eps ** (m + 1) / (m + 1) * (log(16.0 / eps) + 1.0 / (m + 1) + d)

    def integrand(x: float) -> float:
        return x ** m * value(x)

    tail = adaptive_quadrature(integrand, eps, 4.0,
                               abs_tol=0.25 * tol, rel_tol=0.25 * tol)
    return 2.0 * (head + tail)
