"""Spectral distributions of rooted graphs, handled at the moment level.

A symmetric probability distribution is represented by whatever computes
its moments: the arcsine and semicircle laws have exact integer even
moments (central binomials and Catalan numbers), finite graphs have
discrete eigenvalue distributions, and products of graphs correspond to
products of distributions:

* Cartesian product  ->  classical convolution (binomial moment convolution)
* Kronecker product  ->  Mellin convolution (momentwise product)

Distributions here are compactly supported, so equality of all moments is
equality of distributions; ``weak_equality_by_moments`` is the workhorse
comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, cos, pi

import numpy as np

from .errors import NumericalError
from .walks import catalan

Number = int | float


def _check_order(m: int) -> None:
    if m < 0:
        raise ValueError("moment order must be nonnegative")


class SpectralDistribution:
    """Base type: anything exposing exact or high-precision moments."""

    name = "distribution"

    def moment(self, m: int) -> Number:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ArcSine(SpectralDistribution):
    """Arcsine law on (-2, 2): density 1/(pi sqrt(4-x^2)).

    Even moments are central binomials; this is the spectral distribution
    of the integer line at any vertex.
    """

    name = "arcsine"

    def moment(self, m: int) -> int:
        _check_order(m)
        return 0 if m % 2 else comb(m, m // 2)


class Semicircle(SpectralDistribution):
    """Semicircle law on [-2, 2]: density sqrt(4-x^2)/(2 pi).

    Even moments are Catalan numbers; this is the spectral distribution of
    the half line at its endpoint.
    """

    name = "semicircle"

    def moment(self, m: int) -> int:
        _check_order(m)
        return 0 if m % 2 else catalan(m // 2)


class Discrete(SpectralDistribution):
    """Finitely supported symmetric distribution given by (atom, weight) pairs.

    Validated on construction: weights sum to 1 within 1e-12, no weight
    below -1e-10 (tiny negatives absorb linear-solver noise), and atoms
    come in +-lambda pairs of equal weight (atoms at 0 may be unpaired).
    """

    name = "discrete"

    def __init__(self, atoms):
        pairs = sorted((float(a), float(w)) for a, w in atoms)
        if not pairs:
            raise ValueError("discrete distribution needs at least one atom")
        total = sum(w for _, w in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        if any(w < -1e-10 for _, w in pairs):
            raise ValueError("atom weights must be nonnegative (up to solver noise)")
        for a, w in pairs:
            if abs(a) <= 1e-9:
                continue
            partner = [w2 for a2, w2 in pairs if abs(a2 + a) <= 1e-9]
            if not partner or abs(partner[0] - w) > 1e-8:
                raise ValueError(f"atom at {a} lacks a mirror atom of equal weight")
        self.atoms = tuple(pairs)

    def moment(self, m: int) -> float:
        _check_order(m)
        if m % 2:
            return 0.0  # the +-lambda pairs cancel exactly
        return sum(w * a ** m for a, w in self.atoms)


class ClassicalConv(SpectralDistribution):
    """Classical convolution: moments obey the binomial convolution."""

    name = "classical-convolution"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def moment(self, m: int) -> Number:
        _check_order(m)
        return sum(comb(m, k) * self.left.moment(k) * self.right.moment(m - k)
                   for k in range(m + 1))


class MellinConv(SpectralDistribution):
    """Multiplicative (Mellin) convolution: moments multiply entrywise."""

    name = "mellin-convolution"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def moment(self, m: int) -> Number:
        _check_order(m)
        return self.left.moment(m) * self.right.moment(m)


_NAMED_FACTORS = {
    "aa": (ArcSine, ArcSine),
    "wa": (Semicircle, ArcSine),
    "ww": (Semicircle, Semicircle),
}


class NamedDensity(SpectralDistribution):
    """One of the three product densities on [-4, 4]:

    aa = arcsine (x)M arcsine, wa = semicircle (x)M arcsine,
    ww = semicircle (x)M semicircle.  Moments delegate to the Mellin
    factorization; pointwise density values live in
    :mod:`latticewalks.elliptic`.
    """

    def __init__(self, kind: str):
        kind = kind.lower()
        if kind not in _NAMED_FACTORS:
            raise ValueError(f"unknown density kind {kind!r}; known: aa, wa, ww")
        self.kind = kind
        self.name = f"density-{kind}"
        fl, fr = _NAMED_FACTORS[kind]
        self._inner = MellinConv(fl(), fr())

    def moment(self, m: int) -> Number:
        return self._inner.moment(m)


def moment(d, m: int) -> Number:
    """Moment of order m of any distribution-like object."""
    _check_order(m)
    return d.moment(m)


def classical_convolve(a, b) -> ClassicalConv:
    return ClassicalConv(a, b)


def mellin_convolve(a, b) -> MellinConv:
    return MellinConv(a, b)


def named_density(kind: str) -> NamedDensity:
    return NamedDensity(kind)


# ---------------------------------------------------------------------------
# finite path spectra


@dataclass(frozen=True)
class PathSpectrum:
    """Spectral distribution of the n-vertex path at an end vertex.

    Eigenvalues are 2 cos(k pi / (n+1)); the weights are recovered from
    the first n closed-walk counts by a Vandermonde solve in double
    precision (partial pivoting), with the residual checked afterwards.
    """

    n: int
    eigenvalues: tuple[float, ...]
    weights: tuple[float, ...]

    def moment(self, m: int) -> float:
        _check_order(m)
        if m % 2:
            return 0.0  # the spectrum 2cos(k pi/(n+1)) is symmetric about 0
        return sum(w * lam ** m for lam, w in zip(self.eigenvalues, self.weights))

    def to_discrete(self) -> Discrete:
        return Discrete(zip(self.eigenvalues, self.weights))


#: above this size the Vandermonde system grows too ill-conditioned for
#: reliable double-precision weights
PATH_SPECTRUM_EXACT_LIMIT = 12
PATH_SPECTRUM_HARD_LIMIT = 24


def path_spectrum(n: int) -> PathSpectrum:
    """Eigenvalues and end-vertex weights of the n-vertex path.

    n is capped at 24; above n = 12 a conditioning warning is emitted
    because the Vandermonde solve loses digits.  The residual of the solve
    must stay below 1e-9 relative to the data, else NumericalError.
    """
    if n < 2:
        raise ValueError("path spectrum needs n >= 2")
    if n > PATH_SPECTRUM_HARD_LIMIT:
        raise ValueError(f"path spectrum is limited to n <= {PATH_SPECTRUM_HARD_LIMIT}")
    if n > PATH_SPECTRUM_EXACT_LIMIT:
        warnings.warn(
            f"path spectrum for n={n} solves an ill-conditioned Vandermonde "
            f"system; weights may lose digits beyond n={PATH_SPECTRUM_EXACT_LIMIT}",
            stacklevel=2)

    lams = [2.0 * cos(k * pi / (n + 1)) for k in range(1, n + 1)]
    # walk counts at the end vertex: Catalan numbers at even lengths
    b = np.array([float(catalan(m // 2)) if m % 2 == 0 else 0.0
                  for m in range(n)])
    van = np.vander(np.array(lams), n, increasing=True).T  # van[m, k] = lam_k^m
    a = np.linalg.solve(van, b)
    residual = float(np.max(np.abs(van @ a - b)))
    scale = max(1.0, float(np.max(np.abs(b))))
    if residual > 1e-9 * scale:
        cond = float(np.linalg.cond(van))
        raise NumericalError(
            f"path spectrum solve residual {residual:.3e} exceeds tolerance "
            f"(condition estimate {cond:.3e})")
    weights = [float(w) for w in a]
    if abs(sum(weights) - 1.0) > 1e-10:
        raise NumericalError("path spectrum weights do not sum to 1")
    if any(w < -1e-10 for w in weights):
        raise NumericalError("path spectrum produced a negative weight")
    return PathSpectrum(n, tuple(lams), tuple(weights))


# ---------------------------------------------------------------------------
# comparisons and export


def weak_equality_by_moments(a, b, m_max: int = 30, tol: float = 1e-9) -> bool:
    """Moments agree for all orders 0..m_max, relatively for large values.

    For compactly supported distributions this is genuine weak equality
    once m_max is large; mismatch at any single order proves inequality.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    for m in range(m_max + 1):
        ma, mb = a.moment(m), b.moment(m)
        if abs(ma - mb) > tol * max(1.0, abs(ma)):
            return False
    return True


@dataclass(frozen=True)
class MomentSequence:
    """Even-order moment list (M_0, M_2, M_4, ...) of a symmetric distribution."""

    even_moments: tuple[Number, ...]

    def __post_init__(self):
        if not self.even_moments:
            raise ValueError("moment sequence must not be empty")
        if abs(self.even_moments[0] - 1) > 1e-12:
            raise ValueError("M_0 must be 1")

    @classmethod
    def from_distribution(cls, d, m_max: int) -> "MomentSequence":
        return cls(tuple(d.moment(m) for m in range(0, m_max + 1, 2)))

    def hankel_2x2_ok(self, tol: float = 1e-9) -> bool:
        """Necessary positivity check: M_{2i} M_{2i+4} >= M_{2i+2}^2."""
        ms = self.even_moments
        for i in range(len(ms) - 2):
            a, b, c = ms[i], ms[i + 1], ms[i + 2]
            if a * c - b * b < -tol * max(1.0, abs(a * c)):
                return False
        return True


def moments_csv(d, m_max: int) -> str:
    """Moment table as CSV text: header m,moment; 15 significant digits
    for floats, full precision for exact integers."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    lines = ["m,moment"]
    for m in range(m_max + 1):
        v = d.moment(m)
        lines.append(f"{m},{v}" if isinstance(v, int) else f"{m},{v:.15g}")
    return "\n".join(lines) + "\n"
