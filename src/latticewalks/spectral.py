"""Spectral distributions of rooted graphs, handled at the moment level.

A symmetric probability distribution is represented by whatever computes
its moments, an object with a ``moment(m)`` method: the arcsine and
semicircle laws have exact integer even moments (central binomials and
Catalan numbers), finite graphs have discrete eigenvalue distributions,
and a walk table (:class:`latticewalks.walks.WalkTable`) holds the
moments of a root's law up to its length.  Products of graphs correspond
to products of distributions:

* Cartesian product  ->  classical convolution (binomial moment convolution)
* Kronecker product  ->  Mellin convolution (momentwise product)

Both act on any two laws, walk tables included, so ``MellinConv`` and
``ClassicalConv`` of two walk tables are the product graphs' tables.

Distributions here are compactly supported, so equality of all moments is
equality of distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb, cos, isfinite, pi, sin

from . import elliptic
from .errors import KindTable
from .walks import catalan, path_closed_walks

Number = int | float


def _check_order(m: int) -> None:
    if m < 0:
        raise ValueError("moment order must be nonnegative")


class ArcSine:
    """Arcsine law on (-2, 2): density 1/(pi sqrt(4-x^2)).

    Even moments are central binomials; this is the spectral distribution
    of the integer line at any vertex.
    """

    density = staticmethod(elliptic.arcsine_density)

    def moment(self, m: int) -> int:
        _check_order(m)
        return 0 if m % 2 else comb(m, m // 2)


class Semicircle:
    """Semicircle law on [-2, 2]: density sqrt(4-x^2)/(2 pi).

    Even moments are Catalan numbers; this is the spectral distribution of
    the half line at its endpoint.
    """

    density = staticmethod(elliptic.semicircle_density)

    def moment(self, m: int) -> int:
        _check_order(m)
        return 0 if m % 2 else catalan(m // 2)


class Discrete:
    """Finitely supported symmetric distribution given by (atom, weight) pairs.

    Validated on construction: atoms and weights are finite, weights sum
    to 1 within 1e-12, no weight below -1e-10 (tiny negatives absorb
    rounding in computed weights), and atoms come in +-lambda pairs of
    equal weight (atoms at 0 may be unpaired).
    """

    def __init__(self, atoms):
        pairs = sorted((float(a), float(w)) for a, w in atoms)
        if not pairs:
            raise ValueError("discrete distribution needs at least one atom")
        if not all(map(isfinite, chain.from_iterable(pairs))):
            raise ValueError("atoms and weights must be finite")
        total = sum(w for _, w in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        if any(w < -1e-10 for _, w in pairs):
            raise ValueError("atom weights must be nonnegative (up to rounding)")
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


class ClassicalConv:
    """Classical convolution: moments obey the binomial convolution."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def moment(self, m: int) -> Number:
        _check_order(m)
        return sum(comb(m, k) * self.left.moment(k) * self.right.moment(m - k)
                   for k in range(m + 1))


class MellinConv:
    """Multiplicative (Mellin) convolution: moments multiply entrywise."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def moment(self, m: int) -> Number:
        _check_order(m)
        return self.left.moment(m) * self.right.moment(m)


#: The factor laws of each product density on [-4, 4], whose pointwise
#: values :func:`latticewalks.elliptic.density` evaluates.
PRODUCT_FACTORS = KindTable("density", {
    "aa": (ArcSine, ArcSine),
    "wa": (Semicircle, ArcSine),
    "ww": (Semicircle, Semicircle),
})


class NamedDensity:
    """One of the three product densities on [-4, 4]:

    aa = arcsine (x)M arcsine, wa = semicircle (x)M arcsine,
    ww = semicircle (x)M semicircle.  Moments delegate to the Mellin
    factorization; pointwise density values live in
    :mod:`latticewalks.elliptic`.
    """

    def __init__(self, kind: str):
        fl, fr = PRODUCT_FACTORS[kind]
        self._inner = MellinConv(fl(), fr())

    def moment(self, m: int) -> Number:
        return self._inner.moment(m)


# ---------------------------------------------------------------------------
# finite path spectra


@dataclass(frozen=True)
class PathSpectrum:
    """Spectral distribution of the n-vertex path at an end vertex.

    Eigenvalues are 2 cos(k pi / (n+1)), k = 1..n; the weight of each is
    the squared end-vertex entry of its normalized eigenvector,
    2/(n+1) sin^2(k pi / (n+1)).  Moments are the exact closed-walk
    counts at the end vertex; the eigen data reproduce them in floating
    point (see :meth:`to_discrete`).
    """

    n: int
    eigenvalues: tuple[float, ...]
    weights: tuple[float, ...]

    def moment(self, m: int) -> int:
        _check_order(m)
        return path_closed_walks(self.n, m)

    def to_discrete(self) -> Discrete:
        return Discrete(zip(self.eigenvalues, self.weights))


def path_spectrum(n: int) -> PathSpectrum:
    """Eigenvalues and end-vertex weights of the n-vertex path, in closed form."""
    if n < 2:
        raise ValueError("path spectrum needs n >= 2")
    angles = [k * pi / (n + 1) for k in range(1, n + 1)]
    lams = tuple(2.0 * cos(a) for a in angles)
    weights = tuple(2.0 / (n + 1) * sin(a) ** 2 for a in angles)
    return PathSpectrum(n, lams, weights)


#: The laws whose moment tables the CLI's ``moments`` command prints:
#: kind -> (parameters it requires, builder of the law from them).  The
#: builders look path_spectrum up at call time, so a wrapped
#: path_spectrum sees every path law built here.
MOMENT_LAWS = KindTable("moment", {
    "arcsine": ((), ArcSine),
    "semicircle": ((), Semicircle),
    **{kind: ((), lambda kind=kind: NamedDensity(kind)) for kind in PRODUCT_FACTORS},
    "classical-aa": ((), lambda: ClassicalConv(ArcSine(), ArcSine())),
    "classical-ww": ((), lambda: ClassicalConv(Semicircle(), Semicircle())),
    "path": (("n",), lambda n: path_spectrum(n)),
})


def moment_law(kind: str, n: int | None = None):
    """The law of a named kind in :data:`MOMENT_LAWS`; ``path`` requires
    the path's vertex count ``n``, and no other kind takes it."""
    requires, build = MOMENT_LAWS[kind]
    return build(**MOMENT_LAWS.params(kind, requires, n=n))
