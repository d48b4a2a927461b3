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

The rows of the paper's table are product strings such as ``"Z ⊗ P_n"``:
:func:`product_law` folds the laws of the 1-D factors, which
:data:`FACTORS` declares with their graphs, by ``MellinConv`` over ⊗ and
``ClassicalConv`` over □.  The lattice closed forms, the product
densities and the ``moments`` kinds are all such strings.

A law whose ``symmetric`` is true has every odd moment exactly 0: the
even laws and ``Discrete``, a Mellin convolution with a symmetric factor,
and a classical convolution of two.  ``ClassicalConv`` steps past the odd
orders of a symmetric left factor without asking for them.

An order is a nonnegative int (:func:`latticewalks.errors.check_order`).
A float moment (of ``Discrete``, or a convolution with a ``Discrete``
factor) beyond the float range is a NumericalError.

The exact even moments M_{2h} of the three 1-D factors' laws are kept in
bounded LRU caches (:func:`functools.lru_cache`) of 4096 entries each:
:func:`central_binomial` binom(2h, h) for the line Z (``ArcSine.even``),
:func:`catalan` binom(2h, h)/(h+1) for the half line Z+
(``Semicircle.even``), and :func:`path_closed_walks` for the path P_n
(``PathSpectrum(n).even(h)`` reads it at m = 2h).  A lookup is thread
safe, the least recently used entry goes first, and the caches are typed,
so a float equal to a cached int is never served.

Distributions here are compactly supported, so equality of all moments is
equality of distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from math import comb, cos, fsum, inf, isfinite, perm, pi, sin
from typing import Callable, NamedTuple

from . import elliptic, graphs
from .errors import KindTable, NumericalError, check_order, check_path

Number = int | float


#: The entries each exact-moment cache keeps.
_MOMENT_CACHE_SIZE = 4096

# (m, binomial(2m, m)) for the m computed last; every write is a correct
# pair, so a thread that reads a stale one only calls comb
_last_central = (0, 1)


@lru_cache(maxsize=_MOMENT_CACHE_SIZE, typed=True)
def central_binomial(m: int) -> int:
    """binomial(2m, m), the closed-walk count at any vertex of the line:
    c_m = c_{m-1} (4m - 2) / m, at O(digits) cost, when c_{m-1} was the
    value computed last, and ``comb(2m, m)`` otherwise."""
    global _last_central
    k, c = _last_central
    c = c * (4 * m - 2) // m if k == m - 1 and type(m) is int else comb(2 * m, m)
    _last_central = (m, c)
    return c


@lru_cache(maxsize=_MOMENT_CACHE_SIZE, typed=True)
def catalan(m: int) -> int:
    """The m-th Catalan number, the closed-walk count at the end of a ray."""
    return central_binomial(m) // (m + 1)


@lru_cache(maxsize=_MOMENT_CACHE_SIZE, typed=True)
def path_closed_walks(n: int, m: int) -> int:
    """Closed m-walks at the first vertex of the n-vertex path, exactly.

    By the reflection principle for walks confined between two absorbing
    barriers p = n+1 apart, the count for m = 2h is

        sum_j [B(h + jp) - B(h + jp - 1)],    B = binom(m, .).

    B is symmetric about h, so the terms j and -j pair up:

        B(h) - B(h-1) + sum_{k = h+p, h+2p, ...} [2B(k) - B(k-1) - B(k+1)],

    and B(k-1), B(k+1) are B(k) times k/(m-k+1) and (m-k)/(k+1), so a
    pair costs one binomial: B(k) (m + 2 - (2k-m)^2) / ((k+1)(m-k+1)),
    an exact division.  The first term is the Catalan number C_h, and
    k = m+1 contributes -B(m) = -1.  The binomials step from
    B(h) by B(k) = B(k-p) (m-k+p)!/(m-k)! / (k!/(k-p)!).  This
    is deliberately independent of the ball machinery so it can serve as
    the 1-D factor in product closed forms.
    """
    check_path(n)
    check_order(m, "walk length")
    if m % 2:
        return 0
    h, p = m // 2, n + 1
    b = comb(m, h)
    total = b // (h + 1)
    for k in range(h + p, m + 1, p):
        b = b * perm(m - k + p, p) // perm(k, p)
        total += b * (m + 2 - (2 * k - m) ** 2) // ((k + 1) * (m - k + 1))
    if (h + 1) % p == 0:
        total -= 1
    return total


class _EvenLaw:
    """A symmetric law whose even moment M_{2h} is ``even(h)``."""

    symmetric = True

    def moment(self, m: int) -> int:
        check_order(m, "moment order")
        return 0 if m % 2 else self.even(m // 2)


class _FloatRange:
    """A law whose moment(m) is ``_moment(m)`` at a checked order; a float
    moment beyond the float range (an OverflowError or an inf) is a
    NumericalError."""

    def moment(self, m: int) -> Number:
        check_order(m, "moment order")
        try:
            value = self._moment(m)
        except OverflowError:
            value = inf
        if type(value) is float and not isfinite(value):
            raise NumericalError(f"moment order {m} overflows a float")
        return value


class ArcSine(_EvenLaw):
    """Arcsine law on (-2, 2): density 1/(pi sqrt(4-x^2)).

    Even moments are central binomials; this is the spectral distribution
    of the integer line at any vertex.
    """

    density = staticmethod(elliptic.arcsine_density)
    even = staticmethod(central_binomial)


class Semicircle(_EvenLaw):
    """Semicircle law on [-2, 2]: density sqrt(4-x^2)/(2 pi).

    Even moments are Catalan numbers; this is the spectral distribution of
    the half line at its endpoint.
    """

    density = staticmethod(elliptic.semicircle_density)
    even = staticmethod(catalan)


class Discrete(_FloatRange):
    """Finitely supported symmetric distribution given by (atom, weight) pairs.

    Validated on construction: atoms and weights are finite, weights sum
    to 1 within 1e-12, no weight below -1e-10 (tiny negatives absorb
    rounding), and atoms come in +-lambda pairs of equal weight (atoms at
    0 may be unpaired).  A moment beyond the float range is a NumericalError.
    """

    symmetric = True

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

    def _moment(self, m: int) -> float:
        # the +-lambda pairs cancel odd moments exactly; fsum rounds the sum
        # once, the same on every Python version
        return 0.0 if m % 2 else fsum(w * a ** m for a, w in self.atoms)


def _symmetric(law) -> bool:
    # whether law says its odd moments are all 0; a walk table knows them
    # only up to its length, so it does not
    return getattr(law, "symmetric", False)


class ClassicalConv(_FloatRange):
    """Classical convolution: moments obey the binomial convolution.  It
    is symmetric when both factors are."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.symmetric = _symmetric(left) and _symmetric(right)

    def _moment(self, m: int) -> Number:
        # binom(m, k) steps along the row, exactly; over a symmetric left
        # law k steps by 2 past its odd moments, and any term whose left
        # moment is 0 is skipped
        left, right = self.left.moment, self.right.moment
        step = 2 if _symmetric(self.left) else 1
        total, c = 0, 1
        for k in range(0, m + 1, step):
            lk = left(k)
            if lk:
                total += c * lk * right(m - k)
            c = c * perm(m - k, step) // perm(k + step, step)
        return total


class MellinConv(_FloatRange):
    """Multiplicative (Mellin) convolution: moments multiply entrywise.  It
    is symmetric when either factor is."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.symmetric = _symmetric(left) or _symmetric(right)

    def _moment(self, m: int) -> Number:
        return self.left.moment(m) * self.right.moment(m)


# ---------------------------------------------------------------------------
# finite path spectra


@dataclass(frozen=True)
class PathSpectrum(_EvenLaw):
    """Spectral distribution of the n-vertex path at an end vertex.

    Eigenvalues are 2 cos(k pi / (n+1)), k = 1..n; the weight of each is
    the squared end-vertex entry of its normalized eigenvector,
    2/(n+1) sin^2(k pi / (n+1)).  Moments are the exact closed-walk
    counts at the end vertex, read from :func:`path_closed_walks` at O(m)
    cost; the eigen data, built when read, reproduce them in floating point.
    """

    n: int

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(2.0 * cos(k * pi / (self.n + 1)) for k in range(1, self.n + 1))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(2.0 / (self.n + 1) * sin(k * pi / (self.n + 1)) ** 2
                     for k in range(1, self.n + 1))

    def even(self, h: int) -> int:
        return path_closed_walks(self.n, 2 * h)

    def to_discrete(self) -> Discrete:
        return Discrete(zip(self.eigenvalues, self.weights))


def path_spectrum(n: int) -> PathSpectrum:
    """The spectral law of the n-vertex path at an end vertex."""
    if not isinstance(n, int):
        raise ValueError(f"path spectrum needs an integer n, got {n!r}")
    if n < 2:
        raise ValueError("path spectrum needs n >= 2")
    return PathSpectrum(n)


# ---------------------------------------------------------------------------
# the paper's table: product strings and their laws


class Factor(NamedTuple):
    """A 1-D factor's graph and law, built from p, the path's vertex count."""

    graph: Callable[[int | None], graphs.ImplicitGraph]
    law: Callable[[int | None], _EvenLaw]


#: The 1-D factors.  The path is graphs.path_graph, the lattice
#: 0 <= x <= p-1, so a fold check builds only the ball it reads; path_graph
#: and path_spectrum are looked up at call time.
FACTORS = KindTable("factor", {
    "Z": Factor(lambda p: graphs.integer_line(), lambda p: ArcSine()),
    "Z+": Factor(lambda p: graphs.half_line(), lambda p: Semicircle()),
    "P": Factor(lambda p: graphs.path_graph(p), lambda p: path_spectrum(p)),
})


@lru_cache(maxsize=64)
def product_terms(s: str) -> tuple[tuple[tuple[str, str], ...], ...]:
    """The □ terms of a product string such as ``"(Z+ ⊗ Z+) □ Z+"``, each
    its ⊗ factors as (factor, parameter) pairs, ``P_n`` as ("P", "n") and
    Z as ("Z", "").  ⊗ binds tighter than □.  The last 64 parses are kept."""
    return tuple(tuple(f.strip(" ()").partition("_")[::2] for f in term.split("⊗"))
                 for term in s.split("□"))


def product_params(s: str) -> tuple[str, ...]:
    """The parameters the factors of a product string read, in order."""
    return tuple(p for term in product_terms(s) for _, p in term if p)


def product_law(s: str, **params):
    """The law of a product string: its factors' laws folded left to right,
    by ``MellinConv`` over ⊗ and ``ClassicalConv`` over □."""
    return reduce(ClassicalConv, [
        reduce(MellinConv, [FACTORS[f].law(params.get(p)) for f, p in term])
        for term in product_terms(s)])


#: The product densities on [-4, 4], whose pointwise values
#: :func:`latticewalks.elliptic.density` evaluates: the rows z2, halfplane
#: (factors in the Mellin sweep's order) and wedge.
PRODUCT_FACTORS = KindTable("density", {"aa": "Z ⊗ Z", "wa": "Z+ ⊗ Z", "ww": "Z+ ⊗ Z+"})


class NamedDensity:
    """One of the three product densities on [-4, 4], by its law; pointwise
    values live in :mod:`latticewalks.elliptic`."""

    def __init__(self, kind: str):
        self.law = product_law(PRODUCT_FACTORS[kind])

    def moment(self, m: int) -> Number:
        return self.law.moment(m)


#: The laws of the CLI's ``moments`` kinds, by their products.
MOMENT_LAWS = KindTable("moment", {
    "arcsine": "Z", "semicircle": "Z+", **PRODUCT_FACTORS,
    "classical-aa": "Z □ Z", "classical-ww": "Z+ □ Z+", "path": "P_n"})


def moment_law(kind: str, n: int | None = None):
    """The law of a named kind in :data:`MOMENT_LAWS`; ``path`` requires
    the path's vertex count ``n``, and no other kind takes it."""
    product = MOMENT_LAWS[kind]
    return product_law(product, **MOMENT_LAWS.params(kind, product_params(product), n=n))
