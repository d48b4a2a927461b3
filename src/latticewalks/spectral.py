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
:func:`product_law` folds the laws of the 1-D factors (Z arcsine, Z+
semicircle, P_p ``path_spectrum(p)``) by ``MellinConv`` over ⊗ and
``ClassicalConv`` over □.  The lattice closed forms, the product
densities and the ``moments`` kinds are all such strings.

The laws of the three 1-D factors keep their exact even moments
M_{2h} in per-process columns (:class:`EvenMoments`), filled lazily by
exact recurrences: ``ArcSine.even`` (the line Z) by c_h = c_{h-1}
(4h-2)/h, ``Semicircle.even`` (the half line Z+) by C_h = C_{h-1}
(4h-2)/(h+1), and ``path_even_moments(n)`` (the path P_n), one column per
n, by :func:`path_closed_walks`.  A column grows only to lengths asked for
in turn: a lone request more than twice past its end is computed directly
and not cached.  It grows by rebinding a longer tuple, never in place, so
a concurrent reader always sees a valid prefix.  The process keeps at most
``_PATH_COLUMN_CAP`` (64) path columns: the column of a new n first drops
the oldest, so the path columns hold the memory of at most 64 columns,
however many n were asked for.

Distributions here are compactly supported, so equality of all moments is
equality of distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from math import comb, cos, isfinite, perm, pi, sin
from typing import Callable

from . import elliptic
from .errors import KindTable, check_path

Number = int | float


def _check_order(m: int) -> None:
    if m < 0:
        raise ValueError("moment order must be nonnegative")


class EvenMoments:
    """The even moments of one law, a column whose entry h is M_{2h}:
    ``direct(h)`` computes it alone, ``step(h, entry h-1)`` from the one
    before, and ``values`` holds the cached prefix."""

    def __init__(self, direct: Callable[[int], int], step: Callable[[int, int], int]):
        self.direct, self.step, self.values = direct, step, (1,)

    def __getitem__(self, h: int) -> int:
        values = self.values
        if 0 <= h < len(values):
            return values[h]
        _check_order(h)
        return self.direct(h) if h > 2 * len(values) else self.upto(h)[h]

    def upto(self, h: int) -> tuple[int, ...]:
        """The column through entry h at least, extended to it if shorter."""
        values = self.values
        if h >= len(values):
            new, last = [], values[-1]
            for i in range(len(values), h + 1):
                last = self.step(i, last)
                new.append(last)
            self.values = values = values + tuple(new)
        return values


class _EvenLaw:
    """A symmetric law whose even moments are its column ``even``."""

    def moment(self, m: int) -> int:
        _check_order(m)
        return 0 if m % 2 else self.even[m // 2]


class ArcSine(_EvenLaw):
    """Arcsine law on (-2, 2): density 1/(pi sqrt(4-x^2)).

    Even moments are central binomials; this is the spectral distribution
    of the integer line at any vertex.
    """

    density = staticmethod(elliptic.arcsine_density)
    even = EvenMoments(lambda h: comb(2 * h, h), lambda h, c: c * (4 * h - 2) // h)


class Semicircle(_EvenLaw):
    """Semicircle law on [-2, 2]: density sqrt(4-x^2)/(2 pi).

    Even moments are Catalan numbers; this is the spectral distribution of
    the half line at its endpoint.
    """

    density = staticmethod(elliptic.semicircle_density)
    even = EvenMoments(lambda h: comb(2 * h, h) // (h + 1),
                       lambda h, c: c * (4 * h - 2) // (h + 1))


def central_binomial(m: int) -> int:
    """binomial(2m, m), the closed-walk count at any vertex of the line."""
    return ArcSine.even[m]


def catalan(m: int) -> int:
    """The m-th Catalan number, the closed-walk count at the end of a ray."""
    return Semicircle.even[m]


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
    if m < 0:
        raise ValueError("walk length must be nonnegative")
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


_PATH_COLUMN_CAP = 64
_PATH_COLUMNS: dict[int, EvenMoments] = {}


def path_even_moments(n: int) -> EvenMoments:
    """The even-moment column of the n-vertex path at an end vertex."""
    column = _PATH_COLUMNS.get(n)
    if column is None:
        check_path(n)

        def entry(h: int, _=None) -> int:
            return path_closed_walks(n, 2 * h)

        cached = list(_PATH_COLUMNS)
        for old in cached[:max(0, len(cached) + 1 - _PATH_COLUMN_CAP)]:
            _PATH_COLUMNS.pop(old, None)
        column = _PATH_COLUMNS.setdefault(n, EvenMoments(entry, entry))
    return column


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
        # binom(m, k) steps along the row, exactly; a term whose left
        # moment is 0 (every odd k of a symmetric law) is skipped
        left, right = self.left.moment, self.right.moment
        total, c = 0, 1
        for k in range(m + 1):
            lk = left(k)
            if lk:
                total += c * lk * right(m - k)
            c = c * (m - k) // (k + 1)
        return total


class MellinConv:
    """Multiplicative (Mellin) convolution: moments multiply entrywise."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def moment(self, m: int) -> Number:
        _check_order(m)
        return self.left.moment(m) * self.right.moment(m)


# ---------------------------------------------------------------------------
# finite path spectra


@dataclass(frozen=True)
class PathSpectrum(_EvenLaw):
    """Spectral distribution of the n-vertex path at an end vertex.

    Eigenvalues are 2 cos(k pi / (n+1)), k = 1..n; the weight of each is
    the squared end-vertex entry of its normalized eigenvector,
    2/(n+1) sin^2(k pi / (n+1)).  Moments are the exact closed-walk
    counts at the end vertex, read from :func:`path_even_moments` at O(m)
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

    @property
    def even(self) -> EvenMoments:
        return path_even_moments(self.n)

    def to_discrete(self) -> Discrete:
        return Discrete(zip(self.eigenvalues, self.weights))


def path_spectrum(n: int) -> PathSpectrum:
    """The spectral law of the n-vertex path at an end vertex."""
    if n < 2:
        raise ValueError("path spectrum needs n >= 2")
    return PathSpectrum(n)


# ---------------------------------------------------------------------------
# the paper's table: product strings and their laws


#: The law of each 1-D factor, built from p, the path's vertex count.
#: path_spectrum is looked up at call time, so a wrapped one sees every
#: path law built here.
_FACTOR_LAWS = KindTable("factor", {
    "Z": lambda p: ArcSine(),
    "Z+": lambda p: Semicircle(),
    "P": lambda p: path_spectrum(p),
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
        reduce(MellinConv, [_FACTOR_LAWS[f](params.get(p)) for f, p in term])
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
