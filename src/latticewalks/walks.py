"""Exact closed-walk counting and the combinatorial closed forms.

The number of length-m closed walks at a root o equals the (o,o) entry of
the m-th adjacency power.  Every count here is an arbitrary-precision int,
computed on a ball of radius R = floor(m/2) around o.  The adjacency A is
symmetric, so with u_h = A^h e_o the counts come by half steps:

    count[2h] = <u_h, u_h>,    count[2h+1] = <u_h, u_{h+1}>,

which needs ceil(m/2) integer matrix-vector products instead of m.  u_h
lives on the vertices of depth <= h, a prefix of the ball's layer order,
so each product starts from that prefix only.  The ball loses nothing:
a walk of length h <= R never leaves it, and the entries of u_{R+1} that
the last odd count reads lie at depth <= R, where a walk of length R+1
ends only if it never left the ball.  Identities are asserted with
big-integer equality, never floating point.

Every named lattice is bipartite, and so is any ball in which no edge
links two vertices of equal depth: its even and its odd layers are the
colour classes, and u_h lives on the class of h's parity.  One scan of
the ball's rows tells which case holds.  Then each class gets its own
index space, in layer order; a product scatters from u_h on one class
into u_{h+1} on the other, count[2h] sums over one class, and
count[2h+1] is exactly 0, since u_h and u_{h+1} have disjoint supports.
A ball with an edge inside a layer (it closes an odd cycle) runs the
same loop with one class holding every vertex, and its odd counts are
the dot products above.

When the graph carries a symmetry (a group of automorphisms) that fixes
o, u_h is constant on each orbit, so the products run on one
representative per orbit: (B u)[r] sums u[canon(w)] over the neighbours
w of r.  The half-step identity holds with orbit sizes as weights,

    count[2h] = sum |orb| u_h^2,    count[2h+1] = sum |orb| u_h u_{h+1},

and the vertex budget counts the vertices the representatives stand for,
so it fails where the ball would.  An automorphism that fixes o keeps
depth, so the parity classes split the representatives the same way.
Each named kind's row states its root and its symmetry, if any: the
signed coordinate permutations or a mirror through the root.

A ball whose rows form a path (each names at most two distinct entries,
never its own, and the rows close no cycle) takes full steps instead: the
1-D kinds, lumped or not, and the ball of any path.  Along the path the
step is the tridiagonal (Jacobi-matrix) walk recurrence of Flajolet,
*Combinatorial aspects of continued fractions* (1980),

    u_{k+1}[t] = a_t u_k[t-1] + c_t u_k[t+1],

with a_t and c_t the times row t names each neighbour (2 at lumped z's
root, 1 almost everywhere), so each of the m steps is one parity-strided
slice addition, patched where a_t or c_t is not 1, and count[k] = u_k[o]
needs no product, since o's orbit is o alone.  Step k writes only the
entries within r = min(k, m-k) of o at k's parity, and that is exact: u_k
vanishes at the other parity and beyond distance k, and a later count
u_j[o], j <= m, reads u_k only within distance j - k <= m - k of o.

A walk table is the moment sequence of the root's spectral law, so the
product theorems are the laws' convolutions: ``spectral.MellinConv`` of
two tables multiplies them into the Kronecker product's table, and
``spectral.ClassicalConv`` convolves them binomially into the Cartesian
product's.

Each named kind is declared once by its row of the paper's table, a
product string (see :mod:`latticewalks.spectral`) of the 1-D factors Z, Z+
and P_n, and its closed form is a moment of that string's law, or of the
even law of its own form.  :func:`fold_map` folds a 2-D Kronecker kind
onto its factors' graphs, which ``spectral.FACTORS`` declares beside
their laws.  A walk length, like any order, is a nonnegative int
(:func:`latticewalks.errors.check_order`).
Half-step indexing skips the odd moments, which are exactly 0: a walk of
even length m = 2h on a bipartite lattice decomposes into h up/down or
in/out pairs, which is where central binomials and Catalan numbers enter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import chain
from operator import add, mul
from typing import Callable, Sequence

from . import graphs
from .errors import KindTable, check_order
from .graphs import (DEFAULT_VERTEX_BUDGET, SIGNED_PERMUTATIONS, Coords, Graph,
                     IsoMap, Symmetry, ball, reflection)
from .spectral import (FACTORS, _EvenLaw, catalan, central_binomial, path_closed_walks,
                       product_law, product_params, product_terms)

__all__ = ["FOLD_KINDS", "LatticeKind", "WalkTable", "build_lattice", "catalan",
           "central_binomial", "closed_form_walks", "fold_map", "lattice_kind",
           "lattice_walk_kinds", "path_closed_walks", "verify_binomial_identity",
           "walk_count", "walk_table"]


# ---------------------------------------------------------------------------
# ball-based counting


def _parity_classes(rows: list[list[int]], depths: list[int]
                    ) -> tuple[list[Sequence[int]], Sequence[int]]:
    # The index classes the kernel iterates on, each in layer order, and
    # pos[i], entry i's place in its class.  rows[i] lists the entries
    # that i links to, at depths within one of depths[i].  When no row
    # links two equal depths, the classes are the even and the odd
    # layers: colour classes, so u_h lives on class h % 2.  Otherwise
    # one class holds every entry.
    classes: list[list[int]] = [[], []]
    pos: list[int] = []
    lo = 0
    for d in range(depths[-1] + 1):
        hi = bisect_right(depths, d, lo)
        if d in map(depths.__getitem__, chain.from_iterable(rows[lo:hi])):
            return [range(len(depths))], range(len(depths))
        cls = classes[d & 1]
        pos.extend(range(len(cls), len(cls) + hi - lo))
        cls.extend(range(lo, hi))
        lo = hi
    return classes, pos


def _dot(weights: list[int] | None, a: list[int], b: list[int], end: int) -> int:
    # sum over i < end of weights[i] a[i] b[i], unit weights for None;
    # a[i] b[i] comes first, so a[i] * a[i] takes int's squaring path
    if weights is None:
        return sum(map(mul, a[:end], b))
    return sum(map(mul, weights, map(mul, a[:end], b)))


def _diagonal_counts(classes: list[tuple[list[list[int]], list[int], list[int] | None]],
                     steps: int) -> list[int]:
    # (A^k)_{oo} for k = 0..steps by the (weighted) half-step identity of
    # the module docstring.  classes holds (rows, depths, weights) for
    # each class of _parity_classes, o at index 0 of the first: rows[i]
    # lists the indices in the next class (the other one, or itself when
    # it is alone) that entry i scatters to, and depths are
    # nondecreasing.  u and nxt are u_h and u_{h+1} over their classes,
    # and each product scatters from the depth <= h prefix.  With two
    # classes u and nxt have disjoint supports, so odd counts are 0.
    alone = len(classes) == 1
    u = [0] * len(classes[0][0])
    u[0] = 1
    out = [1]
    h = 0
    while len(out) <= steps:
        rows, depths, weights = classes[h % len(classes)]
        _, next_depths, next_weights = classes[(h + 1) % len(classes)]
        end = bisect_right(depths, h)
        nxt = [0] * len(next_depths)
        for i in range(end):
            ui = u[i]
            if ui:
                for j in rows[i]:
                    nxt[j] += ui
        out.append(_dot(weights, u, nxt, end) if alone else 0)
        h += 1
        if len(out) <= steps:
            out.append(_dot(next_weights, nxt, nxt, bisect_right(next_depths, h)))
        u = nxt
    return out


def _path_order(rows: list[list[int]]) -> list[int] | None:
    # The indices along the path that the rows form, end to end, or None
    # when they form none.  The walk out of index 0 stops at the first row
    # that names its own index or three distinct ones, or when it comes
    # back to 0 (a cycle).
    sides: list[list[int]] = [[], []]
    heads = set(rows[0])
    if len(heads) > 2 or 0 in heads:
        return None
    for side, cur in zip(sides, heads):
        prev = 0
        while cur:
            row = rows[cur]
            ahead = set(row)
            if len(ahead) > 2 or cur in ahead:
                return None
            side.append(cur)
            ahead.discard(prev)
            if not ahead:
                break
            prev, (cur,) = cur, ahead
        else:  # back at 0
            return None
    return sides[0][::-1] + [0] + sides[1]


def _path_counts(rows: list[list[int]], order: list[int], steps: int) -> list[int]:
    # (A^k)_{oo} for k = 0..steps on a path, o at index 0, by the full
    # steps of the module docstring, truncated as it says.  Places 1..n
    # hold order's entries, o at place p, and places 0 and n+1 stay 0.
    # Each step is one slice addition, then a patch at each place whose
    # row names a neighbour more than once.
    n = len(order)
    p = order.index(0) + 1
    ends = [None, *order, None]
    patches = [(t, row.count(ends[t - 1]), row.count(ends[t + 1]))
               for t, row in enumerate(map(rows.__getitem__, order), 1)
               if len(row) != (t > 1) + (t < n)]
    u, v = [0] * (n + 2), [0] * (n + 2)
    u[p] = 1
    out = [1]
    for k in range(1, steps + 1):
        r = min(k, steps - k)
        r -= (r ^ k) & 1
        lo, hi = p - r, p + r
        if lo < 1:
            lo = 2 - (lo & 1)
        if hi > n:
            hi = n - ((hi - n) & 1)
        v[lo:hi + 1:2] = map(add, u[lo - 1:hi:2], u[lo + 1:hi + 2:2])
        for t, a, c in patches:
            if lo <= t <= hi and not (t - lo) & 1:
                v[t] = a * u[t - 1] + c * u[t + 1]
        out.append(v[p])
        u, v = v, u
    return out


def walk_count(g: Graph, o, m: int,
               budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Number of closed walks of length m at vertex o, exactly: the last
    entry of :func:`walk_table`."""
    return walk_table(g, o, m, budget).counts[m]


@dataclass(frozen=True)
class WalkTable:
    """Closed-walk counts at one root for every length 0..m_max.

    The counts are the moments of the root's spectral law, so a table is
    a law of :mod:`latticewalks.spectral` over its range: the
    ``MellinConv`` and ``ClassicalConv`` of two tables are the tables of
    the Kronecker and the Cartesian product at the paired root.
    """

    counts: tuple[int, ...]

    @property
    def m_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, m: int) -> int:
        if not (isinstance(m, int) and 0 <= m <= self.m_max):
            raise ValueError(f"walk length {m!r} outside table range 0..{self.m_max}")
        return self.counts[m]

    moment = __getitem__


def walk_table(g: Graph, o, m_max: int,
               budget: int = DEFAULT_VERTEX_BUDGET) -> WalkTable:
    """Walk counts for all lengths 0..m_max from a single ball expansion,
    lumped to orbit representatives when ``g.symmetry`` fixes o: by full
    slice steps when its rows form a path, else by half steps (see the
    module docstring)."""
    check_order(m_max, "m_max")
    sym = getattr(g, "symmetry", None)
    if sym is not None and sym.fixes(o):
        rows, depths, sizes = graphs.orbit_ball(g, o, m_max // 2, budget)
    else:
        b = ball(g, o, m_max // 2, budget)
        rows, depths, sizes = b.adjacency, b.depths, None
    order = _path_order(rows)
    if order is not None:
        return WalkTable(tuple(_path_counts(rows, order, m_max)))
    classes, pos = _parity_classes(rows, depths)
    # the scatter loop needs, for each entry s, the class index of every r
    # whose row names s; on a ball's symmetric rows that is s's own row
    scatter: list[list[int]] = [[] for _ in rows]
    for pr, row in zip(pos, rows):
        for s in row:
            scatter[s].append(pr)
    counts = _diagonal_counts(
        [(list(map(scatter.__getitem__, cls)), list(map(depths.__getitem__, cls)),
          None if sizes is None else list(map(sizes.__getitem__, cls)))
         for cls in classes], m_max)
    return WalkTable(tuple(counts))


# ---------------------------------------------------------------------------
# named lattices and their closed forms


@dataclass(frozen=True)
class LatticeKind:
    """A rooted lattice or product graph with an exact closed form: the
    moments of the law of ``product``, its row of the paper's table, a
    Kronecker product (``⊗``) of Z, Z+ and P_p (the path on parameter p's
    vertices) or the Cartesian product (``□``) of two such; or, with no
    product, ``own_form(h)`` = count[2h].  ``symmetry``, when given, is a
    group of automorphisms of the graph that fixes ``root``, which
    :func:`walk_table` lumps by.  It requires the parameters its product
    reads, and ``graph`` checks their sizes."""

    key: str
    root: Coords
    symmetry: Symmetry | None
    graph: Callable[..., Graph]
    product: str
    own_form: Callable[[int], int] | None = None
    requires: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "requires", product_params(self.product))

    @property
    def dimension(self) -> int:
        return len(self.root)


# The mirrors through the corner root.  Under the fold a mirror reflects
# one Kronecker factor or swaps two equal ones.
_ANTIDIAGONAL = reflection(lambda v: (-v[1], -v[0]))
_DIAGONAL = reflection(lambda v: (v[1], v[0]))
_AXIS = reflection(lambda v: (v[0], -v[1]))

# Product builders look graphs' constructors up at call time, so a wrapped
# graphs.kronecker or graphs.cartesian sees every product they build.
# README's kind table states each kind, its product and its closed form in
# words.
_KINDS = KindTable("lattice", {lk.key: lk for lk in (
    LatticeKind("z", (0,), SIGNED_PERMUTATIONS, graphs.integer_line, "Z"),
    LatticeKind("zplus", (0,), None, graphs.half_line, "Z+"),
    LatticeKind("zplus-at-1", (1,), None, graphs.half_line, "", lambda h: catalan(h + 1)),
    LatticeKind("z2", (0, 0), SIGNED_PERMUTATIONS, graphs.full_plane, "Z ⊗ Z"),
    LatticeKind("halfplane", (0, 0), _ANTIDIAGONAL, graphs.half_plane, "Z ⊗ Z+"),
    LatticeKind("wedge", (0, 0), _AXIS, graphs.wedge, "Z+ ⊗ Z+"),
    LatticeKind("quarterplane", (0, 0), _DIAGONAL, graphs.quarter_plane, "Z+ □ Z+"),
    # the quarter plane again, built as a Cartesian product of two
    # half-lines; its closed form is the product form of the same count
    LatticeKind("zxzplus", (0, 0), _DIAGONAL,
                lambda: graphs.cartesian(graphs.half_line(), graphs.half_line()), "",
                lambda h: catalan(h) * catalan(h + 1)),
    LatticeKind("strip", (0, 0), _ANTIDIAGONAL, graphs.strip, "Z ⊗ P_n"),
    LatticeKind("diamond", (0, 0), None, graphs.diamond, "P_k ⊗ P_l"),
    LatticeKind("bcc3", (0, 0, 0), SIGNED_PERMUTATIONS,
                lambda: reduce(graphs.kronecker, [graphs.integer_line()] * 3),
                "Z ⊗ Z ⊗ Z"),
    LatticeKind("z3cartesian", (0, 0, 0), SIGNED_PERMUTATIONS,
                lambda: reduce(graphs.cartesian, [graphs.integer_line()] * 3),
                "(Z ⊗ Z) □ Z"),
    # the chamber and kkc3 count as the Cartesian product of the wedge (the
    # Kronecker square of the half line, folded) with the half line
    LatticeKind("chamber3", (0, 0, 0), reflection(lambda v: (-v[2], -v[1], -v[0])),
                graphs.chamber3, "(Z+ ⊗ Z+) □ Z+"),
    LatticeKind("kkc3", (0, 0, 0), reflection(lambda v: (v[1], v[0], v[2])),
                lambda: graphs.cartesian(graphs.kronecker(graphs.half_line(),
                                                          graphs.half_line()),
                                         graphs.half_line()), "(Z+ ⊗ Z+) □ Z+"),
)})


def lattice_walk_kinds() -> tuple[str, ...]:
    return tuple(_KINDS)


def lattice_kind(kind: str) -> LatticeKind:
    return _KINDS[kind]


def build_lattice(kind: str, n: int | None = None, k: int | None = None,
                  l: int | None = None) -> tuple[Graph, Coords]:
    """The rooted graph behind a named kind: (graph, root coordinates)."""
    lk = _KINDS[kind]
    g = lk.graph(**_KINDS.params(kind, lk.requires, n=n, k=k, l=l))
    return replace(g, symmetry=lk.symmetry), lk.root


class _OwnForm(_EvenLaw):
    # the symmetric law whose even moment M_{2h} is a kind's own form
    def __init__(self, even: Callable[[int], int]):
        self.even = even


@lru_cache(maxsize=128)
def _checked_law(kind: str, n: int | None, k: int | None, l: int | None):
    # the law of a kind, its product's or its own form's, once its lattice
    # builds: the graph constructor checks the sizes.  The last 128 are kept.
    build_lattice(kind, n, k, l)
    lk = _KINDS[kind]
    return product_law(lk.product, n=n, k=k, l=l) if lk.product else _OwnForm(lk.own_form)


def closed_form_walks(kind: str, m: int, n: int | None = None,
                      k: int | None = None, l: int | None = None) -> int:
    """Exact closed form for the length-m closed-walk count of a named kind:
    the m-th moment of its law, its product's or its own form's.

    All named kinds are bipartite, so odd lengths return 0 without summing
    a Cartesian law's m + 1 terms, each of them 0.
    """
    law = _checked_law(kind, n, k, l)
    check_order(m, "walk length")
    return 0 if m % 2 else law.moment(m)


# ---------------------------------------------------------------------------
# folds onto Kronecker products


_FOLD = ((1, 1), (1, -1))  # (x, y) |-> (x + y, x - y)

#: The named folds: fold -> (the 2-D Kronecker lattice kind it folds, the
#: ball radius it is checked at).  Each fold but plane is named by its kind.
FOLD_KINDS = KindTable("fold", {"plane": ("z2", 8), **{
    kind: (kind, 6) for kind in ("strip", "halfplane", "wedge", "diamond")}})


def fold_map(kind: str, n: int | None = None, k: int | None = None,
             l: int | None = None) -> IsoMap:
    """The fold (x, y) |-> (x + y, x - y) of a named kind in
    :data:`FOLD_KINDS`, from its lattice onto the origin component of the
    Kronecker product of the lattice's two factors, rooted at the origin
    on both sides; the kind takes exactly its lattice's parameters."""
    lattice, _ = FOLD_KINDS[kind]
    lk = _KINDS[lattice]
    params = FOLD_KINDS.params(kind, lk.requires, n=n, k=k, l=l)
    source, root = build_lattice(lattice, **params)
    # graphs.kronecker is looked up here, so a wrapped one sees the product
    target = reduce(graphs.kronecker,
                    [FACTORS[f].graph(params.get(p)) for f, p in product_terms(lk.product)[0]])
    name = f"{kind}{'x'.join(map(str, params.values()))}-to-kron"
    return IsoMap(_FOLD, (0, 0), source, root, target, (0, 0), name)


# ---------------------------------------------------------------------------
# identities


def verify_binomial_identity(m: int) -> bool:
    """sum_k binom(2m,2k) binom(2k,k) binom(2m-2k,m-k) == binom(2m,m)^2,

    checked with exact integers.  Combinatorially: splitting the square
    lattice count by the number of diagonal-pair steps of each type.  The
    left side counts Z^2 as the Cartesian square of the line (``Z □ Z``),
    the right side as its Kronecker square (``Z ⊗ Z``).
    """
    check_order(m, "order")
    return product_law("Z □ Z").moment(2 * m) == product_law("Z ⊗ Z").moment(2 * m)
