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
Eleven named kinds carry one: z, z2, bcc3 and z3cartesian the signed
coordinate permutations, and seven a mirror through the corner root,

    halfplane, strip       (x, y) -> (-y, -x)
    wedge                  (x, y) -> (x, -y)
    quarterplane, zxzplus  (x, y) -> (y, x)
    chamber3               (x, y, z) -> (-z, -y, -x)
    kkc3                   (a, b, c) -> (b, a, c)

Any other graph or root takes the ball: zplus and zplus-at-1 have no
mirror that fixes the root, and the diamond is finite and small.

Closed forms use half-step indexing internally: a walk of even length
m = 2h on a bipartite lattice decomposes into h up/down or in/out pairs,
which is where central binomials and Catalan numbers enter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain
from math import comb
from operator import mul
from typing import Callable, Sequence

from . import graphs
from .errors import KindTable
from .graphs import (DEFAULT_VERTEX_BUDGET, SIGNED_PERMUTATIONS, Coords, Graph,
                     ball, reflection)


def central_binomial(m: int) -> int:
    """binomial(2m, m), the closed-walk count at any vertex of the line."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    return comb(2 * m, m)


def catalan(m: int) -> int:
    """The m-th Catalan number, the closed-walk count at the end of a ray."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    return comb(2 * m, m) // (m + 1)


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
    k = m+1 contributes -B(m) = -1.  This is deliberately independent of
    the ball machinery so it can serve as the 1-D factor in product
    closed forms.
    """
    if n < 1:
        raise ValueError("path needs at least one vertex")
    if m < 0:
        raise ValueError("walk length must be nonnegative")
    if m % 2:
        return 0
    h, p = m // 2, n + 1
    total = catalan(h)
    for k in range(h + p, m + 1, p):
        total += comb(m, k) * (m + 2 - (2 * k - m) ** 2) // ((k + 1) * (m - k + 1))
    if (h + 1) % p == 0:
        total -= 1
    return total


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


def walk_count(g: Graph, o, m: int,
               budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Number of closed walks of length m at vertex o, exactly: the last
    entry of :func:`walk_table`."""
    return walk_table(g, o, m, budget).counts[m]


@dataclass(frozen=True)
class WalkTable:
    """Closed-walk counts at one root for every length 0..m_max."""

    graph_name: str
    root: Coords
    counts: tuple[int, ...]

    @property
    def m_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, m: int) -> int:
        if not 0 <= m <= self.m_max:
            raise ValueError(f"walk length {m} outside table range 0..{self.m_max}")
        return self.counts[m]


def walk_table(g: Graph, o, m_max: int,
               budget: int = DEFAULT_VERTEX_BUDGET) -> WalkTable:
    """Walk counts for all lengths 0..m_max from a single ball expansion,
    lumped to orbit representatives when ``g.symmetry`` fixes o."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    sym = getattr(g, "symmetry", None)
    if sym is not None and sym.fixes(o):
        rows, depths, sizes = graphs.orbit_ball(g, o, m_max // 2, budget)
    else:
        b = ball(g, o, m_max // 2, budget)
        rows, depths, sizes = b.adjacency, b.depths, None
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
    return WalkTable(g.name or "graph", tuple(o), tuple(counts))


def kronecker_walk_product(w1: WalkTable, w2: WalkTable) -> WalkTable:
    """Entrywise product table: counts in a Kronecker product factorize."""
    if w1.m_max != w2.m_max:
        raise ValueError("walk tables cover different ranges")
    counts = tuple(a * b for a, b in zip(w1.counts, w2.counts))
    return WalkTable(f"kron({w1.graph_name},{w2.graph_name})",
                     w1.root + w2.root, counts)


def cartesian_walk_convolution(w1: WalkTable, w2: WalkTable, m: int) -> int:
    """Binomial convolution sum_k C(m,k) w1[k] w2[m-k].

    This is the closed-walk count at the paired root of the Cartesian
    product: each walk interleaves k steps in the first factor with m-k
    steps in the second.
    """
    if m < 0:
        raise ValueError("walk length must be nonnegative")
    if w1.m_max < m or w2.m_max < m:
        raise ValueError(f"walk tables must cover lengths 0..{m}")
    return sum(comb(m, k) * w1.counts[k] * w2.counts[m - k] for k in range(m + 1))


# ---------------------------------------------------------------------------
# named lattices and their closed forms


@dataclass(frozen=True)
class LatticeKind:
    """A rooted lattice or product graph with an exact closed form."""

    key: str
    dimension: int
    requires: tuple[str, ...]
    build_fn: Callable[..., tuple[Graph, Coords]]
    closed_fn: Callable[..., int]


def _cartesian(a: str, b: str) -> Callable[[int], int]:
    # The closed form of the Cartesian product of the parameterless kinds
    # a and b: a closed 2h-walk interleaves a closed 2k-walk in a with a
    # closed (2h-2k)-walk in b, so h -> sum_k binom(2h,2k) f(k) g(h-k) in
    # half-step indexing, where f and g, the closed forms of a and b, are
    # looked up per call: the table that holds them is built after this.
    def closed(h: int) -> int:
        f, g = _KINDS[a].closed_fn, _KINDS[b].closed_fn
        return sum(comb(2 * h, 2 * k) * f(k) * g(h - k) for k in range(h + 1))

    return closed


def _signed(g: Graph) -> Graph:
    # g, marked invariant under signed coordinate permutations
    return replace(g, symmetry=SIGNED_PERMUTATIONS)


def _mirrored(g: Graph, sigma: Callable[[Coords], Coords]) -> Graph:
    # g, marked invariant under the involutive automorphism sigma
    return replace(g, symmetry=reflection(sigma))


def _swap(v: Coords) -> Coords:
    # the mirror x = y of the quarter plane
    return v[1], v[0]


def _antidiagonal(v: Coords) -> Coords:
    # the mirror x = -y of the half plane and the diagonal strip
    return -v[1], -v[0]


# Builders look graphs' constructors up at call time, so a wrapped
# graphs.kronecker or graphs.cartesian sees every product they build.
# The kinds built on Z, Z^2 and the Kronecker and Cartesian cubes of Z
# carry their signed-permutation symmetry, and the other restricted kinds
# but the half line and the diamond a mirror that fixes the root;
# walk_table lumps by either.  Under the fold a mirror reflects one
# Kronecker factor or swaps two equal ones.  README's kind table states
# each kind and its closed form in words.
_KINDS = KindTable("lattice", {lk.key: lk for lk in (
    LatticeKind("z", 1, (),
                lambda: (_signed(graphs.integer_line()), (0,)),
                central_binomial),
    LatticeKind("zplus", 1, (),
                lambda: (graphs.half_line(), (0,)),
                catalan),
    LatticeKind("zplus-at-1", 1, (),
                lambda: (graphs.half_line(), (1,)),
                lambda h: catalan(h + 1)),
    LatticeKind("z2", 2, (),
                lambda: (_signed(graphs.full_plane()), (0, 0)),
                lambda h: comb(2 * h, h) ** 2),
    LatticeKind("halfplane", 2, (),
                lambda: (_mirrored(graphs.half_plane(), _antidiagonal), (0, 0)),
                lambda h: catalan(h) * comb(2 * h, h)),
    LatticeKind("wedge", 2, (),
                lambda: (_mirrored(graphs.wedge(), lambda v: (v[0], -v[1])), (0, 0)),
                lambda h: catalan(h) ** 2),
    LatticeKind("quarterplane", 2, (),
                lambda: (_mirrored(graphs.quarter_plane(), _swap), (0, 0)),
                _cartesian("zplus", "zplus")),
    # the quarter plane again, built as a Cartesian product of two
    # half-lines; its closed form is the product form of the same count
    LatticeKind("zxzplus", 2, (),
                lambda: (_mirrored(graphs.cartesian(graphs.half_line(),
                                                    graphs.half_line()), _swap),
                         (0, 0)),
                lambda h: catalan(h) * catalan(h + 1)),
    LatticeKind("strip", 2, ("n",),
                lambda n: (_mirrored(graphs.strip(n), _antidiagonal), (0, 0)),
                lambda h, n: comb(2 * h, h) * path_closed_walks(n, 2 * h)),
    LatticeKind("diamond", 2, ("k", "l"),
                lambda k, l: (graphs.diamond(k, l), (0, 0)),
                lambda h, k, l: path_closed_walks(k, 2 * h) * path_closed_walks(l, 2 * h)),
    LatticeKind("bcc3", 3, (),
                lambda: (_signed(reduce(graphs.kronecker, [graphs.integer_line()] * 3)),
                         (0, 0, 0)),
                lambda h: comb(2 * h, h) ** 3),
    LatticeKind("z3cartesian", 3, (),
                lambda: (_signed(reduce(graphs.cartesian, [graphs.integer_line()] * 3)),
                         (0, 0, 0)),
                _cartesian("z2", "z")),
    # the chamber and kkc3 count as the Cartesian product of the wedge (the
    # Kronecker square of the half line, folded) with the half line
    LatticeKind("chamber3", 3, (),
                lambda: (_mirrored(graphs.chamber3(), lambda v: (-v[2], -v[1], -v[0])),
                         (0, 0, 0)),
                _cartesian("wedge", "zplus")),
    LatticeKind("kkc3", 3, (),
                lambda: (_mirrored(graphs.cartesian(
                    graphs.kronecker(graphs.half_line(), graphs.half_line()),
                    graphs.half_line()), lambda v: (v[1], v[0], v[2])), (0, 0, 0)),
                _cartesian("wedge", "zplus")),
)})


def lattice_walk_kinds() -> tuple[str, ...]:
    return tuple(_KINDS)


def lattice_kind(kind: str) -> LatticeKind:
    return _KINDS[kind]


def build_lattice(kind: str, n: int | None = None, k: int | None = None,
                  l: int | None = None) -> tuple[Graph, Coords]:
    """The rooted graph behind a named kind: (graph, root coordinates)."""
    lk = _KINDS[kind]
    return lk.build_fn(**_KINDS.params(kind, lk.requires, n=n, k=k, l=l))


def closed_form_walks(kind: str, m: int, n: int | None = None,
                      k: int | None = None, l: int | None = None) -> int:
    """Exact closed form for the length-m closed-walk count of a named kind.

    All named kinds are bipartite, so odd lengths return 0.
    """
    lk = _KINDS[kind]
    params = _KINDS.params(kind, lk.requires, n=n, k=k, l=l)
    if m < 0:
        raise ValueError("walk length must be nonnegative")
    if m % 2:
        return 0
    return lk.closed_fn(m // 2, **params)


# ---------------------------------------------------------------------------
# identities and coincidence reports


def verify_binomial_identity(m: int) -> bool:
    """sum_k binom(2m,2k) binom(2k,k) binom(2m-2k,m-k) == binom(2m,m)^2,

    checked with exact integers.  Combinatorially: splitting the square
    lattice count by the number of diagonal-pair steps of each type.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    lhs, rhs = _binomial_identity_sides(m)
    return lhs == rhs


def _binomial_identity_sides(m: int) -> tuple[int, int]:
    # both sides of verify_binomial_identity, for reports that print them:
    # the square lattice counted as the Cartesian square of the line, and
    # as the Kronecker square of the line
    return _cartesian("z", "z")(m), comb(2 * m, m) ** 2


def moment_coincidence_report(g_a: Graph, o_a, g_b: Graph, o_b,
                              m_max: int,
                              budget: int = DEFAULT_VERTEX_BUDGET
                              ) -> tuple[tuple[int, int, int], ...]:
    """Compare closed-walk counts of two rooted graphs for all m <= m_max,
    as one ``(m, count_a, count_b)`` tuple per length.

    Equal tables mean the two roots share all spectral moments up to
    m_max, which is weaker than the graphs being isomorphic; pairing this
    with :func:`latticewalks.graphs.degree_histogram` separates the two.
    """
    ta = walk_table(g_a, o_a, m_max, budget)
    tb = walk_table(g_b, o_b, m_max, budget)
    return tuple((m, ta.counts[m], tb.counts[m]) for m in range(m_max + 1))
