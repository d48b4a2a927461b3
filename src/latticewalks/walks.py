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

Closed forms use half-step indexing internally: a walk of even length
m = 2h on a bipartite lattice decomposes into h up/down or in/out pairs,
which is where central binomials and Catalan numbers enter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Callable

from . import graphs
from .graphs import (DEFAULT_VERTEX_BUDGET, Coords, FiniteGraph, Graph, ball)


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

    Plain integer iteration of the tridiagonal adjacency action; this is
    deliberately independent of the ball machinery so it can serve as the
    1-D factor in product closed forms.
    """
    if n < 1:
        raise ValueError("path needs at least one vertex")
    if m < 0:
        raise ValueError("walk length must be nonnegative")
    u = [0] * n
    u[0] = 1
    for _ in range(m):
        nxt = [0] * n
        for i, ui in enumerate(u):
            if ui:
                if i > 0:
                    nxt[i - 1] += ui
                if i + 1 < n:
                    nxt[i + 1] += ui
        u = nxt
    return u[0]


# ---------------------------------------------------------------------------
# ball-based counting


def _diagonal_counts(b: FiniteGraph, steps: int) -> list[int]:
    # (A^k)_{oo} for k = 0..steps on a ball b of radius >= steps // 2 around
    # o, by the half-step identity of the module docstring; u and nxt are
    # u_h and u_{h+1}, and each product scatters from the depth <= h prefix.
    adj, depths = b.adjacency, b.depths
    n = len(b)
    u = [0] * n
    u[b.root] = 1
    out = [1]
    h = 0
    while len(out) <= steps:
        end = bisect_right(depths, h)
        nxt = [0] * n
        for i in range(end):
            ui = u[i]
            if ui:
                for j in adj[i]:
                    nxt[j] += ui
        out.append(sum(map(mul, u[:end], nxt)))
        h += 1
        if len(out) <= steps:
            end = bisect_right(depths, h)
            out.append(sum(map(mul, nxt[:end], nxt[:end])))
        u = nxt
    return out


def walk_count(g: Graph, o, m: int,
               budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Number of closed walks of length m at vertex o, exactly.

    A closed m-walk stays within graph distance floor(m/2) of o, so the
    count is computed on that ball's induced subgraph.
    """
    if m < 0:
        raise ValueError("walk length must be nonnegative")
    b = ball(g, o, m // 2, budget)
    return _diagonal_counts(b, m)[m]


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

    def to_csv(self) -> str:
        lines = ["m,count"]
        lines += [f"{m},{c}" for m, c in enumerate(self.counts)]
        return "\n".join(lines) + "\n"


def walk_table(g: Graph, o, m_max: int,
               budget: int = DEFAULT_VERTEX_BUDGET) -> WalkTable:
    """Walk counts for all lengths 0..m_max from a single ball expansion."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    b = ball(g, o, m_max // 2, budget)
    counts = _diagonal_counts(b, m_max)
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
    summary: str
    build_fn: Callable[..., tuple[Graph, Coords]]
    closed_fn: Callable[..., int]


def _params(kind: "LatticeKind", n, k, l) -> dict:
    given = {"n": n, "k": k, "l": l}
    out = {}
    for p in kind.requires:
        if given[p] is None:
            raise ValueError(f"kind {kind.key!r} requires parameter {p}")
        out[p] = given[p]
    for p, v in given.items():
        if v is not None and p not in kind.requires:
            raise ValueError(f"kind {kind.key!r} does not take parameter {p}")
    return out


def _cf_z(h: int) -> int:
    return comb(2 * h, h)


def _cf_zplus(h: int) -> int:
    return catalan(h)


def _cf_zplus_at_1(h: int) -> int:
    return catalan(h + 1)


def _cf_z2(h: int) -> int:
    return comb(2 * h, h) ** 2


def _cf_halfplane(h: int) -> int:
    return catalan(h) * comb(2 * h, h)


def _cf_wedge(h: int) -> int:
    return catalan(h) ** 2


def _cf_quarterplane(h: int) -> int:
    return sum(comb(2 * h, 2 * k) * catalan(k) * catalan(h - k)
               for k in range(h + 1))


def _cf_corner_product(h: int) -> int:
    # product form of the quarter-plane count: C_h * C_{h+1}
    return catalan(h) * catalan(h + 1)


def _cf_strip(h: int, n: int) -> int:
    return comb(2 * h, h) * path_closed_walks(n, 2 * h)


def _cf_diamond(h: int, k: int, l: int) -> int:
    return path_closed_walks(k, 2 * h) * path_closed_walks(l, 2 * h)


def _cf_bcc3(h: int) -> int:
    return comb(2 * h, h) ** 3


def _cf_z3_cartesian(h: int) -> int:
    # sum_k binom(2h,2k) binom(2k,k)^2 binom(2h-2k,h-k)
    # (equivalently (2h)!(2k)! / ((h-k)!^2 k!^4) per term)
    return sum(comb(2 * h, 2 * k) * comb(2 * k, k) ** 2 * comb(2 * h - 2 * k, h - k)
               for k in range(h + 1))


def _cf_chamber3(h: int) -> int:
    return sum(comb(2 * h, 2 * k) * catalan(k) ** 2 * catalan(h - k)
               for k in range(h + 1))


def _build_z():
    return graphs.integer_line(), (0,)


def _build_zplus():
    return graphs.half_line(), (0,)


def _build_zplus_at_1():
    return graphs.half_line(), (1,)


def _build_z2():
    return graphs.restrict_lattice(graphs.full_plane()), (0, 0)


def _build_halfplane():
    return graphs.restrict_lattice(graphs.half_plane()), (0, 0)


def _build_wedge():
    return graphs.restrict_lattice(graphs.wedge()), (0, 0)


def _build_quarterplane():
    return graphs.restrict_lattice(graphs.quarter_plane()), (0, 0)


def _build_corner_product():
    # quarter plane built as a Cartesian product of two half-lines
    return graphs.cartesian(graphs.half_line(), graphs.half_line()), (0, 0)


def _build_strip(n: int):
    return graphs.restrict_lattice(graphs.strip(n)), (0, 0)


def _build_diamond(k: int, l: int):
    return graphs.restrict_lattice(graphs.diamond(k, l)), (0, 0)


def _build_bcc3():
    z = graphs.integer_line()
    return graphs.kronecker(graphs.kronecker(z, z), z), (0, 0, 0)


def _build_z3_cartesian():
    z = graphs.integer_line()
    return graphs.cartesian(graphs.cartesian(z, z), z), (0, 0, 0)


def _build_chamber3():
    return graphs.restrict_lattice(graphs.chamber3()), (0, 0, 0)


def _build_kkc3():
    zp = graphs.half_line()
    return graphs.cartesian(graphs.kronecker(zp, zp), zp), (0, 0, 0)


_KINDS: dict[str, LatticeKind] = {}


def _register(key, dimension, requires, summary, build_fn, closed_fn):
    _KINDS[key] = LatticeKind(key, dimension, requires, summary, build_fn, closed_fn)


_register("z", 1, (), "integer line at 0; binom(2h,h)",
          _build_z, lambda h: _cf_z(h))
_register("zplus", 1, (), "half line at 0; Catalan C_h",
          _build_zplus, lambda h: _cf_zplus(h))
_register("zplus-at-1", 1, (), "half line at 1; C_{h+1}",
          _build_zplus_at_1, lambda h: _cf_zplus_at_1(h))
_register("z2", 2, (), "square lattice at the origin; binom(2h,h)^2",
          _build_z2, lambda h: _cf_z2(h))
_register("halfplane", 2, (), "half plane x>=y at the origin; C_h*binom(2h,h)",
          _build_halfplane, lambda h: _cf_halfplane(h))
_register("wedge", 2, (), "wedge x>=y>=-x at the origin; C_h^2",
          _build_wedge, lambda h: _cf_wedge(h))
_register("quarterplane", 2, (),
          "quarter plane at the corner; sum_k binom(2h,2k) C_k C_{h-k}",
          _build_quarterplane, lambda h: _cf_quarterplane(h))
_register("zxzplus", 2, (),
          "corner-rooted product of two half-lines (the quarter plane); "
          "product form C_h*C_{h+1}",
          _build_corner_product, lambda h: _cf_corner_product(h))
_register("strip", 2, ("n",), "diagonal strip of width n; binom(2h,h)*walks(P_n)",
          _build_strip, lambda h, n: _cf_strip(h, n))
_register("diamond", 2, ("k", "l"), "finite diamond; walks(P_k)*walks(P_l)",
          _build_diamond, lambda h, k, l: _cf_diamond(h, k, l))
_register("bcc3", 3, (), "Kronecker cube of the line at the origin; binom(2h,h)^3",
          _build_bcc3, lambda h: _cf_bcc3(h))
_register("z3cartesian", 3, (), "cubic lattice at the origin; "
          "sum_k binom(2h,2k) binom(2k,k)^2 binom(2h-2k,h-k)",
          _build_z3_cartesian, lambda h: _cf_z3_cartesian(h))
_register("chamber3", 3, (), "chamber x>=y>=z at the origin; "
          "sum_k binom(2h,2k) C_k^2 C_{h-k}",
          _build_chamber3, lambda h: _cf_chamber3(h))
_register("kkc3", 3, (), "Cartesian product of a Kronecker square of "
          "half-lines with a half-line, at the origin; same sum as chamber3",
          _build_kkc3, lambda h: _cf_chamber3(h))


def lattice_walk_kinds() -> tuple[str, ...]:
    return tuple(_KINDS)


def lattice_kind(kind: str) -> LatticeKind:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown lattice kind {kind!r}; known: {', '.join(_KINDS)}") from None


def build_lattice(kind: str, n: int | None = None, k: int | None = None,
                  l: int | None = None) -> tuple[Graph, Coords]:
    """The rooted graph behind a named kind: (graph, root coordinates)."""
    lk = lattice_kind(kind)
    return lk.build_fn(**_params(lk, n, k, l))


def closed_form_walks(kind: str, m: int, n: int | None = None,
                      k: int | None = None, l: int | None = None) -> int:
    """Exact closed form for the length-m closed-walk count of a named kind.

    All named kinds are bipartite, so odd lengths return 0.
    """
    lk = lattice_kind(kind)
    params = _params(lk, n, k, l)
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
    lhs = sum(comb(2 * m, 2 * k) * comb(2 * k, k) * comb(2 * m - 2 * k, m - k)
              for k in range(m + 1))
    return lhs == comb(2 * m, m) ** 2


@dataclass(frozen=True)
class CoincidenceReport:
    """Side-by-side walk tables for two rooted graphs."""

    name_a: str
    root_a: Coords
    name_b: str
    root_b: Coords
    entries: tuple[tuple[int, int, int], ...]  # (m, count_a, count_b)

    @property
    def all_equal(self) -> bool:
        return all(a == b for _, a, b in self.entries)

    def mismatches(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(e for e in self.entries if e[1] != e[2])


def moment_coincidence_report(g_a: Graph, o_a, g_b: Graph, o_b,
                              m_max: int,
                              budget: int = DEFAULT_VERTEX_BUDGET) -> CoincidenceReport:
    """Compare closed-walk counts of two rooted graphs for all m <= m_max.

    Equal tables mean the two roots share all spectral moments up to
    m_max, which is weaker than the graphs being isomorphic; pairing this
    with :func:`latticewalks.graphs.degree_histogram` separates the two.
    """
    ta = walk_table(g_a, o_a, m_max, budget)
    tb = walk_table(g_b, o_b, m_max, budget)
    entries = tuple((m, ta.counts[m], tb.counts[m]) for m in range(m_max + 1))
    return CoincidenceReport(ta.graph_name, ta.root, tb.graph_name, tb.root, entries)
