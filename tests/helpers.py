"""Shared test oracles, deliberately independent of the library internals.

`dp_closed_walks` counts closed walks by memoized recursion on the raw
neighbor function; it never builds a ball or an adjacency index, so it
cross-checks the production pipeline rather than re-running it.
`naive_ball` is a textbook queue BFS over the public ``neighbors`` method,
and `vector_walk_counts` iterates the full adjacency one step at a time;
`path_walk_counts` does the same for the tridiagonal path adjacency.
`as_implicit` hides a finite graph behind its public methods, so a ball
or a product of it reads only those, and `domain` is a named lattice
kind's graph from ``build_lattice`` without its symmetry.
`reference_iso_report` checks an affine map the way the coordinate
edge-set algorithm does, on `naive_ball`s.
`SIGNED_KINDS`, `MIRRORS` and `LUMPED` name the lattice kinds whose graphs
carry a symmetry, with each mirror written out here rather than taken
from the builders.  `REFERENCE_FORMS` restates every kind's closed form
with ``math.comb`` and `reference_path_walks`, the unpaired reflection
sum, so the library's cached exact moments are checked, not echoed;
`cold_caches` runs a block on empty moment caches (bounded LRU caches of
4096 entries each).  `composed_product` builds a product of two graphs by
composing their public ``neighbors`` and membership, and
`REFERENCE_LATTICES` writes every named lattice and fold target out as
its steps and the predicate of its domain; `predicate_lattice` turns such
a pair into a graph.  `from_edges` builds a finite graph from an edge list
through the validating ``FiniteGraph(vertices, adjacency)`` constructor,
`product_by_definition` builds a finite product straight from the
definition of the two products, `edge_set` lists the edges of any graph
among given vertices, and `components` finds the connected components of
any graph on given vertices, one ball around each smallest unseen vertex.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from math import comb

from latticewalks import spectral, walks
from latticewalks.graphs import FiniteGraph, ImplicitGraph, ball


def dp_closed_walks(g, root, m: int) -> int:
    """Number of closed m-walks at root, by top-down dynamic programming."""
    root = tuple(root)
    cache: dict[tuple[tuple[int, ...], int], int] = {}

    def walks_to_root(v: tuple[int, ...], steps: int) -> int:
        if steps == 0:
            return 1 if v == root else 0
        key = (v, steps)
        if key not in cache:
            cache[key] = sum(walks_to_root(u, steps - 1) for u in g.neighbors(v))
        return cache[key]

    return walks_to_root(root, m)


def naive_ball(g, root, radius: int):
    """(vertices, depths, adjacency, truncated) of the radius-r ball at root.

    Distances come from a queue BFS; vertices are then ordered by
    (distance, coordinates), and each adjacency row lists the sorted
    indices of the neighbors inside the ball.
    """
    root = tuple(root)
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    vertices = sorted(dist, key=lambda v: (dist[v], v))
    index = {v: i for i, v in enumerate(vertices)}
    adjacency, truncated = [], False
    for v in vertices:
        nbrs = g.neighbors(v)
        truncated = truncated or any(w not in index for w in nbrs)
        adjacency.append(sorted(index[w] for w in nbrs if w in index))
    return vertices, [dist[v] for v in vertices], adjacency, truncated


def vector_walk_counts(adj: list[list[int]], i: int, m_max: int) -> list[int]:
    """(A^m)_{ii} for m = 0..m_max by m_max plain steps u <- A u."""
    u = [0] * len(adj)
    u[i] = 1
    out = [1]
    for _ in range(m_max):
        u = [sum(u[j] for j in row) for row in adj]
        out.append(u[i])
    return out


def int_matrix_power_diag(adj: list[list[int]], i: int, m: int) -> int:
    """(A^m)_{ii} for a 0/1 adjacency matrix given as neighbor index lists."""
    n = len(adj)
    mat = [[0] * n for _ in range(n)]
    for a, nbrs in enumerate(adj):
        for b in nbrs:
            mat[a][b] = 1
    acc = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(m):
        acc = [[sum(row[t] * mat[t][c] for t in range(n)) for c in range(n)]
               for row in acc]
    return acc[i][i]


def path_walk_counts(n: int, m_max: int) -> list[int]:
    """Closed m-walks at the first vertex of the n-vertex path for
    m = 0..m_max, by plain integer iteration of the tridiagonal adjacency."""
    u = [0] * n
    u[0] = 1
    out = [1]
    for _ in range(m_max):
        nxt = [0] * n
        for i, ui in enumerate(u):
            if ui:
                if i > 0:
                    nxt[i - 1] += ui
                if i + 1 < n:
                    nxt[i + 1] += ui
        u = nxt
        out.append(u[0])
    return out


def path_adjacency(n: int) -> list[list[int]]:
    return [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]


def as_implicit(g: FiniteGraph) -> ImplicitGraph:
    """The same graph as a neighbor-function view."""
    return ImplicitGraph(g.dimension, g.neighbors, "implicit", g.__contains__)


def domain(kind: str, **params) -> ImplicitGraph:
    """The graph of a named lattice kind, such as ``lattice[x>=y]`` for
    halfplane, with no symmetry: a plain step lattice."""
    g, _ = walks.build_lattice(kind, **params)
    return replace(g, symmetry=None)


def composed_product(g1, g2, kron: bool) -> ImplicitGraph:
    """The Kronecker (both factors move) or Cartesian (one factor moves)
    product of two graphs by composing their neighbor lists."""
    d1 = g1.dimension

    def nbrs(v):
        a, b = v[:d1], v[d1:]
        if kron:
            return [na + nb for na in g1.neighbors(a) for nb in g2.neighbors(b)]
        return [na + b for na in g1.neighbors(a)] + [a + nb for nb in g2.neighbors(b)]

    return ImplicitGraph(d1 + g2.dimension, nbrs, "composed",
                         lambda v: v[:d1] in g1 and v[d1:] in g2)


def predicate_lattice(steps, inside, symmetry=None) -> ImplicitGraph:
    """The graph on the points where ``inside`` holds, with edges v ~ v + s
    for s in ``steps``, each candidate tested by ``inside``."""
    return ImplicitGraph(
        len(steps[0]),
        lambda v: [w for w in (tuple(map(sum, zip(v, s))) for s in steps) if inside(w)],
        "predicate", inside, symmetry)


_UNIT = {d: [tuple(c * (i == j) for j in range(d)) for i in range(d) for c in (1, -1)]
         for d in (1, 2, 3)}
_DIAGONAL = [(a, b) for a in (1, -1) for b in (1, -1)]

#: Each named lattice kind and each fold's target (keyed "fold:<name>") as
#: a function of its parameters to (steps, domain predicate).
REFERENCE_LATTICES = {
    "z": lambda: (_UNIT[1], lambda v: True),
    "zplus": lambda: (_UNIT[1], lambda v: v[0] >= 0),
    "zplus-at-1": lambda: (_UNIT[1], lambda v: v[0] >= 0),
    "z2": lambda: (_UNIT[2], lambda v: True),
    "halfplane": lambda: (_UNIT[2], lambda v: v[0] >= v[1]),
    "wedge": lambda: (_UNIT[2], lambda v: v[0] >= v[1] >= -v[0]),
    "quarterplane": lambda: (_UNIT[2], lambda v: v[0] >= 0 and v[1] >= 0),
    "zxzplus": lambda: (_UNIT[2], lambda v: v[0] >= 0 and v[1] >= 0),
    "strip": lambda n: (_UNIT[2], lambda v: v[0] >= v[1] >= v[0] - (n - 1)),
    "diamond": lambda k, l: (_UNIT[2], lambda v: 0 <= v[0] + v[1] <= k - 1
                             and 0 <= v[0] - v[1] <= l - 1),
    "bcc3": lambda: ([(a, b, c) for a, b in _DIAGONAL for c in (1, -1)], lambda v: True),
    "z3cartesian": lambda: (_UNIT[3], lambda v: True),
    "chamber3": lambda: (_UNIT[3], lambda v: v[0] >= v[1] >= v[2]),
    "kkc3": lambda: ([(a, b, 0) for a, b in _DIAGONAL] + [(0, 0, 1), (0, 0, -1)],
                     lambda v: min(v) >= 0),
    "fold:plane": lambda: (_DIAGONAL, lambda v: True),
    "fold:strip": lambda n: (_DIAGONAL, lambda v: 0 <= v[1] < n),
    "fold:halfplane": lambda: (_DIAGONAL, lambda v: v[1] >= 0),
    "fold:wedge": lambda: (_DIAGONAL, lambda v: v[0] >= 0 and v[1] >= 0),
    "fold:diamond": lambda k, l: (_DIAGONAL, lambda v: 0 <= v[0] < k and 0 <= v[1] < l),
}


def from_edges(vertices, edges, root=None, name: str = "") -> FiniteGraph:
    """The graph on ``vertices`` whose edges are the coordinate pairs of
    ``edges``, through the validating constructor."""
    index = {tuple(v): i for i, v in enumerate(vertices)}
    adjacency: list[set[int]] = [set() for _ in vertices]
    for a, b in edges:
        adjacency[index[tuple(a)]].add(index[tuple(b)])
        adjacency[index[tuple(b)]].add(index[tuple(a)])
    return FiniteGraph(vertices, adjacency, root=root, name=name)


def product_by_definition(g1: FiniteGraph, g2: FiniteGraph, kron: bool) -> FiniteGraph:
    """The product straight from its definition, on all vertex pairs in
    sorted order: Kronecker pairs are adjacent in both factors, Cartesian
    pairs are equal in one coordinate and adjacent in the other."""
    verts = [(a, b) for a in g1.vertices for b in g2.vertices]
    edges = []
    for a1, a2 in verts:
        for b1, b2 in verts:
            adj1, adj2 = b1 in g1.neighbors(a1), b2 in g2.neighbors(a2)
            if kron:
                linked = adj1 and adj2
            else:
                linked = (a1 == b1 and adj2) or (a2 == b2 and adj1)
            if linked:
                edges.append((a1 + a2, b1 + b2))
    return from_edges(sorted(a + b for a, b in verts), edges)


def edge_set(g, vertices=None) -> set:
    """The edges of g between ``vertices`` (all of a finite g's by
    default), each a pair of coordinate tuples in sorted order."""
    vertices = g.vertices if vertices is None else vertices
    inside = set(vertices)
    return {tuple(sorted((v, w))) for v in vertices for w in g.neighbors(v) if w in inside}


def components(g, vertices) -> list[FiniteGraph]:
    """The connected components of a graph whose vertices are exactly
    ``vertices``: a ball around each vertex, in sorted order, that no
    earlier ball holds, with a radius that reaches every vertex."""
    seen: set = set()
    out = []
    for v in sorted(vertices):
        if v not in seen:
            out.append(ball(g, v, len(vertices)))
            seen.update(out[-1].vertices)
    return out


def random_graph(rng: random.Random, n_min: int = 2, n_max: int = 8) -> FiniteGraph:
    """Erdos-Renyi graph on vertices (0,), ..., (n-1,); may be disconnected."""
    n = rng.randint(n_min, n_max)
    p = rng.uniform(0.2, 0.8)
    vertices = [(i,) for i in range(n)]
    edges = [((i,), (j,)) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return from_edges(vertices, edges, root=(0,))


def random_connected_graph(rng: random.Random, n_min: int = 2,
                           n_max: int = 8) -> FiniteGraph:
    """Random tree plus extra random edges, so connectivity is structural."""
    n = rng.randint(n_min, n_max)
    edges = {((rng.randrange(i),), (i,)) for i in range(1, n)}
    extra = rng.randint(0, n)
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add(((min(i, j),), (max(i, j),)))
    return from_edges([(i,) for i in range(n)], sorted(edges), root=(0,))


def reference_iso_report(iso, radius: int) -> tuple:
    """``(ok, detail, witness, source_size, target_size)`` of checking
    ``iso`` on the radius-r balls, with each edge mapped as a pair of
    coordinate tuples and both edge sets compared as sets of sorted
    coordinate pairs."""

    def apply(v):
        return tuple(sum(a * x for a, x in zip(row, v)) + off
                     for row, off in zip(iso.matrix, iso.offset))

    def edges(vertices, adjacency):
        return {tuple(sorted((vertices[i], vertices[j])))
                for i, row in enumerate(adjacency) for j in row}

    src, _, src_adj, _ = naive_ball(iso.source, iso.source_root, radius)
    tgt, _, tgt_adj, _ = naive_ball(iso.target, iso.target_root, radius)
    sizes = (len(src), len(tgt))
    if apply(iso.source_root) != tuple(iso.target_root):
        return (False, "map does not carry the source root to the target root",
                (iso.source_root,), *sizes)
    if len(src) != len(tgt):
        return (False, f"ball sizes differ: {len(src)} vs {len(tgt)}", None, *sizes)
    preimage = {}
    for v in src:
        w = apply(v)
        if w in preimage:
            return (False, "map is not injective on the source ball",
                    (preimage[w], v), *sizes)
        preimage[w] = v
    inside = set(tgt)
    for w, v in preimage.items():
        if w not in inside:
            return (False, f"image vertex {w} is outside the target ball", (v,), *sizes)
    mapped = {tuple(sorted((apply(a), apply(b)))) for a, b in edges(src, src_adj)}
    target = edges(tgt, tgt_adj)
    if mapped - target:
        return (False, "mapped edge missing from the target ball",
                min(mapped - target), *sizes)
    if target - mapped:
        return (False, "target edge has no preimage edge", min(target - mapped), *sizes)
    return (True, "edge-preserving bijection on balls", None, *sizes)


#: Kinds invariant under signed coordinate permutations.
SIGNED_KINDS = ("z", "z2", "bcc3", "z3cartesian")

#: The involutive automorphism that fixes the root of each mirrored kind.
MIRRORS = {
    "halfplane": lambda v: (-v[1], -v[0]),
    "wedge": lambda v: (v[0], -v[1]),
    "quarterplane": lambda v: (v[1], v[0]),
    "zxzplus": lambda v: (v[1], v[0]),
    "strip": lambda v: (-v[1], -v[0]),
    "chamber3": lambda v: (-v[2], -v[1], -v[0]),
    "kkc3": lambda v: (v[1], v[0], v[2]),
}

#: (kind, build parameters) of every kind that walk_table lumps, the
#: strip at two widths.
LUMPED = [(kind, params) for kind in (*SIGNED_KINDS, *MIRRORS)
          for params in ([{"n": 3}, {"n": 7}] if kind == "strip" else [{}])]


def kind_id(kind: str, params: dict) -> str:
    """A test id for a kind and its build parameters, e.g. ``strip-n3``."""
    return kind + "".join(f"-{a}{v}" for a, v in params.items())


def reference_catalan(h: int) -> int:
    return comb(2 * h, h) // (h + 1)


def reference_path_walks(n: int, m: int) -> int:
    """Closed m-walks at the end of the n-vertex path by the reflection
    principle, one term per barrier image: sum_j B(h + jp) - B(h + jp - 1)
    with B = binom(m, .), h = m/2 and p = n + 1."""
    if m % 2:
        return 0
    h, p = m // 2, n + 1

    def b(k: int) -> int:
        return comb(m, k) if 0 <= k <= m else 0

    return sum(b(h + j * p) - b(h + j * p - 1) for j in range(-m // p - 1, m // p + 2))


def _reference_cartesian(f, g, h: int) -> int:
    return sum(comb(2 * h, 2 * j) * f(j) * g(h - j) for j in range(h + 1))


#: kind -> count[2h] as a function of h and the kind's parameters
REFERENCE_FORMS = {
    "z": lambda h: comb(2 * h, h),
    "zplus": reference_catalan,
    "zplus-at-1": lambda h: reference_catalan(h + 1),
    "z2": lambda h: comb(2 * h, h) ** 2,
    "halfplane": lambda h: reference_catalan(h) * comb(2 * h, h),
    "wedge": lambda h: reference_catalan(h) ** 2,
    "quarterplane": lambda h: _reference_cartesian(reference_catalan,
                                                   reference_catalan, h),
    "zxzplus": lambda h: reference_catalan(h) * reference_catalan(h + 1),
    "strip": lambda h, n: comb(2 * h, h) * reference_path_walks(n, 2 * h),
    "diamond": lambda h, k, l: reference_path_walks(k, 2 * h) * reference_path_walks(l, 2 * h),
    "bcc3": lambda h: comb(2 * h, h) ** 3,
    "z3cartesian": lambda h: _reference_cartesian(lambda j: comb(2 * j, j) ** 2,
                                                  lambda j: comb(2 * j, j), h),
    "chamber3": lambda h: _reference_cartesian(lambda j: reference_catalan(j) ** 2,
                                               reference_catalan, h),
    "kkc3": lambda h: _reference_cartesian(lambda j: reference_catalan(j) ** 2,
                                           reference_catalan, h),
}


def reference_closed_form(kind: str, m: int, **params) -> int:
    """The length-m closed-walk count of a named kind from REFERENCE_FORMS."""
    return 0 if m % 2 else REFERENCE_FORMS[kind](m // 2, **params)


#: The library's exact-moment caches.
MOMENT_CACHES = (spectral.central_binomial, spectral.catalan, spectral.path_closed_walks)


@contextmanager
def cold_caches():
    """Run the block on empty exact-moment caches: the laws' bounded LRU
    caches of 4096 entries each are cleared on entry, so every moment the
    block reads first is computed afresh."""
    for cached in MOMENT_CACHES:
        cached.cache_clear()
    yield
