"""Graphs on integer coordinate tuples: products, lattices, and balls.

Every vertex is a fixed-length tuple of ints.  Product graphs concatenate
coordinate tuples, so base graphs, Kronecker/Cartesian products, and
restricted lattices all share one hash-friendly vertex representation.
Infinite graphs are neighbor-function views and are never materialized:
exact computation always goes through :func:`ball`, which cuts the finite
induced subgraph of bounded graph distance around a root.

Conventions
-----------
* Kronecker product: one step moves along an edge in *both* factors.
* Cartesian product: one step moves along an edge in *exactly one* factor.
* A "ball" of radius r is the induced subgraph on vertices at graph
  distance <= r from the root, with deterministic vertex order
  (breadth-first layers, coordinates sorted within each layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from .errors import ResourceLimitError

Coords = tuple[int, ...]

# Hard cap on vertices materialized by one ball expansion.  Exceeding the
# budget raises instead of silently truncating.
DEFAULT_VERTEX_BUDGET = 5_000_000


def _as_coords(v: Sequence[int]) -> Coords:
    if isinstance(v, int):
        raise ValueError("vertex must be a tuple of ints, got a bare int")
    t = tuple(v)
    for c in t:
        if not isinstance(c, int):
            raise ValueError(f"vertex coordinates must be ints, got {c!r}")
    return t


class FiniteGraph:
    """Explicit graph: vertex tuple list plus sorted neighbor-index lists.

    Construction validates the adjacency structure (symmetric, loop-free,
    duplicate-free).  ``root`` is an optional distinguished vertex index.
    Graphs produced by :func:`ball` additionally carry per-vertex BFS
    depths, the requested radius, and a truncation flag.
    """

    def __init__(self, vertices, adjacency, root=None, name="", *,
                 ball_radius=None, depths=None, truncated=False):
        self.vertices: list[Coords] = [_as_coords(v) for v in vertices]
        if not self.vertices:
            raise ValueError("graph needs at least one vertex")
        dim = len(self.vertices[0])
        if any(len(v) != dim for v in self.vertices):
            raise ValueError("all vertices must share one dimension")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        n = len(self.vertices)
        adj = [sorted(row) for row in adjacency]
        if len(adj) != n:
            raise ValueError("adjacency list length must match vertex count")
        for i, row in enumerate(adj):
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"neighbor index {j} out of range")
            if i in row:
                raise ValueError(f"self-loop at vertex {i}")
            if len(set(row)) != len(row):
                raise ValueError(f"duplicate neighbor entries at vertex {i}")
        edge_pairs = {(i, j) for i, row in enumerate(adj) for j in row}
        for i, j in edge_pairs:
            if (j, i) not in edge_pairs:
                raise ValueError(f"adjacency not symmetric at {i} -> {j}")
        self.adjacency: list[list[int]] = adj
        if root is not None and not isinstance(root, int):
            root = self._index[_as_coords(root)]
        if root is not None and not 0 <= root < n:
            raise ValueError("root index out of range")
        self.root = root
        self.name = name
        self.ball_radius = ball_radius
        self.depths = depths
        self.truncated = truncated

    @classmethod
    def _trusted(cls, vertices: list[Coords], index: dict[Coords, int],
                 adjacency: list[list[int]], root: int | None, name: str, *,
                 ball_radius=None, depths=None, truncated=False) -> "FiniteGraph":
        """Wrap a structure that is valid by construction, skipping the
        re-checks of ``__init__``: distinct equal-length coordinate tuples
        with their position index, sorted duplicate-free loop-free symmetric
        index rows, and an index root.
        """
        g = cls.__new__(cls)
        g.vertices = vertices
        g._index = index
        g.adjacency = adjacency
        g.root = root
        g.name = name
        g.ball_radius = ball_radius
        g.depths = depths
        g.truncated = truncated
        return g

    @classmethod
    def from_edges(cls, vertices, edges, root=None, name="") -> "FiniteGraph":
        verts = [_as_coords(v) for v in vertices]
        index = {v: i for i, v in enumerate(verts)}
        adj: list[set[int]] = [set() for _ in verts]
        for a, b in edges:
            i, j = index[_as_coords(a)], index[_as_coords(b)]
            if i == j:
                raise ValueError("self-loops are not allowed")
            adj[i].add(j)
            adj[j].add(i)
        return cls(verts, [sorted(s) for s in adj], root=root, name=name)

    @property
    def dimension(self) -> int:
        return len(self.vertices[0])

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v) -> bool:
        try:
            return _as_coords(v) in self._index
        except ValueError:
            return False

    def index_of(self, v) -> int:
        return self._index[_as_coords(v)]

    def neighbors(self, v) -> tuple[Coords, ...]:
        i = self._index[_as_coords(v)]
        return tuple(self.vertices[j] for j in self.adjacency[i])

    def degree(self, v) -> int:
        return len(self.adjacency[self.index_of(v)])

    @property
    def root_coords(self) -> Coords | None:
        return None if self.root is None else self.vertices[self.root]

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

    def edge_set(self) -> frozenset[tuple[Coords, Coords]]:
        """Edges as coordinate pairs, each listed once with sorted endpoints."""
        out = set()
        for i, row in enumerate(self.adjacency):
            vi = self.vertices[i]
            for j in row:
                if j > i:
                    vj = self.vertices[j]
                    out.add((vi, vj) if vi <= vj else (vj, vi))
        return frozenset(out)

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"FiniteGraph({label}, n={len(self)}, edges={self.edge_count()})"


@dataclass(frozen=True)
class ImplicitGraph:
    """Locally finite graph given by a neighbor function on coordinate tuples.

    ``neighbor_fn`` must describe a simple graph: ``w`` is a neighbor of
    ``v`` exactly when ``v`` is a neighbor of ``w``, and never ``v`` itself.
    :func:`ball` trusts this and does not re-check the adjacency it builds.
    ``contains_fn`` is optional; when present it lets callers validate
    roots before expanding balls.
    """

    dimension: int
    neighbor_fn: Callable[[Coords], Iterable[Coords]]
    name: str
    contains_fn: Callable[[Coords], bool] | None = None

    def neighbors(self, v) -> tuple[Coords, ...]:
        return tuple(sorted(set(self.neighbor_fn(_as_coords(v)))))

    def __contains__(self, v) -> bool:
        try:
            t = _as_coords(v)
        except ValueError:
            return False
        if len(t) != self.dimension:
            return False
        return True if self.contains_fn is None else bool(self.contains_fn(t))


Graph = Union[FiniteGraph, ImplicitGraph]


def _neighbor_fn(g: Graph) -> Callable[[Coords], Iterable[Coords]]:
    """Unvalidated neighbor function of g for internal use.

    It takes a coordinate tuple already known to be well formed and may
    return the neighbors in any order, with repeats; callers that need the
    neighbor *set* deduplicate.  The public ``neighbors`` methods validate
    and sort.
    """
    if isinstance(g, FiniteGraph):
        verts, adj, index = g.vertices, g.adjacency, g._index
        return lambda v: [verts[j] for j in adj[index[v]]]
    return g.neighbor_fn


def _membership(g: Graph) -> Callable[[Coords], bool] | None:
    """Membership test for g, or None when undecidable."""
    if isinstance(g, FiniteGraph):
        return g.__contains__
    if g.contains_fn is None:
        return None
    return g.__contains__


# ---------------------------------------------------------------------------
# base graphs


def path_graph(n: int) -> FiniteGraph:
    """Path on vertices (0,), ..., (n-1,), rooted at (0,)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    verts = [(i,) for i in range(n)]
    adj = [[j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
    return FiniteGraph(verts, adj, root=0, name=f"P{n}")


def integer_line() -> ImplicitGraph:
    """The two-sided integer line with nearest-neighbor edges."""
    return ImplicitGraph(
        1,
        lambda v: ((v[0] - 1,), (v[0] + 1,)),
        "Z",
        lambda v: True,
    )


def half_line() -> ImplicitGraph:
    """Nonnegative integers 0 -- 1 -- 2 -- ... with nearest-neighbor edges."""

    def nbrs(v: Coords) -> tuple[Coords, ...]:
        u = v[0]
        return ((u + 1,),) if u == 0 else ((u - 1,), (u + 1,))

    return ImplicitGraph(1, nbrs, "Z+", lambda v: v[0] >= 0)


# ---------------------------------------------------------------------------
# lattice domains


@dataclass(frozen=True)
class LatticeDomain:
    """A subset of Z^d given by a predicate on coordinate tuples."""

    name: str
    dimension: int
    predicate: Callable[[Coords], bool]

    def contains(self, v) -> bool:
        t = _as_coords(v)
        if len(t) != self.dimension:
            return False
        return bool(self.predicate(t))


def _named_domain(name: str, dimension: int, predicate) -> LatticeDomain:
    dom = LatticeDomain(name, dimension, predicate)
    # every named domain is rooted at the origin
    if not dom.contains((0,) * dimension):
        raise ValueError(f"domain {name} does not contain the origin")
    return dom


def full_plane() -> LatticeDomain:
    return _named_domain("Z^2", 2, lambda v: True)


def half_plane() -> LatticeDomain:
    """Lattice points with x >= y."""
    return _named_domain("x>=y", 2, lambda v: v[0] >= v[1])


def strip(n: int) -> LatticeDomain:
    """Diagonal strip x >= y >= x-(n-1), i.e. x-y confined to 0..n-1."""
    if n < 2:
        raise ValueError("strip width must be at least 2")
    return _named_domain(f"x>=y>=x-{n - 1}", 2,
                         lambda v: v[0] >= v[1] >= v[0] - (n - 1))


def wedge() -> LatticeDomain:
    """Wedge x >= y >= -x (an eighth of the plane, closed under reflection)."""
    return _named_domain("x>=y>=-x", 2, lambda v: v[0] >= v[1] >= -v[0])


def diamond(k: int, l: int) -> LatticeDomain:
    """Finite diamond 0 <= x+y <= k-1, 0 <= x-y <= l-1."""
    if k < 2 or l < 2:
        raise ValueError("diamond side lengths must be at least 2")
    return _named_domain(
        f"0<=x+y<={k - 1},0<=x-y<={l - 1}", 2,
        lambda v: 0 <= v[0] + v[1] <= k - 1 and 0 <= v[0] - v[1] <= l - 1)


def quarter_plane() -> LatticeDomain:
    return _named_domain("x>=0,y>=0", 2, lambda v: v[0] >= 0 and v[1] >= 0)


def chamber3() -> LatticeDomain:
    """Ordered chamber x >= y >= z in Z^3."""
    return _named_domain("x>=y>=z", 3, lambda v: v[0] >= v[1] >= v[2])


def domain_from_predicate(dimension: int, predicate,
                          name: str = "custom") -> LatticeDomain:
    """Escape hatch for restricted lattices beyond the named kinds."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    return LatticeDomain(name, dimension, predicate)


def restrict_lattice(domain: LatticeDomain) -> ImplicitGraph:
    """Nearest-neighbor graph on the lattice points of a domain.

    Edges move +-1 in exactly one coordinate and stay inside the domain.
    """
    d = domain.dimension

    def nbrs(v: Coords) -> list[Coords]:
        out = []
        for i in range(d):
            for s in (-1, 1):
                w = v[:i] + (v[i] + s,) + v[i + 1:]
                if domain.predicate(w):
                    out.append(w)
        return out

    return ImplicitGraph(d, nbrs, f"lattice[{domain.name}]", domain.contains)


# ---------------------------------------------------------------------------
# products


def _finite_product(g1: FiniteGraph, g2: FiniteGraph, mode: str,
                    name: str) -> FiniteGraph:
    d1 = g1.dimension
    n1, n2 = _neighbor_fn(g1), _neighbor_fn(g2)
    verts = sorted(a + b for a in g1.vertices for b in g2.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = []
    for v in verts:
        a, b = v[:d1], v[d1:]
        if mode == "kron":
            nbrs = [na + nb for na in n1(a) for nb in n2(b)]
        else:
            nbrs = [na + b for na in n1(a)]
            nbrs += [a + nb for nb in n2(b)]
        adj.append(sorted([index[w] for w in nbrs]))
    root = None
    if g1.root is not None and g2.root is not None:
        root = index[g1.root_coords + g2.root_coords]
    return FiniteGraph._trusted(verts, index, adj, root, name)


def _implicit_product(g1: Graph, g2: Graph, mode: str,
                      name: str) -> ImplicitGraph:
    d1, d2 = g1.dimension, g2.dimension
    n1, n2 = _neighbor_fn(g1), _neighbor_fn(g2)

    if mode == "kron":
        def nbrs(v: Coords) -> list[Coords]:
            a, b = v[:d1], v[d1:]
            return [na + nb for na in n1(a) for nb in n2(b)]
    else:
        def nbrs(v: Coords) -> list[Coords]:
            a, b = v[:d1], v[d1:]
            out = [na + b for na in n1(a)]
            out += [a + nb for nb in n2(b)]
            return out

    m1, m2 = _membership(g1), _membership(g2)
    contains = None
    if m1 is not None and m2 is not None:
        def contains(v: Coords) -> bool:
            return m1(v[:d1]) and m2(v[d1:])

    return ImplicitGraph(d1 + d2, nbrs, name, contains)


def _product(g1: Graph, g2: Graph, mode: str) -> Graph:
    tag = "kron" if mode == "kron" else "cart"
    name = f"{tag}({g1.name or 'G1'},{g2.name or 'G2'})"
    if isinstance(g1, FiniteGraph) and isinstance(g2, FiniteGraph):
        return _finite_product(g1, g2, mode, name)
    return _implicit_product(g1, g2, mode, name)


def kronecker(g1: Graph, g2: Graph) -> Graph:
    """Kronecker (tensor) product: adjacent iff adjacent in both factors."""
    return _product(g1, g2, "kron")


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """Cartesian (box) product: adjacent iff exactly one coordinate moves."""
    return _product(g1, g2, "cart")


# ---------------------------------------------------------------------------
# finite truncations and component structure


def ball(g: Graph, root, radius: int,
         budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteGraph:
    """Induced subgraph on vertices within graph distance ``radius`` of root.

    Expansion is breadth first with coordinate-sorted layers, so the vertex
    order (and everything derived from it) is deterministic.  Raises
    :class:`ResourceLimitError` when the expansion would exceed ``budget``
    vertices; the budget is a correctness guard, never a silent truncation.
    """
    r = _as_coords(root)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if budget < 1:
        raise ValueError("vertex budget must be positive")
    member = _membership(g)
    if len(r) != g.dimension:
        raise ValueError(f"root dimension {len(r)} != graph dimension {g.dimension}")
    if member is not None and not member(r):
        raise ValueError(f"root {r} is not a vertex of {g.name or 'graph'}")

    # Each vertex's neighbor set is computed once.  A vertex at depth d has
    # neighbors only at depths d-1, d, d+1, so a layer's coordinate rows
    # become index rows as soon as the next layer is indexed.
    nbrs = _neighbor_fn(g)
    index = {r: 0}
    order = [r]
    depths = [0]
    adj: list[list[int]] = []
    frontier = [r]
    for d in range(radius):
        rows = [set(nbrs(v)) for v in frontier]
        fresh = sorted({w for row in rows for w in row if w not in index})
        if len(order) + len(fresh) > budget:
            raise ResourceLimitError(
                f"ball of radius {radius} around {r} exceeds vertex budget {budget}: "
                f"layer {d + 1} would add {len(fresh)} vertices to the "
                f"{len(order)} kept through layer {d}")
        index.update(zip(fresh, range(len(order), len(order) + len(fresh))))
        order.extend(fresh)
        depths.extend([d + 1] * len(fresh))
        adj.extend(sorted([index[w] for w in row]) for row in rows)
        frontier = fresh
        if not frontier:
            break

    # outermost layer: neighbors beyond the radius are cut off
    truncated = False
    get = index.get
    for v in frontier:
        row = [get(w) for w in set(nbrs(v))]
        if None in row:
            truncated = True
            row = [j for j in row if j is not None]
        row.sort()
        adj.append(row)
    return FiniteGraph._trusted(
        order, index, adj, 0, f"ball({g.name or 'graph'},r={radius})",
        ball_radius=radius, depths=depths, truncated=truncated)


def induced_subgraph(g: FiniteGraph, keep: Iterable[Sequence[int]],
                     name: str = "") -> FiniteGraph:
    """Induced subgraph on a subset of vertices, sorted by coordinates."""
    verts = sorted({_as_coords(v) for v in keep})
    if not verts:
        raise ValueError("graph needs at least one vertex")
    missing = [v for v in verts if v not in g]
    if missing:
        raise ValueError(f"vertices not in graph: {missing[:3]}")
    index = {v: i for i, v in enumerate(verts)}
    nbrs = _neighbor_fn(g)
    adj = [sorted([index[w] for w in nbrs(v) if w in index]) for v in verts]
    root = None
    rc = g.root_coords
    if rc is not None and rc in index:
        root = index[rc]
    return FiniteGraph._trusted(verts, index, adj, root, name or f"sub({g.name})")


def connected_components(g: FiniteGraph) -> list[FiniteGraph]:
    """Connected components as induced subgraphs, ordered by smallest vertex."""
    seen = [False] * len(g)
    comps = []
    for start in range(len(g)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in g.adjacency[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(g.vertices[i] for i in comp))
    comps.sort(key=lambda vs: vs[0])
    return [induced_subgraph(g, vs, name=f"{g.name or 'graph'}[comp{c}]")
            for c, vs in enumerate(comps)]


def degree_histogram(g: FiniteGraph, interior_radius: int) -> dict[int, int]:
    """Histogram of degrees over vertices within ``interior_radius`` of the root.

    ``g`` must be a ball (see :func:`ball`), and ``interior_radius`` must be
    strictly smaller than the ball radius: vertices on the outermost layer
    may have neighbors outside the ball, so their degrees are unreliable.
    """
    if g.depths is None or g.ball_radius is None:
        raise ValueError("degree_histogram needs a graph produced by ball()")
    if not 0 <= interior_radius < g.ball_radius:
        raise ValueError("interior radius must satisfy 0 <= r_int < ball radius")
    hist: dict[int, int] = {}
    for i, d in enumerate(g.depths):
        if d <= interior_radius:
            deg = len(g.adjacency[i])
            hist[deg] = hist.get(deg, 0) + 1
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# isomorphism checking


@dataclass(frozen=True)
class IsoMap:
    """Affine integer map between rooted graphs, checked on balls.

    ``matrix`` rows act on source coordinates; ``offset`` is added after.
    """

    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    source: Graph
    source_root: Coords
    target: Graph
    target_root: Coords
    name: str = ""

    def apply(self, v) -> Coords:
        t = _as_coords(v)
        if len(t) != len(self.matrix[0]):
            raise ValueError("coordinate dimension does not match map")
        return tuple(sum(row[j] * t[j] for j in range(len(t))) + off
                     for row, off in zip(self.matrix, self.offset))


@dataclass(frozen=True)
class IsoReport:
    ok: bool
    detail: str
    witness: tuple | None
    source_size: int
    target_size: int


def verify_isomorphism(iso: IsoMap, ball_radius: int,
                       budget: int = DEFAULT_VERTEX_BUDGET) -> IsoReport:
    """Check that the map carries the radius-r source ball bijectively onto
    the radius-r target ball with all edges preserved in both directions.

    Returns a report with the first violation found, if any.
    """
    src = ball(iso.source, iso.source_root, ball_radius, budget)
    tgt = ball(iso.target, iso.target_root, ball_radius, budget)

    if iso.apply(iso.source_root) != tuple(iso.target_root):
        return IsoReport(False, "map does not carry the source root to the target root",
                         (iso.source_root,), len(src), len(tgt))
    if len(src) != len(tgt):
        return IsoReport(False, f"ball sizes differ: {len(src)} vs {len(tgt)}",
                         None, len(src), len(tgt))

    image: dict[Coords, Coords] = {}
    for v in src.vertices:
        w = iso.apply(v)
        if w in image:
            return IsoReport(False, "map is not injective on the source ball",
                             (image[w], v), len(src), len(tgt))
        image[w] = v
    tgt_set = set(tgt.vertices)
    for w in image:
        if w not in tgt_set:
            return IsoReport(False, f"image vertex {w} is outside the target ball",
                             (image[w],), len(src), len(tgt))

    src_edges = {(iso.apply(a), iso.apply(b)) for a, b in src.edge_set()}
    src_edges = {(a, b) if a <= b else (b, a) for a, b in src_edges}
    tgt_edges = set(tgt.edge_set())
    extra = src_edges - tgt_edges
    if extra:
        return IsoReport(False, "mapped edge missing from the target ball",
                         next(iter(sorted(extra))), len(src), len(tgt))
    missing = tgt_edges - src_edges
    if missing:
        return IsoReport(False, "target edge has no preimage edge",
                         next(iter(sorted(missing))), len(src), len(tgt))
    return IsoReport(True, "edge-preserving bijection on balls", None,
                     len(src), len(tgt))


_FOLD = ((1, 1), (1, -1))  # (x, y) |-> (x + y, x - y)


def plane_to_kron_map() -> IsoMap:
    """(x,y) |-> (x+y, x-y) from the Cartesian plane lattice onto the
    origin component of the Kronecker square of the integer line."""
    src = cartesian(integer_line(), integer_line())
    tgt = kronecker(integer_line(), integer_line())
    return IsoMap(_FOLD, (0, 0), src, (0, 0), tgt, (0, 0), "plane-to-kron")


def strip_to_kron_map(n: int) -> IsoMap:
    """Restriction of the fold map carrying the width-n diagonal strip onto
    the origin component of line (x)K path(n)."""
    src = restrict_lattice(strip(n))
    tgt = kronecker(integer_line(), path_graph(n))
    return IsoMap(_FOLD, (0, 0), src, (0, 0), tgt, (0, 0), f"strip{n}-to-kron")


def halfplane_to_kron_map() -> IsoMap:
    """Fold map from the half plane x >= y onto line (x)K half-line."""
    src = restrict_lattice(half_plane())
    tgt = kronecker(integer_line(), half_line())
    return IsoMap(_FOLD, (0, 0), src, (0, 0), tgt, (0, 0), "halfplane-to-kron")


def wedge_to_kron_map() -> IsoMap:
    """Fold map from the wedge x >= y >= -x onto half-line (x)K half-line."""
    src = restrict_lattice(wedge())
    tgt = kronecker(half_line(), half_line())
    return IsoMap(_FOLD, (0, 0), src, (0, 0), tgt, (0, 0), "wedge-to-kron")


def diamond_to_kron_map(k: int, l: int) -> IsoMap:
    """Fold map from the (k,l) diamond onto path(k) (x)K path(l)."""
    src = restrict_lattice(diamond(k, l))
    tgt = kronecker(path_graph(k), path_graph(l))
    return IsoMap(_FOLD, (0, 0), src, (0, 0), tgt, (0, 0), f"diamond{k}x{l}-to-kron")


# ---------------------------------------------------------------------------
# export


def to_edge_list(g: FiniteGraph) -> str:
    """Plain-text edge list: header line, then one `a -- b` line per edge."""
    rc = g.root_coords
    root_txt = ",".join(map(str, rc)) if rc is not None else "none"
    lines = [f"# dim={g.dimension} root={root_txt}"]
    for a, b in sorted(g.edge_set()):
        lines.append(f"{','.join(map(str, a))} -- {','.join(map(str, b))}")
    return "\n".join(lines) + "\n"
