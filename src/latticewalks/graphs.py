"""Graphs on integer coordinate tuples: products, lattices, and balls.

Every vertex is a fixed-length tuple of ints.  Product graphs concatenate
coordinate tuples, so base graphs, Kronecker/Cartesian products, and
restricted lattices all share one hash-friendly vertex representation.
Infinite graphs are neighbor-function views and are never materialized:
exact computation always goes through :func:`ball`, which cuts the finite
induced subgraph of bounded graph distance around a root, or through
:func:`orbit_ball`, its quotient by a symmetry that fixes the root.  Both
run one breadth-first expansion: a ball is its quotient by the trivial
group.

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
from math import factorial
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import KindTable, ResourceLimitError

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

    def __init__(self, vertices, adjacency, root=None, name=""):
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
            r = _as_coords(root)
            if r not in self._index:
                raise ValueError(f"root {r} is not a vertex of {name or 'graph'}")
            root = self._index[r]
        if root is not None and not 0 <= root < n:
            raise ValueError("root index out of range")
        self.root = root
        self.name = name
        self.ball_radius = None
        self.depths = None
        self.truncated = False

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
            a, b = _as_coords(a), _as_coords(b)
            if a not in index or b not in index:
                raise ValueError(f"edge {(a, b)} has an end outside the vertex list")
            i, j = index[a], index[b]
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


class Symmetry(NamedTuple):
    """A group of graph automorphisms, given by its orbits.

    ``canon(v)`` is the representative of the orbit of v, the same tuple
    for v and every image of v; ``orbit_size(rep)`` is the number of
    vertices in the orbit of a representative.  Two kinds are built
    here: :data:`SIGNED_PERMUTATIONS`, and :func:`reflection` for the
    group of order 2 that one mirror generates.
    """

    canon: Callable[[Coords], Coords]
    orbit_size: Callable[[Coords], int]

    def fixes(self, v) -> bool:
        """Whether v is a tuple that every map of the group fixes."""
        return (isinstance(v, tuple) and self.canon(v) == v
                and self.orbit_size(v) == 1)


def _signed_orbit_size(rep: Coords) -> int:
    # d!/prod(mult!) arrangements of the absolute values, times a sign
    # for each nonzero coordinate
    size = factorial(len(rep))
    for c in set(rep):
        size //= factorial(rep.count(c))
    return size << sum(1 for c in rep if c)


#: Signed coordinate permutations: automorphisms of Z^d, and of the
#: Kronecker and Cartesian powers of the line, that fix the origin.
SIGNED_PERMUTATIONS = Symmetry(lambda v: tuple(sorted(map(abs, v))),
                               _signed_orbit_size)


def reflection(sigma: Callable[[Coords], Coords]) -> Symmetry:
    """The group {1, sigma} of an involutive automorphism sigma: an orbit
    is {v, sigma(v)}, represented by its smaller tuple."""

    def canon(v: Coords) -> Coords:
        w = sigma(v)
        return w if w < v else v

    return Symmetry(canon, lambda rep: 1 if sigma(rep) == rep else 2)


@dataclass(frozen=True)
class ImplicitGraph:
    """Locally finite graph given by a neighbor function on coordinate tuples.

    ``neighbor_fn`` must describe a simple graph: ``w`` is a neighbor of
    ``v`` exactly when ``v`` is a neighbor of ``w``, and never ``v`` itself.
    :func:`ball` trusts this and does not re-check the adjacency it builds.
    ``contains_fn`` is optional; when present it lets callers validate
    roots before expanding balls.  ``symmetry`` is optional too: a group
    of automorphisms of the graph, trusted like ``neighbor_fn``, which
    :func:`orbit_ball` quotients by.  The named lattices of
    :mod:`latticewalks.walks` set it: signed coordinate permutations on
    Z, Z^2 and the Kronecker and Cartesian cubes of Z, and a mirror
    through the root on the half plane, wedge, strip, quarter plane and
    chamber and their product forms.
    """

    dimension: int
    neighbor_fn: Callable[[Coords], Iterable[Coords]]
    name: str
    contains_fn: Callable[[Coords], bool] | None = None
    symmetry: Symmetry | None = None

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


def restrict_lattice(name: str, dimension: int,
                     inside: Callable[[Coords], bool]) -> ImplicitGraph:
    """Nearest-neighbor graph ``lattice[name]`` on the points of
    Z^dimension where ``inside`` holds.

    Edges move +-1 in exactly one coordinate and stay inside the domain.
    """

    def nbrs(v: Coords) -> list[Coords]:
        out = []
        for i in range(dimension):
            head, x, tail = v[:i], v[i], v[i + 1:]
            for y in (x - 1, x + 1):
                w = head + (y,) + tail
                if inside(w):
                    out.append(w)
        return out

    return ImplicitGraph(dimension, nbrs, f"lattice[{name}]", inside)


def full_plane() -> ImplicitGraph:
    return restrict_lattice("Z^2", 2, lambda v: True)


def half_plane() -> ImplicitGraph:
    """Lattice points with x >= y."""
    return restrict_lattice("x>=y", 2, lambda v: v[0] >= v[1])


def strip(n: int) -> ImplicitGraph:
    """Diagonal strip x >= y >= x-(n-1), i.e. x-y confined to 0..n-1."""
    if n < 2:
        raise ValueError("strip width must be at least 2")
    return restrict_lattice(f"x>=y>=x-{n - 1}", 2,
                            lambda v: v[0] >= v[1] >= v[0] - (n - 1))


def wedge() -> ImplicitGraph:
    """Wedge x >= y >= -x (an eighth of the plane, closed under reflection)."""
    return restrict_lattice("x>=y>=-x", 2, lambda v: v[0] >= v[1] >= -v[0])


def diamond(k: int, l: int) -> ImplicitGraph:
    """Finite diamond 0 <= x+y <= k-1, 0 <= x-y <= l-1."""
    if k < 2 or l < 2:
        raise ValueError("diamond side lengths must be at least 2")
    return restrict_lattice(
        f"0<=x+y<={k - 1},0<=x-y<={l - 1}", 2,
        lambda v: 0 <= v[0] + v[1] <= k - 1 and 0 <= v[0] - v[1] <= l - 1)


def quarter_plane() -> ImplicitGraph:
    return restrict_lattice("x>=0,y>=0", 2, lambda v: v[0] >= 0 and v[1] >= 0)


def chamber3() -> ImplicitGraph:
    """Ordered chamber x >= y >= z in Z^3."""
    return restrict_lattice("x>=y>=z", 3, lambda v: v[0] >= v[1] >= v[2])


# ---------------------------------------------------------------------------
# products


def _product(g1: Graph, g2: Graph, mode: str) -> Graph:
    tag = "kron" if mode == "kron" else "cart"
    name = f"{tag}({g1.name or 'G1'},{g2.name or 'G2'})"
    d1 = g1.dimension
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

    if isinstance(g1, FiniteGraph) and isinstance(g2, FiniteGraph):
        verts = sorted(a + b for a in g1.vertices for b in g2.vertices)
        root = None
        if g1.root is not None and g2.root is not None:
            root = g1.root_coords + g2.root_coords
        return _induced(verts, nbrs, root, name)
    return ImplicitGraph(d1 + g2.dimension, nbrs, name,
                         lambda v: v[:d1] in g1 and v[d1:] in g2)


def kronecker(g1: Graph, g2: Graph) -> Graph:
    """Kronecker (tensor) product: adjacent iff adjacent in both factors."""
    return _product(g1, g2, "kron")


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """Cartesian (box) product: adjacent iff exactly one coordinate moves."""
    return _product(g1, g2, "cart")


# The two products by name.  The entries look the constructors up at call
# time, so a wrapped kronecker or cartesian sees every product built here.
PRODUCT_KINDS = KindTable("product", {
    "kron": lambda g1, g2: kronecker(g1, g2),
    "cartesian": lambda g1, g2: cartesian(g1, g2),
})


# ---------------------------------------------------------------------------
# finite truncations and component structure


def _expand(g: Graph, root, radius: int, budget: int, sym: Symmetry | None
            ) -> tuple[dict[Coords, int], list[list[int]], list[int], list[int], bool]:
    # The quotient of the ball by sym, a group that must fix the root:
    # (index, rows, depths, sizes, truncated), where index maps each orbit
    # representative to its position, rows, depths and sizes are as
    # orbit_ball returns them, and truncated tells whether the outermost
    # layer lost neighbors beyond the radius.
    r = _as_coords(root)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if budget < 1:
        raise ValueError("vertex budget must be positive")
    if len(r) != g.dimension:
        raise ValueError(f"root dimension {len(r)} != graph dimension {g.dimension}")
    if r not in g:
        raise ValueError(f"root {r} is not a vertex of {g.name or 'graph'}")
    if sym is None or not sym.fixes(r):
        raise ValueError(f"root {r} is not fixed by a symmetry of {g.name or 'graph'}")

    # Each vertex's neighbor set is computed once.  A vertex at depth d has
    # neighbors only at depths d-1, d, d+1, so a layer's rows become index
    # rows as soon as the next layer is indexed.  The budget counts the
    # vertices the representatives stand for.
    canon, orbit_size, nbrs = sym.canon, sym.orbit_size, _neighbor_fn(g)
    index = {r: 0}
    depths = [0]
    sizes = [1]
    kept = 1
    rows: list[list[int]] = []
    frontier = [r]
    for d in range(radius):
        layer = [[canon(w) for w in set(nbrs(v))] for v in frontier]
        fresh = sorted({c for row in layer for c in row if c not in index})
        fresh_sizes = [orbit_size(c) for c in fresh]
        added = sum(fresh_sizes)
        if kept + added > budget:
            raise ResourceLimitError(
                f"ball of radius {radius} around {r} exceeds vertex budget {budget}: "
                f"layer {d + 1} would add {added} vertices to the "
                f"{kept} kept through layer {d}")
        index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
        depths.extend([d + 1] * len(fresh))
        sizes.extend(fresh_sizes)
        kept += added
        rows.extend([index[c] for c in row] for row in layer)
        frontier = fresh
        if not frontier:
            break

    # outermost layer: neighbors beyond the radius are cut off
    truncated = False
    get = index.get
    for v in frontier:
        row = [get(canon(w)) for w in set(nbrs(v))]
        if None in row:
            truncated = True
            row = [j for j in row if j is not None]
        rows.append(row)
    return index, rows, depths, sizes, truncated


# The group of the identity alone: every orbit is one vertex, and
# tuple(w) is w itself.
_TRIVIAL = Symmetry(tuple, lambda rep: 1)


def ball(g: Graph, root, radius: int,
         budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteGraph:
    """Induced subgraph on vertices within graph distance ``radius`` of root.

    Expansion is breadth first with coordinate-sorted layers, so the vertex
    order (and everything derived from it) is deterministic.  Raises
    :class:`ResourceLimitError` when the expansion would exceed ``budget``
    vertices; the budget is a correctness guard, never a silent truncation.
    """
    index, rows, depths, _, truncated = _expand(g, root, radius, budget, _TRIVIAL)
    for row in rows:
        row.sort()
    return FiniteGraph._trusted(
        list(index), index, rows, 0, f"ball({g.name or 'graph'},r={radius})",
        ball_radius=radius, depths=depths, truncated=truncated)


def orbit_ball(g: ImplicitGraph, root, radius: int,
               budget: int = DEFAULT_VERTEX_BUDGET
               ) -> tuple[list[list[int]], list[int], list[int]]:
    """Quotient of ``ball(g, root, radius)`` by ``g.symmetry``, which must
    fix the root: ``(rows, depths, sizes)`` over one representative per
    orbit, in the breadth-first layers of :func:`ball`, sorted within each.

    ``rows[i]`` lists ``canon(w)``'s index for every neighbor w of
    representative i inside the ball, repeats included, so its length is
    i's degree in the ball; ``sizes[i]`` is the orbit size.  The budget
    counts the vertices the representatives stand for.  :func:`ball` is
    the same expansion under the trivial group, so both fail on the same
    input with the same message, and a budget overrun at the same layer.
    """
    _, rows, depths, sizes, _ = _expand(g, root, radius, budget, g.symmetry)
    return rows, depths, sizes


def _induced(verts: list[Coords], nbrs: Callable[[Coords], Iterable[Coords]],
             root: Coords | None, name: str) -> FiniteGraph:
    # The graph on verts (sorted, distinct, well formed) whose edges are the
    # pairs nbrs links inside verts; nbrs must be symmetric and loop-free
    # and list each neighbor once.  root is dropped when it is not in verts.
    index = {v: i for i, v in enumerate(verts)}
    adj = [sorted([index[w] for w in nbrs(v) if w in index]) for v in verts]
    return FiniteGraph._trusted(verts, index, adj, index.get(root), name)


def induced_subgraph(g: FiniteGraph, keep: Iterable[Sequence[int]],
                     name: str = "") -> FiniteGraph:
    """Induced subgraph on a subset of vertices, sorted by coordinates."""
    verts = sorted({_as_coords(v) for v in keep})
    if not verts:
        raise ValueError("graph needs at least one vertex")
    missing = [v for v in verts if v not in g]
    if missing:
        raise ValueError(f"vertices not in graph: {missing[:3]}")
    return _induced(verts, _neighbor_fn(g), g.root_coords, name or f"sub({g.name})")


def connected_components(g: FiniteGraph) -> list[FiniteGraph]:
    """Connected components as induced subgraphs, ordered by smallest vertex."""
    verts, adj = g.vertices, g.adjacency
    # on a coordinate-sorted vertex list, index order is coordinate order
    # and relabelled rows stay sorted
    in_order = verts == sorted(verts)
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
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        comp.sort(key=None if in_order else verts.__getitem__)
        comps.append(comp)
    comps.sort(key=lambda comp: verts[comp[0]])

    # each component's rows are g's rows relabelled to the local
    # (coordinate-sorted) indices
    local = [0] * len(g)
    out = []
    for c, comp in enumerate(comps):
        for k, i in enumerate(comp):
            local[i] = k
        vs = [verts[i] for i in comp]
        rows = [[local[j] for j in adj[i]] for i in comp]
        if not in_order:
            for row in rows:
                row.sort()
        root = local[g.root] if g.root is not None and g.root in comp else None
        out.append(FiniteGraph._trusted(vs, dict(zip(vs, range(len(vs)))), rows,
                                        root, f"{g.name or 'graph'}[comp{c}]"))
    return out


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
        return self._images([t])[0]

    def _images(self, vertices: list[Coords]) -> list[Coords]:
        # the images of well-formed vertices of the map's dimension, one
        # output coordinate at a time over the coordinate columns; a ragged
        # matrix or an offset of the wrong length raises ValueError
        columns = list(zip(*vertices))
        out = []
        for row, off in zip(self.matrix, self.offset, strict=True):
            acc = [off] * len(vertices)
            for c, col in zip(row, columns, strict=True):
                if c:
                    acc = [a + c * x for a, x in zip(acc, col)]
            out.append(acc)
        return list(zip(*out))


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

    The checks run in order: the root's image, the two ball sizes, that
    the map is injective on the source ball and lands inside the target
    ball, and then the edges both ways.  The map is applied once per
    source vertex; each image becomes its target index, and the edges are
    compared as two sets of ``a < b`` target-index pairs, O(V + E) set
    work.  The report names the first failed check; for an edge check its
    witness is the smallest differing edge as a coordinate pair with
    sorted endpoints.
    """
    src = ball(iso.source, iso.source_root, ball_radius, budget)
    tgt = ball(iso.target, iso.target_root, ball_radius, budget)
    n = len(src)

    def report(detail: str, witness: tuple | None = None) -> IsoReport:
        return IsoReport(False, detail, witness, n, len(tgt))

    if iso.apply(iso.source_root) != tuple(iso.target_root):
        return report("map does not carry the source root to the target root",
                      (iso.source_root,))
    if n != len(tgt):
        return report(f"ball sizes differ: {n} vs {len(tgt)}")

    images = iso._images(src.vertices)
    if len(set(images)) != n:
        first: dict[Coords, Coords] = {}
        for v, w in zip(src.vertices, images):
            if w in first:
                return report("map is not injective on the source ball", (first[w], v))
            first[w] = v
    perm = list(map(tgt._index.get, images))
    if None in perm:
        i = perm.index(None)
        return report(f"image vertex {images[i]} is outside the target ball",
                      (src.vertices[i],))

    mapped = {(a, b) for a, row in zip(perm, src.adjacency)
              for b in map(perm.__getitem__, row) if a < b}
    target = {(a, b) for a, row in enumerate(tgt.adjacency) for b in row if a < b}
    for detail, diff in (("mapped edge missing from the target ball", mapped - target),
                         ("target edge has no preimage edge", target - mapped)):
        if diff:
            return report(detail, min(tuple(sorted(map(tgt.vertices.__getitem__, e)))
                                      for e in diff))
    return IsoReport(True, "edge-preserving bijection on balls", None, n, n)


_FOLD = ((1, 1), (1, -1))  # (x, y) |-> (x + y, x - y)


class FoldKind(NamedTuple):
    """A named fold: the parameters its builder takes, the ball radius it
    is checked at, and the builder of (source, target, map name)."""

    params: tuple[str, ...]
    radius: int
    build: Callable[..., tuple[Graph, Graph, str]]


# The fold carries each lattice onto the origin component of a Kronecker
# product of its two diagonal factors.  Builders look the
# product constructors up at call time, so a wrapped kronecker or
# cartesian sees every product they build.
FOLD_KINDS = KindTable("fold", {
    "plane": FoldKind((), 8, lambda: (
        cartesian(integer_line(), integer_line()),
        kronecker(integer_line(), integer_line()), "plane-to-kron")),
    "strip": FoldKind(("n",), 6, lambda n: (
        strip(n),
        kronecker(integer_line(), path_graph(n)), f"strip{n}-to-kron")),
    "halfplane": FoldKind((), 6, lambda: (
        half_plane(),
        kronecker(integer_line(), half_line()), "halfplane-to-kron")),
    "wedge": FoldKind((), 6, lambda: (
        wedge(),
        kronecker(half_line(), half_line()), "wedge-to-kron")),
    "diamond": FoldKind(("k", "l"), 6, lambda k, l: (
        diamond(k, l),
        kronecker(path_graph(k), path_graph(l)), f"diamond{k}x{l}-to-kron")),
})


def fold_map(kind: str, n: int | None = None, k: int | None = None,
             l: int | None = None) -> IsoMap:
    """The fold (x, y) |-> (x + y, x - y) of a named kind in
    :data:`FOLD_KINDS`, rooted at the origin on both sides; the kind takes
    exactly the parameters its ``params`` names."""
    fold = FOLD_KINDS[kind]
    source, target, name = fold.build(**FOLD_KINDS.params(kind, fold.params,
                                                          n=n, k=k, l=l))
    return IsoMap(_FOLD, (0, 0), source, (0, 0), target, (0, 0), name)
