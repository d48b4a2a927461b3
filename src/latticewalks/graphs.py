"""Graphs on integer coordinate tuples: products, lattices, and balls.

Every vertex is a fixed-length tuple of ints.  Product graphs concatenate
coordinate tuples, so base graphs, Kronecker/Cartesian products, and
restricted lattices all share one hash-friendly vertex representation.

Every named graph, the finite path and the restricted lattices of
:mod:`latticewalks.walks` included, is a step lattice (:func:`lattice`):
the points of Z^d inside walls a . v >= b, with edges v ~ v + s for s in
a set of steps closed under negation, such as the half plane, Z^2 with
unit steps cut by x - y >= 0.  The Kronecker product of
two step lattices pairs their steps (Z with Z gives (+-1, +-1)), the
Cartesian product pads each factor's steps with zeros, and both keep every
wall, so products of step lattices are step lattices.

Infinite graphs, and products of any other factors, finite ones included,
are neighbor-function views and are never materialized:
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
from functools import lru_cache
from itertools import chain
from math import factorial
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import KindTable, ResourceLimitError, check_order, check_path

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

    Only :func:`ball` and this validating constructor build one.
    Construction checks the adjacency structure (symmetric, loop-free,
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

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2

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

    ``neighbor_fn(v)`` returns a list or tuple that names each neighbor of
    v once, and must describe a simple graph: ``w`` is a neighbor of ``v``
    exactly when ``v`` is a neighbor of ``w``, and never ``v`` itself.
    :func:`ball` trusts this and does not re-check the adjacency it builds.
    ``contains_fn`` is optional; when present it lets callers validate
    roots before expanding balls.  ``symmetry`` is optional too: a group
    of automorphisms of the graph, trusted like ``neighbor_fn``, which
    :func:`orbit_ball` quotients by; each named lattice of
    :mod:`latticewalks.walks` that has one states it in its row.  A step
    lattice (:func:`lattice`) keeps its ``steps`` and its ``walls``,
    ``(a, b)`` for each half space a . v >= b.
    """

    dimension: int
    neighbor_fn: Callable[[Coords], Sequence[Coords]]
    name: str
    contains_fn: Callable[[Coords], bool] | None = None
    symmetry: Symmetry | None = None
    steps: tuple[Coords, ...] | None = None
    walls: tuple[tuple[Coords, int], ...] | None = None

    def neighbors(self, v) -> tuple[Coords, ...]:
        # a step lattice's neighbor function tests only the walls a step
        # can cross, so it is asked only at vertices
        t = _as_coords(v)
        if t not in self:
            raise KeyError(t)
        return tuple(sorted(self.neighbor_fn(t)))

    def __contains__(self, v) -> bool:
        try:
            t = _as_coords(v)
        except ValueError:
            return False
        if len(t) != self.dimension:
            return False
        return True if self.contains_fn is None else bool(self.contains_fn(t))


Graph = Union[FiniteGraph, ImplicitGraph]


def _neighbor_fn(g: Graph) -> Callable[[Coords], Sequence[Coords]]:
    """Unvalidated neighbor function of g for internal use.

    It takes a coordinate tuple already known to be well formed and
    returns its neighbors in any order, each once.  The public
    ``neighbors`` methods validate and sort.
    """
    if isinstance(g, FiniteGraph):
        verts, adj, index = g.vertices, g.adjacency, g._index
        return lambda v: [verts[j] for j in adj[index[v]]]
    return g.neighbor_fn


# ---------------------------------------------------------------------------
# base graphs


def path_graph(n: int) -> ImplicitGraph:
    """The path on (0,), ..., (n-1,): the step lattice 0 <= x <= n-1."""
    return lattice(f"lattice[P{check_path(n)}]", unit_steps(1), [((1,), 0), ((-1,), 1 - n)])


def integer_line() -> ImplicitGraph:
    """The two-sided integer line with nearest-neighbor edges."""
    return lattice("Z", unit_steps(1), ())


def half_line() -> ImplicitGraph:
    """Nonnegative integers 0 -- 1 -- 2 -- ... with nearest-neighbor edges."""
    return lattice("Z+", unit_steps(1), [((1,), 0)])


# ---------------------------------------------------------------------------
# step lattices

#: The neighbor functions kept, one per (steps, wall normals) pair.
_LATTICE_CODE_CACHE = 64


def unit_steps(d: int) -> tuple[Coords, ...]:
    """+-1 in one coordinate: the nearest-neighbor steps of Z^d."""
    return tuple(tuple(sign * (i == j) for j in range(d))
                 for i in range(d) for sign in (1, -1))


def _linear(a: Coords, xs: list[str]) -> str:
    # a . x as Python source, such as "x0 - x1" or "-x0 + 2 * x2"; "0" for a = 0
    src = "".join(f" {'-' if c < 0 else '+'} {x if abs(c) == 1 else f'{abs(c)} * {x}'}"
                  for c, x in zip(a, xs) if c)
    if not src:
        return "0"
    return src[3:] if src.startswith(" + ") else "-" + src[3:]


@lru_cache(maxsize=_LATTICE_CODE_CACHE)
def _lattice_code(steps: tuple[Coords, ...], normals: tuple[Coords, ...]
                  ) -> Callable[..., tuple[Callable, Callable]]:
    # make(b_0, ..., b_k) -> (nbrs, inside) for the lattice on Z^d with
    # these steps inside the walls a_j . v >= b_j.  The source is generated
    # once, so the bounds are arguments and every size of a lattice shares
    # one code object.
    # Slack s_j = a_j . v - b_j is taken once per vertex; step t keeps it
    # >= 0 exactly when s_j >= -a_j . t for each wall it can cross
    # (a_j . t < 0), so it tests only those, and steps with the same test
    # share one branch.
    xs = [f"x{i}" for i in range(len(steps[0]))]
    bounds = [f"b{j}" for j in range(len(normals))]
    comma = "," if len(xs) == 1 else ""  # of a 1-tuple
    unpack = f"{', '.join(xs)}{comma} = v"
    tests: dict[str, list[str]] = {}
    for t in steps:
        need = " and ".join(f"s{j} >= {-c}" for j, a in enumerate(normals)
                            if (c := sum(map(mul, a, t))) < 0)
        coords = [f"{x} + {c}" if c > 0 else f"{x} - {-c}" if c else x
                  for x, c in zip(xs, t)]
        tests.setdefault(need, []).append(f"({', '.join(coords)}{comma})")
    lines = [f"def make({', '.join(bounds)}):", "    def inside(v):", f"        {unpack}",
             "        return " + (" and ".join(f"{_linear(a, xs)} >= {b}"
                                               for a, b in zip(normals, bounds)) or "True"),
             "    def nbrs(v):", f"        {unpack}"]
    lines += [f"        s{j} = {_linear(a, xs)} - {b}" for j, (a, b) in
              enumerate(zip(normals, bounds))]
    lines.append(f"        out = [{', '.join(tests.pop('', []))}]")
    for need, ts in tests.items():
        lines += [f"        if {need}:", f"            out += ({', '.join(ts)},)"]
    lines += ["        return out", "    return nbrs, inside"]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<lattice steps={steps} walls={normals}>", "exec"),
         namespace)
    return namespace["make"]


def lattice(name: str, steps: Iterable[Coords],
            walls: Iterable[tuple[Coords, int]]) -> ImplicitGraph:
    """The graph on the points v of Z^d inside the walls ``a . v >= b``,
    one ``(a, b)`` pair each, with edges v ~ v + s for s in ``steps``.

    The steps must be distinct nonzero int tuples of one length d, closed
    under negation, so the graph is simple; each wall normal a is an int
    tuple of length d.  Its neighbor function is generated from the steps
    and the normals (the bounds b are its arguments) and tests for each
    step only the walls it can cross.
    """
    steps = tuple(map(tuple, steps))
    walls = tuple((tuple(a), b) for a, b in walls)
    d = len(steps[0]) if steps else 0
    vectors = [*steps, *(a for a, _ in walls)]
    if (not d or any(len(s) != d or not all(type(c) is int for c in s) for s in vectors)
            or len(set(steps)) != len(steps) or (0,) * d in steps
            or {tuple(-c for c in s) for s in steps} != set(steps)):
        raise ValueError(f"{name}: steps must be distinct nonzero int tuples of one "
                         "length, closed under negation, and wall normals int tuples "
                         "of that length")
    nbrs, inside = _lattice_code(steps, tuple(a for a, _ in walls))(*(b for _, b in walls))
    return ImplicitGraph(d, nbrs, name, inside, steps=steps, walls=walls)


# ---------------------------------------------------------------------------
# products


def _product(g1: Graph, g2: Graph, mode: str) -> Graph:
    # A product of two step lattices is the step lattice of the paired
    # steps (Kronecker) or of each factor's steps padded with zeros
    # (Cartesian), inside both factors' walls.  Any other pair, two finite
    # graphs included, composes the factors' neighbor functions and
    # membership tests.
    tag = "kron" if mode == "kron" else "cart"
    name = f"{tag}({g1.name or 'G1'},{g2.name or 'G2'})"
    d1 = g1.dimension
    if getattr(g1, "walls", None) is not None and getattr(g2, "walls", None) is not None:
        z1, z2 = (0,) * d1, (0,) * g2.dimension
        steps = ([a + b for a in g1.steps for b in g2.steps] if mode == "kron" else
                 [a + z2 for a in g1.steps] + [z1 + b for b in g2.steps])
        return lattice(name, steps, [(a + z2, b) for a, b in g1.walls]
                       + [(z1 + a, b) for a, b in g2.walls])
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

    return ImplicitGraph(d1 + g2.dimension, nbrs, name,
                         lambda v: v[:d1] in g1 and v[d1:] in g2)


def kronecker(g1: Graph, g2: Graph) -> Graph:
    """Kronecker (tensor) product: adjacent iff adjacent in both factors."""
    return _product(g1, g2, "kron")


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """Cartesian (box) product: adjacent iff exactly one coordinate moves."""
    return _product(g1, g2, "cart")


# Each product's components of P_n and P_k, as (size, smallest vertex) pairs by
# smallest vertex, from n and k alone.  By Weichsel's theorem (Proc. AMS 13 (1962)
# 47-52) a Kronecker product of connected bipartite graphs with an edge each has
# two components, split by the parity of i + j; with the edgeless P_1 as a factor
# it has no edge at all.  A Cartesian product of connected graphs is connected.
PRODUCT_KINDS = KindTable("product", {
    "kron": lambda n, k: ([(1, (i, j)) for i in range(n) for j in range(k)]
                          if min(check_path(n), check_path(k)) == 1 else
                          [((n * k + 1) // 2, (0, 0)), (n * k // 2, (0, 1))]),
    "cartesian": lambda n, k: [(check_path(n) * check_path(k), (0, 0))],
})


# ---------------------------------------------------------------------------
# finite truncations and component structure


def _expand(g: Graph, root, radius: int, budget: int, sym: Symmetry | None
            ) -> tuple[dict[Coords, int], list[list[int]], list[int], list[int] | None,
                       bool]:
    # The quotient of the ball by sym, a group that must fix the root:
    # (pos, rows, depths, sizes, truncated), where pos maps every vertex
    # met to its orbit representative's position (under the trivial group
    # it is the ball's index), rows, depths and sizes are as orbit_ball
    # returns them (sizes is None under the trivial group), and truncated
    # tells whether the outermost layer lost neighbors beyond the radius.
    r = _as_coords(root)
    check_order(radius, "radius")
    if budget < 1:
        raise ValueError("vertex budget must be positive")
    if len(r) != g.dimension:
        raise ValueError(f"root dimension {len(r)} != graph dimension {g.dimension}")
    if r not in g:
        raise ValueError(f"root {r} is not a vertex of {g.name or 'graph'}")
    if sym is None or not sym.fixes(r):
        raise ValueError(f"root {r} is not fixed by a symmetry of {g.name or 'graph'}")

    # Each vertex's neighbors are listed once, and canon runs once on each
    # vertex met; under the trivial group a vertex is its own
    # representative and canon is skipped.  A vertex at depth d has
    # neighbors only at depths d-1, d, d+1, so a layer's rows become index
    # rows as soon as the next layer is indexed.  The budget counts the
    # vertices the representatives stand for.
    nbrs = _neighbor_fn(g)
    canon = None if sym is _TRIVIAL else sym.canon
    sizes = None if canon is None else [1]
    pos = {r: 0}
    depths = [0]
    kept = 1
    rows: list[list[int]] = []
    frontier = [r]
    for d in range(radius):
        layer = list(map(nbrs, frontier))
        met = set(chain.from_iterable(layer)).difference(pos)
        if canon is None:
            fresh = sorted(met)
            added = len(fresh)
        else:
            reps = list(map(canon, met))
            fresh = sorted(set(reps).difference(pos))
            fresh_sizes = list(map(sym.orbit_size, fresh))
            added = sum(fresh_sizes)
            sizes += fresh_sizes
        if kept + added > budget:
            raise ResourceLimitError(
                f"ball of radius {radius} around {r} exceeds vertex budget {budget}: "
                f"layer {d + 1} would add {added} vertices to the "
                f"{kept} kept through layer {d}")
        pos.update(zip(fresh, range(len(depths), len(depths) + len(fresh))))
        if canon is not None:
            pos.update(zip(met, map(pos.__getitem__, reps)))
        depths.extend([d + 1] * len(fresh))
        kept += added
        rows.extend(list(map(pos.__getitem__, row)) for row in layer)
        frontier = fresh
        if not frontier:
            break

    # outermost layer: neighbors beyond the radius are cut off
    layer = list(map(nbrs, frontier))
    if canon is not None:
        met = set(chain.from_iterable(layer)).difference(pos)
        pos.update((w, i) for w, i in zip(met, map(pos.get, map(canon, met)))
                   if i is not None)
    truncated = False
    for row in layer:
        row = list(map(pos.get, row))
        if None in row:
            truncated = True
            row = [j for j in row if j is not None]
        rows.append(row)
    return pos, rows, depths, sizes, truncated


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


def connected_components(g: FiniteGraph) -> list[FiniteGraph]:
    """Connected components, ordered by smallest vertex: the ball of radius
    len(g) around each vertex, in sorted order, that no earlier component
    holds, in the breadth-first order of :func:`ball` and rooted there."""
    seen: set[Coords] = set()
    comps = []
    for v in sorted(g.vertices):
        if v not in seen:
            comps.append(ball(g, v, len(g), len(g)))
            seen.update(comps[-1].vertices)
    return comps


def degree_histogram(g: FiniteGraph, interior_radius: int) -> dict[int, int]:
    """Histogram of degrees over vertices within ``interior_radius`` of the root.

    ``g`` must be a ball (see :func:`ball`), and ``interior_radius`` must be
    strictly smaller than the ball radius: vertices on the outermost layer
    may have neighbors outside the ball, so their degrees are unreliable.
    """
    if getattr(g, "depths", None) is None or g.ball_radius is None:
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

