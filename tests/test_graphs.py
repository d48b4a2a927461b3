import itertools
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LUMPED,
    MIRRORS,
    SIGNED_KINDS,
    as_implicit,
    kind_id,
    naive_ball,
    random_graph,
    reference_iso_report,
)
from latticewalks import graphs, walks
from latticewalks.errors import ResourceLimitError
from latticewalks.graphs import (
    FiniteGraph,
    IsoMap,
    ball,
    cartesian,
    chamber3,
    connected_components,
    degree_histogram,
    diamond,
    fold_map,
    full_plane,
    half_line,
    half_plane,
    induced_subgraph,
    integer_line,
    orbit_ball,
    kronecker,
    path_graph,
    quarter_plane,
    restrict_lattice,
    strip,
    verify_isomorphism,
    wedge,
)


class TestFiniteGraph:
    def test_from_edges_builds_symmetric_adjacency(self):
        g = FiniteGraph.from_edges([(0,), (1,), (2,)], [((0,), (1,)), ((1,), (2,))],
                                   root=(0,))
        assert len(g) == 3
        assert g.neighbors((1,)) == ((0,), (2,))
        assert g.degree((0,)) == 1
        assert g.edge_count() == 2
        assert g.root_coords == (0,)

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteGraph([(0,), (1,)], [[1], []])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="loop"):
            FiniteGraph([(0,), (1,)], [[0, 1], [0]])

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteGraph([(0,), (1,)], [[1, 1], [0, 0]])

    def test_rejects_mixed_dimension(self):
        with pytest.raises(ValueError):
            FiniteGraph([(0,), (1, 2)], [[1], [0]])

    def test_rejects_non_integer_coordinates(self):
        with pytest.raises(ValueError):
            FiniteGraph([(0.5,), (1,)], [[1], [0]])

    def test_ball_fields_are_not_constructor_keywords(self):
        # only ball() may attach depths, which degree_histogram trusts
        with pytest.raises(TypeError):
            FiniteGraph([(0,), (1,)], [[1], [0]], ball_radius=1, depths=[0, 1])
        g = FiniteGraph([(0,), (1,)], [[1], [0]], root=(0,))
        assert (g.ball_radius, g.depths, g.truncated) == (None, None, False)
        with pytest.raises(ValueError, match="produced by ball"):
            degree_histogram(g, 0)

    def test_membership_and_index(self):
        g = path_graph(3)
        assert (2,) in g
        assert (3,) not in g
        assert g.index_of((1,)) == 1

    def test_unknown_vertex_raises(self):
        g = path_graph(3)
        with pytest.raises(KeyError):
            g.neighbors((7,))

    def test_rejects_root_outside_vertices(self):
        with pytest.raises(ValueError, match=r"root \(5,\) is not a vertex"):
            FiniteGraph([(0,), (1,)], [[1], [0]], root=(5,))

    def test_from_edges_rejects_edge_outside_vertices(self):
        with pytest.raises(ValueError, match=r"edge \(\(0,\), \(7,\)\)"):
            FiniteGraph.from_edges([(0,), (1,)], [((0,), (7,))])


class TestBuiltinGraphs:
    def test_path_graph_endpoints(self):
        g = path_graph(4)
        assert g.neighbors((0,)) == ((1,),)
        assert g.neighbors((3,)) == ((2,),)
        assert g.neighbors((1,)) == ((0,), (2,))

    def test_path_graph_needs_positive_length(self):
        with pytest.raises(ValueError):
            path_graph(0)

    def test_integer_line_neighbors(self):
        z = integer_line()
        assert z.neighbors((5,)) == ((4,), (6,))
        assert (-10,) in z

    def test_half_line_clips_at_origin(self):
        zp = half_line()
        assert zp.neighbors((0,)) == ((1,),)
        assert zp.neighbors((3,)) == ((2,), (4,))
        assert (-1,) not in zp


class TestDomains:
    # membership probes double as the definition record for each region
    def test_half_plane(self):
        d = half_plane()
        assert (0, 0) in d and (3, -1) in d
        assert (1, 2) not in d

    def test_wedge(self):
        d = wedge()
        assert (2, 1) in d and (2, -2) in d
        assert (2, 3) not in d and (2, -3) not in d

    def test_strip_width(self):
        d = strip(3)
        assert (0, 0) in d and (2, 0) in d
        assert (0, 1) not in d and (3, 0) not in d

    def test_strip_needs_width_two(self):
        with pytest.raises(ValueError):
            strip(1)

    def test_diamond_bounds(self):
        d = diamond(3, 4)
        assert (0, 0) in d and (2, 0) in d
        assert (2, 1) not in d  # x+y = 3 is outside 0..2
        assert (-1, 0) not in d

    def test_quarter_plane(self):
        d = quarter_plane()
        assert (0, 0) in d and (-1, 0) not in d

    def test_chamber_ordering(self):
        d = chamber3()
        assert (2, 1, 0) in d and (1, 1, 1) in d
        assert (0, 1, 0) not in d

    def test_custom_domain_predicate_hook(self):
        g = restrict_lattice("even-x", 2, lambda v: v[0] % 2 == 0)
        assert g.neighbors((0, 0)) == ((0, -1), (0, 1))
        assert (0, 3) in g and (1, 0) not in g and (0, 0, 0) not in g

    # each id is the domain inside the graph's name lattice[...]
    @pytest.mark.parametrize("domain", [
        full_plane(), half_plane(), strip(2), wedge(), diamond(2, 2),
        quarter_plane(), chamber3()], ids=lambda d: d.name[len("lattice["):-1])
    def test_named_domains_contain_their_origin(self, domain):
        # every named domain is rooted at the origin, down to its smallest
        # valid parameters
        assert (0,) * domain.dimension in domain

    def test_restrict_lattice_neighbors(self):
        g = half_plane()
        assert g.neighbors((0, 0)) == ((0, -1), (1, 0))
        assert g.neighbors((2, 0)) == ((1, 0), (2, -1), (2, 1), (3, 0))


class TestProducts:
    def test_finite_kronecker_size_and_edges(self):
        g = kronecker(path_graph(2), path_graph(3))
        assert len(g) == 6
        # (0,0) moves in both coordinates at once
        assert g.neighbors((0, 0)) == ((1, 1),)
        assert g.neighbors((1, 1)) == ((0, 0), (0, 2))

    def test_finite_cartesian_size_and_edges(self):
        g = cartesian(path_graph(2), path_graph(3))
        assert len(g) == 6
        assert g.neighbors((0, 0)) == ((0, 1), (1, 0))
        assert g.edge_count() == 1 * 3 + 2 * 2  # |E1||V2| + |V1||E2| = 7

    def test_kronecker_of_paths_disconnects(self):
        comps = connected_components(kronecker(path_graph(2), path_graph(3)))
        assert [len(c) for c in comps] == [3, 3]
        assert comps[0].vertices[0] == (0, 0)

    def test_implicit_product_neighbors(self):
        g = kronecker(integer_line(), half_line())
        assert set(g.neighbors((0, 0))) == {(-1, 1), (1, 1)}
        assert set(g.neighbors((0, 2))) == {(-1, 1), (-1, 3), (1, 1), (1, 3)}
        assert (0, -1) not in g

    def test_cartesian_implicit_neighbors(self):
        g = cartesian(half_line(), half_line())
        assert set(g.neighbors((0, 0))) == {(0, 1), (1, 0)}

    def test_product_root_carries_over(self):
        g = kronecker(path_graph(2), path_graph(2))
        assert g.root_coords == (0, 0)

    def test_mixed_product_dimension(self):
        g = kronecker(full_plane(), integer_line())
        assert g.dimension == 3


def _product_by_definition(g1, g2, kron: bool) -> FiniteGraph:
    """The product straight from its definition: Kronecker pairs are
    adjacent in both factors, Cartesian pairs are equal in one coordinate
    and adjacent in the other."""
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
    return FiniteGraph.from_edges(sorted(a + b for a, b in verts), edges)


class TestProductDefinition:
    @pytest.mark.parametrize("product", [kronecker, cartesian])
    def test_finite_and_lazy_products_match_the_definition(self, product):
        rng = random.Random(20161026)
        for _ in range(25):
            g1, g2 = random_graph(rng, 1, 5), random_graph(rng, 1, 5)
            expected = _product_by_definition(g1, g2, product is kronecker)
            g = product(g1, g2)
            assert g.vertices == expected.vertices
            assert g.adjacency == expected.adjacency
            # the lazy product: the balls around every vertex, with radius
            # at least the vertex count, cover all of it
            lazy = product(as_implicit(g1), as_implicit(g2))
            covered = set()
            for v in expected.vertices:
                covered |= ball(lazy, v, len(expected)).edge_set()
            assert covered == expected.edge_set()


class TestBall:
    def test_ball_of_path_is_whole_graph(self):
        b = ball(path_graph(5), (0,), 10)
        assert len(b) == 5
        assert b.ball_radius == 10
        assert not b.truncated

    def test_ball_layers_are_depth_sorted(self):
        b = ball(integer_line(), (0,), 3)
        assert b.vertices == [(0,), (-1,), (1,), (-2,), (2,), (-3,), (3,)]
        assert b.depths == [0, 1, 1, 2, 2, 3, 3]

    def test_ball_respects_domain(self):
        b = ball(wedge(), (0, 0), 2)
        assert (1, 1) in b and (1, -1) in b
        assert (0, 1) not in b

    def test_ball_budget_exhaustion(self):
        # layers of the plane hold 1, 4, 8, ... vertices: the budget of 5
        # admits layers 0 and 1 and is exceeded by layer 2
        with pytest.raises(ResourceLimitError) as info:
            ball(full_plane(), (0, 0), 10, budget=5)
        msg = str(info.value)
        assert "vertex budget 5" in msg
        assert "layer 2 would add 8 vertices" in msg
        assert "the 5 kept through layer 1" in msg

    def test_ball_root_is_first(self):
        b = ball(half_line(), (0,), 4)
        assert b.vertices[0] == (0,)
        assert b.index_of((0,)) == 0

    def test_ball_root_must_lie_in_graph(self):
        with pytest.raises(ValueError):
            ball(half_line(), (-2,), 3)


_KIND_PARAMS = {"strip": [{"n": 2}, {"n": 5}],
                "diamond": [{"k": 2, "l": 3}, {"k": 4, "l": 6}]}
_NAMED = [(kind, p) for kind in walks.lattice_walk_kinds()
          for p in _KIND_PARAMS.get(kind, [{}])]


def _assert_ball_matches_oracle(g, root, radius):
    b = ball(g, root, radius)
    vertices, depths, adjacency, truncated = naive_ball(g, root, radius)
    assert b.vertices == vertices
    assert b.depths == depths
    assert b.adjacency == adjacency
    assert b.truncated == truncated
    assert b.root == 0 and b.ball_radius == radius
    # the trusted construction must pass the full validation as well
    checked = FiniteGraph(b.vertices, b.adjacency, root=0)
    assert checked.adjacency == b.adjacency


class TestBallOracle:
    @pytest.mark.parametrize("kind,params", _NAMED,
                             ids=[kind_id(*kp) for kp in _NAMED])
    def test_named_kinds(self, kind, params):
        g, o = walks.build_lattice(kind, **params)
        for radius in range(7):
            _assert_ball_matches_oracle(g, o, radius)

    @pytest.mark.parametrize("product", [kronecker, cartesian])
    def test_random_finite_products(self, product):
        rng = random.Random(20160722)
        for _ in range(25):
            g = product(random_graph(rng, 1, 6), random_graph(rng, 1, 6))
            start = rng.choice(g.vertices)
            for radius in range(5):
                _assert_ball_matches_oracle(g, g.root_coords, radius)
                _assert_ball_matches_oracle(g, start, radius)

    def test_random_mixed_products(self):
        rng = random.Random(1607)
        for _ in range(10):
            f = random_graph(rng, 1, 5)
            for g in (kronecker(integer_line(), f), cartesian(f, half_line()),
                      kronecker(kronecker(f, half_line()), f)):
                root = (0,) * g.dimension
                for radius in range(5):
                    _assert_ball_matches_oracle(g, root, radius)


_MIRRORED = [(kind, params) for kind, params in LUMPED if kind in MIRRORS]


@cache
def _ball_vertices(kind: str, params: tuple = ()) -> list:
    g, o = walks.build_lattice(kind, **dict(params))
    return ball(g, o, 6).vertices


def _signed_image(perm, signs, v) -> tuple:
    return tuple(s * v[p] for s, p in zip(signs, perm))


def _signed_images(v) -> set:
    # v under every signed coordinate permutation, enumerated
    d = len(v)
    return {_signed_image(perm, signs, v)
            for perm in itertools.permutations(range(d))
            for signs in itertools.product((-1, 1), repeat=d)}


class TestOrbitBall:
    @pytest.mark.parametrize("kind", SIGNED_KINDS)
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_signed_permutations_are_automorphisms(self, kind, data):
        g, _ = walks.build_lattice(kind)
        d = g.dimension
        v = data.draw(st.sampled_from(_ball_vertices(kind)))
        perm = data.draw(st.permutations(range(d)))
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))

        def sigma(w):
            return _signed_image(perm, signs, w)

        assert set(g.neighbors(sigma(v))) == {sigma(w) for w in g.neighbors(v)}
        canon, orbit_size = g.symmetry.canon, g.symmetry.orbit_size
        assert canon(sigma(v)) == canon(v)
        assert orbit_size(canon(v)) == len(_signed_images(v))

    @pytest.mark.parametrize("kind,params", _MIRRORED,
                             ids=[kind_id(*kp) for kp in _MIRRORED])
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_mirrors_are_involutive_automorphisms(self, kind, params, data):
        g, _ = walks.build_lattice(kind, **params)
        sigma = MIRRORS[kind]
        v = data.draw(st.sampled_from(_ball_vertices(kind, tuple(params.items()))))
        assert sigma(sigma(v)) == v
        assert sigma(v) in g
        assert set(g.neighbors(sigma(v))) == {sigma(w) for w in g.neighbors(v)}
        canon, orbit_size = g.symmetry.canon, g.symmetry.orbit_size
        assert canon(v) in (v, sigma(v))
        assert canon(sigma(v)) == canon(v)
        assert orbit_size(canon(v)) == len({v, sigma(v)})

    @pytest.mark.parametrize("kind,params", LUMPED,
                             ids=[kind_id(*kp) for kp in LUMPED])
    def test_quotient_of_the_naive_ball(self, kind, params):
        g, o = walks.build_lattice(kind, **params)
        canon = g.symmetry.canon
        for radius in range(7):
            vertices, depths, adjacency, _ = naive_ball(g, o, radius)
            depth = dict(zip(vertices, depths))
            reps = sorted({canon(v) for v in vertices}, key=lambda c: (depth[c], c))
            index = {c: i for i, c in enumerate(reps)}
            rows, rep_depths, sizes = orbit_ball(g, o, radius)
            assert rep_depths == [depth[c] for c in reps]
            assert sizes == [sum(canon(v) == c for v in vertices) for c in reps]
            assert [sorted(row) for row in rows] == [
                sorted(index[canon(vertices[j])] for j in adjacency[vertices.index(c)])
                for c in reps]

    def test_root_must_be_fixed(self):
        for kind, root in (("z2", (1, 0)), ("z2", (0, 1)), ("halfplane", (1, 0)),
                           ("chamber3", (1, 0, 0))):
            g, _ = walks.build_lattice(kind)
            with pytest.raises(ValueError, match="not fixed"):
                orbit_ball(g, root, 3)
        with pytest.raises(ValueError, match="not fixed"):
            orbit_ball(full_plane(), (0, 0), 3)


# (kind, root, radius, budget, start of the message)
_BAD_BALL_INPUT = [
    ("z2", (0, 0), -1, 100, "radius must be nonnegative"),
    ("chamber3", (0, 0, 0), -1, 100, "radius must be nonnegative"),
    ("z2", (0, 0), 3, 0, "vertex budget must be positive"),
    ("chamber3", (0, 0, 0), 3, 0, "vertex budget must be positive"),
    ("z2", (0, 0, 0), 3, 100, "root dimension 3 != graph dimension 2"),
    ("chamber3", (0, 0), 3, 100, "root dimension 2 != graph dimension 3"),
    ("z2", (0.5, 0), 3, 100, "vertex coordinates must be ints"),
    ("chamber3", (0, 1, 0), 3, 100, "root (0, 1, 0) is not a vertex"),
]


@pytest.mark.parametrize("kind,root,radius,budget,message", _BAD_BALL_INPUT)
def test_ball_and_orbit_ball_reject_bad_input_alike(kind, root, radius, budget,
                                                    message):
    g, _ = walks.build_lattice(kind)
    with pytest.raises(ValueError) as from_ball:
        ball(g, root, radius, budget)
    with pytest.raises(ValueError) as from_orbit_ball:
        orbit_ball(g, root, radius, budget)
    assert str(from_ball.value).startswith(message)
    assert str(from_orbit_ball.value) == str(from_ball.value)


def _assert_same_graph(g, h):
    assert (g.vertices, g.adjacency, g.root, g.name) == \
        (h.vertices, h.adjacency, h.root, h.name)


class TestComponentsAndSubgraphs:
    def test_induced_subgraph_keeps_inner_edges(self):
        g = path_graph(5)
        s = induced_subgraph(g, [(0,), (1,), (3,)])
        assert len(s) == 3
        assert s.neighbors((0,)) == ((1,),)
        assert s.neighbors((3,)) == ()

    def test_components_ordered_by_smallest_vertex(self):
        g = FiniteGraph.from_edges([(0,), (1,), (2,), (3,)],
                                   [((2,), (3,))])
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [[(0,)], [(1,)], [(2,), (3,)]]

    def test_components_of_unsorted_graph_are_induced_subgraphs(self):
        # listed out of coordinate order, rooted in the second component
        g = FiniteGraph.from_edges(
            [(3, 0), (0, 1), (2, 2), (1, 0), (0, 0), (2, 1)],
            [((0, 0), (0, 1)), ((1, 0), (0, 0)), ((2, 1), (2, 2)),
             ((3, 0), (2, 2)), ((2, 1), (3, 0))], root=(3, 0), name="G")
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [[(0, 0), (0, 1), (1, 0)],
                                               [(2, 1), (2, 2), (3, 0)]]
        assert [c.adjacency for c in comps] == [[[1, 2], [0], [0]],
                                                [[1, 2], [0, 2], [0, 1]]]
        assert [(c.root, c.name) for c in comps] == [(None, "G[comp0]"), (2, "G[comp1]")]
        for c in comps:
            _assert_same_graph(c, induced_subgraph(g, c.vertices, name=c.name))

    def test_components_of_shuffled_random_graphs(self):
        rng = random.Random(2718)
        for _ in range(40):
            g = random_graph(rng, 1, 9)
            order = list(range(len(g)))
            rng.shuffle(order)
            relabel = {i: k for k, i in enumerate(order)}
            h = FiniteGraph([g.vertices[i] for i in order],
                            [[relabel[j] for j in g.adjacency[i]] for i in order],
                            root=rng.choice(g.vertices), name="H")
            comps = connected_components(h)
            assert sorted(v for c in comps for v in c.vertices) == sorted(h.vertices)
            assert [c.vertices[0] for c in comps] == sorted(c.vertices[0] for c in comps)
            for k, c in enumerate(comps):
                assert c.name == f"H[comp{k}]"
                _assert_same_graph(c, induced_subgraph(h, c.vertices, name=c.name))

    def test_degree_histogram_interior_only(self):
        b = ball(full_plane(), (0, 0), 4)
        hist = degree_histogram(b, 2)
        assert hist == {4: 13}  # interior of the diagonal plane is 4-regular

    def test_degree_histogram_validates_radius(self):
        b = ball(integer_line(), (0,), 3)
        with pytest.raises(ValueError):
            degree_histogram(b, 3)
        with pytest.raises(ValueError):
            degree_histogram(path_graph(3), 1)  # no ball metadata


_FOLD_PARAMS = {"strip": [(2,), (3,), (5,)], "diamond": [(2, 2), (3, 3), (4, 4)]}
_FOLDS = [(kind, p) for kind in graphs.FOLD_KINDS for p in _FOLD_PARAMS.get(kind, [()])]


def _remap(good, matrix=None, offset=None, target=None):
    """good with its matrix, offset or target graph replaced."""
    return IsoMap(matrix or good.matrix, offset or good.offset, good.source,
                  good.source_root, target or good.target, good.target_root)


def _report(iso, radius):
    rep = verify_isomorphism(iso, radius)
    return (rep.ok, rep.detail, rep.witness, rep.source_size, rep.target_size)


def _identity(verts, root, source_edges, target_edges):
    """The identity map between two graphs on the same vertices."""
    return IsoMap(((1,),), (0,), FiniteGraph.from_edges(verts, source_edges), root,
                  FiniteGraph.from_edges(verts, target_edges), root)


# rooted at (1,), both radius-1 balls hold all three vertices
_LINE = [(0,), (1,), (2,)]
_PATH = [((0,), (1,)), ((1,), (2,))]
_TRIANGLE = _PATH + [((0,), (2,))]

#: A map for each IsoReport branch, with the report it gives; the root and
#: outside-the-target branches are pinned by test_root_mismatch_is_caught
#: and test_broken_map_reports_witness.
_BRANCHES = {
    "sizes": lambda: (_remap(fold_map("plane"), target=fold_map("strip", 3).target), 2, (
        False, "ball sizes differ: 13 vs 8", None, 13, 8)),
    "injective": lambda: (_remap(fold_map("plane"), matrix=((1, 1), (1, 1))), 2, (
        False, "map is not injective on the source ball", ((-1, 0), (0, -1)), 13, 13)),
    "mapped-edge-missing": lambda: (_identity(_LINE, (1,), _TRIANGLE, _PATH), 1, (
        False, "mapped edge missing from the target ball", ((0,), (2,)), 3, 3)),
    "target-edge-unmatched": lambda: (_identity(_LINE, (1,), _PATH, _TRIANGLE), 1, (
        False, "target edge has no preimage edge", ((0,), (2,)), 3, 3)),
    "ok": lambda: (fold_map("plane"), 2, (
        True, "edge-preserving bijection on balls", None, 13, 13)),
}


class TestIsomorphisms:
    @pytest.mark.parametrize("kind,params", _FOLDS,
                             ids=[k + "".join(f"-{v}" for v in p) for k, p in _FOLDS])
    def test_builtin_folds_verify_at_table_radius(self, kind, params):
        fold = graphs.FOLD_KINDS[kind]
        rep = verify_isomorphism(fold_map(kind, **dict(zip(fold.params, params))), fold.radius)
        assert rep.ok, rep.detail
        assert rep.source_size == rep.target_size

    def test_fold_map_names(self):
        for n in (2, 3, 7):
            assert fold_map("strip", n).name == f"strip{n}-to-kron"
        assert fold_map("diamond", k=4, l=3).name == "diamond4x3-to-kron"
        assert [fold_map(k).name for k in ("plane", "halfplane", "wedge")] == \
            ["plane-to-kron", "halfplane-to-kron", "wedge-to-kron"]

    @pytest.mark.parametrize("kind,params,message", [
        ("nope", {}, "unknown fold kind 'nope'; known: plane, strip, halfplane, wedge, diamond"),
        ("strip", {}, "fold kind 'strip' requires parameter n"),
        ("plane", {"n": 3}, "fold kind 'plane' does not take parameter n"),
    ])
    def test_fold_map_checks_kind_and_parameters(self, kind, params, message):
        with pytest.raises(ValueError) as info:
            fold_map(kind, **params)
        assert str(info.value) == message

    def test_iso_map_applies_affinely(self):
        iso = fold_map("plane")
        assert iso.apply((2, 1)) == (3, 1)
        assert iso.apply((0, 0)) == (0, 0)

    def test_malformed_map_is_rejected(self):
        good = fold_map("plane")
        for matrix, offset in ((((1, 1), (1,)), (0, 0)), (((1, 1), (1, 1, 1)), (0, 0)),
                               (good.matrix, (0,))):
            with pytest.raises(ValueError):
                _remap(good, matrix=matrix, offset=offset).apply((2, 3))

    def test_broken_map_reports_witness(self):
        good = fold_map("halfplane")
        bad = _remap(good, matrix=((1, 0), (0, 1)))
        assert _report(bad, 3) == (
            False, "image vertex (0, -1) is outside the target ball", ((0, -1),), 14, 14)

    def test_root_mismatch_is_caught(self):
        bad = _remap(fold_map("plane"), offset=(1, 1))
        assert _report(bad, 2) == (
            False, "map does not carry the source root to the target root",
            ((0, 0),), 13, 13)

    @pytest.mark.parametrize("case", list(_BRANCHES), ids=list(_BRANCHES))
    def test_report_branch_is_pinned(self, case):
        iso, radius, expected = _BRANCHES[case]()
        assert _report(iso, radius) == expected

    def test_edge_witness_is_smallest_in_coordinates(self):
        # two differing edges: (5,)-(6,) has the smaller target indices,
        # (1,)-(2,) the smaller coordinates
        verts = [(0,), (1,), (2,), (5,), (6,)]
        tree = [((0,), (5,)), ((0,), (6,)), ((5,), (1,)), ((6,), (2,))]
        more = tree + [((5,), (6,)), ((1,), (2,))]
        assert _report(_identity(verts, (0,), more, tree), 2) == (
            False, "mapped edge missing from the target ball", ((1,), (2,)), 5, 5)
        assert _report(_identity(verts, (0,), tree, more), 2) == (
            False, "target edge has no preimage edge", ((1,), (2,)), 5, 5)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_reports_match_coordinate_reference(self, data):
        kind = data.draw(st.sampled_from(sorted(graphs.FOLD_KINDS)))
        params = data.draw(st.tuples(*[st.integers(2, 6)] * len(graphs.FOLD_KINDS[kind].params)))
        entry = st.integers(-2, 2)
        matrix = data.draw(st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)))
        offset = data.draw(st.one_of(st.just((0, 0)), st.tuples(entry, entry)))
        radius = data.draw(st.integers(1, 4))
        iso = _remap(fold_map(kind, **dict(zip(graphs.FOLD_KINDS[kind].params, params))),
                     matrix=matrix, offset=offset)
        assert _report(iso, radius) == reference_iso_report(iso, radius)


def test_random_graphs_survive_validation():
    rng = random.Random(4711)
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = [((i,), (j,)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = FiniteGraph.from_edges([(i,) for i in range(n)], edges)
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count()


def _random_pair(rng, n_max=6):
    from helpers import random_graph
    return random_graph(rng, 2, n_max), random_graph(rng, 2, n_max)


class TestProductAlgebra:
    """Structural laws of the two products, checked on random graphs."""

    def test_single_vertex_kronecker_factor_kills_edges(self):
        g = kronecker(path_graph(1), path_graph(4))
        assert len(g) == 4
        assert g.edge_count() == 0

    def test_products_commute_up_to_coordinate_swap(self):
        rng = random.Random(31337)
        for build in (kronecker, cartesian):
            for _ in range(15):
                g1, g2 = _random_pair(rng)
                ab, ba = build(g1, g2), build(g2, g1)
                swapped = {tuple(sorted(((u[1], u[0]), (v[1], v[0]))))
                           for u, v in ab.edge_set()}
                assert swapped == {tuple(sorted(e)) for e in ba.edge_set()}
                assert len(ab) == len(ba)

    def test_kronecker_associates_after_flattening(self):
        rng = random.Random(24601)
        for _ in range(10):
            g1, g2 = _random_pair(rng, 4)
            g3 = _random_pair(rng, 4)[0]
            left = kronecker(kronecker(g1, g2), g3)
            right = kronecker(g1, kronecker(g2, g3))
            assert sorted(left.vertices) == sorted(right.vertices)
            assert left.edge_set() == right.edge_set()

    def test_kronecker_of_induced_subgraphs_is_induced(self):
        rng = random.Random(8128)
        for _ in range(10):
            g1, g2 = _random_pair(rng, 5)
            keep1 = [v for v in g1.vertices if rng.random() < 0.6] or g1.vertices[:1]
            keep2 = [v for v in g2.vertices if rng.random() < 0.6] or g2.vertices[:1]
            h = kronecker(induced_subgraph(g1, keep1), induced_subgraph(g2, keep2))
            whole = kronecker(g1, g2)
            window = [a + b for a in keep1 for b in keep2]
            assert h.edge_set() == induced_subgraph(whole, window).edge_set()

    def test_kronecker_edges_sit_at_cartesian_distance_two(self):
        rng = random.Random(1618)
        for _ in range(10):
            g1, g2 = _random_pair(rng, 5)
            kron_g, cart_g = kronecker(g1, g2), cartesian(g1, g2)
            for u, v in kron_g.edge_set():
                # one hop in each coordinate, and never adjacent directly
                mids = set(cart_g.neighbors(u)) & set(cart_g.neighbors(v))
                assert mids and v not in cart_g.neighbors(u)

    def test_ball_monotone_in_radius(self):
        g = wedge()
        inner = ball(g, (0, 0), 3)
        outer = ball(g, (0, 0), 4)
        assert set(inner.vertices) <= set(outer.vertices)
        assert inner.edge_set() <= \
            induced_subgraph(outer, inner.vertices).edge_set() | inner.edge_set()
        assert induced_subgraph(outer, inner.vertices).edge_set() == \
            inner.edge_set()

    def test_origin_component_of_diagonal_plane_is_even_sum(self):
        b = ball(kronecker(integer_line(), integer_line()), (0, 0), 5)
        assert all((x + y) % 2 == 0 for x, y in b.vertices)
        assert len(connected_components(b)) == 1
