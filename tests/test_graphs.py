import random

import pytest

from helpers import naive_ball, random_graph
from latticewalks import graphs, walks
from latticewalks.errors import ResourceLimitError
from latticewalks.graphs import (
    FiniteGraph,
    ball,
    cartesian,
    chamber3,
    connected_components,
    degree_histogram,
    diamond,
    diamond_to_kron_map,
    domain_from_predicate,
    full_plane,
    half_line,
    half_plane,
    halfplane_to_kron_map,
    induced_subgraph,
    integer_line,
    kronecker,
    path_graph,
    plane_to_kron_map,
    quarter_plane,
    restrict_lattice,
    strip,
    strip_to_kron_map,
    to_edge_list,
    verify_isomorphism,
    wedge,
    wedge_to_kron_map,
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

    def test_membership_and_index(self):
        g = path_graph(3)
        assert (2,) in g
        assert (3,) not in g
        assert g.index_of((1,)) == 1

    def test_unknown_vertex_raises(self):
        g = path_graph(3)
        with pytest.raises(KeyError):
            g.neighbors((7,))


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
        assert d.contains((0, 0)) and d.contains((3, -1))
        assert not d.contains((1, 2))

    def test_wedge(self):
        d = wedge()
        assert d.contains((2, 1)) and d.contains((2, -2))
        assert not d.contains((2, 3)) and not d.contains((2, -3))

    def test_strip_width(self):
        d = strip(3)
        assert d.contains((0, 0)) and d.contains((2, 0))
        assert not d.contains((0, 1)) and not d.contains((3, 0))

    def test_strip_needs_width_two(self):
        with pytest.raises(ValueError):
            strip(1)

    def test_diamond_bounds(self):
        d = diamond(3, 4)
        assert d.contains((0, 0)) and d.contains((2, 0))
        assert not d.contains((2, 1))  # x+y = 3 is outside 0..2
        assert not d.contains((-1, 0))

    def test_quarter_plane(self):
        d = quarter_plane()
        assert d.contains((0, 0)) and not d.contains((-1, 0))

    def test_chamber_ordering(self):
        d = chamber3()
        assert d.contains((2, 1, 0)) and d.contains((1, 1, 1))
        assert not d.contains((0, 1, 0))

    def test_custom_domain_predicate_hook(self):
        d = domain_from_predicate(2, lambda v: v[0] % 2 == 0, name="even-x")
        g = restrict_lattice(d)
        assert g.neighbors((0, 0)) == ((0, -1), (0, 1))
        with pytest.raises(ValueError):
            domain_from_predicate(0, lambda v: True)

    def test_restrict_lattice_neighbors(self):
        g = restrict_lattice(half_plane())
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
        g = kronecker(restrict_lattice(full_plane()), integer_line())
        assert g.dimension == 3


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
        b = ball(restrict_lattice(wedge()), (0, 0), 2)
        assert (1, 1) in b and (1, -1) in b
        assert (0, 1) not in b

    def test_ball_budget_exhaustion(self):
        # layers of the plane hold 1, 4, 8, ... vertices: the budget of 5
        # admits layers 0 and 1 and is exceeded by layer 2
        with pytest.raises(ResourceLimitError) as info:
            ball(restrict_lattice(full_plane()), (0, 0), 10, budget=5)
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
                             ids=[k + "".join(f"-{a}{v}" for a, v in p.items())
                                  for k, p in _NAMED])
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

    def test_degree_histogram_interior_only(self):
        b = ball(restrict_lattice(full_plane()), (0, 0), 4)
        hist = degree_histogram(b, 2)
        assert hist == {4: 13}  # interior of the diagonal plane is 4-regular

    def test_degree_histogram_validates_radius(self):
        b = ball(integer_line(), (0,), 3)
        with pytest.raises(ValueError):
            degree_histogram(b, 3)
        with pytest.raises(ValueError):
            degree_histogram(path_graph(3), 1)  # no ball metadata


class TestIsomorphisms:
    @pytest.mark.parametrize("iso,radius", [
        (plane_to_kron_map(), 6),
        (strip_to_kron_map(3), 5),
        (strip_to_kron_map(5), 5),
        (halfplane_to_kron_map(), 5),
        (wedge_to_kron_map(), 5),
        (diamond_to_kron_map(3, 3), 5),
        (diamond_to_kron_map(4, 4), 5),
    ])
    def test_builtin_folds_verify(self, iso, radius):
        rep = verify_isomorphism(iso, radius)
        assert rep.ok, rep.detail
        assert rep.source_size == rep.target_size

    def test_iso_map_applies_affinely(self):
        iso = plane_to_kron_map()
        assert iso.apply((2, 1)) == (3, 1)
        assert iso.apply((0, 0)) == (0, 0)

    def test_broken_map_reports_witness(self):
        good = halfplane_to_kron_map()
        bad = graphs.IsoMap(matrix=((1, 0), (0, 1)), offset=(0, 0),
                            source=good.source, source_root=good.source_root,
                            target=good.target, target_root=good.target_root,
                            name="identity-into-kron")
        rep = verify_isomorphism(bad, 3)
        assert not rep.ok
        assert rep.witness is not None

    def test_root_mismatch_is_caught(self):
        good = plane_to_kron_map()
        bad = graphs.IsoMap(matrix=good.matrix, offset=(1, 1),
                            source=good.source, source_root=good.source_root,
                            target=good.target, target_root=good.target_root,
                            name="shifted")
        rep = verify_isomorphism(bad, 2)
        assert not rep.ok
        assert "root" in rep.detail


class TestEdgeListExport:
    def test_to_edge_list_roundtrip_text(self):
        text = to_edge_list(path_graph(3))
        lines = text.strip().splitlines()
        assert lines[0].startswith("# dim=1 root=")
        assert "0 -- 1" in lines[1]
        assert len(lines) == 3


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
        g = restrict_lattice(wedge())
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
