import itertools
import random
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LUMPED,
    MIRRORS,
    REFERENCE_LATTICES,
    SIGNED_KINDS,
    as_implicit,
    components,
    composed_product,
    domain,
    edge_set,
    from_edges,
    kind_id,
    naive_ball,
    predicate_lattice,
    product_by_definition,
    random_graph,
    reference_iso_report,
)
from latticewalks import walks
from latticewalks.errors import ResourceLimitError
from latticewalks.graphs import (
    PRODUCT_KINDS,
    FiniteGraph,
    IsoMap,
    ball,
    cartesian,
    connected_components,
    degree_histogram,
    half_line,
    integer_line,
    orbit_ball,
    kronecker,
    lattice,
    path_graph,
    verify_isomorphism,
)
from latticewalks.spectral import FACTORS
from latticewalks.walks import FOLD_KINDS, fold_map


# the path on three vertices, built by the validating constructor
_P3 = FiniteGraph([(0,), (1,), (2,)], [[1], [0, 2], [1]], root=(0,))


class TestFiniteGraph:
    def test_from_edges_builds_symmetric_adjacency(self):
        g = from_edges([(0,), (1,), (2,)], [((0,), (1,)), ((1,), (2,))], root=(0,))
        assert len(g) == 3
        assert g.neighbors((1,)) == ((0,), (2,))
        assert g.degree((0,)) == 1
        assert g.edge_count() == 2
        assert g.adjacency == _P3.adjacency and g.root == 0

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
        g = _P3
        assert (2,) in g
        assert (3,) not in g
        assert g.index_of((1,)) == 1

    def test_unknown_vertex_raises(self):
        g = _P3
        with pytest.raises(KeyError):
            g.neighbors((7,))

    def test_rejects_root_outside_vertices(self):
        with pytest.raises(ValueError, match=r"root \(5,\) is not a vertex"):
            FiniteGraph([(0,), (1,)], [[1], [0]], root=(5,))

    @pytest.mark.parametrize("vertices,adjacency,root,message", [
        ([], [], None, "graph needs at least one vertex"),
        ([(0,), (0,)], [[], []], None, "duplicate vertices"),
        ([(0,)], [[], []], None, "adjacency list length must match vertex count"),
        ([(0,), (1,)], [[5], [0]], None, "neighbor index 5 out of range"),
        ([(0,)], [[]], 3, "root index out of range"),
    ])
    def test_rejects_malformed_structure(self, vertices, adjacency, root, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteGraph(vertices, adjacency, root=root)

    def test_bare_int_is_no_vertex(self):
        for g in (_P3, path_graph(3)):
            assert 1 not in g and (0.5,) not in g
            with pytest.raises(ValueError, match="bare int"):
                g.neighbors(1)


class TestBuiltinGraphs:
    def test_path_graph_endpoints(self):
        g = path_graph(4)
        assert g.neighbors((0,)) == ((1,),)
        assert g.neighbors((3,)) == ((2,),)
        assert g.neighbors((1,)) == ((0,), (2,))
        assert (-1,) not in g and (4,) not in g
        # the path is the factor P_p of the paper's table
        factor = FACTORS["P"].graph(4)
        assert (g.name, g.steps, g.walls) == (factor.name, factor.steps, factor.walls) == (
            "lattice[P4]", ((1,), (-1,)), (((1,), 0), ((-1,), -3)))

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
        d = domain("halfplane")
        assert (0, 0) in d and (3, -1) in d
        assert (1, 2) not in d

    def test_wedge(self):
        d = domain("wedge")
        assert (2, 1) in d and (2, -2) in d
        assert (2, 3) not in d and (2, -3) not in d

    def test_strip_width(self):
        d = domain("strip", n=3)
        assert (0, 0) in d and (2, 0) in d
        assert (0, 1) not in d and (3, 0) not in d

    def test_strip_needs_width_two(self):
        with pytest.raises(ValueError, match="^strip width must be at least 2$"):
            domain("strip", n=1)

    def test_diamond_bounds(self):
        d = domain("diamond", k=3, l=4)
        assert (0, 0) in d and (2, 0) in d
        assert (2, 1) not in d  # x+y = 3 is outside 0..2
        assert (-1, 0) not in d

    @pytest.mark.parametrize("k,l", [(1, 4), (4, 1)])
    def test_diamond_needs_sides_of_two(self, k, l):
        with pytest.raises(ValueError, match="^diamond side lengths must be at least 2$"):
            domain("diamond", k=k, l=l)

    def test_quarter_plane(self):
        d = domain("quarterplane")
        assert (0, 0) in d and (-1, 0) not in d
        # a bare int or a point of another dimension is no vertex
        assert 0 not in d and (0,) not in d and (0, 0, 0) not in d

    def test_chamber_ordering(self):
        d = domain("chamber3")
        assert (2, 1, 0) in d and (1, 1, 1) in d
        assert (0, 1, 0) not in d

    # each id is the domain inside the graph's name lattice[...]
    @pytest.mark.parametrize("g", [
        domain("z2"), domain("halfplane"), domain("strip", n=2), domain("wedge"),
        domain("diamond", k=2, l=2), domain("quarterplane"), domain("chamber3")],
        ids=lambda g: g.name[len("lattice["):-1])
    def test_named_domains_contain_their_origin(self, g):
        # every named domain is rooted at the origin, down to its smallest
        # valid parameters
        assert (0,) * g.dimension in g

    @pytest.mark.parametrize("g,v", [(domain("halfplane"), (0, 5)), (half_line(), (-3,)),
                                     (domain("strip", n=3), (5, 0)), (integer_line(), (0, 0))])
    def test_a_point_outside_has_no_neighbors(self, g, v):
        # as in a finite graph; the neighbor function would list the steps
        # that cross no wall
        with pytest.raises(KeyError):
            g.neighbors(v)

    def test_half_plane_neighbors(self):
        g = domain("halfplane")
        assert g.neighbors((0, 0)) == ((0, -1), (1, 0))
        assert g.neighbors((2, 0)) == ((1, 0), (2, -1), (2, 1), (3, 0))


@st.composite
def _step_lattices(draw):
    """(steps, walls) of a random lattice on Z^d, d <= 3: steps a nonempty
    set in {-1, 0, 1}^d closed under negation, walls (a, b) with a in
    {-2, ..., 2}^d and b in -3..3."""
    d = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-1, 1)] * d).filter(any)
    half = draw(st.lists(vectors, min_size=1, max_size=5))
    steps = sorted({t for s in half for t in (s, tuple(-c for c in s))})
    walls = draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * d),
                                    st.integers(-3, 3)), max_size=3))
    return draw(st.permutations(steps)), walls


def _inside(walls, v) -> bool:
    return all(sum(a * x for a, x in zip(normal, v)) >= b for normal, b in walls)


# the ball fields that ball() must reproduce exactly
def _ball_fields(g, root, radius):
    b = ball(g, root, radius)
    return b.vertices, b.adjacency, b.depths, b.truncated


def _reference(key, params, symmetry=None):
    steps, inside = REFERENCE_LATTICES[key](**params)
    return predicate_lattice(steps, inside, symmetry)


class TestStepLattices:
    @settings(max_examples=150, deadline=None)
    @given(lattice_=_step_lattices())
    def test_neighbors_are_the_steps_that_stay_inside(self, lattice_):
        steps, walls = lattice_
        g = lattice("random", steps, walls)
        assert (g.steps, g.walls) == (tuple(steps), tuple(walls))
        d = len(steps[0])
        for v in itertools.product(range(-3, 4), repeat=d):
            assert (v in g) == _inside(walls, v)
            if v in g:
                brute = [tuple(x + c for x, c in zip(v, s)) for s in steps
                         if _inside(walls, [x + c for x, c in zip(v, s)])]
                assert sorted(g.neighbor_fn(v)) == sorted(brute)

    def test_sizes_share_one_code_object(self):
        strips = [domain("strip", n=n) for n in (3, 10 ** 8)]
        assert strips[0].neighbor_fn.__code__ is strips[1].neighbor_fn.__code__
        paths = [FACTORS["P"].graph(p) for p in (2, 10 ** 8)]
        assert paths[0].neighbor_fn.__code__ is paths[1].neighbor_fn.__code__
        assert paths[1].neighbors((10 ** 8 - 1,)) == ((10 ** 8 - 2,),)
        # the generated code is not a line of this package's source
        assert strips[0].neighbor_fn.__code__.co_filename.startswith("<lattice steps=")

    @pytest.mark.parametrize("steps,walls", [
        ([], []), ([(1,)], []), ([(1,), (-1,), (1,)], []), ([(0,), (1,), (-1,)], []),
        ([(1, 0), (-1, 0), (1,), (-1,)], []), ([(1,), (-1,)], [((1, 0), 0)]),
        ([(0.5,), (-0.5,)], []), ([(1,), (-1,)], [((0.5,), 0)])])
    def test_rejects_steps_that_are_not_a_simple_graph(self, steps, walls):
        with pytest.raises(ValueError, match="^bad: steps must be distinct nonzero"):
            lattice("bad", steps, walls)

    _FACTOR_PAIRS = [(integer_line(), half_line()), (half_line(), half_line()),
                     (domain("halfplane"), integer_line()),
                     (domain("strip", n=3), half_line()),
                     (FACTORS["P"].graph(3), domain("wedge")),
                     (domain("chamber3"), integer_line()),
                     (kronecker(half_line(), half_line()), half_line())]

    @pytest.mark.parametrize("product", [kronecker, cartesian])
    @pytest.mark.parametrize("g1,g2", _FACTOR_PAIRS, ids=lambda g: g.name)
    def test_products_match_composed_neighbors(self, product, g1, g2):
        g = product(g1, g2)
        tag = {kronecker: "kron", cartesian: "cart"}[product]
        assert g.walls is not None and g.name == f"{tag}({g1.name},{g2.name})"
        reference = composed_product(g1, g2, product is kronecker)
        root = (0,) * g.dimension
        for radius in range(5):
            assert _ball_fields(g, root, radius) == _ball_fields(reference, root, radius)

    _KINDS = [(kind, {p: 4 for p in walks.lattice_kind(kind).requires})
              for kind in walks.lattice_walk_kinds()]

    @pytest.mark.parametrize("kind,params", _KINDS, ids=[kind_id(*kp) for kp in _KINDS])
    def test_named_kinds_match_their_predicates(self, kind, params):
        g, o = walks.build_lattice(kind, **params)
        reference = _reference(kind, params, g.symmetry)
        for radius in range(7):
            assert _ball_fields(g, o, radius) == _ball_fields(reference, o, radius)
            if g.symmetry is not None and g.symmetry.fixes(o):
                rows, depths, sizes = orbit_ball(g, o, radius)
                ref_rows, ref_depths, ref_sizes = orbit_ball(reference, o, radius)
                assert [sorted(r) for r in rows] == [sorted(r) for r in ref_rows]
                assert (depths, sizes) == (ref_depths, ref_sizes)

    @pytest.mark.parametrize("fold", list(FOLD_KINDS))
    def test_fold_targets_match_their_predicates(self, fold):
        params = {p: 4 for p in walks.lattice_kind(FOLD_KINDS[fold][0]).requires}
        target = fold_map(fold, **params).target
        reference = _reference(f"fold:{fold}", params)
        for radius in range(7):
            assert _ball_fields(target, (0, 0), radius) == \
                _ball_fields(reference, (0, 0), radius)


def _grid(n: int, k: int) -> list:
    # the vertices of a product of P_n and P_k
    return list(itertools.product(range(n), range(k)))


# a box around the 2 x 3 grid, one step wider on each side
_AROUND_2X3 = list(itertools.product(range(-1, 3), range(-1, 4)))


class TestProducts:
    def test_finite_kronecker_size_and_edges(self):
        # of two path lattices, and of two finite graphs
        for g in (kronecker(path_graph(2), path_graph(3)),
                  kronecker(ball(path_graph(2), (0,), 1), ball(path_graph(3), (0,), 2))):
            assert [v for v in _AROUND_2X3 if v in g] == _grid(2, 3)
            # (0,0) moves in both coordinates at once
            assert g.neighbors((0, 0)) == ((1, 1),)
            assert g.neighbors((1, 1)) == ((0, 0), (0, 2))

    def test_finite_cartesian_size_and_edges(self):
        for g in (cartesian(path_graph(2), path_graph(3)),
                  cartesian(ball(path_graph(2), (0,), 1), ball(path_graph(3), (0,), 2))):
            assert [v for v in _AROUND_2X3 if v in g] == _grid(2, 3)
            assert g.neighbors((0, 0)) == ((0, 1), (1, 0))
            # |E1||V2| + |V1||E2| = 7
            assert len(edge_set(g, _grid(2, 3))) == 1 * 3 + 2 * 2

    def test_kronecker_of_paths_disconnects(self):
        comps = components(kronecker(path_graph(2), path_graph(3)), _grid(2, 3))
        assert [len(c) for c in comps] == [3, 3]
        assert comps[0].vertices[0] == (0, 0)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["kron", "cartesian"]), n=st.integers(1, 12),
           k=st.integers(1, 12))
    def test_component_rule_matches_the_built_product(self, kind, n, k):
        # Weichsel's theorem, checked against a search of the built product
        product = {"kron": kronecker, "cartesian": cartesian}[kind]
        comps = components(product(path_graph(n), path_graph(k)), _grid(n, k))
        assert PRODUCT_KINDS[kind](n, k) == [(len(c), c.vertices[0]) for c in comps]

    def test_implicit_product_neighbors(self):
        g = kronecker(integer_line(), half_line())
        assert set(g.neighbors((0, 0))) == {(-1, 1), (1, 1)}
        assert set(g.neighbors((0, 2))) == {(-1, 1), (-1, 3), (1, 1), (1, 3)}
        assert (0, -1) not in g

    def test_cartesian_implicit_neighbors(self):
        g = cartesian(half_line(), half_line())
        assert set(g.neighbors((0, 0))) == {(0, 1), (1, 0)}

    def test_mixed_product_dimension(self):
        g = kronecker(domain("z2"), integer_line())
        assert g.dimension == 3


class TestProductDefinition:
    @pytest.mark.parametrize("product", [kronecker, cartesian])
    def test_finite_and_lazy_products_match_the_definition(self, product):
        rng = random.Random(20161026)
        for _ in range(25):
            g1, g2 = random_graph(rng, 1, 5), random_graph(rng, 1, 5)
            expected = product_by_definition(g1, g2, product is kronecker)
            # of the finite factors and of their neighbor-function views:
            # every vertex pair and only those, each with its neighbors,
            # and the balls around every vertex, with radius at least the
            # vertex count, cover all of it
            for g in (product(g1, g2), product(as_implicit(g1), as_implicit(g2))):
                assert all(v in g for v in expected.vertices)
                assert not any(v in g for v in [(-1, 0), (0, -1), (0, 5), (5, 0)])
                assert [g.neighbors(v) for v in expected.vertices] == \
                    [expected.neighbors(v) for v in expected.vertices]
                covered = set()
                for v in expected.vertices:
                    covered |= edge_set(ball(g, v, len(expected)))
                assert covered == edge_set(expected)


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
        b = ball(domain("wedge"), (0, 0), 2)
        assert (1, 1) in b and (1, -1) in b
        assert (0, 1) not in b

    def test_ball_budget_exhaustion(self):
        # layers of the plane hold 1, 4, 8, ... vertices: the budget of 5
        # admits layers 0 and 1 and is exceeded by layer 2
        with pytest.raises(ResourceLimitError) as info:
            ball(domain("z2"), (0, 0), 10, budget=5)
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
            g1, g2 = random_graph(rng, 1, 6), random_graph(rng, 1, 6)
            g = product(g1, g2)
            start = rng.choice(_pairs(g1, g2))
            for radius in range(5):
                _assert_ball_matches_oracle(g, (0, 0), radius)
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

    @pytest.mark.parametrize("kind", ["chamber3", "halfplane", "bcc3"])
    def test_each_vertex_is_canonicalised_at_most_once(self, kind):
        # canon runs once on each distinct vertex met, the outermost layer's
        # included, and never once per neighbor entry
        g, o = walks.build_lattice(kind)
        calls = []

        def canon(v):
            calls.append(v)
            return g.symmetry.canon(v)

        counted = replace(g, symmetry=g.symmetry._replace(canon=canon))
        for radius in range(7):
            calls.clear()
            orbit_ball(counted, o, radius)
            assert len(set(calls)) == len(calls)
            assert len(calls) <= len(naive_ball(g, o, radius + 1)[0])

    def test_root_must_be_fixed(self):
        for kind, root in (("z2", (1, 0)), ("z2", (0, 1)), ("halfplane", (1, 0)),
                           ("chamber3", (1, 0, 0))):
            g, _ = walks.build_lattice(kind)
            with pytest.raises(ValueError, match="not fixed"):
                orbit_ball(g, root, 3)
        with pytest.raises(ValueError, match="not fixed"):
            orbit_ball(domain("z2"), (0, 0), 3)


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
    ("z2", (0, 0), 2.0, 100, "radius must be an integer, got 2.0"),
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


def _assert_component(c, g, radius):
    # c is the ball of g around its smallest vertex that reaches all of its
    # vertices: breadth-first from that vertex, and closed under g's edges
    assert c.vertices[0] == min(c.vertices) and c.root == 0
    assert (c.name, c.ball_radius, c.truncated) == (
        f"ball({g.name or 'graph'},r={radius})", radius, False)
    assert edge_set(c) == edge_set(g, c.vertices)
    assert all(w in c for v in c.vertices for w in g.neighbors(v))


@st.composite
def _finite_graphs(draw):
    # up to 12 distinct points of Z^2 in any order, any edges among them,
    # an optional root and an optional name
    verts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=1, max_size=12, unique=True))
    pairs = list(itertools.combinations(verts, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return from_edges(verts, edges, root=draw(st.none() | st.sampled_from(verts)),
                      name=draw(st.sampled_from(["", "G"])))


class TestComponentsAndSubgraphs:
    @settings(max_examples=200, deadline=None)
    @given(g=_finite_graphs())
    def test_components_split_the_vertices_into_connected_induced_subgraphs(self, g):
        # the oracle: union-find over the edges
        parent = {v: v for v in g.vertices}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for a, b in edge_set(g):
            parent[find(a)] = find(b)
        classes: dict = {}
        for v in g.vertices:
            classes.setdefault(find(v), []).append(v)
        comps = connected_components(g)
        # ordered by smallest vertex
        assert [sorted(c.vertices) for c in comps] == \
            sorted(sorted(c) for c in classes.values())
        for c in comps:
            _assert_component(c, g, len(g))

    def test_components_ordered_by_smallest_vertex(self):
        g = from_edges([(0,), (1,), (2,), (3,)], [((2,), (3,))])
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [[(0,)], [(1,)], [(2,), (3,)]]

    def test_components_of_unsorted_graph_are_induced_subgraphs(self):
        # listed out of coordinate order, rooted in the second component
        g = from_edges(
            [(3, 0), (0, 1), (2, 2), (1, 0), (0, 0), (2, 1)],
            [((0, 0), (0, 1)), ((1, 0), (0, 0)), ((2, 1), (2, 2)),
             ((3, 0), (2, 2)), ((2, 1), (3, 0))], root=(3, 0), name="G")
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [[(0, 0), (0, 1), (1, 0)],
                                               [(2, 1), (2, 2), (3, 0)]]
        assert [c.adjacency for c in comps] == [[[1, 2], [0], [0]],
                                                [[1, 2], [0, 2], [0, 1]]]
        assert [c.depths for c in comps] == [[0, 1, 1], [0, 1, 1]]
        for c in comps:
            _assert_component(c, g, 6)

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
            for c in comps:
                _assert_component(c, h, len(h))

    def test_degree_histogram_interior_only(self):
        b = ball(domain("z2"), (0, 0), 4)
        hist = degree_histogram(b, 2)
        assert hist == {4: 13}  # interior of the diagonal plane is 4-regular

    def test_degree_histogram_validates_radius(self):
        b = ball(integer_line(), (0,), 3)
        with pytest.raises(ValueError):
            degree_histogram(b, 3)
        with pytest.raises(ValueError):
            degree_histogram(_P3, 1)  # no ball metadata
        with pytest.raises(ValueError, match="produced by ball"):
            degree_histogram(path_graph(3), 1)  # no finite graph at all


_FOLD_PARAMS = {"strip": [(2,), (3,), (5,)], "diamond": [(2, 2), (3, 3), (4, 4)]}
_FOLDS = [(kind, p) for kind in walks.FOLD_KINDS for p in _FOLD_PARAMS.get(kind, [()])]


def _fold_params(kind):
    """The parameter names of a fold kind: those of the lattice it folds."""
    return walks.lattice_kind(walks.FOLD_KINDS[kind][0]).requires


def _remap(good, matrix=None, offset=None, target=None):
    """good with its matrix, offset or target graph replaced."""
    return IsoMap(matrix or good.matrix, offset or good.offset, good.source,
                  good.source_root, target or good.target, good.target_root)


def _report(iso, radius):
    rep = verify_isomorphism(iso, radius)
    return (rep.ok, rep.detail, rep.witness, rep.source_size, rep.target_size)


def _identity(verts, root, source_edges, target_edges):
    """The identity map between two graphs on the same vertices."""
    return IsoMap(((1,),), (0,), from_edges(verts, source_edges), root,
                  from_edges(verts, target_edges), root)


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
    def test_apply_rejects_another_dimension(self):
        iso = fold_map("plane")
        assert iso.apply((1, 0)) in iso.target
        with pytest.raises(ValueError, match="coordinate dimension does not match map"):
            iso.apply((1, 0, 0))

    @pytest.mark.parametrize("kind,params", _FOLDS,
                             ids=[k + "".join(f"-{v}" for v in p) for k, p in _FOLDS])
    def test_builtin_folds_verify_at_table_radius(self, kind, params):
        _, radius = walks.FOLD_KINDS[kind]
        rep = verify_isomorphism(fold_map(kind, **dict(zip(_fold_params(kind), params))), radius)
        assert rep.ok, rep.detail
        assert rep.source_size == rep.target_size

    def test_fold_map_names(self):
        for n in (2, 3, 7):
            assert fold_map("strip", n).name == f"strip{n}-to-kron"
        assert fold_map("diamond", k=4, l=3).name == "diamond4x3-to-kron"
        assert [fold_map(k).name for k in ("plane", "halfplane", "wedge")] == \
            ["plane-to-kron", "halfplane-to-kron", "wedge-to-kron"]

    @pytest.mark.parametrize("kind,params,message", [
        ("nope", {}, "unknown fold kind 'nope'; known: plane, halfplane, wedge, strip, diamond"),
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
        kind = data.draw(st.sampled_from(sorted(walks.FOLD_KINDS)))
        params = data.draw(st.tuples(*[st.integers(2, 6)] * len(_fold_params(kind))))
        entry = st.integers(-2, 2)
        matrix = data.draw(st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)))
        offset = data.draw(st.one_of(st.just((0, 0)), st.tuples(entry, entry)))
        radius = data.draw(st.integers(1, 4))
        iso = _remap(fold_map(kind, **dict(zip(_fold_params(kind), params))),
                     matrix=matrix, offset=offset)
        assert _report(iso, radius) == reference_iso_report(iso, radius)


def test_random_graphs_survive_validation():
    rng = random.Random(4711)
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = [((i,), (j,)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = from_edges([(i,) for i in range(n)], edges)
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count()


def _random_pair(rng, n_max=6):
    return random_graph(rng, 2, n_max), random_graph(rng, 2, n_max)


def _pairs(*factors) -> list:
    # every vertex of the product of finite factors, in sorted order
    return sorted(sum(vs, ()) for vs in itertools.product(*[g.vertices for g in factors]))


def _induced(g, keep) -> FiniteGraph:
    # the subgraph of g induced on keep, through the validating constructor
    return from_edges(keep, edge_set(g, keep))


class TestProductAlgebra:
    """Structural laws of the two products, checked on random graphs."""

    def test_single_vertex_kronecker_factor_kills_edges(self):
        g = kronecker(path_graph(1), path_graph(4))
        comps = components(g, _grid(1, 4))
        assert [c.vertices for c in comps] == [[v] for v in _grid(1, 4)]
        assert edge_set(g, _grid(1, 4)) == set()

    def test_products_commute_up_to_coordinate_swap(self):
        rng = random.Random(31337)
        for build in (kronecker, cartesian):
            for _ in range(15):
                g1, g2 = _random_pair(rng)
                ab, ba = build(g1, g2), build(g2, g1)
                swapped = {tuple(sorted(((u[1], u[0]), (v[1], v[0]))))
                           for u, v in edge_set(ab, _pairs(g1, g2))}
                assert swapped == edge_set(ba, _pairs(g2, g1))
                assert all(v in ab and v[::-1] in ba for v in _pairs(g1, g2))

    def test_kronecker_associates_after_flattening(self):
        rng = random.Random(24601)
        for _ in range(10):
            g1, g2 = _random_pair(rng, 4)
            g3 = _random_pair(rng, 4)[0]
            left = kronecker(kronecker(g1, g2), g3)
            right = kronecker(g1, kronecker(g2, g3))
            vertices = _pairs(g1, g2, g3)
            assert all(v in left and v in right for v in vertices)
            assert edge_set(left, vertices) == edge_set(right, vertices)

    def test_kronecker_of_induced_subgraphs_is_induced(self):
        rng = random.Random(8128)
        for _ in range(10):
            g1, g2 = _random_pair(rng, 5)
            keep1 = [v for v in g1.vertices if rng.random() < 0.6] or g1.vertices[:1]
            keep2 = [v for v in g2.vertices if rng.random() < 0.6] or g2.vertices[:1]
            h = kronecker(_induced(g1, keep1), _induced(g2, keep2))
            whole = kronecker(g1, g2)
            window = [a + b for a in keep1 for b in keep2]
            assert edge_set(h, window) == edge_set(whole, window)

    def test_kronecker_edges_sit_at_cartesian_distance_two(self):
        rng = random.Random(1618)
        for _ in range(10):
            g1, g2 = _random_pair(rng, 5)
            kron_g, cart_g = kronecker(g1, g2), cartesian(g1, g2)
            for u, v in edge_set(kron_g, _pairs(g1, g2)):
                # one hop in each coordinate, and never adjacent directly
                mids = set(cart_g.neighbors(u)) & set(cart_g.neighbors(v))
                assert mids and v not in cart_g.neighbors(u)

    def test_ball_monotone_in_radius(self):
        g = domain("wedge")
        inner = ball(g, (0, 0), 3)
        outer = ball(g, (0, 0), 4)
        assert set(inner.vertices) <= set(outer.vertices)
        assert edge_set(outer, inner.vertices) == edge_set(inner)

    def test_origin_component_of_diagonal_plane_is_even_sum(self):
        b = ball(kronecker(integer_line(), integer_line()), (0, 0), 5)
        assert all((x + y) % 2 == 0 for x, y in b.vertices)
        assert len(connected_components(b)) == 1
