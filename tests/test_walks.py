import dataclasses
import hashlib
import itertools
import random
from contextlib import nullcontext
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    LUMPED,
    MIRRORS,
    REFERENCE_FORMS,
    SIGNED_KINDS,
    as_implicit,
    cold_caches,
    components,
    dp_closed_walks,
    from_edges,
    int_matrix_power_diag,
    kind_id,
    path_adjacency,
    path_walk_counts,
    product_by_definition,
    random_connected_graph,
    random_graph,
    reference_closed_form,
    vector_walk_counts,
)
from latticewalks import graphs, walks
from latticewalks.cli import CAP_3D, CAP_12D
from latticewalks.errors import ResourceLimitError
from latticewalks.spectral import ClassicalConv, MellinConv, product_law
from latticewalks.walks import (
    FOLD_KINDS,
    build_lattice,
    catalan,
    central_binomial,
    closed_form_walks,
    fold_map,
    lattice_kind,
    lattice_walk_kinds,
    path_closed_walks,
    walk_table,
)


class TestSmallCombinatorics:
    def test_central_binomial_values(self):
        assert [central_binomial(m) for m in range(6)] == [1, 2, 6, 20, 70, 252]

    def test_catalan_values(self):
        assert [catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            central_binomial(-1)
        with pytest.raises(ValueError):
            catalan(-2)


class TestPathClosedWalks:
    def test_matches_integer_matrix_power(self):
        for n in range(1, 7):
            adj = path_adjacency(n)
            for m in range(13):
                assert path_closed_walks(n, m) == int_matrix_power_diag(adj, 0, m)

    def test_reflection_formula_matches_iteration(self):
        # m up to 400 puts the boundary pair k = m + 1 in range for every n
        for n in range(1, 41):
            assert [path_closed_walks(n, m) for m in range(401)] == \
                path_walk_counts(n, 400)

    def test_four_vertex_path_is_odd_fibonacci(self):
        # endpoint return counts on the 4-path: 1, 1, 2, 5, 13, 34, 89
        got = [path_closed_walks(4, 2 * m) for m in range(7)]
        assert got == [1, 1, 2, 5, 13, 34, 89]

    def test_odd_lengths_vanish(self):
        assert all(path_closed_walks(5, m) == 0 for m in range(1, 12, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            path_closed_walks(0, 2)
        with pytest.raises(ValueError):
            path_closed_walks(3, -1)


class TestWalkCount:
    @pytest.mark.parametrize("kind,mmax", [
        ("z", 10), ("zplus", 10), ("zplus-at-1", 10),
        ("halfplane", 8), ("wedge", 8), ("quarterplane", 8),
        ("bcc3", 6), ("chamber3", 6),
    ])
    def test_matches_dp_oracle_on_lattices(self, kind, mmax):
        g, o = build_lattice(kind)
        for m in range(mmax + 1):
            assert walk_table(g, o, m)[m] == dp_closed_walks(g, o, m)

    def test_matches_dp_oracle_on_random_graphs(self):
        rng = random.Random(20240817)
        for _ in range(25):
            g = random_graph(rng)
            for m in (0, 1, 2, 5, 8):
                assert walk_table(g, (0,), m)[m] == dp_closed_walks(g, (0,), m)

    def test_budget_error_propagates(self):
        g, o = build_lattice("z2")
        with pytest.raises(ResourceLimitError):
            walk_table(g, o, 12, budget=4)

    def test_rejects_negative_length(self):
        g, o = build_lattice("z")
        with pytest.raises(ValueError):
            walk_table(g, o, -1)


class TestWalkTable:
    def test_indexing_and_bounds(self):
        g, o = build_lattice("z")
        t = walk_table(g, o, 6)
        assert t[0] == 1 and t[2] == 2 and t[6] == 20
        assert t.m_max == 6
        assert [t.moment(m) for m in (0, 2, 6)] == [1, 2, 20]
        with pytest.raises(ValueError):
            t[7]
        with pytest.raises(ValueError):
            t.moment(7)


class TestProductTheorems:
    def test_kronecker_multiplication_on_random_pairs(self):
        rng = random.Random(90125)
        for _ in range(30):
            g1, g2 = random_graph(rng, 2, 6), random_graph(rng, 2, 6)
            t1 = walk_table(g1, (0,), 8)
            t2 = walk_table(g2, (0,), 8)
            prod = graphs.kronecker(g1, g2)
            combined = MellinConv(t1, t2)
            for m in range(9):
                assert combined.moment(m) == t1[m] * t2[m]
                assert walk_table(prod, (0, 0), m)[m] == combined.moment(m)

    def test_cartesian_convolution_on_random_pairs(self):
        rng = random.Random(65536)
        for _ in range(30):
            g1, g2 = random_graph(rng, 2, 6), random_graph(rng, 2, 6)
            t1 = walk_table(g1, (0,), 8)
            t2 = walk_table(g2, (0,), 8)
            prod = graphs.cartesian(g1, g2)
            for m in range(9):
                expected = sum(comb(m, j) * t1[j] * t2[m - j] for j in range(m + 1))
                assert ClassicalConv(t1, t2).moment(m) == expected
                assert walk_table(prod, (0, 0), m)[m] == expected

    def test_kronecker_component_count_of_connected_pairs(self):
        rng = random.Random(777)
        for _ in range(20):
            g1 = random_connected_graph(rng, 2, 6)
            g2 = random_connected_graph(rng, 2, 6)
            pairs = [a + b for a in g1.vertices for b in g2.vertices]
            assert len(components(graphs.kronecker(g1, g2), pairs)) <= 2

    def test_single_vertex_factor_is_convolution_identity(self):
        g, o = build_lattice("zplus")
        t = walk_table(g, o, 8)
        unit = walk_table(graphs.path_graph(1), (0,), 8)
        for m in range(9):
            assert ClassicalConv(t, unit).moment(m) == t[m]

    def test_table_range_mismatch_rejected(self):
        g, o = build_lattice("z")
        t1, t2 = walk_table(g, o, 4), walk_table(g, o, 6)
        with pytest.raises(ValueError):
            MellinConv(t1, t2).moment(6)
        with pytest.raises(ValueError):
            ClassicalConv(t1, t2).moment(6)


class TestWalkCountProperties:
    def test_half_length_ball_is_sufficient(self):
        # a closed m-walk cannot leave the radius-(m//2) ball, so widening
        # the window must not change any count
        for kind in ("halfplane", "chamber3"):
            g, o = build_lattice(kind)
            for m in (4, 6, 8):
                small = graphs.ball(g, o, m // 2)
                wide = graphs.ball(g, o, m)
                assert dp_closed_walks(small, o, m) == dp_closed_walks(wide, o, m)
                assert walk_table(g, o, m)[m] == dp_closed_walks(wide, o, m)

    def test_even_counts_never_decrease(self):
        rng = random.Random(2718281)
        graphs_to_try = [random_connected_graph(rng, 2, 7) for _ in range(10)]
        for g in graphs_to_try:
            t = walk_table(g, (0,), 10)
            evens = [t[m] for m in range(0, 11, 2)]
            assert all(a <= b for a, b in zip(evens, evens[1:]))

    def test_counts_are_nonnegative_ints(self):
        g, o = build_lattice("z3cartesian")
        t = walk_table(g, o, 8)
        assert all(isinstance(c, int) and c >= 0 for c in t.counts)


class TestOrbitLumping:
    """walk_table iterates on orbit representatives when the graph's
    symmetry fixes the root; the ball path is the oracle."""

    def test_exactly_the_lumped_kinds_carry_a_symmetry(self):
        params = {"strip": {"n": 3}, "diamond": {"k": 3, "l": 3}}
        lumped = []
        for kind in lattice_walk_kinds():
            g, o = build_lattice(kind, **params.get(kind, {}))
            sym = getattr(g, "symmetry", None)
            if kind in SIGNED_KINDS:
                assert sym is graphs.SIGNED_PERMUTATIONS
            elif kind in MIRRORS:
                sigma = MIRRORS[kind]
                vertices = graphs.ball(g, o, 4).vertices
                assert [sym.canon(v) for v in vertices] == \
                    [min(v, sigma(v)) for v in vertices]
            else:
                assert sym is None
            if sym is not None:
                lumped.append(kind)
        assert len(lumped) == 11

    @pytest.mark.parametrize("kind,params", LUMPED,
                             ids=[kind_id(*kp) for kp in LUMPED])
    def test_lumped_equals_ball_path_up_to_the_cap(self, kind, params):
        g, o = build_lattice(kind, **params)
        plain = dataclasses.replace(g, symmetry=None)
        cap = CAP_3D if lattice_kind(kind).dimension == 3 else CAP_12D
        for m in range(cap + 1):
            lumped = walk_table(g, o, m)
            assert lumped == walk_table(plain, o, m)
            assert lumped.counts[m] == closed_form_walks(kind, m, **params)

    @pytest.mark.parametrize("kind,root,lumped", [
        ("z2", (1, 0), False), ("z2", (2, 1), False), ("z2", (0, 1), False),
        ("z", (3,), False), ("z", (0,), True), ("z2", (0, 0), True),
        ("bcc3", (0, 0, 0), True), ("z3cartesian", (1, 0, 0), False),
        # on a mirror line (the strip at width 3)
        ("halfplane", (1, -1), True), ("wedge", (2, 0), True),
        ("strip", (1, -1), True),
        # off it
        ("chamber3", (1, 0, 0), False), ("kkc3", (1, 0, 0), False),
        ("halfplane", (1, 0), False),
    ])
    def test_only_a_fixed_root_is_lumped(self, monkeypatch, kind, root, lumped):
        expansions = []

        def spy(g, o, *args):
            expansions.append(o)
            return graphs.ball(g, o, *args)

        monkeypatch.setattr("latticewalks.walks.ball", spy)
        g, _ = build_lattice(kind, **({"n": 3} if kind == "strip" else {}))
        counts = walk_table(g, root, 10).counts
        assert expansions == ([] if lumped else [root])
        assert list(counts) == [dp_closed_walks(g, root, m) for m in range(11)]

    def test_a_lumped_graph_with_odd_cycles(self, monkeypatch):
        # the triangular lattice, Z^2 with the diagonal steps +-(1, 1),
        # under the mirror x <-> y: its triangles link equal depths
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
        g = graphs.ImplicitGraph(
            2, lambda v: [(v[0] + a, v[1] + b) for a, b in steps], "triangular",
            symmetry=graphs.reflection(lambda v: (v[1], v[0])))
        expansions = []

        def spy(g, o, *args):
            expansions.append(o)
            return graphs.ball(g, o, *args)

        monkeypatch.setattr("latticewalks.walks.ball", spy)
        counts = walk_table(g, (0, 0), 10).counts
        assert expansions == []
        assert counts[:7] == (1, 0, 6, 12, 90, 360, 2040)
        assert counts == walk_table(dataclasses.replace(g, symmetry=None), (0, 0), 10).counts
        assert list(counts) == [dp_closed_walks(g, (0, 0), m) for m in range(11)]

    @pytest.mark.parametrize("budget", [4, 10])
    def test_budget_errors_match_the_ball_path(self, budget):
        for kind in ("z2", "chamber3"):
            g, o = build_lattice(kind)
            messages = []
            for graph in (g, dataclasses.replace(g, symmetry=None)):
                with pytest.raises(ResourceLimitError) as info:
                    walk_table(graph, o, 12, budget)
                messages.append(str(info.value))
            assert messages[0] == messages[1]


@st.composite
def simple_graphs(draw, max_n: int = 6) -> graphs.FiniteGraph:
    """Any simple graph on (0,), ..., (n-1,): triangles, isolated vertices
    and disconnected pieces included."""
    n = draw(st.integers(1, max_n))
    pairs = [((i,), (j,)) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edges([(i,) for i in range(n)], edges)


def _graph(n: int, edges) -> graphs.FiniteGraph:
    return from_edges([(i,) for i in range(n)], [((i,), (j,)) for i, j in edges])


def _mirrored_cycle(n: int) -> graphs.ImplicitGraph:
    # C_n with the mirror i -> -i, which fixes the root 0
    g = _graph(n, [(i, (i + 1) % n) for i in range(n)])
    return dataclasses.replace(as_implicit(g),
                               symmetry=graphs.reflection(lambda v: (-v[0] % n,)))


_TRIANGLE = _graph(3, [(0, 1), (1, 2), (0, 2)])
_K4 = _graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
_ISOLATED_ROOT = _graph(3, [(1, 2)])
_FIVE_CYCLE = _graph(5, [(i, (i + 1) % 5) for i in range(5)])
_SEVEN_CYCLE = _graph(7, [(i, (i + 1) % 7) for i in range(7)])
_P1, _P2, _P5 = (_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 5))
_HYPOTHESIS = settings(max_examples=120, deadline=None, database=None,
                       derandomize=True)


class TestHalfStepIdentity:
    """walk_table counts on a radius-m//2 ball, by half steps or, on a
    path, by full slice steps; compare with m plain steps of u <- A u on
    the whole graph."""

    @_HYPOTHESIS
    @given(g=simple_graphs(), pick=st.integers(0, 63), m_max=st.integers(0, 15))
    @example(g=_TRIANGLE, pick=0, m_max=15)
    @example(g=_TRIANGLE, pick=1, m_max=14)
    @example(g=_K4, pick=3, m_max=15)
    @example(g=_ISOLATED_ROOT, pick=0, m_max=15)
    @example(g=_ISOLATED_ROOT, pick=0, m_max=0)
    # at radius 1 the ball is a path, bipartite; at radius 2 its outer
    # layer holds the edge that closes the 5-cycle, and count[5] = 2
    @example(g=_FIVE_CYCLE, pick=0, m_max=3)
    @example(g=_FIVE_CYCLE, pick=0, m_max=4)
    @example(g=_FIVE_CYCLE, pick=0, m_max=5)
    # paths run the full-step path kernel, rooted at an end or in the
    # middle, at lengths whose walks reach past the path's ends
    @example(g=_P1, pick=0, m_max=15)
    @example(g=_P2, pick=0, m_max=5)
    @example(g=_P2, pick=1, m_max=15)
    @example(g=_P5, pick=0, m_max=15)
    @example(g=_P5, pick=2, m_max=15)
    @example(g=_P5, pick=2, m_max=7)
    # the radius-2 ball of C_7 is a path; the radius-3 ball is the cycle,
    # and count[7] = 2
    @example(g=_SEVEN_CYCLE, pick=0, m_max=5)
    @example(g=_SEVEN_CYCLE, pick=0, m_max=7)
    def test_finite_graphs(self, g, pick, m_max):
        i = pick % len(g)
        expected = vector_walk_counts(g.adjacency, i, m_max)
        root = g.vertices[i]
        assert list(walk_table(g, root, m_max).counts) == expected
        assert list(walk_table(as_implicit(g), root, m_max).counts) == expected
        assert walk_table(g, root, m_max)[m_max] == expected[m_max]

    @_HYPOTHESIS
    @given(g1=simple_graphs(5), g2=simple_graphs(5), kron=st.booleans(),
           pick=st.integers(0, 63), m_max=st.integers(0, 15))
    @example(g1=_TRIANGLE, g2=_TRIANGLE, kron=True, pick=0, m_max=15)
    @example(g1=_TRIANGLE, g2=_K4, kron=False, pick=5, m_max=15)
    @example(g1=_ISOLATED_ROOT, g2=_TRIANGLE, kron=False, pick=0, m_max=13)
    @example(g1=_ISOLATED_ROOT, g2=_TRIANGLE, kron=True, pick=0, m_max=15)
    def test_products(self, g1, g2, kron, pick, m_max):
        product = graphs.kronecker if kron else graphs.cartesian
        whole = product_by_definition(g1, g2, kron)
        i = pick % len(whole)
        expected = vector_walk_counts(whole.adjacency, i, m_max)
        root = whole.vertices[i]
        assert list(walk_table(product(g1, g2), root, m_max).counts) == expected
        lazy = product(as_implicit(g1), as_implicit(g2))
        assert list(walk_table(lazy, root, m_max).counts) == expected

    @_HYPOTHESIS
    @given(n=st.integers(3, 9), m_max=st.integers(0, 21))
    # C_5's quotient ends in a row that names itself, so it takes the
    # scatter kernel; C_6's is a path whose both ends name a neighbour twice
    @example(n=5, m_max=4)
    @example(n=5, m_max=9)
    @example(n=6, m_max=13)
    def test_cycle_mirror_quotients(self, n, m_max):
        cycle = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
        assert list(walk_table(_mirrored_cycle(n), (0,), m_max).counts) == \
            vector_walk_counts(cycle, 0, m_max)


class TestPathKernel:
    """walk_table takes full slice steps when the ball's rows form a path,
    and the half-step scatter kernel on every other ball."""

    @pytest.mark.parametrize("g,root,m_max,path", [
        (_P1, (0,), 6, True), (_P5, (0,), 9, True), (_P5, (2,), 9, True),
        (_SEVEN_CYCLE, (0,), 5, True), (_SEVEN_CYCLE, (0,), 6, False),
        (_mirrored_cycle(5), (0,), 4, False), (_mirrored_cycle(6), (0,), 8, True),
        (_TRIANGLE, (0,), 4, False), (_ISOLATED_ROOT, (1,), 4, True),
    ], ids=["P1", "P5-end", "P5-middle", "C7-r2", "C7-r3", "C5-mirror",
            "C6-mirror", "triangle", "edge"])
    def test_runs_exactly_on_paths(self, monkeypatch, g, root, m_max, path):
        calls = []
        kernel = walks._path_counts

        def spy(*args):
            calls.append(args[-1])
            return kernel(*args)

        monkeypatch.setattr(walks, "_path_counts", spy)
        walk_table(g, root, m_max)
        assert calls == ([m_max] if path else [])

    def test_no_2d_or_3d_kind_reaches_it(self, monkeypatch):
        # past radius 1, where a lumped ball is a star of one or two
        # representatives, with every factor path at 3 vertices or more
        def fail(*args):
            raise AssertionError("path kernel on a 2-D or 3-D ball")

        monkeypatch.setattr(walks, "_path_counts", fail)
        for kind in lattice_walk_kinds():
            lk = lattice_kind(kind)
            if lk.dimension == 1:
                continue
            for n in (3, 10):
                params = {p: n for p in lk.requires}
                g, o = build_lattice(kind, **params)
                for m in (4, 5, CAP_3D if lk.dimension == 3 else CAP_12D):
                    assert walk_table(g, o, m).counts[m] == \
                        closed_form_walks(kind, m, **params)

    @pytest.mark.parametrize("kind", ["z", "zplus", "zplus-at-1"])
    def test_long_tables_equal_closed_forms(self, kind):
        g, o = build_lattice(kind)
        assert list(walk_table(g, o, 700).counts) == \
            [closed_form_walks(kind, m) for m in range(701)]


class TestLatticeRegistry:
    def test_registry_lists_every_kind(self):
        kinds = lattice_walk_kinds()
        assert kinds == ("z", "zplus", "zplus-at-1", "z2", "halfplane",
                         "wedge", "quarterplane", "zxzplus", "strip",
                         "diamond", "bcc3", "z3cartesian", "chamber3", "kkc3")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown lattice kind"):
            lattice_kind("moebius")

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="requires parameter n"):
            build_lattice("strip")
        with pytest.raises(ValueError, match="requires parameter l"):
            build_lattice("diamond", k=3)
        with pytest.raises(ValueError, match="does not take"):
            build_lattice("z", n=5)
        with pytest.raises(ValueError, match="does not take"):
            closed_form_walks("wedge", 4, k=2)

    def test_dimensions(self):
        assert lattice_kind("z").dimension == 1
        assert lattice_kind("strip").dimension == 2
        assert lattice_kind("kkc3").dimension == 3


# frozen even-order tables; every entry recomputed from first principles
# (helpers.REFERENCE_FORMS) so the library closed forms are checked, not echoed
FROZEN_EVEN_TABLES = {kind: [REFERENCE_FORMS[kind](h) for h in range(size)]
                      for kind, size in (("z", 8), ("zplus", 8), ("zplus-at-1", 8),
                                         ("z2", 6), ("halfplane", 6), ("wedge", 6),
                                         ("quarterplane", 6), ("zxzplus", 6), ("bcc3", 5),
                                         ("z3cartesian", 5), ("chamber3", 5))}


class TestClosedForms:
    def test_odd_lengths_are_zero(self, monkeypatch):
        for kind in ("z", "wedge", "bcc3"):
            assert closed_form_walks(kind, 7) == 0
        # every named kind is bipartite, so an odd length reads no law: a
        # Cartesian one would sum m + 1 terms, each of them 0
        monkeypatch.setattr(walks, "_checked_law", lambda kind, n, k, l: None)
        for kind in lattice_walk_kinds():
            assert closed_form_walks(kind, 2001) == 0

    @pytest.mark.parametrize("kind", sorted(FROZEN_EVEN_TABLES))
    def test_frozen_tables(self, kind):
        table = FROZEN_EVEN_TABLES[kind]
        got = [closed_form_walks(kind, 2 * h) for h in range(len(table))]
        assert got == table

    def test_first_values_pinned(self):
        # spot checks with the numbers written out, not derived
        assert [closed_form_walks("zxzplus", 2 * h) for h in range(5)] == \
            [1, 2, 10, 70, 588]
        assert [closed_form_walks("chamber3", 2 * h) for h in range(5)] == \
            [1, 2, 12, 120, 1610]
        assert closed_form_walks("halfplane", 4) == 12
        assert closed_form_walks("bcc3", 2) == 8

    def test_strip_and_diamond_factor_through_paths(self):
        for h in range(6):
            w3 = int_matrix_power_diag(path_adjacency(3), 0, 2 * h)
            assert closed_form_walks("strip", 2 * h, n=3) == comb(2 * h, h) * w3
        for h in range(5):
            w4 = int_matrix_power_diag(path_adjacency(4), 0, 2 * h)
            w5 = int_matrix_power_diag(path_adjacency(5), 0, 2 * h)
            assert closed_form_walks("diamond", 2 * h, k=4, l=5) == w4 * w5

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            closed_form_walks("z", -2)

    def test_every_closed_form_is_pinned(self):
        # SHA-256 over repr((kind, params, closed forms for m = 0..M)) of
        # every kind in registry order, strip at n = 2..12 and diamond at
        # k, l = 2..7; M = 400 in 1-D and 2-D, 160 in 3-D
        digest = hashlib.sha256()
        for kind in lattice_walk_kinds():
            mmax = 160 if lattice_kind(kind).dimension == 3 else 400
            for params in ([{"n": n} for n in range(2, 13)] if kind == "strip" else
                           [{"k": k, "l": l} for k in range(2, 8) for l in range(2, 8)]
                           if kind == "diamond" else [{}]):
                counts = [closed_form_walks(kind, m, **params) for m in range(mmax + 1)]
                digest.update(repr((kind, params, counts)).encode())
        assert digest.hexdigest() == \
            "a1586f7de77c35e0eff90a7b69859f2d1c360982b2ad90a12b14175086aa4004"

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_comb_references_in_any_order(self, data):
        kind = data.draw(st.sampled_from(lattice_walk_kinds()), label="kind")
        params = {p: data.draw(st.integers(2, 12), label=p)
                  for p in lattice_kind(kind).requires}
        mmax = 160 if lattice_kind(kind).dimension == 3 else 400
        lengths = data.draw(st.lists(st.integers(0, mmax), min_size=1, max_size=12),
                            label="lengths")
        with cold_caches() if data.draw(st.booleans(), label="cold") else nullcontext():
            for m in lengths:
                assert closed_form_walks(kind, m, **params) == \
                    reference_closed_form(kind, m, **params), (kind, params, m)

    @pytest.mark.parametrize("kind", [k for k in lattice_walk_kinds()
                                      if lattice_kind(k).requires])
    def test_parameters_checked_alike(self, kind):
        # build_lattice, closed_form_walks and the kind's fold accept the
        # same values and reject the others with the same message
        requires = lattice_kind(kind).requires
        for values in itertools.product([-1, 0, 1, 2, 3], repeat=len(requires)):
            params = dict(zip(requires, values))
            outcomes = []
            for call in (lambda: build_lattice(kind, **params),
                         lambda: closed_form_walks(kind, 4, **params),
                         lambda: fold_map(kind, **params)):
                try:
                    call()
                    outcomes.append(None)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1] == outcomes[2], params
            assert (outcomes[0] is None) == (min(values) >= 2), params


#: every fold with the parameters it is tested at
_FOLD_CASES = [(fold, params) for fold, (lattice, _) in FOLD_KINDS.items()
               for params in ([{"n": n} for n in range(2, 7)] if lattice == "strip" else
                              [{"k": k, "l": l} for k in range(2, 6) for l in range(2, 6)]
                              if lattice == "diamond" else [{}])]


class TestFolds:
    @pytest.mark.parametrize("fold,params", _FOLD_CASES,
                             ids=[f + "".join(f"-{v}" for v in p.values())
                                  for f, p in _FOLD_CASES])
    def test_target_counts_are_the_folded_kinds_closed_form(self, fold, params):
        lattice, _ = FOLD_KINDS[fold]
        table = walk_table(fold_map(fold, **params).target, (0, 0), 16)
        assert table.counts == tuple(closed_form_walks(lattice, m, **params)
                                     for m in range(17))

    def test_targets_are_implicit(self):
        # a fold builds only the balls it checks, never a whole finite factor
        for fold, params in _FOLD_CASES:
            assert isinstance(fold_map(fold, **params).target, graphs.ImplicitGraph), \
                (fold, params)


class TestIdentityAndCoincidence:
    def test_binomial_identity_range(self):
        # Z^2 counted as the Cartesian and as the Kronecker square of the line
        cartesian, kronecker = product_law("Z □ Z"), product_law("Z ⊗ Z")
        assert all(cartesian.moment(2 * m) == kronecker.moment(2 * m) for m in range(31))
        with pytest.raises(ValueError, match="order must be nonnegative"):
            cartesian.moment(-2)

    def test_binomial_identity_value(self):
        lhs = sum(comb(20, 2 * k) * comb(2 * k, k) * comb(20 - 2 * k, 10 - k)
                  for k in range(11))
        assert lhs == comb(20, 10) ** 2 == 34134779536

    def test_chamber_and_triple_product_counts_coincide(self):
        g_a, o_a = build_lattice("kkc3")
        g_b, o_b = build_lattice("chamber3")
        counts = walk_table(g_a, o_a, 10).counts
        assert counts == walk_table(g_b, o_b, 10).counts
        assert counts[::2] == (1, 2, 12, 120, 1610, 25956)

    def test_mismatch_is_reported(self):
        g_a, o_a = build_lattice("halfplane")
        g_b, o_b = build_lattice("wedge")
        rep = zip(range(7), walk_table(g_a, o_a, 6).counts, walk_table(g_b, o_b, 6).counts)
        mismatches = [e for e in rep if e[1] != e[2]]
        assert mismatches[0] == (2, 2, 1)  # first divergence at m = 2

    def test_diagonal_plane_component_counts(self):
        # counting on the product graph itself, not the folded lattice
        g = graphs.kronecker(graphs.integer_line(), graphs.integer_line())
        assert walk_table(g, (0, 0), 4)[4] == 36
        assert walk_table(g, (0, 0), 6)[6] == 400

    def test_degree_two_interior_witness(self):
        # the triple product has a unique interior degree-2 vertex; the
        # chamber lattice has at least two, so the graphs cannot be isomorphic
        g_a, o_a = build_lattice("kkc3")
        g_b, o_b = build_lattice("chamber3")
        hist_a = graphs.degree_histogram(graphs.ball(g_a, o_a, 6), 4)
        hist_b = graphs.degree_histogram(graphs.ball(g_b, o_b, 6), 4)
        assert hist_a.get(2, 0) == 1
        assert hist_b.get(2, 0) >= 2
