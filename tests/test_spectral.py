import ast
import math
import sys
import threading
import warnings
from contextlib import nullcontext
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MOMENT_CACHES,
    cold_caches,
    from_edges,
    int_matrix_power_diag,
    path_adjacency,
    reference_closed_form,
    reference_path_walks,
)
from latticewalks import elliptic, graphs, spectral
from latticewalks.errors import NumericalError, ResourceLimitError
from latticewalks.spectral import (
    FACTORS,
    MOMENT_LAWS,
    PRODUCT_FACTORS,
    ArcSine,
    ClassicalConv,
    Discrete,
    MellinConv,
    NamedDensity,
    PathSpectrum,
    Semicircle,
    catalan,
    central_binomial,
    moment_law,
    path_spectrum,
    product_law,
    product_params,
    product_terms,
)
from latticewalks.walks import (
    build_lattice,
    closed_form_walks,
    lattice_kind,
    lattice_walk_kinds,
    path_closed_walks,
    walk_table,
    WalkTable,
)


def cat(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


class TestBaseLaws:
    def test_arcsine_moments(self):
        a = ArcSine()
        assert [a.moment(m) for m in range(7)] == [1, 0, 2, 0, 6, 0, 20]

    def test_semicircle_moments(self):
        w = Semicircle()
        assert [w.moment(m) for m in range(7)] == [1, 0, 1, 0, 2, 0, 5]

    def test_moments_are_exact_ints(self):
        assert isinstance(ArcSine().moment(30), int)
        assert Semicircle().moment(30) == cat(15)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            ArcSine().moment(-1)
        with pytest.raises(ValueError):
            Semicircle().moment(-3)


class TestMomentColumns:
    @settings(max_examples=60, deadline=None)
    @given(orders=st.lists(st.integers(0, 800), min_size=1, max_size=25),
           n=st.integers(1, 12), cold=st.booleans())
    def test_columns_match_comb_in_any_order(self, orders, n, cold):
        with cold_caches() if cold else nullcontext():
            for m in orders:
                assert ArcSine().moment(m) == (0 if m % 2 else comb(m, m // 2))
                assert Semicircle().moment(m) == (0 if m % 2 else comb(m, m // 2) // (m // 2 + 1))
                path = PathSpectrum(n).moment(m)
                assert path == path_closed_walks(n, m) == reference_path_walks(n, m)

    def test_threads_read_valid_columns(self):
        # 8 threads ask for interleaved lengths on the same cold caches
        kinds = [("z", {}), ("zplus", {}), ("zplus-at-1", {}), ("strip", {"n": 5}),
                 ("diamond", {"k": 3, "l": 9}), ("quarterplane", {}), ("chamber3", {})]
        wrong, start = [], threading.Barrier(8)

        def ask(t):
            start.wait(timeout=60)
            for m in range(2 * t, 320, 16):
                for kind, params in kinds:
                    if closed_form_walks(kind, m, **params) != \
                            reference_closed_form(kind, m, **params):
                        wrong.append((kind, m))
                if ArcSine().moment(m) != comb(m, m // 2):
                    wrong.append(("arcsine", m))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cold_caches():
                threads = [threading.Thread(target=ask, args=(t,)) for t in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                # every moment the threads read is cached, and correct
                misses = [cached.cache_info().misses for cached in MOMENT_CACHES]
                for h in range(160):
                    assert central_binomial(h) == comb(2 * h, h)
                    assert catalan(h) == comb(2 * h, h) // (h + 1)
                    for n in (3, 5, 9):
                        assert path_closed_walks(n, 2 * h) == reference_path_walks(n, 2 * h)
                assert [cached.cache_info().misses for cached in MOMENT_CACHES] == misses
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_a_sweep_over_path_lengths_keeps_the_caches_bounded(self):
        # more path lengths and orders than a cache keeps: the least
        # recently used entries go, and a length asked for again is
        # computed afresh, correctly
        with cold_caches():
            for n in range(2, 4300):
                assert PathSpectrum(n).moment(12) == reference_path_walks(n, 12)
                assert closed_form_walks("strip", 2 * (n % 300), n=n) == \
                    reference_closed_form("strip", 2 * (n % 300), n=n)
            for cached in MOMENT_CACHES:
                info = cached.cache_info()
                assert info.maxsize == 4096 and info.currsize <= info.maxsize
            assert path_closed_walks.cache_info().currsize == 4096
            assert [PathSpectrum(n).moment(12) for n in range(2, 9)] == \
                [reference_path_walks(n, 12) for n in range(2, 9)]

    def test_a_float_order_is_never_served_from_a_cache(self):
        # central_binomial(3) is the value computed last, so 4.0 could step
        # from it
        with cold_caches():
            assert (central_binomial(3), catalan(3), path_closed_walks(4, 6)) == (20, 5, 5)
        for call in (lambda: central_binomial(3.0), lambda: catalan(3.0),
                     lambda: central_binomial(4.0)):
            with pytest.raises(TypeError):
                call()
        # a float size or length is a ValueError before the count is computed
        with pytest.raises(ValueError, match=r"^path size must be an integer, got 4\.0$"):
            path_closed_walks(4.0, 6)
        with pytest.raises(ValueError, match="^walk length must be an integer, got 6.0$"):
            path_closed_walks(4, 6.0)

    def test_a_cold_sweep_steps_each_central_binomial_from_the_last(self, monkeypatch):
        # one comb for h = 0, then c_h = c_{h-1} (4h - 2) / h: a cold sweep
        # over 4200 orders costs O(digits) per order, not a comb each
        combs = []
        monkeypatch.setattr(spectral, "comb", lambda n, k: combs.append((n, k)) or comb(n, k))
        with cold_caches():
            sweep = [ArcSine().moment(m) for m in range(0, 8400, 2)]
        assert combs == [(0, 0)]
        assert sweep[:401] == [comb(2 * h, h) for h in range(401)]
        assert sweep[-1] == comb(8398, 4199)
        # a stride of 2 has no neighbour to step from
        with cold_caches():
            assert [central_binomial(h) for h in range(0, 40, 2)] == \
                [comb(2 * h, h) for h in range(0, 40, 2)]
        assert len(combs) == 21

    def test_spectral_does_not_import_walks(self):
        tree = ast.parse(Path(spectral.__file__).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     for a in node.names}
        assert "walks" not in imported


class TestDiscrete:
    def test_needs_an_atom(self):
        with pytest.raises(ValueError, match="needs at least one atom"):
            Discrete([])

    def test_symmetric_two_atoms(self):
        d = Discrete([(1.0, 0.5), (-1.0, 0.5)])
        assert d.moment(0) == pytest.approx(1.0)
        assert d.moment(1) == 0
        assert d.moment(2) == pytest.approx(1.0)

    def test_atom_at_zero_may_be_unpaired(self):
        d = Discrete([(0.0, 0.5), (2.0, 0.25), (-2.0, 0.25)])
        assert d.moment(2) == pytest.approx(2.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Discrete([(1.0, 0.6), (-1.0, 0.6)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Discrete([(1.0, 1.5), (-1.0, -0.5)])

    def test_asymmetric_support_rejected(self):
        with pytest.raises(ValueError, match="mirror"):
            Discrete([(1.0, 0.5), (-2.0, 0.5)])

    @pytest.mark.parametrize("atoms", [
        [(1.0, math.nan), (-1.0, math.nan)],
        [(math.nan, 0.5), (-1.0, 0.5)],
        [(math.inf, 0.5), (-math.inf, 0.5)],
    ], ids=["nan-weights", "nan-atom", "infinite-atoms"])
    def test_non_finite_rejected(self, atoms):
        with pytest.raises(ValueError, match="finite"):
            Discrete(atoms)


class TestConvolutions:
    def test_classical_is_binomial_convolution(self):
        a, w = ArcSine(), Semicircle()
        conv = ClassicalConv(a, w)
        for m in range(9):
            direct = sum(comb(m, j) * a.moment(j) * w.moment(m - j)
                         for j in range(m + 1))
            assert conv.moment(m) == direct

    @pytest.mark.parametrize("left,right", [
        (ArcSine(), Semicircle()),
        (Discrete([(1.5, 0.25), (-1.5, 0.25), (0.0, 0.5)]), ArcSine()),
        (Semicircle(), path_spectrum(5).to_discrete()),
        (path_spectrum(4), MellinConv(ArcSine(), Semicircle())),
    ])
    def test_classical_keeps_value_and_type_of_the_full_sum(self, left, right):
        conv = ClassicalConv(left, right)
        for m in range(17):
            direct = sum(comb(m, j) * left.moment(j) * right.moment(m - j)
                         for j in range(m + 1))
            got = conv.moment(m)
            assert got == direct and type(got) is type(direct), m

    def test_classical_skips_terms_of_zero_left_moments(self):
        asked = []

        class Recording(Semicircle):
            def moment(self, m):
                asked.append(m)
                return super().moment(m)

        # sum over even k of comb(8, k) comb(k, k/2) catalan((8 - k)/2)
        assert ClassicalConv(ArcSine(), Recording()).moment(8) == \
            14 + 28 * 2 * 5 + 70 * 6 * 2 + 28 * 20 + 70
        assert asked == [8, 6, 4, 2, 0]

    def test_classical_steps_past_odd_orders_of_a_symmetric_left_law(self):
        asked = []

        class Recording(ArcSine):
            def moment(self, m):
                asked.append(m)
                return super().moment(m)

        law = ClassicalConv(MellinConv(Recording(), Semicircle()), Semicircle())
        assert law.symmetric
        assert law.moment(8) == sum(comb(8, k) * comb(k, k // 2) * cat(k // 2)
                                    * cat((8 - k) // 2) for k in range(0, 9, 2))
        assert asked == [0, 2, 4, 6, 8]
        assert law.moment(7) == 0 and asked[5:] == [0, 2, 4, 6]

    def test_a_walk_table_keeps_every_order(self):
        # the triangle's closed walks: odd counts are not 0, and a table
        # knows its odd moments only up to its length
        triangle = walk_table(from_edges(
            [(0,), (1,), (2,)], [((0,), (1,)), ((1,), (2,)), ((0,), (2,))]), (0,), 9)
        assert triangle.counts[3] == 2
        for left, right in ((triangle, Semicircle()), (Semicircle(), triangle)):
            law = ClassicalConv(left, right)
            assert not law.symmetric
            assert [law.moment(m) for m in range(10)] == [
                sum(comb(m, k) * left.moment(k) * right.moment(m - k) for k in range(m + 1))
                for m in range(10)]
        assert MellinConv(triangle, ArcSine()).symmetric
        assert not MellinConv(triangle, triangle).symmetric
        assert Discrete([(1.0, 0.5), (-1.0, 0.5)]).symmetric and path_spectrum(3).symmetric

    def test_mellin_multiplies_moments(self):
        w = Semicircle()
        conv = MellinConv(w, w)
        assert [conv.moment(2 * h) for h in range(5)] == \
            [cat(h) ** 2 for h in range(5)]

    def test_arcsine_fixed_point(self):
        # the additive and multiplicative squares of the arcsine law agree
        a = ArcSine()
        add, mul = ClassicalConv(a, a), MellinConv(a, a)
        assert [add.moment(m) for m in range(31)] == [mul.moment(m) for m in range(31)]

    def test_semicircle_squares_differ(self):
        w = Semicircle()
        add, mul = ClassicalConv(w, w), MellinConv(w, w)
        assert add.moment(4) == 10 and mul.moment(4) == 4

    def test_named_density_moments(self):
        assert [NamedDensity("aa").moment(2 * h) for h in range(4)] == \
            [comb(2 * h, h) ** 2 for h in range(4)]
        assert [NamedDensity("wa").moment(2 * h) for h in range(4)] == \
            [cat(h) * comb(2 * h, h) for h in range(4)]
        assert [NamedDensity("ww").moment(2 * h) for h in range(4)] == \
            [cat(h) ** 2 for h in range(4)]

    def test_named_density_unknown_kind(self):
        with pytest.raises(ValueError):
            NamedDensity("argh")
        with pytest.raises(ValueError, match="unknown density kind 'AA'"):
            NamedDensity("AA")

    def test_moment_laws_take_exactly_their_parameters(self):
        assert moment_law("path", n=4).moment(8) == path_closed_walks(4, 8)
        assert moment_law("classical-ww").moment(4) == 10
        with pytest.raises(ValueError, match="moment kind 'path' requires parameter n"):
            moment_law("path")
        with pytest.raises(ValueError, match="moment kind 'arcsine' does not take parameter n"):
            moment_law("arcsine", n=5)
        with pytest.raises(ValueError, match="unknown moment kind 'Path'"):
            moment_law("Path", n=4)

    def test_product_factors_cover_the_kernel_kinds(self):
        assert set(spectral.PRODUCT_FACTORS) == set(elliptic._KERNELS)


class _Listed:
    """A test-only law given by its list of moments, odd ones included."""

    def __init__(self, values):
        self.values = values

    def moment(self, m):
        return self.values[m]


def _comb_sum(left, right, m):
    # the binomial convolution with comb per term, skipping zero left moments
    total = 0
    for k in range(m + 1):
        lk = left.moment(k)
        if lk:
            total += comb(m, k) * lk * right.moment(m - k)
    return total


# symmetric laws on up to 4 atom pairs +-a/100, a apart from 0 and each other
_DISCRETE = st.lists(st.tuples(st.integers(1, 300), st.floats(0.01, 1.0)),
                     min_size=1, max_size=4, unique_by=lambda atom: atom[0]).map(
    lambda atoms: Discrete([(s * a / 100, w / (2 * sum(w for _, w in atoms)))
                            for a, w in atoms for s in (1.0, -1.0)]))


class TestClassicalConvRow:
    @settings(max_examples=80, deadline=None)
    @given(left=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=40),
           right=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=40, max_size=40))
    def test_matches_the_comb_sum_with_odd_moments(self, left, right):
        conv = ClassicalConv(_Listed(left), _Listed(right))
        for m in range(len(left)):
            assert conv.moment(m) == _comb_sum(_Listed(left), _Listed(right), m)

    @settings(max_examples=60, deadline=None)
    @given(left=_DISCRETE, right=_DISCRETE)
    def test_discrete_floats_match_bit_for_bit(self, left, right):
        conv = ClassicalConv(left, right)
        for m in range(25):
            assert conv.moment(m).hex() == float(_comb_sum(left, right, m)).hex()


class TestProductLaws:
    @pytest.mark.parametrize("factor,p", [("Z", None), ("Z+", None), ("P", 2), ("P", 7)])
    def test_each_factor_declares_its_graph_and_its_law(self, factor, p):
        # the walk table of the factor's graph at 0 is its law's moments
        graph, law = FACTORS[factor]
        table = walk_table(graph(p), (0,), 16)
        assert [law(p).moment(m) for m in range(17)] == list(table.counts)

    def test_terms_and_parameters(self):
        assert product_terms("(Z+ ⊗ Z+) □ Z+") == \
            ((("Z+", ""), ("Z+", "")), (("Z+", ""),))
        assert product_terms("Z ⊗ P_n") == ((("Z", ""), ("P", "n")),)
        assert product_params("P_k ⊗ P_l") == ("k", "l")
        assert product_params("Z □ Z") == ()

    def test_folds_left_to_right(self):
        law = product_law("(Z ⊗ Z+ ⊗ P_n) □ Z+", n=4)
        assert type(law) is ClassicalConv and type(law.right) is Semicircle
        inner = law.left
        assert type(inner) is MellinConv and type(inner.right) is PathSpectrum
        assert inner.right.n == 4
        assert (type(inner.left.left), type(inner.left.right)) == (ArcSine, Semicircle)

    def test_unknown_factor(self):
        with pytest.raises(ValueError, match="unknown factor kind 'Q'; known: Z, Z\\+, P"):
            product_law("Z ⊗ Q")

    def test_named_kinds_are_product_strings(self):
        assert all(isinstance(product, str) for product in MOMENT_LAWS.values())
        assert dict(PRODUCT_FACTORS) == {"aa": "Z ⊗ Z", "wa": "Z+ ⊗ Z", "ww": "Z+ ⊗ Z+"}
        law = NamedDensity("wa").law
        assert (law.left.density, law.right.density) == \
            (elliptic.semicircle_density, elliptic.arcsine_density)

    def test_moment_kinds_read_their_laws(self):
        for kind, product in MOMENT_LAWS.items():
            params = {"n": 5} if kind == "path" else {}
            law, derived = moment_law(kind, **params), product_law(product, **params)
            assert [law.moment(m) for m in range(21)] == \
                [derived.moment(m) for m in range(21)]


class TestPathSpectrum:
    def test_two_vertex_path(self):
        ps = path_spectrum(2)
        assert ps.eigenvalues == pytest.approx((1.0, -1.0))
        assert ps.weights == pytest.approx((0.5, 0.5))

    def test_three_vertex_path_weights(self):
        ps = path_spectrum(3)
        assert sorted(ps.eigenvalues) == pytest.approx(
            [-math.sqrt(2), 0.0, math.sqrt(2)])
        assert sorted(ps.weights) == pytest.approx([0.25, 0.25, 0.5])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_moments_reproduce_walk_counts(self, n):
        ps = path_spectrum(n)
        eigen = ps.to_discrete()
        adj = path_adjacency(n)
        for m in range(2 * n + 1):
            exact = int_matrix_power_diag(adj, 0, m)
            # moments are the exact counts; the eigen data reproduce them
            assert type(ps.moment(m)) is int and ps.moment(m) == exact
            assert abs(eigen.moment(m) - exact) <= 1e-8 * max(1, exact)

    def test_weights_form_a_distribution(self):
        for n in (5, 9, 12):
            ps = path_spectrum(n)
            assert sum(ps.weights) == pytest.approx(1.0, abs=1e-10)
            assert all(w > 0 for w in ps.weights)

    def test_to_discrete_preserves_moments(self):
        ps = path_spectrum(6)
        d = ps.to_discrete()
        for m in range(0, 12, 2):
            assert d.moment(m) == pytest.approx(ps.moment(m), rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            path_spectrum(1)

    def test_closed_form_matches_walk_counts_without_warning(self):
        # the weights 2/(n+1) sin^2(k pi/(n+1)) need no solve, so no size
        # limit and no conditioning warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(2, 81):
                eigen = path_spectrum(n).to_discrete()
                for m in range(0, 4 * n + 1, 2):
                    exact = path_closed_walks(n, m)
                    assert abs(eigen.moment(m) - exact) <= 1e-12 * exact


class TestConvolutionAlgebra:
    def test_mellin_unit_factor(self):
        # +-1 atoms with equal weight have all even moments 1
        unit = Discrete([(1.0, 0.5), (-1.0, 0.5)])
        conv = MellinConv(ArcSine(), unit)
        for m in range(12):
            assert conv.moment(m) == pytest.approx(ArcSine().moment(m))

    def test_classical_unit_is_point_mass_at_zero(self):
        origin = Discrete([(0.0, 1.0)])
        conv = ClassicalConv(Semicircle(), origin)
        for m in range(12):
            assert conv.moment(m) == Semicircle().moment(m)

    def test_mellin_commutes_and_associates_on_moments(self):
        a, w = ArcSine(), Semicircle()
        p = path_spectrum(5)
        left, right = MellinConv(a, w), MellinConv(w, a)
        nested1 = MellinConv(MellinConv(a, w), p)
        nested2 = MellinConv(a, MellinConv(w, p))
        for m in range(21):
            assert left.moment(m) == right.moment(m)
            assert nested1.moment(m) == nested2.moment(m)


class TestLatticeCorrespondence:
    """Each restricted lattice carries the spectral law the walk counts name."""

    EXACT_ROWS = [
        ("z", {}, lambda: ArcSine()),
        ("zplus", {}, lambda: Semicircle()),
        ("z2", {}, lambda: ClassicalConv(ArcSine(), ArcSine())),
        ("z2", {}, lambda: MellinConv(ArcSine(), ArcSine())),
        ("halfplane", {}, lambda: MellinConv(Semicircle(), ArcSine())),
        ("wedge", {}, lambda: MellinConv(Semicircle(), Semicircle())),
        ("quarterplane", {}, lambda: ClassicalConv(Semicircle(), Semicircle())),
        ("zxzplus", {}, lambda: ClassicalConv(Semicircle(), Semicircle())),
        ("bcc3", {}, lambda: MellinConv(MellinConv(ArcSine(), ArcSine()), ArcSine())),
        ("z3cartesian", {},
         lambda: ClassicalConv(MellinConv(ArcSine(), ArcSine()), ArcSine())),
        ("chamber3", {},
         lambda: ClassicalConv(MellinConv(Semicircle(), Semicircle()), Semicircle())),
        ("kkc3", {},
         lambda: ClassicalConv(MellinConv(Semicircle(), Semicircle()), Semicircle())),
    ]

    @pytest.mark.parametrize("kind,params,law", EXACT_ROWS,
                             ids=[f"{k}-{i}" for i, (k, _, _) in enumerate(EXACT_ROWS)])
    def test_exact_rows(self, kind, params, law):
        g, o = build_lattice(kind, **params)
        table = walk_table(g, o, 12)
        dist = law()
        for m in range(13):
            assert dist.moment(m) == table[m]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_strip_rows(self, n):
        g, o = build_lattice("strip", n=n)
        table = walk_table(g, o, 12)
        dist = MellinConv(path_spectrum(n), ArcSine())
        for m in range(13):
            assert dist.moment(m) == table[m]

    @pytest.mark.parametrize("k,l", [(3, 3), (4, 4), (4, 5)])
    def test_diamond_rows(self, k, l):
        g, o = build_lattice("diamond", k=k, l=l)
        table = walk_table(g, o, 12)
        dist = MellinConv(path_spectrum(k), path_spectrum(l))
        for m in range(13):
            assert dist.moment(m) == table[m]

    #: every kind with a product, at the parameters of the rows above
    DERIVED = [(kind, params) for kind in lattice_walk_kinds() if lattice_kind(kind).product
               for params in ([{"n": n} for n in (3, 4, 5)] if kind == "strip" else
                              [{"k": k, "l": l} for k, l in ((3, 3), (4, 4), (4, 5))]
                              if kind == "diamond" else [{}])]

    @pytest.mark.parametrize("kind,params", DERIVED,
                             ids=[k + "".join(f"-{v}" for v in p.values())
                                  for k, p in DERIVED])
    def test_derived_laws(self, kind, params):
        # the law of the kind's product string equals its walk table and
        # the law written out by hand above
        law = product_law(lattice_kind(kind).product, **params)
        oracles = [row() for k, _, row in self.EXACT_ROWS if k == kind]
        if kind == "strip":
            oracles = [MellinConv(path_spectrum(params["n"]), ArcSine())]
        if kind == "diamond":
            oracles = [MellinConv(path_spectrum(params["k"]), path_spectrum(params["l"]))]
        assert oracles
        table = walk_table(*build_lattice(kind, **params), 12)
        for m in range(13):
            assert law.moment(m) == table[m]
            assert all(oracle.moment(m) == table[m] for oracle in oracles)

    def test_path_derived_discrete_has_vanishing_odd_moments(self):
        for n in (4, 7, 10):
            d = path_spectrum(n).to_discrete()
            assert all(abs(d.moment(m)) < 1e-10 for m in range(1, 2 * n, 2))

    @pytest.mark.parametrize("n", range(2, 25))
    def test_odd_path_moments_are_exactly_zero(self, n):
        # both laws are symmetric, so odd moments vanish exactly instead of
        # leaving the cancellation noise of the float sum
        ps = path_spectrum(n)
        d = ps.to_discrete()
        for m in range(1, 4 * n + 2, 2):
            assert ps.moment(m) == 0 and d.moment(m) == 0


# NaN, +-inf, zeros, negatives, non-integer and integral floats, huge
# values, and ints up to 10^4; larger orders are not drawn
_ORDERS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -7, 2.5, -2.5, 4.0, 1e300,
    10 ** 4 - 1, 10 ** 4]) | st.integers(-20, 10 ** 4) | st.floats()
_LINE = graphs.integer_line()
# the law of a single vertex: M_0 = 1 and every other moment 0, exactly
_POINT = walk_table(graphs.path_graph(1), (0,), 10 ** 4)
_EXACT_LAWS = [
    ArcSine(), Semicircle(), path_spectrum(2), path_spectrum(11),
    MellinConv(ArcSine(), path_spectrum(3)), MellinConv(Semicircle(), Semicircle()),
    ClassicalConv(_POINT, Semicircle()), ClassicalConv(_POINT, path_spectrum(6)),
    ClassicalConv(walk_table(graphs.half_line(), (0,), 60), Semicircle()),
    walk_table(_LINE, (0,), 80), _POINT]
# laws with float moments: Discrete ones, and convolutions with a Discrete
# factor on either side
_FLOAT_LAWS = [
    path_spectrum(5).to_discrete(), Discrete([(0.5, 0.25), (-0.5, 0.25), (0.0, 0.5)]),
    MellinConv(path_spectrum(5).to_discrete(), ArcSine()),
    MellinConv(Semicircle(), Discrete([(1.5, 0.5), (-1.5, 0.5)])),
    ClassicalConv(Discrete([(0.0, 1.0)]), ArcSine()),
    ClassicalConv(ArcSine(), path_spectrum(4).to_discrete()),
    ClassicalConv(MellinConv(ArcSine(), Discrete([(1.0, 0.5), (-1.0, 0.5)])), _POINT)]


def _outcome(call):
    # the value of call(), or None for the error it raised under the contract
    try:
        return call()
    except (ValueError, NumericalError, ResourceLimitError):
        return None


_NON_INTEGER_ORDERS = {
    "arcsine-2.5": lambda: ArcSine().moment(2.5),
    "arcsine-nan": lambda: ArcSine().moment(math.nan),
    "arcsine-inf": lambda: ArcSine().moment(math.inf),
    "arcsine-4.0": lambda: ArcSine().moment(4.0),
    "semicircle-2.0": lambda: Semicircle().moment(2.0),
    "path-6.0": lambda: PathSpectrum(4).moment(6.0),
    "discrete-2.5": lambda: Discrete([(1.0, 0.5), (-1.0, 0.5)]).moment(2.5),
    "mellin-2.5": lambda: MellinConv(ArcSine(), ArcSine()).moment(2.5),
    "classical-2.0": lambda: ClassicalConv(ArcSine(), ArcSine()).moment(2.0),
    "path_spectrum-2.5": lambda: path_spectrum(2.5),
    "path_spectrum-nan": lambda: path_spectrum(math.nan),
    "path_spectrum-4.0": lambda: path_spectrum(4.0),
    "walk_table-2.5": lambda: walk_table(_LINE, (0,), 2.5),
    "walk_table-2.0": lambda: walk_table(_LINE, (0,), 2.0),
    "table-2.0": lambda: walk_table(_LINE, (0,), 4)[2.0],
    "closed_form_walks-2.5": lambda: closed_form_walks("strip", 2.5, n=4),
    "closed_form_walks-own-3.0": lambda: closed_form_walks("zxzplus", 3.0),
    "closed_form_walks-nan": lambda: closed_form_walks("z2", math.nan),
    "path_closed_walks-2.5": lambda: path_closed_walks(4, 2.5),
}

#: every lattice kind, with parameters where it requires them
_KINDS = [(kind, {p: 3 for p in lattice_kind(kind).requires}) for kind in lattice_walk_kinds()]


class TestOrderContract:
    """On any order, the laws' ``moment``, ``path_spectrum``,
    ``walk_table`` and its entries, ``closed_form_walks`` and
    ``path_closed_walks`` raise ValueError, NumericalError or
    ResourceLimitError, or return an exact finite value: an int from an
    exact law, a finite float from a law with float moments."""

    @pytest.mark.parametrize("call", _NON_INTEGER_ORDERS.values(), ids=_NON_INTEGER_ORDERS)
    def test_non_integer_orders_rejected(self, call):
        with pytest.raises(ValueError, match="integer|outside table range"):
            call()

    # a path size is an int too, however the path is reached
    @pytest.mark.parametrize("call", [
        lambda: graphs.path_graph(2.5), lambda: graphs.PRODUCT_KINDS["kron"](2.5, 3),
        lambda: build_lattice("diamond", k=2.5, l=3), lambda: path_closed_walks(2.5, 4)],
        ids=["path_graph", "components", "diamond", "path_closed_walks"])
    def test_non_integer_path_sizes_rejected(self, call):
        with pytest.raises(ValueError, match=r"^path size must be an integer, got 2\.5$"):
            call()

    def test_negative_orders_keep_their_messages(self):
        with pytest.raises(ValueError, match="^moment order must be nonnegative$"):
            ArcSine().moment(-2)
        with pytest.raises(ValueError, match="^path spectrum needs n >= 2$"):
            path_spectrum(-3)
        with pytest.raises(ValueError, match="^m_max must be nonnegative$"):
            walk_table(_LINE, (0,), -1)
        with pytest.raises(ValueError, match=r"^walk length -1 outside table range 0\.\.4$"):
            walk_table(_LINE, (0,), 4)[-1]
        for kind, params in _KINDS:
            with pytest.raises(ValueError, match="^walk length must be nonnegative$"):
                closed_form_walks(kind, -2, **params)
        with pytest.raises(ValueError, match="^walk length must be nonnegative$"):
            path_closed_walks(4, -2)

    def test_float_moments_that_overflow_raise(self):
        with pytest.raises(NumericalError, match="overflows a float"):
            path_spectrum(5).to_discrete().moment(2000)
        # an exact factor times a float one, beyond the float range
        with pytest.raises(NumericalError, match="^moment order 10000 overflows a float$"):
            ClassicalConv(Discrete([(0.0, 1.0)]), ArcSine()).moment(10 ** 4)
        with pytest.raises(NumericalError, match="^moment order 600 overflows a float$"):
            MellinConv(path_spectrum(5).to_discrete(), ArcSine()).moment(600)

    @settings(max_examples=250, deadline=None)
    @given(law=st.sampled_from(_EXACT_LAWS + _FLOAT_LAWS), m=_ORDERS)
    def test_moment(self, law, m):
        value = _outcome(lambda: law.moment(m))
        assert value is None or (type(value) is int and law in _EXACT_LAWS) or (
            type(value) is float and math.isfinite(value) and law in _FLOAT_LAWS), \
            (law, m, value)

    # ints up to 600: a Cartesian closed form of order m sums m + 1 big terms
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(_KINDS),
           m=_ORDERS.filter(lambda m: not isinstance(m, int) or m <= 600))
    def test_closed_form_walks(self, kind, m):
        kind, params = kind
        value = _outcome(lambda: closed_form_walks(kind, m, **params))
        assert value is None or (type(value) is int and value >= 0 and (value == 0) == m % 2)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), m=_ORDERS)
    def test_path_closed_walks(self, n, m):
        value = _outcome(lambda: path_closed_walks(n, m))
        assert value is None or (type(value) is int and (
            m > 400 or value == reference_path_walks(n, m)))

    @settings(max_examples=60, deadline=None)
    @given(m=_ORDERS.filter(lambda m: not isinstance(m, int) or m <= 300))
    def test_verify_binomial_identity(self, m):
        # Z^2 as the Cartesian and as the Kronecker square of the line
        assert _outcome(lambda: product_law("Z □ Z").moment(2 * m)
                        == product_law("Z ⊗ Z").moment(2 * m)) in (None, True)

    @settings(max_examples=60, deadline=None)
    @given(m=_ORDERS)
    def test_walk_count(self, m):
        value = _outcome(lambda: walk_table(*build_lattice("strip", n=3), m, budget=300)[m])
        assert value is None or (type(value) is int and value == closed_form_walks(
            "strip", m, n=3))

    @settings(max_examples=100, deadline=None)
    @given(n=_ORDERS)
    def test_path_spectrum(self, n):
        law = _outcome(lambda: path_spectrum(n))
        assert law is None or (law.n == n and law.moment(8) == reference_path_walks(n, 8))

    @settings(max_examples=100, deadline=None)
    @given(graph=st.sampled_from([(_LINE, (0,)), (graphs.half_line(), (0,)),
                                  (graphs.path_graph(2), (0,)),
                                  build_lattice("z"), build_lattice("strip", n=3)]),
           m=_ORDERS)
    def test_walk_table(self, graph, m):
        table = _outcome(lambda: walk_table(*graph, m, budget=300))
        assert table is None or (isinstance(table, WalkTable) and len(table.counts) == m + 1
                                 and all(type(c) is int for c in table.counts))
