import math
import warnings
from math import comb

import pytest

from helpers import int_matrix_power_diag, path_adjacency
from latticewalks import elliptic, spectral
from latticewalks.spectral import (
    ArcSine,
    ClassicalConv,
    Discrete,
    MellinConv,
    NamedDensity,
    Semicircle,
    moment_law,
    path_spectrum,
)
from latticewalks.walks import path_closed_walks


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


class TestDiscrete:
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
        from latticewalks.walks import build_lattice, walk_table
        g, o = build_lattice(kind, **params)
        table = walk_table(g, o, 12)
        dist = law()
        for m in range(13):
            assert dist.moment(m) == table[m]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_strip_rows(self, n):
        from latticewalks.walks import build_lattice, walk_table
        g, o = build_lattice("strip", n=n)
        table = walk_table(g, o, 12)
        dist = MellinConv(path_spectrum(n), ArcSine())
        for m in range(13):
            assert dist.moment(m) == table[m]

    @pytest.mark.parametrize("k,l", [(3, 3), (4, 4), (4, 5)])
    def test_diamond_rows(self, k, l):
        from latticewalks.walks import build_lattice, walk_table
        g, o = build_lattice("diamond", k=k, l=l)
        table = walk_table(g, o, 12)
        dist = MellinConv(path_spectrum(k), path_spectrum(l))
        for m in range(13):
            assert dist.moment(m) == table[m]

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
