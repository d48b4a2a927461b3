import math
from math import comb

import pytest

from helpers import int_matrix_power_diag, path_adjacency
from latticewalks.errors import NumericalError
from latticewalks.spectral import (
    ArcSine,
    Discrete,
    MomentSequence,
    Semicircle,
    classical_convolve,
    mellin_convolve,
    moment,
    moments_csv,
    named_density,
    path_spectrum,
    weak_equality_by_moments,
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
            moment(Semicircle(), -3)


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


class TestConvolutions:
    def test_classical_is_binomial_convolution(self):
        a, w = ArcSine(), Semicircle()
        conv = classical_convolve(a, w)
        for m in range(9):
            direct = sum(comb(m, j) * a.moment(j) * w.moment(m - j)
                         for j in range(m + 1))
            assert conv.moment(m) == direct

    def test_mellin_multiplies_moments(self):
        w = Semicircle()
        conv = mellin_convolve(w, w)
        assert [conv.moment(2 * h) for h in range(5)] == \
            [cat(h) ** 2 for h in range(5)]

    def test_arcsine_fixed_point(self):
        # the additive and multiplicative squares of the arcsine law agree
        a = ArcSine()
        assert weak_equality_by_moments(classical_convolve(a, a),
                                        mellin_convolve(a, a))

    def test_semicircle_squares_differ(self):
        w = Semicircle()
        add, mul = classical_convolve(w, w), mellin_convolve(w, w)
        assert not weak_equality_by_moments(add, mul)
        assert add.moment(4) == 10 and mul.moment(4) == 4

    def test_named_density_moments(self):
        assert [named_density("aa").moment(2 * h) for h in range(4)] == \
            [comb(2 * h, h) ** 2 for h in range(4)]
        assert [named_density("wa").moment(2 * h) for h in range(4)] == \
            [cat(h) * comb(2 * h, h) for h in range(4)]
        assert [named_density("ww").moment(2 * h) for h in range(4)] == \
            [cat(h) ** 2 for h in range(4)]

    def test_named_density_unknown_kind(self):
        with pytest.raises(ValueError):
            named_density("argh")


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
        adj = path_adjacency(n)
        for m in range(2 * n + 1):
            exact = int_matrix_power_diag(adj, 0, m)
            assert abs(ps.moment(m) - exact) <= 1e-8 * max(1, exact)

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

    def test_hard_limit(self):
        with pytest.raises(ValueError):
            path_spectrum(25)

    def test_conditioning_warning_past_exact_limit(self):
        with pytest.warns(UserWarning, match="ill-conditioned"):
            path_spectrum(13)


class TestConvolutionAlgebra:
    def test_mellin_unit_factor(self):
        # +-1 atoms with equal weight have all even moments 1
        unit = Discrete([(1.0, 0.5), (-1.0, 0.5)])
        conv = mellin_convolve(ArcSine(), unit)
        for m in range(12):
            assert conv.moment(m) == pytest.approx(ArcSine().moment(m))

    def test_classical_unit_is_point_mass_at_zero(self):
        origin = Discrete([(0.0, 1.0)])
        conv = classical_convolve(Semicircle(), origin)
        for m in range(12):
            assert conv.moment(m) == Semicircle().moment(m)

    def test_mellin_commutes_and_associates_on_moments(self):
        a, w = ArcSine(), Semicircle()
        p = path_spectrum(5)
        left, right = mellin_convolve(a, w), mellin_convolve(w, a)
        nested1 = mellin_convolve(mellin_convolve(a, w), p)
        nested2 = mellin_convolve(a, mellin_convolve(w, p))
        for m in range(21):
            assert moment(left, m) == moment(right, m)
            assert moment(nested1, m) == pytest.approx(moment(nested2, m),
                                                       rel=1e-12)


class TestLatticeCorrespondence:
    """Each restricted lattice carries the spectral law the walk counts name."""

    EXACT_ROWS = [
        ("z", {}, lambda: ArcSine()),
        ("zplus", {}, lambda: Semicircle()),
        ("z2", {}, lambda: classical_convolve(ArcSine(), ArcSine())),
        ("z2", {}, lambda: mellin_convolve(ArcSine(), ArcSine())),
        ("halfplane", {}, lambda: mellin_convolve(Semicircle(), ArcSine())),
        ("wedge", {}, lambda: mellin_convolve(Semicircle(), Semicircle())),
        ("quarterplane", {}, lambda: classical_convolve(Semicircle(), Semicircle())),
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
        dist = mellin_convolve(path_spectrum(n), ArcSine())
        for m in range(13):
            assert dist.moment(m) == pytest.approx(table[m], rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("k,l", [(3, 3), (4, 4), (4, 5)])
    def test_diamond_rows(self, k, l):
        from latticewalks.walks import build_lattice, walk_table
        g, o = build_lattice("diamond", k=k, l=l)
        table = walk_table(g, o, 12)
        dist = mellin_convolve(path_spectrum(k), path_spectrum(l))
        for m in range(13):
            assert dist.moment(m) == pytest.approx(table[m], rel=1e-8, abs=1e-8)

    def test_path_derived_discrete_has_vanishing_odd_moments(self):
        for n in (4, 7, 10):
            d = path_spectrum(n).to_discrete()
            assert all(abs(d.moment(m)) < 1e-10 for m in range(1, 2 * n, 2))

    @pytest.mark.filterwarnings("ignore:path spectrum for n=:UserWarning")
    @pytest.mark.parametrize("n", range(2, 25))
    def test_odd_path_moments_are_exactly_zero(self, n):
        # both laws are symmetric, so odd moments vanish exactly instead of
        # leaving the cancellation noise of the float sum
        ps = path_spectrum(n)
        d = ps.to_discrete()
        for m in range(1, 4 * n + 2, 2):
            assert ps.moment(m) == 0 and d.moment(m) == 0


class TestComparisons:
    def test_weak_equality_of_identical_laws(self):
        assert weak_equality_by_moments(Semicircle(), Semicircle())

    def test_weak_inequality_detected(self):
        assert not weak_equality_by_moments(Semicircle(), ArcSine())

    def test_tolerance_is_relative(self):
        big = Discrete([(2.0, 0.5), (-2.0, 0.5)])
        slightly_off = Discrete([(2.0 + 1e-12, 0.5), (-2.0 - 1e-12, 0.5)])
        assert weak_equality_by_moments(big, slightly_off, m_max=20, tol=1e-8)
        assert not weak_equality_by_moments(big, slightly_off, m_max=20, tol=1e-14)


class TestMomentSequence:
    def test_from_distribution(self):
        ms = MomentSequence.from_distribution(Semicircle(), 8)
        assert ms.even_moments == (1, 1, 2, 5, 14)

    def test_requires_unit_mass(self):
        with pytest.raises(ValueError):
            MomentSequence((2.0, 1.0))

    def test_hankel_condition_on_real_moments(self):
        assert MomentSequence.from_distribution(named_density("ww"), 12).hankel_2x2_ok()
        assert MomentSequence.from_distribution(ArcSine(), 20).hankel_2x2_ok()

    def test_hankel_condition_rejects_impossible_sequence(self):
        assert not MomentSequence((1.0, 1.0, 0.5)).hankel_2x2_ok()


def test_moments_csv_layout():
    text = moments_csv(Semicircle(), 4)
    assert text == "m,moment\n0,1\n1,0\n2,1\n3,0\n4,2\n"
    floaty = moments_csv(path_spectrum(2), 2)
    assert floaty.splitlines()[0] == "m,moment"
    assert floaty.splitlines()[1] == "0,1"
