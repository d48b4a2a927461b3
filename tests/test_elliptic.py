import hashlib
import math
import re
import struct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe, ellipk

from latticewalks.elliptic import (
    EllipticPair,
    adaptive_quadrature,
    arcsine_density,
    density,
    density_moment,
    elliptic_KE,
    mellin_density_convolve,
    semicircle_density,
)
from latticewalks.errors import NumericalError


def cat(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


# rows (x, aa(x), wa(x), ww(x)) for TestDensityKernels.test_stated_relative_bound
_DENSITY_REFERENCES = [
    (0.5, 0.17606822504016556, 0.2484565200475565, 0.3005574440945741),
    (2.0, 0.10925035897394315, 0.09579508777746233, 0.0554292741880199),
    (3.0, 0.09141509366651011, 0.0428581880610064, 0.011456338327632907),
    (3.5, 0.08497718687134619, 0.020580782091951265, 0.002657015675918005),
    (3.8, 0.08163133967195559, 0.008061103181225951, 0.0004081902528410983),
    (3.87, 0.08089748485240188, 0.005215613988616732, 0.0001709017663438546),
    (3.99, 0.07967709908263657, 0.000398136504527294, 9.959639335444588e-07),
    (4 - 1e-4, 0.07957846627988474, 3.9788984457319215e-06, 9.947308285221865e-11),
    (4 - 1e-6, 0.07957748149313316, 3.9788738265331875e-08, 9.94718518942246e-15),
    (4 - 1e-9, 0.07957747155589485, 3.978873906759539e-11, 9.947185590554305e-21),
    (4 - 1e-12, 0.07957747154595761, 3.979227301475715e-14, 9.948952642750831e-27),
    (math.nextafter(4, 0), 0.07957747154594767, 1.766974823035287e-17,
     1.9617361324667372e-33),
]


class TestEllipticIntegrals:
    def test_degenerate_modulus(self):
        p = elliptic_KE(0.0)
        assert p.K == pytest.approx(math.pi / 2, abs=1e-15)
        assert p.E == pytest.approx(math.pi / 2, abs=1e-15)

    def test_lemniscatic_point_against_scipy(self):
        # scipy's ellipk/ellipe take the parameter m = k^2
        p = elliptic_KE(1 / math.sqrt(2))
        assert abs(p.K - ellipk(0.5)) < 1e-10
        assert abs(p.E - ellipe(0.5)) < 1e-10

    def test_pinned_lemniscatic_values(self):
        p = elliptic_KE(1 / math.sqrt(2))
        assert p.K == pytest.approx(1.8540746773013719, abs=2e-15)
        assert p.E == pytest.approx(1.3506438810476755, abs=2e-15)

    @pytest.mark.parametrize("k", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999])
    def test_scipy_agreement_across_range(self, k):
        p = elliptic_KE(k)
        assert p.K == pytest.approx(float(ellipk(k * k)), rel=1e-12)
        assert p.E == pytest.approx(float(ellipe(k * k)), rel=1e-12)

    def test_agm_converges_quickly(self):
        assert elliptic_KE(0.9).iterations <= 8
        assert elliptic_KE(0.0).iterations <= 2

    def test_agm_matches_defining_integrals(self):
        # quadrature of the trigonometric integrals is a fully independent
        # route to K and E; agreement pins the AGM implementation
        for k in (0.3, 1 / math.sqrt(2), 0.95):
            k2 = k * k
            big_k = adaptive_quadrature(
                lambda t: 1.0 / math.sqrt(1.0 - k2 * math.sin(t) ** 2),
                0.0, math.pi / 2, abs_tol=1e-12, rel_tol=1e-12)
            big_e = adaptive_quadrature(
                lambda t: math.sqrt(1.0 - k2 * math.sin(t) ** 2),
                0.0, math.pi / 2, abs_tol=1e-12, rel_tol=1e-12)
            p = elliptic_KE(k)
            assert abs(p.K - big_k) < 1e-10
            assert abs(p.E - big_e) < 1e-10

    def test_k_dominates_e(self):
        for k in (0.0, 0.2, 0.5, 0.9, 0.999):
            p = elliptic_KE(k)
            assert p.K >= math.pi / 2 - 1e-15
            assert p.E <= math.pi / 2 + 1e-15

    def test_domain(self):
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                elliptic_KE(bad)

    def test_legendre_relation_grid(self):
        worst = 0.0
        for i in range(1, 100):
            k = i / 100.0
            kp = math.sqrt((1.0 - k) * (1.0 + k))
            a, b = elliptic_KE(k), elliptic_KE(kp)
            worst = max(worst, abs(a.K * b.E + b.K * a.E - a.K * b.K
                                   - math.pi / 2.0))
        assert worst < 1e-11

    def test_pair_equals_its_plain_tuple(self):
        p = elliptic_KE(0.5)
        assert isinstance(p, EllipticPair)
        assert p == (0.5, p.K, p.E, p.iterations)

    def test_monotonicity(self):
        ks = [i / 50.0 for i in range(50)]
        ps = [elliptic_KE(k) for k in ks]
        assert all(x.K < y.K for x, y in zip(ps, ps[1:]))
        assert all(x.E > y.E for x, y in zip(ps, ps[1:]))


class TestDensityKernels:
    def test_support(self):
        for kind in ("aa", "wa", "ww"):
            assert density(kind, 4.5) == 0.0
            assert density(kind, -7.0) == 0.0

    def test_all_three_diverge_at_zero(self):
        for kind in ("aa", "wa", "ww"):
            assert math.isinf(density(kind, 0.0))

    def test_log_divergence_rate_near_zero(self):
        # each kernel grows like c*log(16/x); ratios at x and x/4 pin c
        for kind, c in (("aa", 1 / (2 * math.pi ** 2)),
                        ("wa", 1 / math.pi ** 2),
                        ("ww", 2 / math.pi ** 2)):
            x = 1e-8
            slope = (density(kind, x) - density(kind, 4 * x)) / math.log(4.0)
            assert slope == pytest.approx(c, rel=1e-5)

    def test_edge_values(self):
        assert density("aa", 4.0) == pytest.approx(1 / (4 * math.pi), rel=1e-14)
        assert density("wa", 4.0) == pytest.approx(0.0, abs=1e-14)
        assert density("ww", 4.0) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self):
        for kind in ("aa", "wa", "ww"):
            for x in (0.3, 1.7, 3.9):
                assert density(kind, x) == density(kind, -x)

    def test_values_against_direct_elliptic_formulas(self):
        # complementary modulus of xi(x) = sqrt(1 - x^2/16) is x/4 exactly
        for x in (0.5, 1.0, 2.0, 3.0):
            m = 1.0 - (x / 4.0) ** 2  # scipy parameter for xi(x)
            big_k, big_e = float(ellipk(m)), float(ellipe(m))
            pi2 = math.pi ** 2
            assert density("aa", x) == pytest.approx(big_k / (2 * pi2), rel=1e-12)
            assert density("wa", x) == pytest.approx((big_k - big_e) / pi2, rel=1e-12)
            assert density("ww", x) == pytest.approx(
                2 * ((1 + x * x / 16) * big_k - 2 * big_e) / pi2, rel=1e-12)

    def test_smallest_subnormal_x(self):
        # x/4 underflows to 0 there; the value is the head asymptotics
        x = 5e-324
        for kind, c, d in (("aa", 1 / (2 * math.pi ** 2), 0.0),
                           ("wa", 1 / math.pi ** 2, -1.0),
                           ("ww", 2 / math.pi ** 2, -2.0)):
            v = density(kind, x)
            assert math.isfinite(v) and v > 0
            assert v == pytest.approx(c * (math.log(16.0) - math.log(x) + d),
                                      rel=1e-15)

    @pytest.mark.parametrize("kind", ["aa", "wa", "ww"])
    def test_stated_relative_bound(self, kind):
        # density's docstring bound, 2e-15 relative on (0, 4), out to the
        # last double below 4, where K - E and (1 + x^2/16) K - 2E would
        # cancel; references are 100-digit evaluations of the closed forms
        # at the exact doubles listed
        column = {"aa": 1, "wa": 2, "ww": 3}[kind]
        for row in _DENSITY_REFERENCES:
            x, expected = row[0], row[column]
            assert density(kind, x) == pytest.approx(expected, rel=2e-15, abs=0), x

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            density("xx", 1.0)

    @pytest.mark.parametrize("kind", ["aa", "wa", "ww"])
    def test_nan_point_rejected(self, kind):
        with pytest.raises(ValueError, match="x=nan"):
            density(kind, math.nan)

    def test_kinds_match_exactly(self):
        with pytest.raises(ValueError, match="unknown density kind 'AA'"):
            density("AA", 1.0)
        with pytest.raises(ValueError, match="unknown density kind 'AA'"):
            density_moment("AA", 2)


class TestFactorDensities:
    def test_arcsine_density(self):
        assert arcsine_density(0.0) == pytest.approx(1 / (2 * math.pi))
        assert math.isinf(arcsine_density(2.0))
        assert arcsine_density(2.5) == 0.0

    def test_semicircle_density(self):
        assert semicircle_density(0.0) == pytest.approx(1 / math.pi)
        assert semicircle_density(2.0) == 0.0
        assert semicircle_density(-3.0) == 0.0

    def test_factor_normalizations(self):
        val = adaptive_quadrature(semicircle_density, -2.0, 2.0)
        assert val == pytest.approx(1.0, abs=1e-9)
        val = adaptive_quadrature(arcsine_density, -2.0, 2.0)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        assert adaptive_quadrature(lambda x: x ** 3, 0.0, 1.0) == \
            pytest.approx(0.25, abs=1e-15)

    def test_empty_interval(self):
        assert adaptive_quadrature(math.sin, 2.0, 2.0) == 0.0
        assert adaptive_quadrature(math.sin, 3.0, 2.0) == 0.0

    def test_smooth_integral(self):
        assert adaptive_quadrature(math.sin, 0.0, math.pi) == \
            pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_edge_singularity(self):
        val = adaptive_quadrature(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                                  abs_tol=1e-9, rel_tol=1e-9)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_log_singularity(self):
        val = adaptive_quadrature(lambda x: math.log(x), 0.0, 1.0)
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_budget_exhaustion(self):
        with pytest.raises(NumericalError, match="panels"):
            adaptive_quadrature(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                                abs_tol=1e-14, rel_tol=1e-14, panel_budget=8)

    def test_zero_width_panel_stalls(self):
        # a pole at 0.3, inside the interval, is split down to adjacent floats
        with pytest.raises(NumericalError, match="zero-width panel"):
            adaptive_quadrature(lambda x: 1.0 / (abs(x - 0.3) + 1e-300), 0.0, 1.0,
                                panel_budget=100_000)

    def test_nan_result_raises(self):
        # a NaN integrand, and a single NaN at the central node 0.5
        for f in (lambda x: math.nan, lambda x: math.nan if x == 0.5 else x):
            with pytest.raises(NumericalError, match=r"\[0.0, 1.0\]"):
                adaptive_quadrature(f, 0.0, 1.0)

    @pytest.mark.parametrize("spike", [1e5, 1e20, 1e300])
    def test_a_split_spike_cancels_no_panel(self, spike):
        # the first panel's center node 0.5 hits the spike, so its value
        # dwarfs the rest; splitting it cancelled the running sums to 0.0
        assert adaptive_quadrature(lambda x: spike if x == 0.5 else x, 0.0, 1.0) == \
            pytest.approx(0.5, abs=1e-12)

    def test_near_poles_come_out_within_tolerance_or_raise(self):
        # both returned 0.0 on running sums that cancelled: the integrable
        # near-pole (true value 2 (sqrt(0.7) + sqrt(0.3)) = 2.7688) and the
        # divergent one, for which no value is right
        try:
            val = adaptive_quadrature(lambda x: 1.0 / math.sqrt(abs(x - 0.7) + 1e-300),
                                      0.0, 1.0)
        except NumericalError:
            pass
        else:
            assert val == pytest.approx(2.0 * (math.sqrt(0.7) + math.sqrt(0.3)), abs=1e-8)
        with pytest.raises(NumericalError):
            adaptive_quadrature(lambda x: 1.0 / (abs(x - 0.7) + 1e-300), 0.0, 1.0)

    def test_support_between_the_first_nodes_is_missed(self):
        # the stated limit: no node of the first panel lands in (0.3, 0.3001),
        # so its error estimate is 0 and the integral comes out 0.0, not 1e-4;
        # split at the support, the pieces add up to it
        def f(x):
            return 1.0 if 0.3 < x < 0.3001 else 0.0

        assert adaptive_quadrature(f, 0.0, 1.0) == 0.0
        assert adaptive_quadrature(f, 0.0, 1.0, abs_tol=1e-20, rel_tol=1e-20) == 0.0
        pieces = [adaptive_quadrature(f, a, b) for a, b in
                  ((0.0, 0.3), (0.3, 0.3001), (0.3001, 1.0))]
        assert math.fsum(pieces) == pytest.approx(1e-4, rel=1e-9)


class TestToleranceContract:
    """Every tolerance of the quadrature entry points is finite and > 0,
    checked before any work, and a bad one is a ValueError naming it."""

    BAD = [math.nan, 0.0, -1.0, math.inf]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    def test_adaptive_quadrature(self, name, bad):
        for a, b in ((0.0, 1.0), (1.0, 1.0)):
            with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
                adaptive_quadrature(math.sin, a, b, **{name: bad})

    @pytest.mark.parametrize("bad", BAD)
    def test_density_moment(self, bad):
        with pytest.raises(ValueError, match="^tol must be finite and > 0"):
            density_moment("ww", 2, tol=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_mellin_density_convolve(self, bad):
        for x in (1.0, 9.0):
            with pytest.raises(ValueError, match="^tol must be finite and > 0"):
                mellin_density_convolve(semicircle_density, semicircle_density, x, tol=bad)

    def test_former_silent_or_misleading_results(self):
        # a NaN tolerance ended the quadrature loop as converged (1.9543
        # for 2, and 3.99999999495 for the exact second moment 4); a
        # negative or zero tol raised a stall or support-edge error
        with pytest.raises(ValueError, match="^abs_tol"):
            adaptive_quadrature(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
                                abs_tol=math.nan, rel_tol=math.nan)
        with pytest.raises(ValueError, match="got nan"):
            density_moment("aa", 2, tol=math.nan)
        with pytest.raises(ValueError, match="got -1.0"):
            density_moment("aa", 2, tol=-1.0)
        with pytest.raises(ValueError, match="got 0.0"):
            mellin_density_convolve(arcsine_density, arcsine_density, 1.0, tol=0.0)

    def test_subnormal_tol_names_the_callers_argument(self):
        # 0.5 * tol and 0.25 * tol round to 0, which adaptive_quadrature
        # rejected as an abs_tol the caller never passed
        with pytest.raises(ValueError, match=r"^tol is too small, got 5e-324: 0.5 \*"):
            mellin_density_convolve(semicircle_density, semicircle_density, 1.0,
                                    tol=5e-324)
        with pytest.raises(ValueError, match=r"^tol is too small, got 1e-323: 0.25 \*"):
            density_moment("ww", 2, tol=1e-323)

    @pytest.mark.parametrize("call,where", [
        (lambda: mellin_density_convolve(semicircle_density, semicircle_density, 1.0,
                                         tol=1e-20), r"\[0.0, 3.141592653589793\]"),
        (lambda: density_moment("ww", 2, tol=1e-300), r"\[1e-06, 4.0\]"),
    ], ids=["mellin_density_convolve", "density_moment"])
    def test_fail_fast_names_the_callers_tol(self, call, where):
        # the shares handed to adaptive_quadrature (abs_tol=5e-21 and
        # abs_tol=2.5e-301) were named instead of tol
        with pytest.raises(NumericalError) as info:
            call()
        assert re.fullmatch(rf"quadrature on {where} cannot reach tol=1e-(20|300): doubles "
                            r"resolve about \S+ of an integral near \S+", str(info.value))

    def test_unreachable_tolerances_fail_before_the_panel_loop(self):
        # each fails at once, not after the 100,000-panel budget
        with pytest.raises(NumericalError, match=r"cannot reach tol=1e-20: doubles resolve"):
            mellin_density_convolve(semicircle_density, semicircle_density, 1.0, tol=1e-20)
        with pytest.raises(NumericalError, match=r"cannot reach tol=1e-300: doubles resolve"):
            density_moment("ww", 2, tol=1e-300)
        # the first panel's 15 points decide
        points = []
        with pytest.raises(NumericalError, match=r"^quadrature on \[0.0, 3.14"):
            adaptive_quadrature(lambda x: points.append(x) or math.sin(x), 0.0, math.pi,
                                abs_tol=1e-300, rel_tol=1e-17)
        assert len(points) == 15

    def test_a_tiny_tolerance_is_judged_against_the_integral(self):
        # 1e-300 is a share of 5e-11 of this integral, and 1e-17 of the
        # unit one is met by an abs_tol that double precision resolves
        val = adaptive_quadrature(lambda x: 1e-290 * math.sin(x), 0.0, math.pi,
                                  abs_tol=1e-300, rel_tol=1e-300)
        assert val == pytest.approx(2e-290, rel=1e-9)
        assert adaptive_quadrature(math.sin, 0.0, math.pi, abs_tol=1e-9, rel_tol=1e-17) == \
            pytest.approx(2.0, abs=1e-9)


KERNEL_PAIRS = [
    ("aa", arcsine_density, arcsine_density),
    ("wa", semicircle_density, arcsine_density),
    ("ww", semicircle_density, semicircle_density),
]


class TestMellinDensityConvolution:
    def test_domain(self):
        with pytest.raises(ValueError):
            mellin_density_convolve(arcsine_density, arcsine_density, 0.0)
        with pytest.raises(ValueError):
            mellin_density_convolve(arcsine_density, arcsine_density, -1.0)
        with pytest.raises(ValueError, match="positive"):
            mellin_density_convolve(arcsine_density, arcsine_density, math.nan)

    def test_outside_support(self):
        assert mellin_density_convolve(arcsine_density, arcsine_density, 4.0) == 0.0
        assert mellin_density_convolve(arcsine_density, arcsine_density, 9.0) == 0.0

    @pytest.mark.parametrize("kind,f,g", KERNEL_PAIRS)
    def test_matches_closed_form_kernels(self, kind, f, g):
        for x in (0.4, 1.0, 2.2, 3.6):
            got = mellin_density_convolve(f, g, x, tol=1e-9)
            assert got == pytest.approx(density(kind, x), abs=1e-7)

    @pytest.mark.parametrize("kind,f,g", KERNEL_PAIRS[:2])
    def test_former_stall_points(self, kind, f, g):
        # these midpoints stalled on a zero-width panel when the integral
        # was bisected in y
        for i in range(20):
            x = 0.05 + 3.9 * (i + 0.5) / 20
            got = mellin_density_convolve(f, g, x, tol=1e-10)
            assert abs(got - density(kind, x)) <= 1e-9

    @pytest.mark.parametrize("kind,f,g", KERNEL_PAIRS)
    @pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
    def test_accurate_or_raise(self, kind, f, g, tol):
        xs = ([4.0 - 10.0 ** -k for k in range(1, 14)]
              + [10.0 ** -k for k in (1, 2, 3, 6, 9, 12, 50, 300)])
        for x in xs:
            try:
                got = mellin_density_convolve(f, g, x, tol=tol)
            except NumericalError:
                # only a singular factor edge very close to x = 4 may refuse
                assert kind != "ww" and x > 3.9, x
                continue
            ref = density(kind, x)
            assert abs(got - ref) <= tol * max(1.0, ref), (x, got, ref)

    def test_singular_edge_guard(self):
        x = 4.0 - 1e-9
        with pytest.raises(NumericalError) as info:
            mellin_density_convolve(arcsine_density, arcsine_density, x, tol=1e-8)
        assert repr(x) in str(info.value) and "tol=1e-08" in str(info.value)
        got = mellin_density_convolve(semicircle_density, semicircle_density,
                                      x, tol=1e-8)
        assert abs(got - density("ww", x)) <= 1e-8

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_product_inside_the_support_raises(self, value):
        # only y or x/y rounded onto or past the edge 2 may drop a product;
        # these kernels gave 0.0 when every non-finite product was dropped
        with pytest.raises(NumericalError,
                           match=rf"at x=1\.0: the kernel product is {value!r} at y=1\.0,"):
            mellin_density_convolve(lambda u: value, semicircle_density, 1.0)

    def test_non_finite_product_at_the_edge_is_dropped(self):
        # at this x some nodes next to y = 2 round onto it; this kernel is
        # NaN from its edge on, and only those points are dropped
        edge = []

        def uniform(t):
            if abs(t) >= 2.0:
                edge.append(t)
                return math.nan
            return 0.25

        x = 3.999999999999999
        got = mellin_density_convolve(uniform, uniform, x, tol=1e-9)
        assert len(edge) > 2  # the singular-edge guard asks both kernels at 2.0
        assert abs(got - math.log(4.0 / x) / 8.0) <= 1e-9

    def test_uniform_factors(self):
        # two uniform laws on [-2, 2]: 2 * int (1/16) dy/y over [x/2, 2]
        def uniform(t):
            return 0.25 if abs(t) <= 2.0 else 0.0

        for x in (1e-6, 0.5, 1.0, 2.0, 3.0, 3.99):
            got = mellin_density_convolve(uniform, uniform, x, tol=1e-11)
            assert got == pytest.approx(math.log(4.0 / x) / 8.0, rel=1e-11, abs=1e-11)


class TestDensityMoments:
    def test_normalization(self):
        for kind in ("aa", "wa", "ww"):
            assert density_moment(kind, 0) == pytest.approx(1.0, abs=1e-8)

    def test_second_moments(self):
        assert density_moment("aa", 2) == pytest.approx(4.0, rel=1e-6)
        assert density_moment("wa", 2) == pytest.approx(2.0, rel=1e-6)
        assert density_moment("ww", 2) == pytest.approx(1.0, rel=1e-6)

    def test_higher_moments_match_combinatorics(self):
        assert density_moment("aa", 6) == pytest.approx(comb(6, 3) ** 2, rel=1e-6)
        assert density_moment("wa", 6) == pytest.approx(cat(3) * comb(6, 3), rel=1e-6)
        assert density_moment("ww", 6) == pytest.approx(cat(3) ** 2, rel=1e-6)

    def test_odd_or_negative_order_rejected(self):
        with pytest.raises(ValueError):
            density_moment("aa", 3)
        with pytest.raises(ValueError, match="^moment order must be nonnegative$"):
            density_moment("aa", -2)
        # the one order rule: a float order is no order, not x^4.0
        with pytest.raises(ValueError, match=r"^moment order must be an integer, got 4\.0$"):
            density_moment("aa", 4.0)


# SHA-256 over the little-endian float64 bits of each value, recorded from
# the shared-AGM implementation that the per-kind evaluators replaced: any
# change to the arithmetic of the elliptic layer changes a digest
_GRID_DIGESTS = {
    "aa": "7a2f6cd3827aecace259b6062365f875589259a9fae976b6681df593e5fea21d",
    "wa": "c0dc23d456e804b8d78ceabc1fcac60273f0687d1558fb45e90cd3295895e1b5",
    "ww": "c43fbf7f74eedbb37313d74245ed5d52b8c7cb07c448d5498f31e888125b7304",
}
_MOMENT_DIGESTS = {
    "aa": "b2c21548c89a93f56fa123fc5e781631e078f8df6e0e3897fb6e401936a90e77",
    "wa": "03dcf6b89c8faf2b9e84ffadccad69c20cf8d49c05711aca076247fd7a62fc37",
    "ww": "391f34b27e0e497a40892efa6704afce571c1b45ee41511a0471361e4a21679e",
}
_KE_DIGEST = "b69ead53b75e627532ac0f91f8dbc1d914f71c1d30e40ce477d5583ff74d9a0b"


def bits_digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(struct.pack("<d", v))
    return h.hexdigest()


class TestBitIdentity:
    @pytest.mark.parametrize("kind", ["aa", "wa", "ww"])
    def test_density_grid(self, kind):
        xs = [-4.0 + 8.0 * i / 10000 for i in range(10001)]
        assert bits_digest(density(kind, x) for x in xs) == _GRID_DIGESTS[kind]

    @pytest.mark.parametrize("kind", ["aa", "wa", "ww"])
    def test_density_moments(self, kind):
        values = (density_moment(kind, m, tol=1e-11) for m in range(0, 41, 2))
        assert bits_digest(values) == _MOMENT_DIGESTS[kind]

    def test_elliptic_integrals(self):
        pairs = (elliptic_KE(i / 1000) for i in range(1000))
        assert bits_digest(v for p in pairs for v in (p.K, p.E, p.iterations)) \
            == _KE_DIGEST


# NaN, +-inf, +-0, negative, huge and ordinary floats, and any float at all
_EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -4.0, 1.0, 1e-9, 2.0, 4.0,
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]) | st.floats()
# tolerances: NaN, +-inf, +-0, negative, tiny and huge ones; below what
# double precision resolves, a tolerance fails before the panel loop
_EDGE_TOLS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-9, -1e300, 1e-300, 1e-20, 1e-9, 1e-6,
    1.0, 1e300, 1.7976931348623157e308])


def _outcome(call):
    # the value of call(), or None for the ValueError or NumericalError it raised
    try:
        return call()
    except (ValueError, NumericalError):
        return None


class TestNumericContract:
    """On any input, each numeric entry point raises ValueError or
    NumericalError, returns a finite value, or returns the inf its
    docstring documents (density at x = 0)."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["aa", "wa", "ww"]), x=_EDGE_FLOATS, k=_EDGE_FLOATS)
    def test_density_and_elliptic_KE(self, kind, x, k):
        value = _outcome(lambda: density(kind, x))
        assert value is None or math.isfinite(value) or (value == math.inf and x == 0.0)
        pair = _outcome(lambda: elliptic_KE(k))
        assert pair is None or (math.isfinite(pair.K) and math.isfinite(pair.E))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["aa", "wa", "ww"]),
           m=st.integers(-4, 1200) | st.sampled_from([510, 512, 10 ** 6, 10 ** 400]),
           tol=_EDGE_TOLS)
    def test_density_moment(self, kind, m, tol):
        value = _outcome(lambda: density_moment(kind, m, tol=tol))
        assert value is None or math.isfinite(value)

    @settings(max_examples=150, deadline=None)
    @given(kernels=st.sampled_from([(arcsine_density, arcsine_density),
                                    (semicircle_density, arcsine_density),
                                    (semicircle_density, semicircle_density)]),
           x=_EDGE_FLOATS, tol=_EDGE_TOLS)
    def test_mellin_density_convolve(self, kernels, x, tol):
        value = _outcome(lambda: mellin_density_convolve(*kernels, x, tol=tol))
        assert value is None or math.isfinite(value)

    @settings(max_examples=150, deadline=None)
    @given(f=st.sampled_from([abs, lambda x: x * x, lambda x: 1.0 / (1.0 + x * x)]),
           a=_EDGE_FLOATS, b=_EDGE_FLOATS, abs_tol=_EDGE_TOLS, rel_tol=_EDGE_TOLS)
    def test_adaptive_quadrature(self, f, a, b, abs_tol, rel_tol):
        value = _outcome(lambda: adaptive_quadrature(f, a, b, abs_tol=abs_tol,
                                                     rel_tol=rel_tol))
        assert value is None or math.isfinite(value)
