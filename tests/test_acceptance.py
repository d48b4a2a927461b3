"""End-to-end acceptance run: one test per claimed capability, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s` to
see the summary lines inline.

Every expected value here is recomputed from first principles (binomials,
Catalan numbers, integer matrix powers, scipy's elliptic integrals) rather
than taken from the library, so these tests act as the final cross-check
of the whole pipeline at its published tolerances.
"""

import math
import random
from math import comb

from scipy.special import ellipe, ellipk

from helpers import (
    dp_closed_walks,
    int_matrix_power_diag,
    path_adjacency,
    random_connected_graph,
    random_graph,
)
from latticewalks import elliptic, graphs, spectral, walks


def report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def cat(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def path_walks(n: int, m: int) -> int:
    return int_matrix_power_diag(path_adjacency(n), 0, m)


def test_1_exact_walk_tables():
    """Ball-based counts equal the closed forms, big-integer exactly."""
    def expected(kind, m, n=None, k=None, l=None):
        if m % 2:
            return 0
        h = m // 2
        return {
            "z": lambda: comb(m, h),
            "zplus": lambda: cat(h),
            "zplus-at-1": lambda: cat(h + 1),
            "z2": lambda: comb(m, h) ** 2,
            "halfplane": lambda: cat(h) * comb(m, h),
            "wedge": lambda: cat(h) ** 2,
            "quarterplane": lambda: sum(comb(m, 2 * j) * cat(j) * cat(h - j)
                                        for j in range(h + 1)),
            "zxzplus": lambda: cat(h) * cat(h + 1),
            "strip": lambda: comb(m, h) * path_walks(n, m),
            "diamond": lambda: path_walks(k, m) * path_walks(l, m),
            "bcc3": lambda: comb(m, h) ** 3,
            "z3cartesian": lambda: sum(comb(m, 2 * j) * comb(2 * j, j) ** 2
                                       * comb(m - 2 * j, h - j)
                                       for j in range(h + 1)),
            "chamber3": lambda: sum(comb(m, 2 * j) * cat(j) ** 2 * cat(h - j)
                                    for j in range(h + 1)),
        }[kind]()

    cases = ([(kind, 30, {}) for kind in ("z", "zplus", "zplus-at-1")]
             + [(kind, 16, {}) for kind in ("z2", "halfplane", "wedge",
                                            "quarterplane", "zxzplus")]
             + [("strip", 16, {"n": n}) for n in (3, 4, 5)]
             + [("diamond", 16, {"k": 3, "l": 3}),
                ("diamond", 16, {"k": 4, "l": 4})]
             + [(kind, 12, {}) for kind in ("bcc3", "z3cartesian", "chamber3")])
    checked = 0
    for kind, m_top, params in cases:
        g, o = walks.build_lattice(kind, **params)
        table = walks.walk_table(g, o, m_top)
        for m in range(m_top + 1):
            want = expected(kind, m, **params)
            got = table[m]
            if got != want:
                report("1/7 exact-walk-tables", False,
                       f"{kind} {params} m={m}: {got} != {want}")
            assert walks.closed_form_walks(kind, m, **params) == want
            checked += 1
    report("1/7 exact-walk-tables", True,
           f"{len(cases)} lattices, {checked} comparisons")


def test_2_binomial_identity():
    """Diagonal-vs-axis step decomposition of the squared central binomial."""
    for m in range(31):
        lhs = sum(comb(2 * m, 2 * k) * comb(2 * k, k) * comb(2 * m - 2 * k, m - k)
                  for k in range(m + 1))
        ok = lhs == comb(2 * m, m) ** 2 and walks.verify_binomial_identity(m)
        if not ok:
            report("2/7 binomial-identity", False, f"m={m}")
    report("2/7 binomial-identity", True, "m <= 30")


def test_3_isomorphism_suite():
    """The coordinate fold is an edge bijection on balls, origin fixed."""
    cases = [(graphs.fold_map("plane"), 8),
             (graphs.fold_map("strip", 3), 6),
             (graphs.fold_map("strip", 4), 6),
             (graphs.fold_map("halfplane"), 6),
             (graphs.fold_map("diamond", k=4, l=4), 6)]
    for iso, radius in cases:
        rep = graphs.verify_isomorphism(iso, radius)
        if not rep.ok:
            report("3/7 isomorphism-suite", False,
                   f"{iso.name} r={radius}: {rep.detail}")
    report("3/7 isomorphism-suite", True,
           f"{len(cases)} maps, radii 8/6")


def test_4_coincidence_without_isomorphism():
    """Same walk counts, provably different graphs."""
    g_a, o_a = walks.build_lattice("kkc3")
    g_b, o_b = walks.build_lattice("chamber3")
    for m in range(13):
        want = 0 if m % 2 else sum(comb(m, 2 * j) * cat(j) ** 2 * cat(m // 2 - j)
                                   for j in range(m // 2 + 1))
        ca, cb = walks.walk_count(g_a, o_a, m), walks.walk_count(g_b, o_b, m)
        if not (ca == cb == want):
            report("4/7 coincidence", False, f"triple product m={m}")
    assert walks.walk_count(g_a, o_a, 4) == 12  # pinned small value

    corner, oc = walks.build_lattice("zxzplus")
    rays = graphs.kronecker(graphs.half_line(), graphs.half_line())
    for m in range(17):
        want = 0 if m % 2 else cat(m // 2) * cat(m // 2 + 1)
        ca = walks.walk_count(corner, oc, m)
        cb = walks.walk_count(rays, (0, 1), m)
        if not (ca == cb == want):
            report("4/7 coincidence", False, f"corner pair m={m}")

    hist_a = graphs.degree_histogram(graphs.ball(g_a, o_a, 6), 4)
    hist_b = graphs.degree_histogram(graphs.ball(g_b, o_b, 6), 4)
    witness_ok = hist_a.get(2, 0) == 1 and hist_b.get(2, 0) >= 2
    if not witness_ok:
        report("4/7 coincidence", False,
               f"degree-2 interior counts {hist_a.get(2, 0)} vs {hist_b.get(2, 0)}")
    report("4/7 coincidence", True,
           "walk tables agree, degree witness separates")


def test_5_path_spectrum():
    """Spectral moments of the n-path reproduce exact counts; n=4 closed form."""
    worst = 0.0
    for n in range(2, 13):
        ps = spectral.path_spectrum(n)
        eigen = ps.to_discrete()
        for m in range(2 * n + 1):
            exact = path_walks(n, m)
            if ps.moment(m) != exact:
                report("5/7 path-spectrum", False, f"n={n} m={m} exact moment")
            dev = abs(eigen.moment(m) - exact) / max(1.0, exact)
            worst = max(worst, dev)
            if dev > 1e-8:
                report("5/7 path-spectrum", False, f"n={n} m={m} dev={dev:.3e}")
    s5 = math.sqrt(5.0)
    for m in range(7):
        golden = ((5.0 - s5) / 10.0 * ((3.0 + s5) / 2.0) ** m
                  + (5.0 + s5) / 10.0 * ((3.0 - s5) / 2.0) ** m)
        if abs(golden - path_walks(4, 2 * m)) > 1e-9:
            report("5/7 path-spectrum", False, f"golden formula m={m}")
    report("5/7 path-spectrum", True, f"n <= 12, worst rel dev {worst:.2e}")


def test_6_elliptic_densities():
    """Normalization, moments, convolution sweep, Legendre relation."""
    moment_targets = {
        "aa": lambda h: comb(2 * h, h) ** 2,
        "wa": lambda h: cat(h) * comb(2 * h, h),
        "ww": lambda h: cat(h) ** 2,
    }
    for kind, target in moment_targets.items():
        dev0 = abs(elliptic.density_moment(kind, 0) - 1.0)
        if dev0 > 1e-8:
            report("6/7 elliptic-densities", False,
                   f"normalization {kind} off by {dev0:.3e}")
        for h in range(1, 6):
            want = target(h)
            got = elliptic.density_moment(kind, 2 * h)
            if abs(got - want) > 1e-6 * max(1.0, want):
                report("6/7 elliptic-densities", False,
                       f"moment {kind} 2m={2 * h}")

    kernels = {"aa": (elliptic.arcsine_density, elliptic.arcsine_density),
               "wa": (elliptic.semicircle_density, elliptic.arcsine_density),
               "ww": (elliptic.semicircle_density, elliptic.semicircle_density)}
    xs = [0.2 + 3.6 * i / 19 for i in range(20)]
    sweep_worst = 0.0
    for kind, (f, g) in kernels.items():
        for x in xs:
            dev = abs(elliptic.mellin_density_convolve(f, g, x, tol=1e-8)
                      - elliptic.density(kind, x))
            sweep_worst = max(sweep_worst, dev)
            if dev > 1e-6:
                report("6/7 elliptic-densities", False,
                       f"convolution {kind} at x={x:.3f} dev={dev:.3e}")

    legendre_worst = 0.0
    for i in range(1, 100):
        k = i / 100.0
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        a, b = elliptic.elliptic_KE(k), elliptic.elliptic_KE(kp)
        legendre_worst = max(legendre_worst,
                             abs(a.K * b.E + b.K * a.E - a.K * b.K - math.pi / 2))
    if legendre_worst > 1e-11:
        report("6/7 elliptic-densities", False,
               f"legendre defect {legendre_worst:.3e}")
    # spot-check K and E against an outside implementation as well
    p = elliptic.elliptic_KE(1 / math.sqrt(2))
    assert abs(p.K - float(ellipk(0.5))) < 1e-10
    assert abs(p.E - float(ellipe(0.5))) < 1e-10
    report("6/7 elliptic-densities", True,
           f"sweep worst {sweep_worst:.2e}, legendre worst {legendre_worst:.2e}")


def test_7_product_theorems_random_graphs():
    """Walk multiplication/convolution on 200 random pairs, exact to m=10."""
    rng = random.Random(1234512345)
    pairs = 0
    connected_checked = 0
    while pairs < 200:
        g1, g2 = random_graph(rng), random_graph(rng)
        t1 = walks.walk_table(g1, (0,), 10)
        t2 = walks.walk_table(g2, (0,), 10)
        kron_table = walks.walk_table(graphs.kronecker(g1, g2), (0, 0), 10)
        cart_table = walks.walk_table(graphs.cartesian(g1, g2), (0, 0), 10)
        for m in range(11):
            if kron_table[m] != t1[m] * t2[m]:
                report("7/7 product-theorems", False,
                       f"pair {pairs}: multiplication fails at m={m}")
            want = sum(comb(m, j) * t1[j] * t2[m - j] for j in range(m + 1))
            if cart_table[m] != want:
                report("7/7 product-theorems", False,
                       f"pair {pairs}: convolution fails at m={m}")
        if pairs % 20 == 0:  # independent recount on a sample
            assert kron_table[6] == dp_closed_walks(
                graphs.kronecker(g1, g2), (0, 0), 6)
        pairs += 1
    for _ in range(60):
        c1 = random_connected_graph(rng)
        c2 = random_connected_graph(rng)
        comps = graphs.connected_components(graphs.kronecker(c1, c2))
        connected_checked += 1
        if len(comps) > 2:
            report("7/7 product-theorems", False,
                   f"{len(comps)} components from a connected pair")
    report("7/7 product-theorems", True,
           f"{pairs} random pairs, {connected_checked} connectivity checks")
