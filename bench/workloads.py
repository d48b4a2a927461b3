"""The four workloads: seeded job lists, and the check of every result.

A workload is a fixed list of jobs; one pass runs every job once.  The
seed chooses only lengths, lattice parameters, evaluation points and
command arguments, as each workload's function below says.  Wherever it
chooses sizes, it does so without changing the amount of work in a pass
by more than a few percent (antithetic pairs, stratified points,
or a pick among combinations of equal ball size), so that the spread between
runs of different seeds measures the program and the host, not the draw.

Checks never call the code under test to produce the value they compare
against, except where noted (a walk table against the closed forms of
the same pass, which is what the ``walks`` command itself reports).
References are computed outside the timed pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable

WORKLOADS = ("walks-3d", "walks-long", "numeric", "cli-session")

KNOWN_DEFECT = ("mellin_density_convolve with an arcsine factor raises "
                "NumericalError 'quadrature stalled on a zero-width panel' "
                "near y=2 at tol 1e-10")


@dataclass(frozen=True)
class Job:
    """One operation of a pass: ``run`` is timed, ``check`` is not.

    ``check`` returns None for a correct result, else a description of
    what is wrong.  ``may_stall`` marks the jobs on which the known Mellin
    defect can show.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    may_stall: bool = False


@dataclass(frozen=True)
class Failure:
    """An exception a job raised, kept as its result."""

    kind: str
    message: str


def is_known_defect(job: Job, result) -> bool:
    return (job.may_stall and isinstance(result, Failure)
            and result.kind == "NumericalError"
            and "zero-width panel" in result.message)


def run_pass(jobs: list[Job]) -> tuple[float, list]:
    """Wall time of one pass over ``jobs`` and the result of each job.

    A job that raises is a failed operation; the pass goes on with the
    next one.
    """
    results = []
    clock = time.perf_counter
    t0 = clock()
    for job in jobs:
        try:
            results.append(job.run())
        except Exception as exc:  # counted as failed by evaluate()
            results.append(Failure(type(exc).__name__, str(exc)))
    return clock() - t0, results


def evaluate(jobs: list[Job], results: list) -> tuple[set[int], set[int], list[str]]:
    """Check every result: (indices of the failed jobs, of those the ones
    that failed with the known defect, problems).

    ``problems`` describes every failure that is not the known defect; a
    pass is correct when it is empty.
    """
    failed, known = set(), set()
    problems = []
    for i, (job, result) in enumerate(zip(jobs, results)):
        if isinstance(result, Failure):
            failed.add(i)
            if is_known_defect(job, result):
                known.add(i)
            else:
                problems.append(f"{job.name}: {result.kind}: {result.message}")
            continue
        wrong = job.check(result)
        if wrong is not None:
            failed.add(i)
            problems.append(f"{job.name}: {wrong}")
    return failed, known, problems


def make(name: str, seed: int, lw) -> list[Job]:
    """The job list of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return _JOB_LISTS[name](rng, lw)


# ---------------------------------------------------------------------------
# shared references


def _catalan(h: int) -> int:
    return comb(2 * h, h) // (h + 1)


def _close(actual: float, expected: float, rel: float, scale: float = 1.0) -> bool:
    return abs(actual - expected) <= rel * max(1.0, abs(scale), abs(expected))


def _density_ref(lw, kind: str, x: float) -> float:
    """Product density from elliptic_KE of xi = sqrt(1 - x^2/16).

    An independent route to the values ``density`` computes from the
    complementary modulus |x|/4 directly.
    """
    ax = abs(x)
    if ax > 4.0:
        return 0.0
    if ax == 0.0:
        return math.inf
    p = lw.elliptic.elliptic_KE(math.sqrt(max(0.0, 1.0 - ax * ax / 16.0)))
    pi2 = math.pi * math.pi
    if kind == "aa":
        return p.K / (2.0 * pi2)
    if kind == "wa":
        return (p.K - p.E) / pi2
    return 2.0 * ((1.0 + ax * ax / 16.0) * p.K - 2.0 * p.E) / pi2


def _check_density_values(lw, kind, xs, values, rel=1e-8) -> str | None:
    if len(values) != len(xs):
        return f"{len(values)} values for {len(xs)} points"
    for x, v in zip(xs, values):
        ref = _density_ref(lw, kind, x)
        if math.isinf(ref) or math.isinf(v):
            if v != ref:
                return f"density {kind}({x}) = {v}, expected {ref}"
        elif abs(v - ref) > rel * abs(ref) + 1e-15:
            # relative: the values span several decades and reach 0 at +-4
            return f"density {kind}({x}) = {v!r}, expected {ref!r}"
    return None


def _exact_moment(kind: str, m: int) -> int:
    """Exact moments of the laws the ``moments`` command and
    ``density_moment`` serve (odd orders of symmetric laws are 0)."""
    if m % 2:
        return 0
    h = m // 2
    if kind == "arcsine":
        return comb(m, h)
    if kind == "semicircle":
        return _catalan(h)
    if kind == "aa":
        return comb(m, h) ** 2
    if kind == "wa":
        return _catalan(h) * comb(m, h)
    if kind == "ww":
        return _catalan(h) ** 2
    factor = {"classical-aa": "arcsine", "classical-ww": "semicircle"}[kind]
    return sum(comb(m, k) * _exact_moment(factor, k) * _exact_moment(factor, m - k)
               for k in range(m + 1))


def _path_moment_bound(walks: tuple[int, ...], m: int) -> tuple[int, float]:
    """Exact path moment c_m from the closed-walk counts ``walks``, and the
    size of the terms a float evaluation sums to get it.

    For odd m the exact value is 0 while the terms reach
    sqrt(c_{m-1} c_{m+1}) (Cauchy-Schwarz), so errors are judged against
    that scale.
    """
    if m % 2 == 0:
        return walks[m], float(walks[m])
    return walks[m], math.sqrt(float(walks[m - 1]) * float(walks[m + 1]))


def _path_walks(lw) -> Callable[[int], tuple[int, ...]]:
    """Cached closed-walk counts c_0..c_{max(4n, 40) + 1} at the end of the
    n-path: numeric takes moments up to 4n, the moments command up to 40."""
    return cache(lambda n: tuple(lw.walks.path_closed_walks(n, m)
                                 for m in range(max(4 * n, 40) + 2)))


# ---------------------------------------------------------------------------
# walks-3d and walks-long: verified walk tables


def _walk_job(lw, kind: str, m: int, **params) -> Job:
    def run():
        g, o = lw.walks.build_lattice(kind, **params)
        table = lw.walks.walk_table(g, o, m)
        closed = [lw.walks.closed_form_walks(kind, i, **params) for i in range(m + 1)]
        return table.counts, closed

    def check(result) -> str | None:
        counts, closed = result
        if len(counts) != m + 1 or len(closed) != m + 1:
            return f"table covers {len(counts)} lengths, expected {m + 1}"
        for i, (a, b) in enumerate(zip(counts, closed)):
            if a != b:
                return f"length {i}: ball count {a} != closed form {b}"
        return None

    label = ",".join(f"{k}={v}" for k, v in params.items())
    return Job(f"walks {kind} m={m}" + (f" {label}" if label else ""), run, check)


# Both walk workloads are sized for passes of ~0.5 s on the slow regime of
# the host, so that a 30-s run holds 40 passes or more and the tail
# percentile (ten passes above it) lies above the median.

# Edges of the ball each walks-3d length expands (2|E| directed edges are
# touched per step), the cost model for picking lengths: walk_table plus the
# closed forms takes ~11 us per edge on every kind (2-vCPU Xeon, Python 3.11).
_EDGES_3D = {
    "bcc3": {20: 8000, 22: 10648, 24: 13824},
    "z3cartesian": {26: 8814, 28: 11004, 30: 13530},
    "chamber3": {36: 4056, 38: 4760, 40: 5540, 42: 6402, 44: 7348},
    "kkc3": {32: 2248, 34: 2682, 36: 3168, 38: 3710, 40: 4310},
    "z2": {60: 3600, 62: 3844, 64: 4096, 66: 4356, 68: 4624},
}


def _balanced_pick(rng: random.Random, options: dict[str, dict[int, int]],
                   slack: float = 0.01) -> dict[str, int]:
    """One value per key, uniformly among the combinations whose summed
    cost is within ``slack`` of the median combination's."""
    keys = list(options)
    combos = list(itertools.product(*(sorted(options[k]) for k in keys)))
    cost = [sum(options[k][v] for k, v in zip(keys, c)) for c in combos]
    mid = sorted(cost)[len(cost) // 2]
    near = [c for c, t in zip(combos, cost) if abs(t - mid) <= slack * mid]
    return dict(zip(keys, rng.choice(near)))


def _walks_3d(rng, lw) -> list[Job]:
    ms = _balanced_pick(rng, _EDGES_3D)
    return [_walk_job(lw, kind, m) for kind, m in ms.items()]


def _walks_long(rng, lw) -> list[Job]:
    # strip work grows like n * m^2 and diamond work like (k + l) * m^2
    # (closed forms dominate), so m follows n and k + l stays fixed
    n = rng.randint(6, 10)
    strip_m = 2 * round(130 * math.sqrt(8 / n))
    k = rng.randint(5, 11)
    return [
        _walk_job(lw, "z", 500),
        _walk_job(lw, "zplus", 700),
        _walk_job(lw, "zplus-at-1", 700),
        _walk_job(lw, "strip", strip_m, n=n),
        _walk_job(lw, "diamond", 340, k=k, l=16 - k),
        _walk_job(lw, "wedge", 100),
        _walk_job(lw, "halfplane", 90),
    ]


# ---------------------------------------------------------------------------
# numeric: densities, moments, Mellin convolution, K/E, path spectra


_KERNELS = {"aa": ("arcsine_density", "arcsine_density"),
            "wa": ("semicircle_density", "arcsine_density"),
            "ww": ("semicircle_density", "semicircle_density")}


def _stratified(rng, count: int, lo: float, hi: float) -> list[float]:
    # one point per equal-width stratum: every seed spreads its points the
    # same way over [lo, hi]
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _moment_job(lw, kind: str, m: int) -> Job:
    def check(v) -> str | None:
        exact = _exact_moment(kind, m)
        return None if _close(v, exact, 1e-9) else f"moment {v!r} != {exact}"

    return Job(f"density_moment {kind} m={m}",
               lambda: lw.elliptic.density_moment(kind, m, tol=1e-11), check)


def _mellin_job(lw, kind: str, x: float, tol: float) -> Job:
    f, g = (getattr(lw.elliptic, name) for name in _KERNELS[kind])

    def check(v) -> str | None:
        ref = _density_ref(lw, kind, x)
        return None if _close(v, ref, 1e-7) else f"convolution {v!r} != density {ref!r}"

    return Job(f"mellin {kind} x={x!r} tol={tol:g}",
               lambda: lw.elliptic.mellin_density_convolve(f, g, x, tol=tol),
               check, may_stall="arcsine_density" in _KERNELS[kind] and tol < 1e-9)


def _grid_job(lw, kind: str, points: int) -> Job:
    xs = [-4.0 + 8.0 * i / (points - 1) for i in range(points)]

    def run():
        return [lw.elliptic.density(kind, x) for x in xs]

    return Job(f"density grid {kind} {points}", run,
               lambda vals: _check_density_values(lw, kind, xs, vals))


def _ke_job(lw, ks: list[float]) -> Job:
    def run():
        out = []
        for k in ks:
            kp = math.sqrt((1.0 - k) * (1.0 + k))
            out.append((lw.elliptic.elliptic_KE(k), lw.elliptic.elliptic_KE(kp)))
        return out

    def check(pairs) -> str | None:
        for p, q in pairs:
            # Legendre's relation K E' + E K' - K K' = pi/2
            defect = abs(p.K * q.E + q.K * p.E - p.K * q.K - math.pi / 2.0)
            if defect > 1e-11:
                return f"Legendre defect {defect:.3e} at k={p.modulus!r}"
        firsts = [p for p, _ in pairs]
        if not all(a.K < b.K and a.E > b.E for a, b in zip(firsts, firsts[1:])):
            return "K not increasing or E not decreasing in k"
        return None

    return Job(f"elliptic_KE sweep {len(ks)}", run, check)


def _path_job(lw, n: int, path_walks) -> Job:
    def run():
        ps = lw.spectral.path_spectrum(n)
        return [ps.moment(m) for m in range(4 * n + 1)]

    def check(moments) -> str | None:
        for m, v in enumerate(moments):
            exact, scale = _path_moment_bound(path_walks(n), m)
            if not _close(v, exact, 1e-7, scale):
                return f"path n={n} moment {m}: {v!r} != {exact}"
        return None

    return Job(f"path_spectrum n={n}", run, check)


def _midpoints(count: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / count
    return [lo + width * (i + 0.5) for i in range(count)]


def _numeric(rng, lw) -> list[Job]:
    """The seed picks the tol-1e-9 Mellin points and the K/E moduli.  The
    tol-1e-10 Mellin points are a fixed grid, so the known defect fails the
    same operations (14 of these 60) for every seed."""
    jobs = [_moment_job(lw, kind, m) for kind in _KERNELS for m in range(0, 41, 2)]
    for kind in _KERNELS:
        jobs += [_mellin_job(lw, kind, x, 1e-9)
                 for x in _stratified(rng, 60, 0.05, 3.95)]
    for kind in _KERNELS:
        jobs += [_mellin_job(lw, kind, x, 1e-10)
                 for x in _midpoints(20, 0.05, 3.95)]
    jobs += [_grid_job(lw, kind, 10001) for kind in _KERNELS]
    jobs.append(_ke_job(lw, sorted(_stratified(rng, 2000, 0.0, 0.999))))
    path_walks = _path_walks(lw)
    jobs += [_path_job(lw, n, path_walks) for n in range(2, 25)]
    return jobs


# ---------------------------------------------------------------------------
# cli-session: in-process ``cli.main`` calls with stdout captured


def _run_cli(lw, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lw.cli.main(argv)
    return code, buf.getvalue()


def _rows(fmt: str, text: str) -> list[dict]:
    """Data rows of a CSV or JSON command output, as dicts of strings or
    JSON values."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = text.splitlines()
    if not lines[0].startswith("# params: "):
        raise ValueError("missing params echo")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def _cli_job(lw, argv: list[str], check_text: Callable[[str, str], str | None]) -> Job:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            return check_text(fmt, text)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparseable output: {exc!r}"

    return Job("latticewalks " + " ".join(argv), lambda: _run_cli(lw, argv), check)


def _cli_walks(lw, kind: str, mmax: int, fmt: str, params: dict) -> Job:
    argv = ["walks", "--kind", kind, "--mmax", str(mmax), "--format", fmt]
    for p, v in params.items():
        argv += [f"--{p}", str(v)]

    def check_text(fmt, text):
        rows = _rows(fmt, text)
        if len(rows) != mmax + 1:
            return f"{len(rows)} rows, expected {mmax + 1}"
        for m, row in enumerate(rows):
            expected = lw.walks.closed_form_walks(kind, m, **params)
            if int(row["ball_count"]) != expected or int(row["closed_form"]) != expected:
                return f"m={m}: {row} != {expected}"
            if row["match"] not in (True, "true"):
                return f"m={m}: match is {row['match']}"
        return None

    return _cli_job(lw, argv, check_text)


_MOMENT_KINDS = ("arcsine", "semicircle", "aa", "wa", "ww",
                 "classical-aa", "classical-ww", "path")


def _cli_moments(lw, kind: str, mmax: int, fmt: str, n: int, path_walks) -> Job:
    argv = ["moments", "--kind", kind, "--mmax", str(mmax), "--format", fmt]
    if kind == "path":
        argv += ["--n", str(n)]

    def check_text(fmt, text):
        rows = _rows(fmt, text)
        if len(rows) != mmax + 1:
            return f"{len(rows)} rows, expected {mmax + 1}"
        for m, row in enumerate(rows):
            if kind == "path":
                exact, scale = _path_moment_bound(path_walks(n), m)
                # printed with 15 significant digits
                if not _close(float(row["moment"]), exact, 1e-7, scale):
                    return f"m={m}: {row['moment']} != {exact}"
            elif int(row["moment"]) != _exact_moment(kind, m):
                return f"m={m}: {row['moment']} != {_exact_moment(kind, m)}"
        return None

    return _cli_job(lw, argv, check_text)


def _cli_density(lw, kind: str, fmt: str) -> Job:
    grid = 201
    xs = [-4.0 + 8.0 * i / (grid - 1) for i in range(grid)]

    def check_text(fmt, text):
        rows = _rows(fmt, text)
        vals = [float(r["density"]) for r in rows]
        return _check_density_values(lw, kind, xs, vals)

    return _cli_job(lw, ["density", "--kind", kind, "--grid", str(grid),
                         "--format", fmt], check_text)


def _cli_iso(lw, kind: str, fmt: str, params: dict) -> Job:
    argv = ["iso", "--kind", kind, "--format", fmt]
    for p, v in params.items():
        argv += [f"--{p}", str(v)]

    def check_text(fmt, text):
        if fmt == "json":
            doc = json.loads(text)
            ok, src, tgt = doc["ok"], doc["source_size"], doc["target_size"]
        else:
            row = _rows(fmt, text)[0]
            ok, src, tgt = row["ok"] == "true", int(row["source_size"]), int(row["target_size"])
        if not ok or src != tgt or src < 2:
            return f"iso report ok={ok} sizes {src}/{tgt}"
        return None

    return _cli_job(lw, argv, check_text)


def _cli_components(lw, a: int, b: int, fmt: str) -> Job:
    # the Kronecker product of two paths splits by the parity of i + j
    even = sum(1 for i in range(a) for j in range(b) if (i + j) % 2 == 0)
    expected = sorted([even, a * b - even])

    def check_text(fmt, text):
        if fmt == "json":
            sizes = [c["size"] for c in json.loads(text)["components"]]
        else:
            sizes = [int(line.split(",")[1]) for line in text.splitlines()[2:]]
        return None if sorted(sizes) == expected else f"sizes {sizes} != {expected}"

    return _cli_job(lw, ["components", "--kind", "kron", "--n", str(a), "--k", str(b),
                         "--format", fmt], check_text)


_SUITE_SIZES = {"identity": 31, "iso": 6, "coincidence": 18}


def _cli_verify(lw, suite: str, fmt: str) -> Job:
    def check_text(fmt, text):
        if fmt == "json":
            doc = json.loads(text)
            passed = [c["pass"] for c in doc["checks"]]
            if not doc["pass"]:
                return "suite reports failure"
        else:
            passed = [line.rsplit(",", 1)[1] == "true" for line in text.splitlines()[2:]]
        if len(passed) != _SUITE_SIZES[suite] or not all(passed):
            return f"{sum(passed)}/{len(passed)} checks passed"
        return None

    return _cli_job(lw, ["verify", "--suite", suite, "--format", fmt], check_text)


def _antithetic(rng, lo: int, hi: int, power: int) -> tuple[int, int]:
    """Two even lengths in [lo, hi] whose work, taken as length**power,
    sums to about that of lo and hi together, whatever the seed."""
    u = rng.random()
    a, b = lo ** power, hi ** power

    def even(w):
        return 2 * round(w ** (1 / power) / 2)

    return even(a + u * (b - a)), even(b - u * (b - a))


def _cli_session(rng, lw) -> list[Job]:
    fmts = ("csv", "json")
    jobs = []
    # two walks commands per kind, an antithetic pair inside its band
    for kind in lw.walks.lattice_walk_kinds():
        lk = lw.walks.lattice_kind(kind)
        lo, hi = (8, 16) if lk.dimension == 3 else (8, 40)
        short, long = _antithetic(rng, lo, hi, lk.dimension + 1)
        params = {}
        if "n" in lk.requires:
            params["n"] = rng.randint(3, 8)
        if "k" in lk.requires:
            params["k"], params["l"] = rng.randint(3, 8), rng.randint(3, 8)
        first = rng.randrange(2)
        jobs.append(_cli_walks(lw, kind, short, fmts[first], params))
        jobs.append(_cli_walks(lw, kind, long, fmts[1 - first], params))
    path_walks = _path_walks(lw)
    for kind in _MOMENT_KINDS:
        mmax, n = rng.randint(8, 40), rng.randint(2, 12)
        jobs += [_cli_moments(lw, kind, mmax, fmt, n, path_walks) for fmt in fmts]
    jobs += [_cli_density(lw, kind, fmt) for kind in ("aa", "wa", "ww") for fmt in fmts]
    iso_params = {"plane": {}, "strip": {"n": rng.randint(3, 8)}, "halfplane": {},
                  "wedge": {}, "diamond": {"k": rng.randint(3, 8), "l": rng.randint(3, 8)}}
    jobs += [_cli_iso(lw, kind, fmt, p) for kind, p in iso_params.items() for fmt in fmts]
    for _ in range(5):
        a, b = rng.randint(2, 12), rng.randint(2, 12)
        jobs += [_cli_components(lw, a, b, fmt) for fmt in fmts]
    jobs += [_cli_verify(lw, suite, fmt) for suite in _SUITE_SIZES for fmt in fmts]
    rng.shuffle(jobs)
    return jobs


_JOB_LISTS = {
    "walks-3d": _walks_3d,
    "walks-long": _walks_long,
    "numeric": _numeric,
    "cli-session": _cli_session,
}
