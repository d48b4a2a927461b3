"""Command-line front end: walk tables, moment tables, density samples,
component and isomorphism reports, and the verification suites.

Identical invocations produce byte-identical output: fixed formatting,
fixed ordering, no timestamps.  Each command is declared once, in
``_COMMANDS``, by its help text, runner, default format and option names;
the parser, the dispatch and the parameter echo all read that entry.  A
command echoes its resolved options in declaration order, then its format,
into the output header (CSV comment line or JSON "params").
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import elliptic, graphs, spectral, walks
from .errors import NumericalError, ResourceLimitError, check_order

#: walk-length caps by lattice dimension
CAP_3D = 24
CAP_12D = 40
#: most sample points of a density grid
CAP_GRID = 100_001

ENV_BUDGET = "LATTICE_WALKS_BUDGET"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, (list, tuple)):
        return "|".join(_fmt(x) for x in v)
    if v is None:
        return "none"
    return str(v)


def _resolve_budget(args) -> int:
    if args.radius_budget is not None:
        if args.radius_budget < 1:
            raise ValueError("--radius-budget must be positive")
        return args.radius_budget
    env = os.environ.get(ENV_BUDGET)
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"{ENV_BUDGET} must be an integer, got {env!r}") from None
        if budget < 1:
            raise ValueError(f"{ENV_BUDGET} must be positive")
        return budget
    return graphs.DEFAULT_VERTEX_BUDGET


def _csv(params: dict, header: str, rows: list[str]) -> str:
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in params.items())
    return "\n".join([f"# params: {echo}", header] + rows) + "\n"


def _json_float(v: float) -> str:
    # a non-finite float is written as the string _fmt spells it
    return float.__repr__(v) if math.isfinite(v) else _json_str(_fmt(v))


class _Text(str):
    """JSON text that :func:`_json_write` writes as it is."""


def _json_g15(v: float) -> _Text:
    # _json_float(float(f"{v:.15g}")) from one format: for a normal |v| <
    # 1e14, repr writes the same (at most 15) digits in the same form, and
    # ".0" after an integral value
    if not math.isfinite(v):
        return _Text(_json_float(v))
    s = f"{v:.15g}"
    return _Text(s if "." in s or "e" in s else s + ".0")


#: exact type -> JSON text of a scalar, as ``json.dumps`` writes it
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
    _Text: str,
}


def _json_write(v, pad: str, out: list[str]) -> None:
    """Append the JSON text of v to out, laid out as ``json.dumps(v,
    indent=2)`` lays it out; pad indents the line on which v starts.

    Dicts (with str keys), lists and tuples nest; a :class:`_Text` is
    written as it is; any other subclass of str, int or float is written
    as its base, as ``json.dumps`` does; anything else is a TypeError.
    """
    scalar = _JSON_SCALARS.get(type(v))
    if scalar is not None:
        out.append(scalar(v))
        return
    inner = pad + "  "
    if isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        sep = "{\n" + inner
        for key, x in v.items():
            out.append(f"{sep}{_json_str(key)}: ")
            _json_write(x, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{pad}}}")
        return
    if isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        sep = "[\n" + inner
        for x in v:
            out.append(sep)
            _json_write(x, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{pad}]")
        return
    for base in (str, int, float):
        if isinstance(v, base):
            out.append(_JSON_SCALARS[base](v))
            return
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_doc(params: dict, body: dict) -> str:
    out: list[str] = []
    _json_write({"params": params, **body}, "", out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# commands


def _run_walks(args, params: dict) -> tuple[str, int]:
    kind = walks.lattice_kind(args.kind)
    cap = CAP_3D if kind.dimension == 3 else CAP_12D
    check_order(args.mmax, "--mmax")
    if args.mmax > cap:
        raise ValueError(
            f"mmax {args.mmax} exceeds the cap {cap} for {kind.dimension}-d "
            f"kind {kind.key!r}")
    graph, root = walks.build_lattice(args.kind, n=args.n, k=args.k, l=args.l)
    table = walks.walk_table(graph, root, args.mmax, args.radius_budget)
    rows = []
    for m in range(args.mmax + 1):
        ball_count = table.counts[m]
        closed = walks.closed_form_walks(args.kind, m, n=args.n, k=args.k, l=args.l)
        rows.append((m, ball_count, closed, ball_count == closed))
    code = 0 if all(ok for *_, ok in rows) else 1
    if args.format == "json":
        body = {"rows": [{"m": m, "ball_count": bc, "closed_form": cf, "match": ok}
                         for m, bc, cf, ok in rows]}
        return _json_doc(params, body), code
    lines = [f"{m},{bc},{cf},{_fmt(ok)}" for m, bc, cf, ok in rows]
    return _csv(params, "m,ball_count,closed_form,match", lines), code


def _run_moments(args, params: dict) -> tuple[str, int]:
    check_order(args.mmax, "--mmax")
    if args.mmax > CAP_12D:
        raise ValueError(f"mmax {args.mmax} exceeds the moment-table cap {CAP_12D}")
    dist = spectral.moment_law(args.kind, args.n)
    # every moment kind has exact integer moments
    values = [dist.moment(m) for m in range(args.mmax + 1)]
    if args.format == "json":
        body = {"rows": [{"m": m, "moment": v} for m, v in enumerate(values)]}
        return _json_doc(params, body), 0
    return _csv(params, "m,moment", [f"{m},{v}" for m, v in enumerate(values)]), 0


def _run_density(args, params: dict) -> tuple[str, int]:
    if args.grid < 2:
        raise ValueError("--grid needs at least 2 points")
    if args.grid > CAP_GRID:
        raise ValueError(f"grid {args.grid} exceeds the density-grid cap {CAP_GRID}")
    xs = [-4.0 + 8.0 * i / (args.grid - 1) for i in range(args.grid)]
    vals = [elliptic.density(args.kind, x) for x in xs]
    if args.format == "json":
        # every x and density is 0, inf, or between 1e-16 and 100
        body = {"rows": [{"x": _json_g15(x), "density": _json_g15(v)}
                         for x, v in zip(xs, vals)]}
        return _json_doc(params, body), 0
    lines = [f"{x:.15g},{v:.15g}" for x, v in zip(xs, vals)]
    return _csv(params, "x,density", lines), 0


def _run_components(args, params: dict) -> tuple[str, int]:
    components = graphs.PRODUCT_KINDS[args.kind]
    size = args.n * args.k
    # a pair of nonpositive sizes is left to the kind's rule to reject
    if args.n > 0 and args.k > 0 and size > args.radius_budget:
        raise ResourceLimitError(
            f"product of P{args.n} and P{args.k} has {size} vertices, more than "
            f"the vertex budget {args.radius_budget}; raise it with "
            f"--radius-budget or {ENV_BUDGET}")
    comps = components(args.n, args.k)
    if args.format == "json":
        body = {"count": len(comps),
                "components": [{"index": i, "size": s, "smallest_vertex": list(v)}
                               for i, (s, v) in enumerate(comps)]}
        return _json_doc(params, body), 0
    lines = [f"{i},{s},\"{','.join(map(str, v))}\"" for i, (s, v) in enumerate(comps)]
    return _csv(params, "component,size,smallest_vertex", lines), 0


def _run_iso(args, params: dict) -> tuple[str, int]:
    iso = walks.fold_map(args.kind, n=args.n, k=args.k, l=args.l)
    _, radius = walks.FOLD_KINDS[args.kind]
    report = graphs.verify_isomorphism(iso, radius, args.radius_budget)
    code = 0 if report.ok else 1
    if args.format == "csv":
        line = (f"{iso.name},{radius},{_fmt(report.ok)},{report.detail},"
                f"{report.source_size},{report.target_size}")
        return _csv(params, "name,radius,ok,detail,source_size,target_size",
                    [line]), code
    body = {"name": iso.name, "radius": radius, "ok": report.ok,
            "detail": report.detail,
            "witness": report.witness,
            "source_size": report.source_size,
            "target_size": report.target_size}
    return _json_doc(params, body), code


# ---------------------------------------------------------------------------
# verification suites


def _check(name, expected, actual, tol, ok) -> dict:
    return {"name": name, "expected": expected, "actual": actual,
            "tol": tol, "pass": bool(ok)}


# Every suite takes (vertex budget, Mellin sweep tolerance) and uses what
# it needs of them.


def _suite_identity(budget: int, sweep_tol: float) -> list[dict]:
    # Z^2 as the Cartesian square of Z (lhs) and as its Kronecker square
    cartesian, kronecker = spectral.moment_law("classical-aa"), spectral.moment_law("aa")
    checks = []
    for m in range(31):
        lhs, rhs = cartesian.moment(2 * m), kronecker.moment(2 * m)
        checks.append(_check(f"binomial-identity m={m}", rhs, lhs, 0, lhs == rhs))
    return checks


def _suite_iso(budget: int, sweep_tol: float) -> list[dict]:
    cases = [("plane", {}), ("strip", {"n": 3}), ("strip", {"n": 4}),
             ("halfplane", {}), ("wedge", {}), ("diamond", {"k": 4, "l": 4})]
    checks = []
    for kind, params in cases:
        iso, (_, radius) = walks.fold_map(kind, **params), walks.FOLD_KINDS[kind]
        rep = graphs.verify_isomorphism(iso, radius, budget)
        actual = "ok" if rep.ok else f"fail: {rep.detail}"
        checks.append(_check(f"{iso.name} r={radius}", "ok", actual, 0, rep.ok))
    return checks


def _suite_coincidence(budget: int, sweep_tol: float) -> list[dict]:
    checks = []
    g_a, o_a = walks.build_lattice("kkc3")
    g_b, o_b = walks.build_lattice("chamber3")
    counts_a = walks.walk_table(g_a, o_a, 12, budget).counts
    counts_b = walks.walk_table(g_b, o_b, 12, budget).counts
    for m, ca, cb in zip(range(0, 13, 2), counts_a[::2], counts_b[::2]):
        cf = walks.closed_form_walks("chamber3", m)
        checks.append(_check(f"triple-product-vs-chamber m={m}", cf, [ca, cb],
                             0, ca == cb == cf))
    hist_a = graphs.degree_histogram(graphs.ball(g_a, o_a, 6, budget), 4)
    hist_b = graphs.degree_histogram(graphs.ball(g_b, o_b, 6, budget), 4)
    checks.append(_check("product-interior-degree-2-count", 1,
                         hist_a.get(2, 0), 0, hist_a.get(2, 0) == 1))
    checks.append(_check("chamber-interior-degree-2-count", ">=2",
                         hist_b.get(2, 0), 0, hist_b.get(2, 0) >= 2))

    corner, corner_root = walks.build_lattice("zxzplus")
    kk = graphs.kronecker(graphs.half_line(), graphs.half_line())
    counts_a = walks.walk_table(corner, corner_root, 16, budget).counts
    counts_b = walks.walk_table(kk, (0, 1), 16, budget).counts
    for m, ca, cb in zip(range(0, 17, 2), counts_a[::2], counts_b[::2]):
        cf = walks.closed_form_walks("zxzplus", m)
        checks.append(_check(f"corner-vs-shifted-ray-product m={m}", cf, [ca, cb],
                             0, ca == cb == cf))
    return checks


def _suite_density(budget: int, sweep_tol: float) -> list[dict]:
    checks = []
    for kind in spectral.PRODUCT_FACTORS:
        val = elliptic.density_moment(kind, 0)
        checks.append(_check(f"normalization {kind}", 1.0, val, 1e-8,
                             abs(val - 1.0) <= 1e-8))
    for kind in spectral.PRODUCT_FACTORS:
        dist = spectral.NamedDensity(kind)
        for m in (2, 4, 6, 8, 10):
            expected = dist.moment(m)
            actual = elliptic.density_moment(kind, m)
            ok = abs(actual - expected) <= 1e-6 * max(1.0, abs(expected))
            checks.append(_check(f"moment {kind} m={m}", expected, actual, 1e-6, ok))
    xs = [0.2 + 3.6 * i / 19 for i in range(20)]
    for kind, product in spectral.PRODUCT_FACTORS.items():
        law = spectral.product_law(product)
        dev = max(abs(elliptic.mellin_density_convolve(law.left.density, law.right.density,
                                                       x, tol=1e-8)
                      - elliptic.density(kind, x)) for x in xs)
        checks.append(_check(f"mellin-convolution-sweep {kind} (20 pts)", 0.0,
                             dev, sweep_tol, dev <= sweep_tol))
    defect = 0.0
    for i in range(1, 100):
        k = i / 100.0
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        pk, pkp = elliptic.elliptic_KE(k), elliptic.elliptic_KE(kp)
        defect = max(defect, abs(pk.K * pkp.E + pkp.K * pk.E
                                 - pk.K * pkp.K - math.pi / 2.0))
    checks.append(_check("legendre-relation defect (k=0.01..0.99)", 0.0,
                         defect, 1e-11, defect <= 1e-11))
    ks = [i / 100.0 for i in range(100)]
    pairs = [elliptic.elliptic_KE(k) for k in ks]
    mono = (all(a.K < b.K for a, b in zip(pairs, pairs[1:]))
            and all(a.E > b.E for a, b in zip(pairs, pairs[1:])))
    checks.append(_check("K increasing and E decreasing on [0,1)", True,
                         mono, 0, mono))
    return checks


def _golden_path4(m: int) -> float:
    s5 = math.sqrt(5.0)
    return ((5.0 - s5) / 10.0 * ((3.0 + s5) / 2.0) ** m
            + (5.0 + s5) / 10.0 * ((3.0 - s5) / 2.0) ** m)


def _suite_path_spectrum(budget: int, sweep_tol: float) -> list[dict]:
    checks = []
    for n in range(2, 13):
        # the eigenvalue/weight sum, checked against the exact counts
        eigen = spectral.path_spectrum(n).to_discrete()
        dev = 0.0
        for m in range(2 * n + 1):
            exact = walks.path_closed_walks(n, m)
            dev = max(dev, abs(eigen.moment(m) - exact) / max(1.0, exact))
        checks.append(_check(f"path-spectrum n={n} rel dev (m<=2n)", 0.0, dev,
                             1e-8, dev <= 1e-8))
    dev4 = max(abs(_golden_path4(m) - walks.path_closed_walks(4, 2 * m))
               for m in range(7))
    checks.append(_check("path4 golden-ratio closed form (m<=6)", 0.0,
                         dev4, 1e-9, dev4 <= 1e-9))
    return checks


_SUITES = {
    "identity": _suite_identity,
    "iso": _suite_iso,
    "coincidence": _suite_coincidence,
    "density": _suite_density,
    "path-spectrum": _suite_path_spectrum,
}


def _run_verify(args, params: dict) -> tuple[str, int]:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(_SUITES[name](args.radius_budget, args.tol))
    all_pass = all(c["pass"] for c in checks)
    code = 0 if all_pass else 1
    if args.format == "csv":
        lines = [",".join([c["name"], _fmt(c["expected"]), _fmt(c["actual"]),
                           _fmt(c["tol"]), _fmt(c["pass"])]) for c in checks]
        return _csv(params, "name,expected,actual,tol,pass", lines), code
    body = {"suite": args.suite,
            "checks": checks,
            "pass": all_pass}
    return _json_doc(params, body), code


# ---------------------------------------------------------------------------
# command table

#: ``add_argument`` keywords of each option, whose flag is its name with
#: ``_`` written ``-``; each command lists its options in this order
_OPTIONS = {
    "kind": {"required": True, "help": "named kind"},
    "mmax": {"type": int, "required": True,
             "help": "largest walk length / moment order"},
    "n": {"type": int},
    "k": {"type": int},
    "l": {"type": int},
    "grid": {"type": int, "required": True,
             "help": "number of sample points on [-4, 4]"},
    "suite": {"required": True, "choices": (*_SUITES, "all")},
    "tol": {"type": float, "default": 1e-6,
            "help": "override the convolution sweep tolerance"},
    "radius_budget": {"type": int,
                      "help": f"vertex budget for ball expansion "
                              f"(default {graphs.DEFAULT_VERTEX_BUDGET}, "
                              f"env {ENV_BUDGET})"},
}

#: (command, option) -> keywords that replace the shared ones
_OVERRIDES = {
    ("components", "kind"): {"required": False, "default": "kron"},
    ("components", "n"): {"default": 2},
    ("components", "k"): {"default": 2},
    ("components", "radius_budget"): {
        "help": f"vertex budget for the n*k vertices of the product "
                f"(default {graphs.DEFAULT_VERTEX_BUDGET}, env {ENV_BUDGET})"},
}

#: command -> (help, runner, default --format, option names)
_COMMANDS = {
    "walks": ("walk table with closed-form comparison", _run_walks, "csv",
              ("kind", "mmax", "n", "k", "l", "radius_budget")),
    "moments": ("moment table of a distribution", _run_moments, "csv",
                ("kind", "mmax", "n")),
    "density": ("sample a product density on a grid", _run_density, "csv",
                ("kind", "grid")),
    "verify": ("run a verification suite", _run_verify, "json",
               ("suite", "tol", "radius_budget")),
    "components": ("components of a product of paths", _run_components, "csv",
                   ("kind", "n", "k", "radius_budget")),
    "iso": ("check a built-in lattice isomorphism", _run_iso, "json",
            ("kind", "n", "k", "l", "radius_budget")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call: parsing leaves it unchanged, so callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="latticewalks",
        description="Exact closed-walk tables, spectral moments, and "
                    "product densities for graph products and restricted "
                    "integer lattices.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, fmt_default, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for name in options:
            sub.add_argument("--" + name.replace("_", "-"),
                             **_OPTIONS[name] | _OVERRIDES.get((command, name), {}))
        sub.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        sub.add_argument("--out", default=None, help="write output to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, run, _, options = _COMMANDS[args.command]
    try:
        if "radius_budget" in options:
            args.radius_budget = _resolve_budget(args)
        params = {"command": args.command,
                  **{name: getattr(args, name) for name in options},
                  "format": args.format}
        text, code = run(args, params)
    except (ValueError, ResourceLimitError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
