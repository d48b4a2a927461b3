"""Benchmark of latticewalks: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload walks-3d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload numeric --seed 1 --seconds 30 --trace 1
    python3 bench/selftest.py

The library is imported from ``src/`` next to this directory and measured
only from outside, through its public functions, in this one process and
on one thread.  A run:

1. starts fresh interpreters that import the library and build the job
   list, and takes the median of their times as ``setup_s``;
2. runs one untimed warm-up pass, then timed passes until ``--seconds``
   have gone (at least ``MIN_PASSES``), each after a ``gc.collect()``;
3. checks every result outside the timed window (once for each distinct
   results digest), and checks that every pass returned identical results
   (and, traced, identical work counts).  ``attempted`` is the number of
   operations in a pass and ``failed`` the number of them that failed in
   any pass, so neither depends on how many passes fit in the run.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends the first third of the time on untraced passes and the rest on
two traced runs (see ``spans.py``), and reports the per-layer metrics.
The last line of stdout is the JSON result; everything above it is for
people.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"
SPEC = HERE.parent.parent / "BENCHMARK.json"

SETUP_REPEATS = 9
MIN_PASSES = 11  # the tail percentile needs ten passes above it
PROBE_REPEATS = 3


def load_library():
    """Import latticewalks (and its CLI) from the checkout's ``src/``."""
    if not (SRC / "latticewalks" / "__init__.py").is_file():
        raise SystemExit(f"error: no latticewalks sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, also inside numpy
    import latticewalks
    import latticewalks.cli  # noqa: F401  (not imported by the package)
    # path_spectrum warns above n = 12; numeric runs it up to 24 on purpose
    warnings.filterwarnings("ignore", message="path spectrum for n=")
    return latticewalks


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


def setup_child(args) -> int:
    t0 = time.perf_counter()
    lw = load_library()
    t1 = time.perf_counter()
    workloads.make(args.workload, args.seed, lw)
    print(f"ready {t1 - t0!r}", flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(start of a new interpreter to the end of input generation, of which
    ``import latticewalks``), in seconds."""
    cmd = [sys.executable, str(HERE), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            total = time.perf_counter() - t0
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        code = proc.returncode
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return total, float(line.split()[1])


# ---------------------------------------------------------------------------
# host regime and machine


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.

    A diagnostic only; no metric is normalised by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def machine_line(lw) -> str:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: cpu={model!r} nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"latticewalks={lw.__version__} loadavg={load}; shared host, "
            f"timings vary with its load")


# ---------------------------------------------------------------------------
# passes


def digest(results: list) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16]


def output_bytes(results: list) -> int:
    """Bytes the CLI wrote to stdout in one cli-session pass (0 elsewhere)."""
    return sum(len(r[1].encode()) for r in results
               if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], str))


class Run:
    """Passes of one run, their checks, and the self-checks across passes.

    Every pass runs every operation of the job list.  ``attempted`` is the
    number of operations in that list and ``failed`` the number of them
    that failed in any pass, so both depend on the job list alone and not
    on how many passes fit in the run.  Every pass must return the same
    results, so the checks run on the first pass and again on any pass
    whose results digest differs from it.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.passes = 0
        self.failed_ops: set[int] = set()
        self.known_ops: set[int] = set()
        self.problems: list[str] = []
        self.digest: str | None = None
        self.work: dict | None = None

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def known(self) -> int:
        return len(self.known_ops)

    def record(self, results: list, work: dict | None = None) -> None:
        self.passes += 1
        d = digest(results)
        if d != self.digest:
            failed, known, problems = workloads.evaluate(self.jobs, results)
            self.problems += problems
            self.failed_ops |= failed
            self.known_ops |= known
            if self.digest is None:
                self.digest = d
            else:
                self.problems.append(
                    f"self-check: results digest {d} != {self.digest}")
        if work is not None:
            work = dict(work, **{"cli.output_bytes": output_bytes(results)})
            if self.work is None:
                self.work = work
            elif work != self.work:
                diff = sorted(k for k in work.keys() | self.work.keys()
                              if work.get(k) != self.work.get(k))
                self.problems.append(f"self-check: work counts differ in {diff}")

    def one(self, tracer=None) -> float:
        gc.collect()
        if tracer is None:
            dt, results = workloads.run_pass(self.jobs)
            self.record(results)
        else:
            with tracer:
                dt, results = workloads.run_pass(self.jobs)
            self.record(results, tracer.work_counts())
        return dt


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile of ``times`` with at least ten values above
    it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100 * (n - 10) // n


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median_low(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# main


def declared_units(key: str) -> dict[str, str]:
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        return setup_child(args)

    lw = load_library()
    print(machine_line(lw), flush=True)
    jobs = workloads.make(args.workload, args.seed, lw)
    run = Run(jobs)
    probes = [probe() for _ in range(PROBE_REPEATS)]
    setups = [measure_setup(args.workload, args.seed)]
    start = time.perf_counter()

    def take_setups():
        # spread over the run, so that one slow stretch of the host does
        # not decide the median
        elapsed = time.perf_counter() - start
        due = min(SETUP_REPEATS, 1 + int(elapsed * SETUP_REPEATS / args.seconds))
        while len(setups) < due:
            setups.append(measure_setup(args.workload, args.seed))

    run.one()  # warm-up: not timed, but checked and counted
    plain, traced = [], [[], []]
    layers: list[dict] = []
    if args.trace == 0:
        phases = [(plain, None, args.seconds, MIN_PASSES)]
    else:
        from spans import Tracer
        third = args.seconds / 3
        phases = [(plain, None, third, 1), (traced[0], Tracer, 2 * third, 1),
                  (traced[1], Tracer, args.seconds, 1)]
    for times, tracer_cls, until, least in phases:
        while len(times) < least or time.perf_counter() - start < until:
            tracer = tracer_cls(lw) if tracer_cls else None
            times.append(run.one(tracer))
            if tracer:
                layers.append(tracer.layer_metrics())
            take_setups()
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(args.workload, args.seed))
    probes += [probe() for _ in range(PROBE_REPEATS)]

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} operations a pass, "
          f"{run.passes} passes, results digest {run.digest}")
    if run.known:
        print(f"known defect: {workloads.KNOWN_DEFECT}: "
              f"{run.known} of the {run.attempted} operations failed")
    for p in run.problems[:20]:
        print(f"FAILED {p}")
    print(f"host probe: {' '.join(f'{p * 1e3:.1f}' for p in probes)} ms "
          f"(before | after the passes; diagnostic only)")
    deciles = statistics.quantiles(plain, n=10) if len(plain) > 1 else plain
    print(f"pass times: {len(plain)} passes, deciles "
          f"{' '.join(f'{q:.4f}' for q in deciles)} s (diagnostic only)")

    setup_s = statistics.median(s[0] for s in setups)
    import_s = statistics.median(s[1] for s in setups)
    if args.trace == 0:
        tail_s, pct = tail(plain)
        # solve_s is the upper quartile of the pass times, not their median.
        # The host switches between a fast and a slow regime (passes ~1.5x
        # apart) in stretches of seconds to a minute; the slow one is the
        # common one.  The median lands on whichever regime held most of
        # the run and so jumps between runs; the upper quartile stays on the
        # slow regime unless that held less than a quarter of the run.
        metrics = {
            "setup_s": setup_s,
            "solve_s": statistics.quantiles(plain, n=4)[2],
            "solve_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": f"median of {len(setups)} fresh interpreters",
                   "solve_s": f"p75 of {len(plain)} passes",
                   "solve_tail_s": f"p{pct} of {len(plain)} passes",
                   "peak_rss_mb": "1 process"}
    else:
        flat = [t for phase in traced for t in phase]
        metrics = median_metrics(layers)
        metrics["cli.output_bytes"] = run.work["cli.output_bytes"]
        metrics["setup.import_s"] = import_s
        metrics["trace.overhead_s"] = statistics.median(flat) - statistics.median(plain)
        metrics["bench.probe_s"] = statistics.median(probes)
        samples = {k: f"median of {len(flat)} traced passes" if k.endswith("_s")
                   else f"per pass, the same in all {len(flat)} traced passes"
                   for k in metrics}
        samples["setup.import_s"] = f"median of {len(setups)} fresh interpreters"
        samples["trace.overhead_s"] = (f"{len(flat)} traced ({len(traced[0])}+"
                                       f"{len(traced[1])}) vs {len(plain)} untraced passes")
        samples["bench.probe_s"] = f"median of {len(probes)} probes"
        samples["walks.edge_updates"] = "per pass, computed as sum of m * 2|E(ball)|"
        samples["graphs.ball_us_per_vertex"] = "graphs.ball_s / graphs.ball_vertices"
    units = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    metrics = {k: metrics[k] for k in units}
    for k, v in metrics.items():
        print(f"{k:28s} {v:14.6g} {units[k]:6s} ({samples[k]})")

    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
