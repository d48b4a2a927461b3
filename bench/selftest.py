"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs one pass of every workload with all checks on; the only failed
   operations allowed are the known Mellin stalls, on ``numeric``.
2. Corrupts one result at a time (a walk count, a density grid value, a
   density moment, a count in a CLI walk table) and requires each to be
   reported as one more failed operation, both when checked alone and
   when it comes in a later pass of a run (which checks a pass again only
   when its results digest differs from the first pass's).
3. Runs two traced passes and requires identical work counts and results.

Exit code 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run
import workloads
from spans import Tracer

SEED = 1


def _bump_walk(result):
    counts, closed = result
    return counts[:4] + (counts[4] + 1,) + counts[5:], closed


def _bump_list(values):
    return values[:100] + [values[100] * (1 + 1e-6)] + values[101:]


def _bump_float(value):
    return value * (1 + 1e-6)


def _bump_cli_walks(result):
    code, text = result
    lines = text.splitlines(keepends=True)
    m, count, rest = lines[6].split(",", 2)  # the row of length 4
    lines[6] = f"{m},{int(count) + 1},{rest}"
    return code, "".join(lines)


# (workload, job-name prefix, corruption)
CORRUPTIONS = [
    ("walks-3d", "walks bcc3", _bump_walk),
    ("walks-long", "walks strip", _bump_walk),
    ("numeric", "density grid wa", _bump_list),
    ("numeric", "density_moment ww m=8", _bump_float),
    ("cli-session", "latticewalks walks --kind z2 ", _bump_cli_walks),
]


def main() -> int:
    lw = run.load_library()
    errors = []
    passes = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.make(name, SEED, lw)
        _, results = workloads.run_pass(jobs)
        failed, known, problems = workloads.evaluate(jobs, results)
        passes[name] = jobs, results, len(failed)
        print(f"{name}: {len(jobs)} operations, {len(failed)} failed "
              f"({len(known)} known defect)")
        errors += [f"{name}: {p}" for p in problems]
        if known and name != "numeric":
            errors.append(f"{name}: known-defect failures outside numeric")

    for name, prefix, bump in CORRUPTIONS:
        jobs, results, failed = passes[name]
        i = next(i for i, job in enumerate(jobs)
                 if job.name.startswith(prefix) and not job.name.endswith("json"))
        bad = results[:i] + [bump(results[i])] + results[i + 1:]
        bad_failed, _, problems = workloads.evaluate(jobs, bad)
        later = run.Run(jobs)
        later.record(results)
        later.record(bad)
        verdict = ("reported" if len(bad_failed) == failed + 1 and problems
                   and later.failed == failed + 1 and later.problems
                   else "MISSED")
        print(f"corrupted {jobs[i].name!r}: {verdict}")
        if verdict != "reported":
            errors.append(f"corruption of {jobs[i].name!r} not reported")

    jobs, results, _ = passes["cli-session"]
    work = []
    for _ in range(2):
        with Tracer(lw) as tracer:
            _, traced = workloads.run_pass(jobs)
        work.append(tracer.work_counts())
        if run.digest(traced) != run.digest(results):
            errors.append("traced cli-session pass returned other results")
    if work[0] != work[1] or not work[0]:
        errors.append("work counts differ between two traced passes")
    print(f"traced cli-session twice: {len(work[0])} work counts, "
          f"{'identical' if work[0] == work[1] else 'DIFFERENT'}")

    for e in errors:
        print(f"FAILED {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
