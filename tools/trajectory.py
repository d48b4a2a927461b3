"""Back-fill the benchmark over past merged commits into one JSON file.

``bench/`` and ``BENCHMARK.json`` are the same at every commit listed in
``COMMITS``, and ``bench/run.py`` imports the ``src/`` next to it, so a
``git archive`` of a commit measures that commit with this benchmark.
From the repository root:

    python3 tools/trajectory.py --workdir DIR --out BENCH_trajectory.json
    python3 tools/trajectory.py --report BENCH_trajectory.json

Each commit is extracted into DIR/<sha>.  Each round takes one seed of
``SEEDS`` and runs ``bench/run.py --workload W --seed S --seconds 3
--trace 0`` on every workload, round-robin over the commits (the list is rotated by a
fraction of its length each round), so that drift of a shared host
spreads over all of them.  Then the Tier-1 suite runs once in each copy,
for its test count and wall time.  The output is rewritten after every
run, so a cut run keeps what it measured; ``--report`` skips the commits
and workloads that have no result yet.  ``--report`` prints, for each
commit and workload, the median ``solve_s`` over the rounds and its ratio
to the commit before, with the per-round ratios beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every merged change from the benchmark's first commit on, oldest first;
# commits that change only the plan or the docs are left out.
COMMITS = [
    "2753ad1", "d1b7e8c", "084955e", "40e4e7c", "a635074", "f09a366",
    "15da36e", "8b04720", "74a67c9", "e240394", "ee5c189", "3e20eeb",
    "8d5cefb", "a80115c", "c06d11e", "2c1e2e4", "79d8896", "ded2815",
    "fe1be9c", "7514433", "57a1dda", "ff6024c", "1141df1", "7158faf",
]
WORKLOADS = ["walks-3d", "walks-long", "numeric", "cli-session"]
SEEDS = [3, 4, 5]  # one seed per round
SECONDS = 3.0
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(workdir: Path, sha: str) -> Path:
    dest = workdir / sha
    if not dest.is_dir():
        dest.mkdir(parents=True)
        subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", sha),
                       check=True)
    return dest


def bench(copy: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = next((ln for ln in lines if ln.startswith("machine: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return {"exit": proc.returncode, "machine": machine, "result": result,
            "stderr_tail": proc.stderr[-400:] if proc.returncode else ""}


def tier1(copy: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=copy, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"exit": proc.returncode, "wall_s": wall, "summary": summary, **counts}


def report(path: Path) -> None:
    doc = json.loads(path.read_text())
    solve, failed = {}, {}  # (sha, workload) -> {round: solve_s}, failed operations
    for run in doc["runs"]:
        if run["result"]:
            key = run["sha"], run["workload"]
            solve.setdefault(key, {})[run["round"]] = \
                run["result"]["metrics"]["solve_s"]["value"]
            failed[key] = failed.get(key, 0) + run["result"]["failed"]
    shas = [c["sha"] for c in doc["commits"]]
    for c in doc["commits"]:
        t = c.get("tier1", {})
        print(f"{c['sha']} tier-1 {t.get('passed', '-')} passed in "
              f"{t.get('wall_s', float('nan')):.1f} s  {c['subject'][:60]}")
    for workload in WORKLOADS:
        print(f"\n{workload}: commit, median solve_s (ms), ratio to the commit "
              "before [per-round ratios]")
        for before, sha in zip([None] + shas, shas):
            now, old = solve.get((sha, workload), {}), solve.get((before, workload), {})
            if not now:
                continue
            line = f"  {sha} {1e3 * statistics.median(now.values()):8.1f}"
            if old:
                per = [now[r] / old[r] for r in sorted(now) if r in old]
                ratio = statistics.median(now.values()) / statistics.median(old.values())
                line += f"  {ratio:.3f}  [{' '.join(f'{x:.2f}' for x in per)}]"
            if failed.get((sha, workload)):
                line += f"  ({failed[sha, workload]} failed operations over the rounds)"
            print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--report", type=Path, help="print the table of a finished file")
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.report:
        report(args.report)
        return 0
    if not (args.workdir and args.out):
        ap.error("--workdir and --out are required to measure")

    doc = {"command": "python3 bench/run.py --workload W --seed S "
                      f"--seconds {SECONDS:g} --trace 0",
           "seconds": SECONDS, "seeds": SEEDS,
           "tier1_command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
           "commits": [{"sha": sha, "subject": git("log", "-1", "--format=%s", sha)
                        .decode().strip()} for sha in COMMITS],
           "runs": []}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    copies = {sha: extract(args.workdir, sha) for sha in COMMITS}
    for rnd, seed in enumerate(SEEDS):
        shift = rnd * len(COMMITS) // len(SEEDS)
        for workload in WORKLOADS:
            for sha in COMMITS[shift:] + COMMITS[:shift]:
                run = bench(copies[sha], workload, seed)
                doc["runs"].append({"round": rnd, "seed": seed, "workload": workload,
                                    "sha": sha, **run})
                save()
                print(f"round {rnd} {workload} {sha}: exit {run['exit']}", flush=True)
    for entry in doc["commits"]:
        entry["tier1"] = tier1(copies[entry["sha"]])
        save()
        print(f"tier-1 {entry['sha']}: {entry['tier1']['summary']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
