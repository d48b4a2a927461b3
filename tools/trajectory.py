"""Run the benchmark on past or paired commits into one JSON file.

``bench/`` and ``BENCHMARK.json`` are the same at every commit listed in
``COMMITS``, and ``bench/run.py`` imports the ``src/`` next to it, so a
``git archive`` of a commit measures that commit with this benchmark.
From the repository root:

    python3 tools/trajectory.py --workdir DIR --out BENCH_trajectory.json
    python3 tools/trajectory.py --pairs PARENT CHANGE --workload W --count N --out BENCH_<label>.json
    python3 tools/trajectory.py --report BENCH_trajectory.json

Each commit is extracted into DIR/<sha> (a temporary directory when
``--workdir`` is not given).

The trajectory: each round takes one seed of ``SEEDS`` and runs
``bench/run.py --workload W --seed S --seconds 3 --trace 0`` on every
workload, round-robin over the commits (the list is rotated by a
fraction of its length each round), so that drift of a shared host
spreads over all of them.  Then the Tier-1 suite runs once in each copy,
for its test count and wall time.  ``--report`` prints, for each commit
and workload, the median ``solve_s`` over the rounds and its ratio to the
commit before, with the per-round ratios beside it.

A speed claim: ``--pairs`` runs ``bench/run.py --workload W --seed
PAIR_SEED --seconds T --trace 0`` on PARENT and CHANGE in N pairs per workload, at
the benchmark's run length T, and swaps which side runs first in every
pair.  For each workload and end-to-end metric of ``BENCHMARK.json`` it
stores both medians, the parent's quartiles, the change's wins and
losses over the pairs where both runs exited 0 with correct results, and
the verdict of :func:`verdict`; each side's failed operations are summed
over all its runs, and no metric of a workload is a gain where the
change failed more of them.  ``--report`` prints that table, recomputed
from the stored runs, and exits 1 when a stored summary differs from it.

The output is rewritten after every run, so a cut run keeps what it
measured; ``--report`` skips what has no result yet.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
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
PAIR_SEED = 1  # the seed of every paired run
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


def bench(copy: Path, workload: str, seed: int, seconds: float = SECONDS) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
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


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The gain rule on one metric over paired runs, parent[i] and change[i]
    from pair i: a gain when the change is better in at least nine tenths
    of the pairs (ties count for neither side) and its median is better
    than the parent's by more than the parent's interquartile range."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    before, after = statistics.median(parent), statistics.median(change)
    gain = 10 * wins >= 9 * len(parent) and sign * (before - after) > q3 - q1
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "parent_median": before, "change_median": after,
            "ratio": after / before,
            "parent_q1": q1, "parent_q3": q3,
            "verdict": "gain" if gain else "no gain"}


def summarize(doc: dict) -> dict:
    # workload -> each side's failed operations over its runs, and each
    # metric's verdict over the pairs where both sides ran cleanly
    sides: dict[tuple[str, int], dict[str, dict]] = {}
    failed: dict[str, dict[str, int]] = {}
    for run in doc["runs"]:
        result = run["result"]
        if result:
            tally = failed.setdefault(run["workload"], {"parent": 0, "change": 0})
            tally[run["side"]] += result["failed"]
            if run["exit"] == 0 and result["correct"]:
                sides.setdefault((run["workload"], run["pair"]), {})[run["side"]] = \
                    result["metrics"]
    summary: dict[str, dict] = {}
    for workload in doc["workloads"]:
        both = [s for (w, _), s in sorted(sides.items()) if w == workload and len(s) == 2]
        if len(both) < 2:
            continue
        metrics = {m["name"]: verdict([s["parent"][m["name"]]["value"] for s in both],
                                      [s["change"][m["name"]]["value"] for s in both],
                                      m["better"])
                   for m in doc["metrics"]}
        if failed[workload]["change"] > failed[workload]["parent"]:
            for v in metrics.values():
                v["verdict"] = "no gain"
        summary[workload] = {"failed": failed[workload], "metrics": metrics}
    return summary


def report_pairs(doc: dict) -> int:
    print(f"parent {doc['parent']['sha']}  {doc['parent']['subject'][:60]}")
    print(f"change {doc['change']['sha']}  {doc['change']['subject'][:60]}")
    print(f"{doc['command']}, {doc['count']} pairs per workload")
    summary = summarize(doc)
    for workload, entry in summary.items():
        print(f"\n{workload}: failed operations {entry['failed']['parent']} -> "
              f"{entry['failed']['change']}; metric, parent median [q1, q3], "
              "change median, ratio, wins-losses of pairs, verdict")
        for name, v in entry["metrics"].items():
            print(f"  {name:13s} {v['parent_median']:10.4f} [{v['parent_q1']:.4f}, "
                  f"{v['parent_q3']:.4f}] {v['change_median']:10.4f}  "
                  f"{v['ratio']:.3f}  {v['wins']}-{v['losses']} of {v['pairs']}  "
                  f"{v['verdict']}")
    if summary != doc.get("summary", {}):
        print("\nerror: the stored summary differs from the one its runs give")
        return 1
    return 0


def report(path: Path) -> int:
    doc = json.loads(path.read_text())
    if "pairs" in doc:
        return report_pairs(doc)
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
    return 0


def pairs(args, workdir: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or WORKLOADS
    doc = {"pairs": True,
           "command": f"python3 bench/run.py --workload W --seed {PAIR_SEED} "
                      f"--seconds {seconds:g} --trace 0",
           "seconds": seconds, "seed": PAIR_SEED, "count": args.count,
           "workloads": workloads,
           "metrics": [{"name": m["name"], "better": m["better"]}
                       for m in spec["end_to_end"]],
           "machine": None, "runs": []}
    for side, ref in zip(("parent", "change"), args.pairs):
        sha = git("rev-parse", "--short", ref).decode().strip()
        doc[side] = {"sha": sha, "subject": git("log", "-1", "--format=%s", sha)
                     .decode().strip()}
    copies = {side: extract(workdir, doc[side]["sha"]) for side in ("parent", "change")}

    def save():
        doc["summary"] = summarize(doc)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for workload in workloads:
        for pair in range(args.count):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = bench(copies[side], workload, PAIR_SEED, seconds)
                doc["machine"] = doc["machine"] or run["machine"]
                doc["runs"].append({"workload": workload, "pair": pair, "side": side, **run})
                save()
                print(f"{workload} pair {pair} {side}: exit {run['exit']}", flush=True)


def trajectory(args, workdir: Path) -> None:
    doc = {"command": "python3 bench/run.py --workload W --seed S "
                      f"--seconds {SECONDS:g} --trace 0",
           "seconds": SECONDS, "seeds": SEEDS,
           "tier1_command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
           "commits": [{"sha": sha, "subject": git("log", "-1", "--format=%s", sha)
                        .decode().strip()} for sha in COMMITS],
           "runs": []}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    copies = {sha: extract(workdir, sha) for sha in COMMITS}
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--report", type=Path, help="print the table of a finished file")
    ap.add_argument("--pairs", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="measure a change against its parent in alternated pairs")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to pair (repeatable; default: all)")
    ap.add_argument("--count", type=int, default=10, help="pairs per workload")
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.report:
        return report(args.report)
    if not args.out:
        ap.error("--out is required to measure")
    if args.pairs and args.count < 2:
        ap.error("--count must be at least 2 for the parent's quartiles")
    with tempfile.TemporaryDirectory() as tmp:
        (pairs if args.pairs else trajectory)(args, args.workdir or Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
