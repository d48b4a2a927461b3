"""The gain rule of tools/trajectory.py on canned paired runs: a gain needs
wins in nine tenths of the pairs and a median gap wider than the parent's
interquartile range."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"
_SPEC = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)

# ten parent runs: median 10.45, quartiles 10.225 and 10.75
PARENT = [10.0, 11.0, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3]


def test_a_clear_win_is_a_gain():
    v = trajectory.verdict(PARENT, [0.7 * p for p in PARENT], "lower")
    assert (v["wins"], v["losses"], v["pairs"]) == (10, 0, 10)
    assert (v["parent_q1"], v["parent_q3"]) == pytest.approx((10.225, 10.75))
    assert v["ratio"] == pytest.approx(0.7)
    assert v["verdict"] == "gain"


def test_a_tie_is_no_gain():
    v = trajectory.verdict(PARENT, list(PARENT), "lower")
    assert (v["wins"], v["losses"]) == (0, 0)
    assert v["verdict"] == "no gain"


def test_a_gap_inside_the_parents_iqr_is_no_gain():
    # the change wins every pair, by less than the spread of the parent
    v = trajectory.verdict(PARENT, [p - 0.1 for p in PARENT], "lower")
    assert v["wins"] == 10
    assert v["verdict"] == "no gain"


def test_eight_wins_of_ten_are_no_gain():
    change = [0.5 * p for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]]
    v = trajectory.verdict(PARENT, change, "lower")
    assert (v["wins"], v["losses"]) == (8, 2)
    assert v["verdict"] == "no gain"


def test_higher_is_better_mirrors_the_rule():
    assert trajectory.verdict(PARENT, [2 * p for p in PARENT], "higher")["verdict"] == "gain"
    assert trajectory.verdict(PARENT, [0.5 * p for p in PARENT], "higher")["verdict"] == \
        "no gain"


def _run(workload, pair, side, value, exit=0, correct=True, failed=0):
    return {"workload": workload, "pair": pair, "side": side, "machine": "machine: x",
            "exit": exit, "result": {"correct": correct, "failed": failed,
                                     "metrics": {"solve_s": {"value": value}}}}


def _doc(runs, workloads=("walks-long",)):
    return {"pairs": True, "command": "python3 bench/run.py ...", "count": 5,
            "workloads": list(workloads),
            "metrics": [{"name": "solve_s", "better": "lower"}], "runs": runs,
            "parent": {"sha": "aaaaaaa", "subject": "parent"},
            "change": {"sha": "bbbbbbb", "subject": "change"}}


def test_report_recomputes_the_stored_verdicts(tmp_path, capsys):
    runs = [_run("walks-long", i, side, value)
            for i, p in enumerate(PARENT[:4])
            for side, value in (("parent", p), ("change", 0.7 * p))]
    # a pair with a failed run and a workload with no runs are left out
    runs.append({"workload": "walks-long", "pair": 4, "side": "parent", "machine": None,
                 "exit": 1, "result": None})
    doc = _doc(runs, ["walks-long", "numeric"])
    doc["summary"] = trajectory.summarize(doc)
    assert list(doc["summary"]) == ["walks-long"]
    assert doc["summary"]["walks-long"]["metrics"]["solve_s"]["pairs"] == 4
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(doc))
    assert trajectory.main(["--report", str(path)]) == 0
    assert "4-0 of 4  gain" in capsys.readouterr().out

    doc["summary"]["walks-long"]["metrics"]["solve_s"]["verdict"] = "no gain"
    path.write_text(json.dumps(doc))
    assert trajectory.main(["--report", str(path)]) == 1


def test_runs_that_fail_do_not_count_toward_a_gain():
    clean = [_run("walks-long", i, side, value)
             for i, p in enumerate(PARENT)
             for side, value in (("parent", p), ("change", 0.7 * p))]
    assert trajectory.summarize(_doc(clean))["walks-long"]["metrics"]["solve_s"][
        "verdict"] == "gain"

    # a change run that exits 1 or is not correct leaves its pair out
    unclean = [dict(r) for r in clean]
    unclean[1] = _run("walks-long", 0, "change", 0.7 * PARENT[0], exit=1, correct=False)
    unclean[3] = _run("walks-long", 1, "change", 0.7 * PARENT[1], correct=False)
    entry = trajectory.summarize(_doc(unclean))["walks-long"]
    assert entry["metrics"]["solve_s"]["pairs"] == 8

    # a change that fails more operations than the parent gains nothing
    for failed, verdict in ((2, "gain"), (3, "no gain")):
        runs = [dict(r) for r in clean]
        runs[0] = _run("walks-long", 0, "parent", PARENT[0], failed=2)
        runs[1] = _run("walks-long", 0, "change", 0.7 * PARENT[0], failed=failed)
        entry = trajectory.summarize(_doc(runs))["walks-long"]
        assert entry["failed"] == {"parent": 2, "change": failed}
        assert entry["metrics"]["solve_s"]["wins"] == 10
        assert entry["metrics"]["solve_s"]["verdict"] == verdict
