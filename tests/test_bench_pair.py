"""Summary of before/after benchmark pairs (tools/bench_pair.py)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

BETTER = {"wall_s": "lower", "ops_per_s": "higher"}


def _line(wall, ops, attempted=693, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


def _runs(lines):
    """Runs of one workload from {seed: (parent line, change line)},
    the parent first on every other seed."""
    runs = []
    for k, (seed, (parent, change)) in enumerate(lines.items()):
        first = "parent" if k % 2 == 0 else "change"
        runs += [{"workload": "report", "seed": seed, "side": "parent",
                  "first": first, "result": parent},
                 {"workload": "report", "seed": seed, "side": "change",
                  "first": first, "result": change}]
    return runs


def test_summary_of_clean_pairs():
    runs = _runs({90417: (_line(1.4, 140.0), _line(1.1, 141.0)),
                  1: (_line(1.5, 150.0), _line(1.2, 149.0)),
                  2: (_line(1.3, 145.0), _line(1.4, 146.0))})
    summary, problems = bench_pair.summarize(runs, BETTER)
    assert problems == []
    rep = summary["report"]
    assert rep["seeds"] == [90417, 1, 2]
    assert rep["first"] == {"90417": "parent", "1": "change", "2": "parent"}
    assert rep["counts"]["1"] == {"parent": {"attempted": 693, "failed": 0},
                                  "change": {"attempted": 693, "failed": 0}}
    wall = rep["metrics"]["wall_s"]
    assert wall["better"] == "lower"
    assert wall["parent"]["values"] == [1.4, 1.5, 1.3]
    assert wall["parent"]["median"] == 1.4
    assert wall["parent"]["q1"] == pytest.approx(1.35)
    assert wall["parent"]["q3"] == pytest.approx(1.45)
    assert wall["change"]["median"] == 1.2
    assert (wall["change_wins"], wall["pairs"]) == (2, 3)
    ops = rep["metrics"]["ops_per_s"]
    assert (ops["change_wins"], ops["pairs"]) == (2, 3)


def test_summary_flags_incorrect_and_mismatched_runs():
    runs = _runs({90417: (_line(1.4, 140.0), _line(1.1, 141.0, failed=1)),
                  1: (_line(1.5, 150.0), _line(1.2, 149.0, correct=False)),
                  2: (_line(1.3, 145.0), {"error": "exit 1: boom"})})
    summary, problems = bench_pair.summarize(runs, BETTER)
    assert len(problems) == 3
    assert "seed 90417: attempted/failed" in problems[0]
    assert problems[1] == "report seed 1 change: correct is false"
    assert problems[2] == "report seed 2 change: no result"
    # the unpaired seed is left out of the metrics
    assert summary["report"]["metrics"]["wall_s"]["pairs"] == 2


def test_quartiles_of_one_value():
    assert bench_pair.quartiles([2.0]) == {"values": [2.0], "median": 2.0,
                                           "q1": 2.0, "q3": 2.0}


def test_plan_is_read_from_benchmark_json(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": "report", "why": "a"},
                      {"name": "zsweep", "why": "b"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.25},
                       {"name": "ops_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.25}]}))
    assert bench_pair.load_benchmark(path) == {
        "command": ["python3", "perfbench/run.py"], "seconds": 25,
        "workloads": ["report", "zsweep"], "better": BETTER}


def test_revision_of_a_checkout(tmp_path):
    assert bench_pair.revision(tmp_path) is None

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t",
             "-c", "user.email=t@t", *args],
            check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.txt").write_text("1\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "--short", "HEAD")
    (tmp_path / "untracked.txt").write_text("x\n")
    assert bench_pair.revision(tmp_path) == head
    (tmp_path / "a.txt").write_text("2\n")
    assert bench_pair.revision(tmp_path) == head + "+dirty"
