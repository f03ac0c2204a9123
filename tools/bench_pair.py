"""Before/after benchmark pairs of two checkouts of besselid.

    python3 tools/bench_pair.py --parent DIR --change DIR \
        --seeds 90417,1,2 --out BENCH_<n>.json

Reads the benchmark command, its run length, its workloads and the
direction of each end-to-end metric from the change's BENCHMARK.json.
Runs each checkout's own, unchanged benchmark command with `--trace 0`
once per workload and seed, the two sides back to back, and alternates
which side goes first from one seed to the next (the parent first on
the first seed).  Writes the commit of each checkout (`git rev-parse
--short HEAD`, with "+dirty" if tracked files differ from it) and, per
workload and end-to-end metric, every value of each side, its median
and quartiles, and in how many pairs the change is better; and
`attempted`/`failed` of every run.  The file is rewritten after every
pair, so an interrupted run keeps the pairs it measured.

Exits with 1 if any run fails or reports `correct: false`, or if
`attempted` or `failed` differ between the two sides on one seed.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600.0


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    v = sorted(values)
    if len(v) == 1:
        q1 = q3 = v[0]
    else:
        q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return {"values": list(values), "median": statistics.median(v),
            "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> tuple:
    """Summary of the runs and the list of problems found in them.

    `runs` holds one dict per run: workload, seed, side ("parent" or
    "change"), first (the side that ran first on that seed) and result
    (the run's result line, or {"error": ...} when it printed none).
    `better` maps each end-to-end metric to "lower" or "higher".
    """
    summary, problems = {}, []
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        seeds = list(dict.fromkeys(r["seed"] for r in mine))
        res = {(r["seed"], r["side"]): r["result"] for r in mine}
        first = {str(r["seed"]): r["first"] for r in mine}
        counts, paired = {}, []
        for seed in seeds:
            row = {}
            for side in SIDES:
                out = res.get((seed, side))
                if out is None or "metrics" not in out:
                    problems.append(f"{wl} seed {seed} {side}: no result")
                    continue
                if not out["correct"]:
                    problems.append(
                        f"{wl} seed {seed} {side}: correct is false")
                row[side] = {"attempted": out["attempted"],
                             "failed": out["failed"]}
            if len(row) == len(SIDES):
                paired.append(seed)
                if row["parent"] != row["change"]:
                    problems.append(f"{wl} seed {seed}: attempted/failed "
                                    f"{row['parent']} != {row['change']}")
            counts[str(seed)] = row
        metrics = {}
        for name, direction in better.items():
            pairs = [(res[(s, "parent")]["metrics"][name]["value"],
                      res[(s, "change")]["metrics"][name]["value"])
                     for s in paired
                     if name in res[(s, "parent")]["metrics"]
                     and name in res[(s, "change")]["metrics"]]
            if not pairs:
                continue
            parent, change = zip(*pairs)
            metrics[name] = {
                "better": direction,
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_wins": sum(c < p if direction == "lower" else c > p
                                   for p, c in pairs),
                "pairs": len(pairs)}
        summary[wl] = {"seeds": seeds, "first": first, "counts": counts,
                       "metrics": metrics}
    return summary, problems


def load_benchmark(path: Path) -> dict:
    """The run plan that a BENCHMARK.json fixes: command, run length,
    workload names and the direction of each end-to-end metric."""
    bench = json.loads(path.read_text())
    return {"command": list(bench["command"]),
            "seconds": bench["run_seconds"],
            "workloads": [w["name"] for w in bench["workloads"]],
            "better": {m["name"]: m["better"] for m in bench["end_to_end"]}}


def revision(checkout: Path) -> str | None:
    """Short commit of a git checkout, with "+dirty" if tracked files
    differ from it; None if `checkout` is not a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return head.stdout.strip() + ("+dirty" if dirty.strip() else "")


def run_side(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One run of the benchmark command with `--trace 0` in `checkout`;
    its result line, or {"error": ...} if it printed none."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-1000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"no result line: {lines[-1][:200]}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True,
                   help="checkout of the change")
    p.add_argument("--seeds", required=True,
                   help="comma-separated seeds, e.g. 90417,1,2")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    dirs = {"parent": args.parent, "change": args.change}
    plan = load_benchmark(args.change / "BENCHMARK.json")

    header = {
        "command": " ".join(plan["command"])
        + f" --seconds {plan['seconds']:g} --trace 0",
        "revisions": {side: revision(d) for side, d in dirs.items()},
        "machine": {"python": platform.python_version(),
                    "machine": platform.machine(), "nproc": os.cpu_count()},
    }
    runs, problems = [], []
    for workload in plan["workloads"]:
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"{workload} seed {seed} {side}", file=sys.stderr)
                runs.append({"workload": workload, "seed": seed,
                             "side": side, "first": order[0],
                             "result": run_side(dirs[side], plan["command"],
                                                workload, seed,
                                                plan["seconds"])})
            summary, problems = summarize(runs, plan["better"])
            args.out.write_text(json.dumps(
                {**header, "workloads": summary, "problems": problems},
                indent=1) + "\n")
    for msg in problems:
        print(f"bench_pair: {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
