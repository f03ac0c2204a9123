"""Benchmark of besselid: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload report|zsweep|idchecks --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from
`src/` (nothing is installed).  Every workload is a closed loop with
one client in a single process without a thread pool, and its fixed
work is set by the workload, the seed and --seconds alone, so
`attempted` and `failed` depend only on them.  Times are scaled to a
reference machine speed by the probes of speed.py.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (names and units as listed in BENCHMARK.json).  Inputs,
per-run details and span tables go to perfbench/out/<run>/.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from speed import BRACKET, SETUP_BETA, probe, scale, scaled_ops
from tracer import QUAD_ENGINES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")

MIN_CHILDREN = 4      # fixed-work children per run, at least
SETUPS_PER_CHILD = 2  # set-up children before each fixed-work child
# seconds of the set-up children and one fixed-work child, launch to
# exit on the machine the benchmark was written on: a run has about
# --seconds / CHILD_S fixed-work children
CHILD_S = {"report": 3.6, "zsweep": 6.6, "idchecks": 6.1}
# the tail percentile.  Op costs come in classes (by entry and z
# range), and p98 and above fall on the edge between two small classes
# of slow ops and jump between them from seed to seed; p95 lies inside
# a class on every workload and leaves 35 or more samples beyond it
TAIL_P = 95.0
EXPECTED_SUMMARY = {"pass": 98, "expected-fail": 1, "fail": 0,
                    "inconclusive": 0}
EXPECTED_FAIL_ROWS = {"pick-witness:zeta"}
TIME_LIMIT_S = 170.0  # the whole run, children included


def expected_verdict(row_id: str) -> str:
    return "expected-fail" if row_id in EXPECTED_FAIL_ROWS else "pass"


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

class Launcher:
    """Starts children one at a time and waits for each, with its wall
    time (launch to exit) and peak resident memory."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def run(self, args: list, tag: str, check: bool = True) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            raise BenchError(f"time limit reached before {tag}")
        stdout = self.out_dir / f"{tag}.stdout"
        stderr = self.out_dir / f"{tag}.stderr"
        with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdout=fo, stderr=fe)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if check and code != 0:
            tail = stderr.read_text(errors="replace")[-2000:]
            raise BenchError(f"{tag} exited with {code}:\n{tail}")
        return {"wall_s": wall, "code": code, "maxrss_kb": usage.ru_maxrss,
                "stdout": stdout}


def _child_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, p: float) -> float:
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail(values) -> dict:
    v = percentile(values, TAIL_P)
    return {"percentile": TAIL_P, "value": v, "samples": len(values),
            "beyond": sum(1 for x in values if x > v)}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), **versions,
            "platform": platform.platform()}


def speed_probe(reps: int = 21) -> dict:
    """Probe times of speed.py: on a shared machine, load from other
    tenants shows here rather than in the load average."""
    times = [probe() for _ in range(reps)]
    return {"min_s": min(times), "median_s": statistics.median(times)}


# ----------------------------------------------------------------------
# End-to-end runs (tracing off)
# ----------------------------------------------------------------------

def n_children(workload: str, seconds: float) -> int:
    return max(MIN_CHILDREN, round(seconds / CHILD_S[workload]))


def _setup_child(launch: Launcher, k: int) -> dict:
    """A fresh `import besselid.cli`, launch to exit, scaled by the
    probes right before and after it."""
    probes = [probe() for _ in range(BRACKET)]
    wall = launch.run(["-c", "import besselid.cli"], f"setup{k}")["wall_s"]
    probes += [probe() for _ in range(BRACKET)]
    return {"raw_s": wall, "s": wall * scale(probes, SETUP_BETA)}


def work_child(workload: str, launch: Launcher, inputs: Path, part: int,
               tag: str, trace: Path | None = None) -> dict:
    """A fresh child doing part `part` of the workload's fixed work; its
    ops with scaled latencies and outcomes, and its scaled wall time
    (launch to exit, probe time taken out)."""
    out = launch.out_dir / f"{tag}.json"
    work = [] if workload == "report" else ["--inputs", str(inputs),
                                            "--part", str(part)]
    extra = [] if trace is None else ["--trace", str(trace)]
    r = launch.run([CHILD, workload, *work, "--out", str(out), *extra], tag)
    res = _child_json(out)
    probes = res["probes"]
    res["latencies"] = scaled_ops(res)
    res["wall_raw_s"] = r["wall_s"]
    res["wall_s"] = (r["wall_s"] - sum(probes)) * scale(probes)
    res["maxrss_kb"] = r["maxrss_kb"]
    if workload == "report":
        res["outcomes"] = [[op[1], "ok" if op[3] == expected_verdict(op[1])
                            else op[3]] for op in res["ops"]]
        res["ok"] = (res["exit_code"] == 0
                     and res["summary"] == EXPECTED_SUMMARY)
    else:
        res["outcomes"] = [[op[1], op[3]] for op in res["ops"]]
        # "fail" is a certified result outside its tolerance (zsweep)
        # or a violated in-domain theorem (idchecks): a wrong answer
        res["ok"] = all(o != "fail" for _, o in res["outcomes"])
    return res


def measure(workload: str, launch: Launcher, inputs: Path, seconds: float,
            details: dict) -> tuple:
    """Alternate SETUPS_PER_CHILD fresh `import besselid.cli` and a fresh
    child doing its part of the fixed work, n_children times, so that
    every metric samples the whole run."""
    setup, children = [], []
    for k in range(n_children(workload, seconds)):
        setup += [_setup_child(launch, SETUPS_PER_CHILD * k + j)
                  for j in range(SETUPS_PER_CHILD)]
        children.append(work_child(workload, launch, inputs, k, f"child{k}"))

    latencies = [x for c in children for x in c["latencies"]]
    outcomes = [o for c in children for o in c["outcomes"]]
    failed = [o for o in outcomes if o[1] != "ok"]
    # every `report` child does the same work and must classify every
    # row alike and print the same bytes
    same = workload != "report" or all(
        c["outcomes"] == children[0]["outcomes"]
        and c["digest"] == children[0]["digest"] for c in children)
    correct = same and all(c["ok"] for c in children)
    details.update(
        setup_runs=setup,
        children=[{"wall_s": c["wall_s"], "wall_raw_s": c["wall_raw_s"],
                   "raw_op_s": sum(op[2] for op in c["ops"]),
                   "scaled_op_s": sum(c["latencies"]),
                   "probe_median_s": statistics.median(c["probes"]),
                   "probes": len(c["probes"]), "maxrss_kb": c["maxrss_kb"],
                   "ok": c["ok"],
                   **{key: c[key] for key in ("rounds", "errors", "exit_code",
                                              "summary", "digest")
                      if key in c}}
                  for c in children],
        tail=tail(latencies),
        outcomes_repeat=same,
        failed_ops=failed[:500])
    if workload == "report":
        details["stdout_sha256"] = children[0]["digest"]
    metrics = {
        "setup_s": statistics.median(x["s"] for x in setup),
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * details["tail"]["value"],
        "ok_frac": 1.0 - len(failed) / len(outcomes),
        "peak_rss_mb": statistics.median(
            c["maxrss_kb"] for c in children) / 1024,
    }
    return correct, len(outcomes), len(failed), metrics


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------

_STATS = {"calls": "calls", "points": "count", "evals": "count",
          "unconverged": "flag", "self_s": "self_s"}
_COUNT_STATS = ("calls", "count", "flag")


def _rate(children: list) -> float:
    latencies = [x for c in children for x in c["latencies"]]
    return len(latencies) / sum(latencies)


def layer_metrics(names: list, traced: list, base: list) -> dict:
    """Per-layer values: counts from the first traced child (the
    caller checks that the second repeats them), times as the mean of
    the traced children, each scaled by its median probe."""
    layers = [(t["layers"], scale(t["probes"])) for t in traced]
    empty = {"calls": 0, "count": 0, "flag": 0, "self_s": 0.0}

    def mean(fn, is_time=True):
        return statistics.fmean(fn(L) * (k if is_time else 1.0)
                                for L, k in layers)

    rate_traced, rate_base = _rate(traced), _rate(base)
    ratios = {
        "quad.converged_ratio": lambda L: 1.0 - sum(
            L.get(e, empty)["flag"] for e in QUAD_ENGINES) / max(1, sum(
                L.get(e, empty)["calls"] for e in QUAD_ENGINES)),
        "trace.unattributed_frac":
            lambda L: L["_derived"]["op_self_s"] / L["_derived"]["op_s"],
    }
    times = {
        "quad.integrand.s": lambda L: L["_derived"]["integrand_s"],
        "stieltjes.kernel_s": lambda L: L["_derived"]["kernel_s"],
        "trace.unattributed_s": lambda L: L["_derived"]["op_self_s"],
    }
    out = {"trace.ops_per_s_traced": rate_traced,
           "trace.ops_per_s_untraced": rate_base,
           "trace.overhead_frac": rate_base / rate_traced - 1.0}
    for name in names:
        if name in out:
            continue
        if name in ratios:
            out[name] = mean(ratios[name], is_time=False)
            continue
        if name in times:
            out[name] = mean(times[name])
            continue
        span, stat = name.rsplit(".", 1)
        key = _STATS[stat]
        if key in _COUNT_STATS:
            out[name] = layers[0][0].get(span, empty)[key]
        else:
            out[name] = mean(lambda L: L.get(span, empty)[key])
    return out


def count_mismatches(traced: list) -> list:
    a, b = (t["layers"] for t in traced[:2])
    bad = []
    for span in sorted(set(a) | set(b)):
        if span.startswith("_"):
            continue
        for key in _COUNT_STATS:
            va, vb = a.get(span, {}).get(key), b.get(span, {}).get(key)
            if va != vb:
                bad.append(f"{span}.{key}: {va} != {vb}")
    return bad


def traced_run(workload: str, launch: Launcher, inputs: Path, names: list,
               details: dict) -> tuple:
    """Two untraced and two traced children, alternating, each on part 0
    of the fixed work; counts must repeat exactly between the traced
    two."""
    children = {}
    for tag in ("base0", "trace0", "base1", "trace1"):
        spans = None
        if tag.startswith("trace"):
            spans = launch.out_dir / f"spans{tag[-1]}.npz"
        children[tag] = work_child(workload, launch, inputs, 0, tag, spans)
    base = [children["base0"], children["base1"]]
    traced = [children["trace0"], children["trace1"]]
    mismatches = count_mismatches(traced)
    first = base[0]
    # tracing must change no outcome (and not a byte of the report)
    correct = not mismatches and all(
        c["ok"] and c["outcomes"] == first["outcomes"]
        and c.get("digest") == first.get("digest")
        for c in children.values())
    outcomes = [o for c in children.values() for o in c["outcomes"]]
    failed = sum(1 for o in outcomes if o[1] != "ok")
    details.update(count_mismatches=mismatches,
                   spans=[t["layers"]["_derived"]["spans"] for t in traced],
                   per_op=traced[0]["layers"]["_per_op"],
                   layers=[t["layers"] for t in traced],
                   digests=[c.get("digest") for c in children.values()])
    for t in details["layers"]:
        del t["_per_op"]
    return correct, len(outcomes), failed, layer_metrics(names, traced, base)


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["report", "zsweep", "idchecks"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "besselid" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    details = {"args": vars(args), "machine": machine(),
               "loadavg_start": os.getloadavg(), "probe_start": speed_probe()}
    launch = Launcher(out_dir)
    # byte-compiles the package on a fresh checkout, and proves that
    # `besselid` comes from this checkout's src/
    built = launch.run(["-c", "import besselid.cli, besselid; "
                        "print(besselid.__file__)"], "build")
    origin = Path(built["stdout"].read_text().strip()).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"besselid imported from {origin}, not {SRC}")

    inputs = out_dir / "inputs.json"
    if args.workload == "report":
        payload = {"command": "besselid verify all --stable",
                   "seed": args.seed, "note": "default config; seed unused"}
    else:
        sys.path.insert(0, str(SRC))
        from workloads import make_inputs
        payload = make_inputs(args.workload, args.seed,
                              n_children(args.workload, args.seconds))
    inputs.write_text(json.dumps(payload))

    if args.trace:
        result = traced_run(args.workload, launch, inputs, list(units),
                            details)
    else:
        result = measure(args.workload, launch, inputs, args.seconds,
                         details)
    correct, attempted, failed, values = result
    details["loadavg_end"] = os.getloadavg()
    details["probe_end"] = speed_probe()
    details["result"] = {"correct": correct, "attempted": attempted,
                         "failed": failed, "metrics": values}
    with open(out_dir / "results.json", "w") as fh:
        json.dump(details, fh, indent=1)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
