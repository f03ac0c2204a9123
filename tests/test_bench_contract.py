"""The package names and report the benchmark in perfbench/ relies on.

perfbench/ is read here, never changed: its warm-up ops, its tracer and
its `report` child run against the package as it is.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REPORT = ROOT / "tests" / "data" / "verify_all_stable.json"

# the warm-up round of each warm workload, untraced and then again
# under the layer wrappers (as `--trace 1` runs it)
WARM_OPS_AND_TRACER = """
import json
import run, tracer, workloads

def warm_outcomes(run_op):
    outcomes = {}
    for w in ("zsweep", "idchecks"):
        inputs = workloads.make_inputs(w, 1, 1)["warmup"]
        for label, op in workloads.OPS[w](inputs):
            try:
                outcomes[label] = run_op(label, op)
            except Exception as exc:
                outcomes[label] = f"{type(exc).__name__}: {exc}"
    return outcomes

outcomes = warm_outcomes(lambda label, op: op())
t = tracer.Tracer()
tracer.install(t)
traced = warm_outcomes(t.run_op)
print(json.dumps({"outcomes": outcomes, "traced": traced,
                  "layers": t.summary(), "expected": run.EXPECTED_SUMMARY,
                  "expected_fail": sorted(run.EXPECTED_FAIL_ROWS)}))
"""


def _env():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def test_bench_warm_ops_tracer_and_report_child(tmp_path):
    proc = subprocess.run([sys.executable, "-c", WARM_OPS_AND_TRACER],
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["outcomes"]
    assert {label: v for label, v in got["outcomes"].items()
            if v not in ("ok", "inconclusive")} == {}
    assert got["traced"] == got["outcomes"]
    # one zsweep warm-up op per catalog entry with a kernel: nine with
    # Hankel terms, five Tricomi entries and K_RATIO
    assert got["layers"]["quad.integrate_oscillatory"]["calls"] == 15

    out = tmp_path / "report.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                    "report", "--out", str(out)], cwd=ROOT, env=_env(),
                   check=True, capture_output=True)
    report = json.loads(out.read_text())
    assert report["exit_code"] == 0
    assert report["summary"] == got["expected"]
    want = [r["id"] for r in json.loads(GOLDEN_REPORT.read_text())["rows"]]
    assert len(want) == 99
    assert sorted(op[1] for op in report["ops"]) == want
    for _, check_id, _, verdict, _ in report["ops"]:
        assert verdict == ("expected-fail" if check_id in got["expected_fail"]
                           else "pass"), check_id
