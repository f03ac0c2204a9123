"""The scripts under tools/ import private names of the package: each
must still import and parse its arguments, and the ladder sweep and the
engine counts run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from besselid.idtests import bernstein_targets

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "tools").glob("*.py")),
                         ids=lambda p: p.name)
def test_tool_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(script), "--help"], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "usage:" in r.stdout


def test_ladder_sweep_prints_every_bernstein_target():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "tools/ladder_sweep.py"),
                        "--repeats", "1"], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    head, *rows = r.stdout.splitlines()
    assert head.startswith("median ")
    assert [row.split()[0] for row in rows] == [
        label for label, _ in bernstein_targets()]


def test_engine_counts_of_the_report():
    # every point consumed by a row was evaluated by a weight call
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "tools/engine_counts.py"),
                        "report"], env=env, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    counts = json.loads(r.stdout)
    assert counts["weight_calls"] >= counts["engine_calls"] > 0
    assert counts["points_evaluated"] >= counts["points_consumed"] > 0


# every function that no invocation of tools/reach.py calls, with the
# reason it stays; a new one that only the tests reach fails below
_TRACER = "perfbench's tracer wraps it by name"
_API = "library API that only the tests call"
KEPT_UNREACHED = {
    "idtests.lt_value_complex": _TRACER,
    "specfun.tricomi_psi_boundary": _TRACER,
    "specfun.BoundaryPsiPair.modulus_sq": "of the pair that "
                                          "tricomi_psi_boundary returns",
    "distributions.hcm_profile": _API,
    "idtests.neg_logderiv": _API,
    "idtests.Evidence.passed": _API,
    "quad.result.QuadResult.__float__": _API,
    "quad.result.QuadRows.n_evals": _API,
    "smoothfn.Ladder.value": _API,
    "smoothfn.Ladder.__neg__": _API,
    "smoothfn.Ladder.__sub__": _API,
    "stieltjes.default_params": _API,
    "stieltjes.IdentityRecord.residual": _API,
    "stieltjes.IdentityRecord.laplace_density": _API,
    "stieltjes.IdentityRecord.kernel_mass": _API,
}


def test_reach_lists_only_kept_functions():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "tools/reach.py")],
                       env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    head, unreached = r.stdout.split("unreached functions:\n")
    total = head.splitlines()[-1].split()
    assert total[0] == "total"
    hit, statements = map(int, total[1].split("/"))
    assert 0 < hit < statements
    assert sorted(unreached.split()) == sorted(KEPT_UNREACHED)
