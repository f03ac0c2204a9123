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
    # the engine's work on `verify all --stable`, exactly: a change to it
    # fails here until the pin moves with the reason.  points_dropped:
    # the contour engine's callers compute 74,564 weight values, of which
    # the engine keeps 61,700.  ml_passes, ml_ladders: the report
    # evaluates 22 Mittag-Leffler ladders in 14 passes, each SumLadder's
    # Mittag-Leffler parts in one.  boundary_points: the Tricomi kernels
    # hand the boundary modulus their points below t = 700 alone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "tools/engine_counts.py"),
                        "report"], env=env, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        "engine_calls": 44, "weight_calls": 252,
        "points_evaluated": 173851, "points_consumed": 173467,
        "points_dropped": 12864, "ml_passes": 14, "ml_ladders": 22,
        "boundary_points": 11921}


# every function that no traffic of tools/reach.py calls, with the
# reason it stays; a new one that only the tests reach fails below
_TRACER = "perfbench's tracer wraps it by name"
KEPT_UNREACHED = {
    "idtests.lt_value_complex": _TRACER,
    "distributions.hcm_profile": "the reference of the HCM ladder tests",
    "quad.result.QuadRows.n_evals": "perfbench's tracer and "
                                    "tools/engine_counts.py read it",
    "stieltjes.IdentityRecord.residual": "8 test call sites, which a test "
                                         "helper would only move",
    "stieltjes.IdentityRecord.laplace_density": "the acceptance and "
                                                "closed-form mass tests "
                                                "check the paper's densities "
                                                "through it",
    "stieltjes.IdentityRecord.kernel_mass": "as laplace_density",
}
# every defaulted parameter that no traced call sets to another value,
# with the caller that passes its default; a new one fails below
KEPT_PARAMETERS = {
    "idtests.Evidence.graded(converged)": "a row's convergence: true on "
                                          "every traced row, false in the "
                                          "inconclusive tests",
    "idtests.absmon_check(max_order)": "perfbench's ABSMON_ORDER, 6",
    "idtests.bernstein_check(max_order)": "the CLI's --max-order and "
                                          "perfbench's BERNSTEIN_ORDER, 8",
    "idtests.selfdecomp_check(max_order)": "the CLI's --max-order, 8",
    "quad.__init__.numeric_laplace(tol)": "perfbench's and the laplace "
                                          "rows' tol, 1e-10",
}


@pytest.fixture(scope="module")
def reach_report():
    """The sections of tools/reach.py's output: the statement counts,
    the unreached functions and the parameters no call sets."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "tools/reach.py")],
                       env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    head, rest = r.stdout.split("unreached functions:\n")
    return (head, *rest.split("defaulted parameters that no call sets:\n"))


def test_reach_lists_only_kept_functions(reach_report):
    head, unreached, _ = reach_report
    total = head.splitlines()[-1].split()
    assert total[0] == "total"
    hit, statements = map(int, total[1].split("/"))
    assert 0 < hit < statements
    assert sorted(unreached.split()) == sorted(KEPT_UNREACHED)


def test_reach_lists_only_kept_parameters(reach_report):
    assert sorted(reach_report[2].split()) == sorted(KEPT_PARAMETERS)
