"""Command-line interface: eval, verify, profile, zeros, landau."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import special as sp

from besselid import checks
from besselid.cli import RunConfig, main
from besselid.distributions import DIST_KINDS, laplace_closed, pdf
from besselid.errors import ConvergenceError, DomainError
from besselid.idtests import Evidence
from besselid.quad.tanhsinh import UNRESOLVED


@pytest.fixture()
def runner():
    return CliRunner()


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def test_eval_bessel_k(runner):
    r = runner.invoke(main, ["eval", "bessel_k", "nu=0.5", "x=1"])
    assert r.exit_code == 0
    want = np.sqrt(np.pi / 2.0) * np.exp(-1.0)
    assert float(r.output) == pytest.approx(want, rel=1e-14)


def test_eval_bessel_zero(runner):
    r = runner.invoke(main, ["eval", "bessel_zero", "nu=0", "n=1"])
    assert r.exit_code == 0
    assert float(r.output) == pytest.approx(2.404825557695773, abs=1e-10)


def test_eval_pdf_matches_library(runner):
    r = runner.invoke(main, ["eval", "pdf", "kind=gig", "mu=0.7", "a=1",
                             "b=1.5", "x=2"])
    assert r.exit_code == 0
    d = DIST_KINDS["gig"](0.7, 1.0, 1.5)
    assert float(r.output) == pytest.approx(float(pdf(d, 2.0)), rel=1e-14)


def test_eval_lt_closed_value(runner):
    r = runner.invoke(main, ["eval", "lt", "kind=mckay1", "mu=1", "a=1",
                             "b=2", "x=1"])
    assert r.exit_code == 0
    assert float(r.output) == pytest.approx((3.0 / 8.0) ** 1.5, rel=1e-14)


def test_eval_identity_lhs(runner):
    r = runner.invoke(main, ["eval", "lhs", "id=ik_equal", "mu=1", "z=1"])
    assert r.exit_code == 0
    want = 2.0 * sp.iv(1, 1.0) * sp.kv(1, 1.0)
    assert float(r.output) == pytest.approx(want, rel=1e-12)


def test_eval_ltspec(runner):
    r = runner.invoke(main, ["eval", "ltspec", "kind=ikmu", "mu=1", "x=1"])
    assert r.exit_code == 0
    want = 2.0 * sp.iv(1, 1.0) * sp.kv(1, 1.0)
    assert float(r.output) == pytest.approx(want, rel=1e-12)


def test_eval_usage_errors(runner):
    assert runner.invoke(main, ["eval", "no_such_fn", "x=1"]).exit_code == 2
    assert runner.invoke(main, ["eval", "bessel_k", "nu=1", "x=1",
                                "bogus=3"]).exit_code == 2
    assert runner.invoke(main, ["eval", "pdf", "kind=nope",
                                "x=1"]).exit_code == 2
    # domain errors surface as usage errors, not tracebacks
    assert runner.invoke(main, ["eval", "pdf", "kind=gig", "mu=0.7",
                                "a=1", "b=1.5", "x=-1"]).exit_code == 2


@pytest.mark.parametrize("args", [
    ["eval", "pdf", "kind=mckay1", "mu=abc", "a=0.5", "b=1.5", "x=1"],
    ["eval", "lhs", "id=IK_EQUAL", "mu=abc", "z=1"],
    ["profile", "IK_EQUAL", "mu=abc"],
    ["eval", "lt", "kind=mckay1", "mu=1", "a=0.5", "b=1.5", "x=nan"],
    ["eval", "tricomi_psi", "a=1", "c=0.5", "x=inf"],
    ["eval", "bessel_zero", "nu=0.5", "n=nan"],
], ids=["kind-param", "identity-param", "profile-param", "point", "special",
        "zero-index"])
def test_non_finite_numbers_are_usage_errors(runner, args):
    # every number passes one parser: text that is not a finite float is
    # a usage error, not a traceback or a nan printed with exit 0
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert "must be a finite number" in r.output


@pytest.mark.parametrize("args", [
    ["eval", "lt", "kind=gig", "mu=0.7", "a=1", "b=1.5", "x=-1"],
    ["eval", "lt", "kind=mckay1", "mu=1", "a=0.5", "b=1.5", "x=-1"],
    ["eval", "lt", "kind=mckay2", "mu=0.7", "a=0.6", "b=1.2", "x=-0.6"],
    ["eval", "bessel_j", "nu=0.5", "x=-1"],
], ids=["gig", "mckay1", "mckay2", "bessel_j"])
def test_points_off_the_domain_are_usage_errors(runner, args):
    # these printed nan or inf and exited 0
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert "requires finite x >= 0; got x = -" in r.output


def test_eval_bessel_zero_index_must_be_whole(runner):
    r = runner.invoke(main, ["eval", "bessel_zero", "nu=0.5", "n=2.7"])
    assert r.exit_code == 2, r.output
    assert "whole number" in r.output
    r = runner.invoke(main, ["eval", "bessel_zero", "nu=0.5", "n=2.0"])
    assert r.exit_code == 0, r.output
    assert float(r.output) == pytest.approx(2.0 * np.pi, rel=1e-15)


def test_eval_extended_domain_only_for_ik_prod(runner):
    ext = ["z=1", "extended_domain=1"]
    assert runner.invoke(main, ["eval", "lhs", "id=I_EXP"] + ext
                         ).exit_code == 2
    r = runner.invoke(main, ["eval", "lhs", "id=IK_PROD", "mu=0.2", "nu=1.5",
                             "a=0.5", "b=1"] + ext)
    assert r.exit_code == 0, r.output


# ----------------------------------------------------------------------
# zeros and landau
# ----------------------------------------------------------------------

def test_zeros_output(runner):
    r = runner.invoke(main, ["zeros", "--nu", "0", "--count", "3"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert len(lines) == 3
    assert float(lines[0].split()[1]) == pytest.approx(2.404825557695773,
                                                       abs=1e-10)


def test_zeros_bad_order(runner):
    assert runner.invoke(main, ["zeros", "--nu", "-2", "--count",
                                "3"]).exit_code == 2


def test_landau_output(runner):
    r = runner.invoke(main, ["landau"])
    assert r.exit_code == 0
    assert float(r.output) == pytest.approx(0.7857468704, abs=1e-8)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _report(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code in (0, 1, 3), r.output
    return r.exit_code, json.loads(r.output)


def test_verify_landau_subset(runner):
    code, rep = _report(runner, ["verify", "idtests", "--only", "landau",
                                 "--stable"])
    assert code == 0
    assert rep["version"] == 1
    assert rep["scope"] == "idtests"
    ids = [row["id"] for row in rep["rows"]]
    assert "landau:constant" in ids
    assert all(row["verdict"] == "pass" for row in rep["rows"])
    assert rep["summary"]["fail"] == 0
    assert ids == sorted(ids)


def test_verify_identity_subset(runner):
    code, rep = _report(runner, ["verify", "identities", "--only",
                                 "identity:IK_EQUAL", "--stable"])
    assert code == 0
    [row] = rep["rows"]
    assert row["verdict"] == "pass"
    assert row["anchor"] == "eq. (eqprod1)"
    assert row["margin"] > 0.0


def test_verify_expected_fail_row(runner):
    code, rep = _report(runner, ["verify", "idtests", "--only",
                                 "pick-witness:zeta", "--stable"])
    assert code == 0
    [row] = rep["rows"]
    assert row["verdict"] == "expected-fail"
    assert row["witness"] is not None


GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all_stable.json"


def _assert_matches_golden(got, want, where="report"):
    """Same structure, strings and flags exactly; numbers to rel 1e-9."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), where
    else:
        assert got == want and type(got) is type(want), where


def test_verify_all_matches_golden_report(runner):
    # the committed report pins every id, params, anchor and verdict of
    # `besselid verify all --stable`, and every number to rel 1e-9
    code, rep = _report(runner, ["verify", "all", "--stable"])
    assert code == 0
    want = json.loads(GOLDEN_REPORT.read_text())
    assert [r["id"] for r in rep["rows"]] == [r["id"] for r in want["rows"]]
    _assert_matches_golden(rep, want)


def test_verify_all_verdicts_hold_without_avx512():
    # with numpy's AVX-512 loops switched off some margins move in their
    # last digits, so the golden margins hold at one dispatch level only;
    # ids, params, verdicts and the summary must hold at every level.
    # numpy ignores the feature names it does not know, so this runs on
    # any machine
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run(
        [sys.executable, "-m", "besselid.cli", "verify", "all", "--stable"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads(GOLDEN_REPORT.read_text())

    def rows(rep):
        return [(r["id"], r["params"], r["verdict"]) for r in rep["rows"]]

    assert rows(got) == rows(want)
    assert got["summary"] == want["summary"]


def test_engine_tests_pass_without_avx512():
    # the quadrature, Stieltjes, acceptance and idtests tests under
    # numpy's AVX2 loops, as on an x86-64 machine without AVX-512: no
    # library call may return a value at one dispatch level and raise at
    # another, and no sign check may change its verdict.  This file is
    # not among them, so the test does not run itself
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    files = [str(root / "tests" / f"test_{name}.py")
             for name in ("quad", "stieltjes", "acceptance", "idtests")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *files], cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]


def test_verify_identities_wide_grid(runner):
    # z in 1e-6..1e6: no fail, and every inconclusive row names the
    # engine's resolution reason; only the three entries whose left side
    # falls to e^{-250} or below by z = 1e6 are inconclusive
    r = runner.invoke(main, ["verify", "identities", "--stable",
                             "--grid", "1e-6:1e6:13"])
    rows = json.loads(r.output)["rows"]
    assert r.exit_code == 3
    assert len(rows) == 17
    assert not [row["id"] for row in rows if row["verdict"] == "fail"]
    open_rows = [row for row in rows if row["verdict"] == "inconclusive"]
    assert sorted(row["id"] for row in open_rows) == [
        "identity:IK_EXP", "identity:IK_PROD", "identity:KK_PROD"]
    for row in open_rows:
        assert UNRESOLVED in row["witness"], row


IMPORT_GUARD = """
import contextlib, io, json, sys
import besselid.cli as cli
from besselid import specfun
seen = ["scipy.optimize" in sys.modules]
# verify returns its exit code through click, without SystemExit
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "all", "--stable"], standalone_mode=False)
seen.append("scipy.optimize" in sys.modules)
print(json.dumps({"code": code, "optimize": seen,
                  "orders": sorted(specfun._zero_cache)}))
"""


def test_cli_never_imports_scipy_optimize():
    # a fresh interpreter, so that no module the test session imported
    # counts
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], cwd=root,
                          env=env, capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["optimize"] == [False, False]
    assert got["code"] == 0
    # the report scanned for the low zeros of orders above 1, whose
    # bracket midpoints Newton's method polishes
    assert {1.1, 1.2} <= set(got["orders"])


def test_verify_broken_check_becomes_fail_row(runner, monkeypatch):
    # an unexpected exception in one check fails that row only
    def broken():
        raise DomainError("broken check")

    table = checks.table

    def landau_and_broken(scope, cfg):
        return [c for c in table(scope, cfg) if "landau" in c.id] \
            + [checks.Check("broken:check", "Lemma 0", "x=1", broken)]

    monkeypatch.setattr(checks, "table", landau_and_broken)
    code, rep = _report(runner, ["verify", "idtests", "--stable"])
    assert code == 1
    rows = {row["id"]: row for row in rep["rows"]}
    assert rows.pop("broken:check") == {
        "id": "broken:check", "params": "x=1", "anchor": "Lemma 0",
        "verdict": "fail", "margin": None,
        "witness": "DomainError: broken check"}
    assert len(rows) == 4
    assert all(row["verdict"] == "pass" for row in rows.values())
    assert rep["summary"] == {"pass": 4, "fail": 1, "expected-fail": 0,
                              "inconclusive": 0}


def test_verify_inconclusive_row_exits_3(runner, monkeypatch):
    def unconverged():
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(checks, "table", lambda scope, cfg: [
        checks.Check("stuck:check", "Lemma 0", "x=1", unconverged)])
    args = ["verify", "idtests", "--stable"]
    r = runner.invoke(main, args)
    assert r.exit_code == 3
    assert json.loads(r.output)["rows"][0]["verdict"] == "inconclusive"
    assert runner.invoke(main, args + ["--allow-inconclusive"]).exit_code == 0


def test_verify_stable_is_deterministic(runner):
    args = ["verify", "idtests", "--only", "landau", "--stable"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_verify_rows_omit_seconds_only_when_stable(runner):
    _, rep = _report(runner, ["verify", "idtests", "--only", "landau"])
    assert all("seconds" in row for row in rep["rows"])
    _, rep = _report(runner, ["verify", "idtests", "--only", "landau",
                              "--stable"])
    assert all("seconds" not in row for row in rep["rows"])


def test_verify_csv_format(runner):
    r = runner.invoke(main, ["verify", "idtests", "--only", "landau",
                             "--stable", "--format", "csv"])
    assert r.exit_code == 0
    header = r.output.splitlines()[0]
    assert header == "id,params,anchor,verdict,margin,witness"
    # byte for byte the JSON report's rows under that header, a list
    # witness joined by spaces
    for only in ("landau", "pick-witness:zeta"):
        args = ["verify", "idtests", "--only", only, "--stable"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header.split(","))
        writer.writeheader()
        for row in json.loads(runner.invoke(main, args).output)["rows"]:
            if isinstance(row["witness"], list):
                row["witness"] = " ".join(f"{v:g}" for v in row["witness"])
            writer.writerow(row)
        csv_out = runner.invoke(main, args + ["--format", "csv"])
        assert csv_out.stdout_bytes == buf.getvalue().encode(), only


def test_verify_only_without_match(runner):
    r = runner.invoke(main, ["verify", "all", "--only", "zzz-nothing"])
    assert r.exit_code == 2


def test_verify_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stable = true\nonly = landau:constant\n")
    r = runner.invoke(main, ["verify", "idtests", "--config", str(cfg)])
    assert r.exit_code == 0
    rep = json.loads(r.output)
    assert [row["id"] for row in rep["rows"]] == ["landau:constant"]
    # flags override the file
    r = runner.invoke(main, ["verify", "idtests", "--config", str(cfg),
                             "--only", "landau:bound:1"])
    rep = json.loads(r.output)
    assert [row["id"] for row in rep["rows"]] == ["landau:bound:1"]
    cfg.write_text("stable = true\nonly = landau:constant\nformat = csv\n")
    r = runner.invoke(main, ["verify", "idtests", "--config", str(cfg),
                             "--format", "json"])
    assert json.loads(r.output)["config"]["format"] == "json"
    # the keys are verify's long option names, with - or _, in both line
    # forms
    for text in ("max-order 4", "max_order = 4", "max-order = 4",
                 "allow_inconclusive true", "tol-tight 0.001"):
        cfg.write_text(f"stable = true\nonly = landau:constant\n{text}\n")
        r = runner.invoke(main, ["verify", "idtests", "--config", str(cfg)])
        assert r.exit_code == 0, (text, r.output)
        key, val = text.replace("=", " ").split()
        setting = json.loads(r.output)["config"][key.replace("-", "_")]
        assert str(setting).lower() == val, text
    # the thread pool and the hard tolerance class are gone, and so are
    # their config keys; so are the old grid_* and fmt keys; a value the
    # flag would reject is a usage error in the file too
    for text in ("threads = 2", "tol_hard = 1e-4", "max_order = abc",
                 "tol_tight = -1", "tol_tight = nan", "format = xml",
                 "stable = ture", "grid_lo = 0.5", "grid = 1:10:3\ngrid_n = 5",
                 "fmt = csv", "config = other.cfg"):
        cfg.write_text(f"stable = true\n{text}\n")
        r = runner.invoke(main, ["verify", "idtests", "--config", str(cfg)])
        assert r.exit_code == 2, text
    assert runner.invoke(main, ["verify", "idtests", "--tol-tight",
                                "-1"]).exit_code == 2
    # a directory is no config file (it raised IsADirectoryError)
    assert runner.invoke(main, ["verify", "idtests", "--config",
                                str(tmp_path)]).exit_code == 2
    assert runner.invoke(main, ["verify", "idtests", "--tol-hard",
                                "1e-4"]).exit_code == 2


@pytest.mark.parametrize("order", ("-1", "0"))
def test_verify_max_order_below_one_is_usage_error(runner, order):
    # order 0 would test no derivative of phi' at all, and a negative
    # order used to become a failing row
    r = runner.invoke(main, ["verify", "idtests", "--max-order", order,
                             "--only", "bernstein:rho"])
    assert r.exit_code == 2, r.output


@pytest.mark.parametrize("grid", ["1:inf:3", "nan:1:3", "0:1:3", "-1:1:3",
                                  "10:1:3", "1:10:-2", "1:10:0"])
def test_bad_grid_is_a_usage_error(runner, tmp_path, grid):
    # one check for verify's flag and config file and for profile: a
    # non-finite end, lo <= 0, hi < lo or n < 1 is a usage error that
    # names the grid, not failing rows or a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid = {grid}\n")
    for args in (["verify", "identities", "--grid", grid],
                 ["verify", "identities", "--config", str(cfg)],
                 ["profile", "IK_EQUAL", "--grid", grid]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, (args, r.output)
        assert f"grid {grid} needs finite" in r.output, args


def test_verify_exit_code_is_returned_through_click(capsys):
    # a library caller gets the code back instead of a SystemExit
    code = main(["verify", "idtests", "--only", "landau", "--stable"],
                standalone_mode=False)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["summary"]["pass"] == 4


def test_every_check_returns_evidence():
    for c in checks.table("all", RunConfig()):
        assert isinstance(c.run(), Evidence), c.id


def test_check_table_ids_anchors_and_only_selection():
    table = checks.table("all", RunConfig())
    ids = [c.id for c in table]
    assert len(ids) == len(set(ids)) == 99
    assert all(c.anchor for c in table)

    def only(text):
        return sorted(i for i in ids if text in i)

    assert only("identity:IK") == ["identity:IK_EQUAL", "identity:IK_EXP",
                                   "identity:IK_PROD", "identity:IK_QUOT"]
    assert only("landau") == ["landau:bound:0.5", "landau:bound:1",
                              "landau:bound:3", "landau:constant"]
    assert only("selfdecomp:kdist") == ["selfdecomp:kdist:0.25",
                                        "selfdecomp:kdist:0.5",
                                        "selfdecomp:kdist:0.75"]


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------

def test_profile_identity(runner):
    r = runner.invoke(main, ["profile", "TRICOMI_Cp1", "a=1.5", "c=0.5",
                             "--grid", "0.5:5:3"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0].split(",")[0] == "z"
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-6


GOLDEN_PROFILE = Path(__file__).parent / "data" / "profile_ik_equal.csv"


def test_profile_ik_equal_matches_golden(runner):
    # the default 25-point z sweep on one record, byte for byte
    r = runner.invoke(main, ["profile", "IK_EQUAL"])
    assert r.exit_code == 0
    assert r.stdout_bytes == GOLDEN_PROFILE.read_bytes()


def test_profile_distribution_lt(runner):
    r = runner.invoke(main, ["profile", "lt", "kind=mckay1", "mu=1",
                             "a=0.5", "b=1.5", "--grid", "0.5:2:3"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    d = DIST_KINDS["mckay1"](1.0, 0.5, 1.5)
    z0, lhs0 = (float(v) for v in lines[1].split(",")[:2])
    assert lhs0 == pytest.approx(float(laplace_closed(d, z0)), rel=1e-12)
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1e-7


def test_profile_unknown_target(runner):
    assert runner.invoke(main, ["profile", "nonsense"]).exit_code == 2
