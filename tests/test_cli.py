import ast
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import harnacklab
from harnacklab import __version__, gridlab
from harnacklab.checks import CheckReport
from harnacklab.cli import (MAX_GRID_SIZE, MAX_POINTS, _json_doc, build_parser,
                            main)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse's own exits: usage errors, --help
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(["check", "--format", "yaml"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args([])
    assert e.value.code == 2


def test_help_keeps_its_usage_text(capsys):
    code, out, err = run_cli(capsys, "check", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: harnacklab check") and "--points" in out


def test_list_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "cigar_static" in out and "CHK-H4t" in out
    code, out, _ = run_cli(capsys, "list", "--format", "json")
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert len(doc["checks"]) == 21 and len(doc["solitons"]) == 8
    assert doc["grid_checks"] == ["CHK-L1", "CHK-B2", "CHK-EQ1"]


def test_check_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "CHK-S1", "--soliton",
                           "cigar_static", "--points", "4")
    assert code == 0
    assert "[ok ]" in out and "0 failed" in out


def test_check_unknown_ids_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "CHK-NOPE")
    assert code == 2 and "CHK-NOPE" in err
    code, _, err = run_cli(capsys, "check", "CHK-S1", "--soliton", "moebius")
    assert code == 2 and "moebius" in err


def test_check_forced_failure_exit_one(capsys):
    code, out, _ = run_cli(capsys, "check", "CHK-S1", "--soliton",
                           "cigar_static", "--points", "4",
                           "--tolerance", "1e-300")
    assert code == 1
    assert "FAIL" in out


def test_check_json_schema(capsys):
    code, out, _ = run_cli(capsys, "check", "CHK-H4", "--soliton",
                           "cigar_static", "--points", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["config", "reports", "seed", "version"]
    row = doc["reports"][0]
    assert row["check_id"] == "CHK-H4" and row["status"] == "pass"
    assert row["n_points"] == 4 and row["max_rel_residual"] <= row["tolerance"]


def test_check_json_deterministic_mod_millis(capsys):
    argv = ("check", "CHK-H4", "CHK-S1", "--soliton", "cigar_flow",
            "--points", "4", "--format", "json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    strip = lambda s: re.sub(r'"millis": [0-9.e+-]+', '"millis": 0', s)
    assert strip(out1) == strip(out2)


def test_check_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "check", "CHK-H4", "CHK-L2", "--soliton",
                           "cigar_static", "--points", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check_id", "soliton", "point_index", "residual"]
    # the skipped pair contributes no rows; the ran pair one row per point
    assert len(rows) == 1 + 5
    assert all(r[0] == "CHK-H4" and r[1] == "cigar_static" for r in rows[1:])
    assert [int(r[2]) for r in rows[1:]] == list(range(5))
    assert all(float(r[3]) < 1e-8 for r in rows[1:])


def test_check_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "check", "CHK-S1", "--soliton",
                           "cigar_static", "--points", "4",
                           "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["reports"][0]["status"] == "pass"


@pytest.mark.parametrize("command", [
    ("list",), ("check", "CHK-S1", "--points", "2"), ("grid", "CHK-L1")])
@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_unwritable_output_exit_two_before_any_work(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    where):
    def no_work(*args, **kwargs):
        raise AssertionError("checks ran")
    monkeypatch.setattr(harnacklab.checks, "run_suite", no_work)
    monkeypatch.setattr(harnacklab.gridlab, "run_grid_check", no_work)
    target = tmp_path / "nope" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(capsys, *command, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: --output") and err.count("\n") == 1, err


def test_grid_csv_and_exit(capsys):
    code, out, _ = run_cli(capsys, "grid", "CHK-L1", "--sizes", "32", "64",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check_id", "n", "residual", "observed_order"]
    assert [r[1] for r in rows[1:]] == ["32", "64"]
    assert float(rows[1][2]) > float(rows[2][2])


def test_grid_csv_observed_order_is_pairwise(capsys):
    code, out, _ = run_cli(capsys, "grid", "CHK-L1", "--sizes", "32", "40",
                           "48", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    want = gridlab.run_grid_check("CHK-L1", seed=0, grid_sizes=(32, 40, 48))
    assert [r[3] for r in rows] == \
        [""] + [repr(float(p)) for p in want.pairwise_orders]
    assert rows[1][3] != rows[2][3]


def test_report_succeeds_with_a_summary_of_its_reports(capsys, monkeypatch):
    # the whole report, its grid suite at sizes (26, 32) to keep it short
    suite = gridlab.run_grid_suite
    monkeypatch.setattr(gridlab, "run_grid_suite",
                        lambda seed=0: suite(seed=seed, grid_sizes=(26, 32)))
    code, out, err = run_cli(capsys, "report", "--points", "4",
                             "--format", "json")
    doc = _strict_json(out)
    assert err == ""
    ran = [r for r in doc["checks"] if r["status"] != "skipped"]
    failures = (sum(r["status"] == "fail" for r in doc["checks"])
                + sum(r["status"] != "pass" for r in doc["grid"]))
    assert len(ran) == 102
    assert [r["grid_sizes"] for r in doc["grid"]] == [[26, 32]] * 3
    assert doc["summary"] == {"checks_run": len(ran),
                              "checks_skipped": len(doc["checks"]) - len(ran),
                              "failures": failures}
    assert code == (1 if failures else 0)
    code, out, err = run_cli(capsys, "report", "--points", "4",
                             "--format", "text")
    assert code == (1 if failures else 0) and err == ""
    assert out.rstrip("\n").endswith(f"\n\ntotal failures: {failures}")


def test_grid_bad_sizes_exit_two(capsys):
    code, _, err = run_cli(capsys, "grid", "CHK-L1", "--sizes", "16")
    assert code == 2 and "need n >=" in err


def test_grid_unknown_scenario_exit_two(capsys):
    code, _, err = run_cli(capsys, "grid", "CHK-H4")
    assert code == 2 and "CHK-H4" in err


@pytest.mark.parametrize("argv", [
    ("check", "--points", "0"),
    ("check", "--order", "1"),
    ("check", "CHK-EQ1", "--order", "3"),
    ("check", "CHK-S1", "--seed", "-1"),
    ("report", "--order", "-1"),
    ("grid", "--sizes", "64"),
    ("grid", "--sizes", "64", "32"),
    ("grid", "--sizes", "32", "32"),
    ("grid", "CHK-B2", "--sizes", "32", "32", "--format", "json"),
    ("check", "CHK-NOPE"),
    ("check", "--suite"),
    ("check", "CHK-S1", "--soliton", "nope"),
    ("grid", "CHK-S1"),
    # rejected by argparse itself
    ("check", "--points", "abc"),
    ("report", "--format", "csv"),
    ("bogus",),
    ("check", "--bogus"),
    (),
])
def test_bad_input_exit_two_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the message itself: str() of a KeyError is its repr, in quotes
    assert err[len("error: ")] != '"' and err.rstrip("\n")[-1] != '"', err


@pytest.mark.parametrize("tolerance", ["-1", "0", "-0.0", "nan", "inf", "-inf"])
def test_tolerance_not_finite_and_positive_exit_two(capsys, monkeypatch,
                                                     tolerance):
    def no_work(*args, **kwargs):
        raise AssertionError("checks ran")
    monkeypatch.setattr(harnacklab.checks, "run_suite", no_work)
    code, out, err = run_cli(capsys, "check", "CHK-S1", "--points", "2",
                             f"--tolerance={tolerance}")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: --tolerance")


@pytest.mark.parametrize("argv", [
    ("check", "CHK-S1", "--points", "2", "--order", "7"),
    ("report", "--order", "100"),
])
def test_order_above_the_default_exit_two(capsys, monkeypatch, argv):
    # each check's lowest working order is at most the default, and a far
    # higher one builds a product table too large for memory
    def no_work(*args, **kwargs):
        raise AssertionError("checks ran")
    monkeypatch.setattr(harnacklab.checks, "run_suite", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: --order")


def test_too_low_order_names_the_check(capsys):
    _, _, err = run_cli(capsys, "check", "CHK-EQ1", "--order", "3")
    assert "CHK-EQ1" in err and "order 3" in err


@pytest.mark.parametrize("var,context", [("t", {}),
                                         ("s", {"time": "const", "deform": True})])
def test_degree_cap_overrun_names_the_variable(capsys, monkeypatch, var, context):
    # a check that differentiates twice in t (or s) overruns the context's
    # degree cap; no --order fixes that, so the message must not suggest it
    def twice(ctx):
        d = ctx.dt if var == "t" else ctx.ds
        return {"value": d(d(ctx.f)).value()}
    spec = dataclasses.replace(harnacklab.checks.REGISTRY["CHK-S1"],
                               applies=lambda s: True, runner=twice,
                               context=context)
    monkeypatch.setitem(harnacklab.checks.REGISTRY, "CHK-S1", spec)
    code, out, err = run_cli(capsys, "check", "CHK-S1", "--soliton",
                             "cigar_flow", "--points", "2", "--order", "6")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"CHK-S1 on cigar_flow takes more than 1 derivative(s) in {var}" in err
    assert "order" not in err


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"invalid JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def test_json_doc_writes_non_finite_as_null_and_fails_the_report():
    nan = float("nan")
    grid = gridlab.ConvergenceReport(
        "CHK-B2", "cigar_static", 0, (32, 64), (1e-3, nan), (nan,), nan,
        (3.5, None), gridlab.STATUS_PASS, 0.05, 1.0)
    check = CheckReport("CHK-S1", "cigar_static", 0, 4, 1e-10, "pass", nan,
                        math.inf, 1.0, parts={"a": -math.inf})
    fine = CheckReport("CHK-S1", "flat_torus", 0, 4, 1e-10, "pass", 0.0,
                       0.0, 1.0)
    doc = _strict_json(_json_doc({"grid": [grid.to_dict()], "checks": [
        check.to_dict(), fine.to_dict()]}))
    g = doc["grid"][0]
    assert g["residuals"] == [1e-3, None] and g["pairwise_orders"] == [None]
    assert g["fitted_order"] is None and g["order_band"] == [3.5, None]
    assert g["status"] == "fail"
    c = doc["checks"][0]
    assert c["max_rel_residual"] is None and c["parts"] == {"a": None}
    assert c["status"] == "fail"
    assert doc["checks"][1]["status"] == "pass"


def _child_env():
    """The environment of a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(harnacklab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


_BLOCK_SCIPY = """
import sys

class _RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, _RefuseScipy())
from harnacklab.cli import main
code = main(sys.argv[1:])
if any(m == "scipy" or m.startswith("scipy.") for m in sys.modules):
    sys.exit("a scipy module was loaded")
sys.exit(code)
"""


def test_check_runs_with_scipy_blocked():
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY, "check", "CHK-S1", "--points", "2"],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "7 run, 1 skipped, 0 failed"


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy():
    root = pathlib.Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert files
    offenders = [(str(f.relative_to(root)), name) for f in files
                 for name in _imported_modules(f)
                 if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_python_dash_m_runs_the_cli():
    env = _child_env()
    proc = subprocess.run([sys.executable, "-m", "harnacklab", "list"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("solitons:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_closed_stdout_exits_one_without_traceback():
    env = _child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from harnacklab.cli import main; "
             "sys.exit(main(['list']))"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Error" not in proc.stderr, \
        proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ("list",),
    ("check", "CHK-S1", "--soliton", "cigar_static", "--points", "2",
     "--format", "json"),
])
def test_full_stdout_exits_one_with_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "harnacklab", *argv],
                              env=_child_env(), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_output_file_exits_one_with_one_line():
    proc = subprocess.run(
        [sys.executable, "-m", "harnacklab", "list", "--output", "/dev/full"],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv, option", [
    (("check", "CHK-S1", "--points", str(MAX_POINTS + 1)), "--points"),
    (("report", "--points", str(MAX_POINTS + 1)), "--points"),
    (("grid", "--sizes", "32", str(MAX_GRID_SIZE + 1)), "--sizes"),
])
def test_size_above_its_ceiling_exit_two_before_any_work(capsys, monkeypatch,
                                                         argv, option):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    for module, name in ((harnacklab.checks, "run_suite"),
                         (harnacklab.gridlab, "run_grid_check"),
                         (harnacklab.gridlab, "run_grid_suite"),
                         (harnacklab.solitons, "sample_points")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} must") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, option, ceiling", [
    ("check", "--points", MAX_POINTS), ("report", "--points", MAX_POINTS),
    ("grid", "--sizes", MAX_GRID_SIZE)])
def test_help_states_each_ceiling(capsys, command, option, ceiling):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert option in text and str(ceiling) in text
