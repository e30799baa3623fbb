"""Acceptance suite: one test per criterion, one pass/fail line under -v.

Each test pins the advertised tolerance explicitly rather than trusting the
registry defaults, so a silent registry edit cannot weaken the gate.
"""

import json
import re
import subprocess
import sys
import time

import numpy as np

from harnacklab import checks, fields, geometry as geo, gridlab
from harnacklab.checks import run_check, run_suite
from harnacklab.geometry import field_data
from harnacklab.jet import jet_space
from harnacklab.solitons import CATALOG, build_context

JET_CHARTS = [n for n, s in CATALOG.items() if not s.grid_only]
SHRINKING = [n for n in JET_CHARTS if CATALOG[n].kind == "shrinking"]
STEADY_SYSTEM = ["cigar_flow", "cigar_flow_v2", "flat_steady_linear",
                 "flat_torus"]


def _ran(reports):
    out = [r for r in reports if r.status != checks.STATUS_SKIPPED]
    assert out, "criterion matched no runnable check/soliton pairs"
    return out


def _assert_all(reports, tol):
    for r in reports:
        assert r.status == checks.STATUS_PASS, \
            f"{r.check_id} on {r.soliton}: max={r.max_rel_residual:.3e}"
        assert r.max_rel_residual <= tol, \
            f"{r.check_id} on {r.soliton}: {r.max_rel_residual:.3e} > {tol:.1e}"


def test_accept_01_soliton_structure_identities():
    t0 = time.perf_counter()
    s1 = _ran(run_suite(checks=("CHK-S1",), solitons=JET_CHARTS))
    _assert_all(s1, 1e-9)
    assert len(s1) == 7
    s23 = _ran(run_suite(checks=("CHK-S2", "CHK-S3"), solitons=JET_CHARTS))
    _assert_all(s23, 1e-8)
    assert time.perf_counter() - t0 <= 5.0


def test_accept_02_matrix_harnack_contractions():
    for seed in (0, 1, 2):
        reps = _ran(run_suite(checks=("CHK-H1", "CHK-H2", "CHK-H3"),
                              solitons=("cigar_static", "cigar_flow"),
                              seed=seed))
        assert len(reps) == 6
        _assert_all(reps, 1e-8)


def test_accept_03_harnack_vanishing_on_solitons():
    h4 = _ran(run_suite(checks=("CHK-H4",), solitons=JET_CHARTS))
    assert len(h4) == 7
    _assert_all(h4, 1e-8)
    trace = _ran(run_suite(checks=("CHK-H4t",), solitons=JET_CHARTS))
    assert len(trace) == 7
    _assert_all(trace, 1e-9)


def test_accept_04_evolution_identity_and_brackets():
    reps = _ran(run_suite(checks=("CHK-EQ1",),
                          solitons=("cigar_flow", "flat_steady_linear")))
    assert len(reps) == 2
    _assert_all(reps, 1e-7)
    for r in reps:
        for k in range(1, 5):
            part = r.parts[f"vanishing_bracket_{k}"]
            assert part <= 1e-8, (r.soliton, k, part)


def test_accept_05_linear_trace_heat_equation():
    reps = _ran(run_suite(checks=("CHK-L1",), solitons=STEADY_SYSTEM))
    assert len(reps) == 4
    _assert_all(reps, 1e-7)


def test_accept_06_shrinker_damped_and_conserved_forms():
    reps = _ran(run_suite(checks=("CHK-L2",), solitons=SHRINKING))
    assert len(reps) == 2
    _assert_all(reps, 1e-7)
    for r in reps:
        assert r.parts["damped_heat"] <= 1e-7
        assert r.parts["conserved_form"] <= 1e-7
        assert r.parts["trace_evolution"] <= 1e-8


def test_accept_07_deformation_and_conjugate_density():
    r1 = _ran(run_suite(checks=("CHK-R1",),
                        solitons=("cigar_static", "gaussian_shrinker")))
    assert len(r1) == 2
    _assert_all(r1, 1e-8)
    r2 = _ran(run_suite(checks=("CHK-R2",), solitons=STEADY_SYSTEM))
    _assert_all(r2, 1e-7)
    with_soliton_part = [r for r in r2 if "soliton_potential" in r.parts]
    assert with_soliton_part, "no chart exercised the soliton potential route"
    for r in with_soliton_part:
        assert r.parts["soliton_potential"] <= 1e-9, (r.soliton, r.parts)


def test_accept_08_log_gradient_harnack_family():
    ids = ("CHK-B1", "CHK-B2", "CHK-B3", "CHK-B4", "CHK-B6", "CHK-B7",
           "CHK-B8")
    reps = _ran(run_suite(checks=ids, solitons=("cigar_flow_v2", "flat_torus")))
    assert len(reps) == 14
    _assert_all(reps, 1e-7)
    b6 = [r for r in reps if r.check_id == "CHK-B6"]
    for r in b6:
        eps_parts = {k: v for k, v in r.parts.items() if k.startswith("eps(")}
        assert len(eps_parts) == 6
        assert all(v <= 1e-7 for v in eps_parts.values()), eps_parts
    b5 = run_check("CHK-B5", "cigar_flow_v2", n_points=128)
    assert b5.status == checks.STATUS_PASS
    assert b5.n_points == 128
    assert float(np.max(b5.point_residuals)) == 0.0, \
        "trace bound violated at a sample point"


def test_accept_09_curvature_anchors():
    # round unit sphere in stereographic coordinates: R = 2
    sp = jet_space(2, 5)
    x, y = sp.variables(np.array([[0.3, -0.9, 0.2], [0.4, 0.1, -1.1]]))
    conf = 4.0 * ((1.0 + x * x + y * y) ** 2).reciprocal()
    zero = 0.0 * x
    sphere = geo.MetricChart([[conf, zero], [zero, conf]])
    assert np.max(np.abs(field_data(sphere.scalar_curvature) - 2.0)) < 1e-10

    # the Lichnerowicz laplacian annihilates any metric
    g00 = 1.0 + 0.2 * (x + 2.0 * y).sin()
    g01 = 0.15 * (2.0 * x - y).cos()
    g11 = 1.0 + 0.25 * (0.5 * x + y).cos()
    ch = geo.MetricChart([[g00, g01], [g01, g11]])
    lg = geo.lichnerowicz_laplacian(ch, geo.TensorValue(2, 0, ch.g))
    worst = max(np.max(np.abs(field_data(lg[i, j])))
                for i in range(2) for j in range(2))
    assert worst < 1e-10

    # along an exact Ricci flow the Ricci tensor obeys its linearized flow
    ctx = build_context("cigar_flow", n_points=16, order=6)
    lich = geo.lichnerowicz_laplacian(ctx.chart, ctx.chart.ricci)
    worst = max(np.max(np.abs(field_data(
        ctx.dt(ctx.chart.ricci[i, j]) - lich[i, j])))
        for i in range(2) for j in range(2))
    assert worst < 1e-9


def test_accept_10_grid_convergence_orders():
    t0 = time.perf_counter()
    reports = {r.check_id: r for r in gridlab.run_grid_suite(seed=0)}
    elapsed = time.perf_counter() - t0
    for cid in ("CHK-L1", "CHK-B2"):
        r = reports[cid]
        assert r.status == "pass", (cid, r.status, r.residuals)
        assert 3.3 <= r.fitted_order <= 4.7, (cid, r.fitted_order)
    eq1 = reports["CHK-EQ1"]
    assert eq1.status == "pass", (eq1.status, eq1.residuals)
    assert 3.3 <= eq1.fitted_order <= 4.7, eq1.fitted_order
    assert all(a > b for a, b in zip(eq1.residuals, eq1.residuals[1:]))
    assert elapsed <= 60.0, f"grid suite took {elapsed:.1f}s"


def test_accept_11_report_determinism():
    argv = [sys.executable, "-m", "harnacklab.cli", "check",
            "--points", "8", "--format", "json"]
    a = subprocess.run(argv, capture_output=True, text=True)
    b = subprocess.run(argv, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    strip = lambda s: re.sub(r'"millis": [0-9.e+-]+', '"millis": 0', s)
    assert strip(a.stdout) == strip(b.stdout)
    doc = json.loads(a.stdout)
    assert len(doc["reports"]) == len(checks.REGISTRY) * len(CATALOG)
    assert not any(r["status"] == "fail" for r in doc["reports"])
