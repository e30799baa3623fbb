"""Smoke test of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload for one short untraced and one short traced run (a few
minutes in all) and checks that each run emits exactly the metrics declared
in BENCHMARK.json, that layer isolation holds, that computed counts and
residual digests repeat on one seed, and that the benchmark refuses to run
without the package sources.
"""

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COMPUTED = ("jet.mul.calls", "jet.mul.madds", "jet.mul.bytes_computed",
            "jet.mul.useful_frac", "gridlab.rk4.steps", "gridlab.deriv.evals",
            "gridlab.field_ops", "gridlab.rk4.dt_margin") \
    + tuple(f"jet.mul.by_validity.v{v}" for v in range(7))


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, attempt: int = 0) -> tuple:
    """(final JSON line, full record) of one short run with seed 5; a new
    ``attempt`` runs it again instead of reusing the cached result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"BENCH_{workload}_trace{trace}.json").read_text())
    return result, record


def test_workloads_match_declaration():
    import importlib
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[:2]
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


def test_end_to_end_metrics_on_every_workload():
    names = {m["name"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        result, record = run(workload, 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names, workload
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)
        assert record["provenance"]["cpu_count"] >= 1


def test_per_layer_metrics_and_isolation():
    names = {m["name"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        result, _ = run(workload, 1)
        assert result["correct"], workload
        assert set(result["metrics"]) == names, workload
    metric = {w: {k: v["value"] for k, v in run(w, 1)[0]["metrics"].items()}
              for w in WORKLOADS}
    assert metric["grid_convergence"]["jet.mul.calls"] == 0
    assert metric["grid_convergence"]["gridlab.rk4.steps"] > 0
    for workload in ("jet_registry", "jet_wide"):
        assert metric[workload]["gridlab.rk4.steps"] == 0
        assert metric[workload]["jet.mul.calls"] > 0


def test_counts_and_digests_repeat_on_one_seed():
    for workload in WORKLOADS:
        (first, first_record), (again, again_record) = \
            run(workload, 1), run(workload, 1, attempt=1)
        for name in COMPUTED:
            assert first["metrics"][name] == again["metrics"][name], \
                (workload, name)
        digests = {p["seed"]: p["digest"] for p in first_record["passes"]}
        for p in again_record["passes"]:
            if p["seed"] in digests:
                assert p["digest"] == digests[p["seed"]], (workload, p["seed"])


def test_refuses_to_run_without_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
