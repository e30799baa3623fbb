"""harnacklab benchmark: one run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload jet_registry --seed 0 --seconds 25 --trace 0

Workloads, metric names, units and bounds are declared in ``BENCHMARK.json``
at the repository root. Nothing is built: every pass runs in a fresh
interpreter with ``src`` on its path and one BLAS/OpenMP thread, closed loop,
one after another, until ``--seconds`` have passed. Pass k uses the seed
plus k.

``--trace 0`` gives the end-to-end metrics. ``setup_s`` is the median time
from starting a pass's interpreter until its set-up is done; the timed pass
follows in the same process.
``--trace 1`` gives the per-layer metrics: cold CLI starts, then passes
that alternate traced and untraced. Layer figures come from the traced
passes, ``process.*`` from the untraced ones, and the run reports its own
tracing overhead (traced minus untraced median pass time). Tracing only adds
work, so a traced median more than ``PERTURBED_FRAC`` below the untraced one
means the tracer changed how the program runs; the run then warns and says so
in its record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(provenance, every pass with its residual digest, and for traced runs the
spans of the first traced pass) is written under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import procs
from procs import OUT, ROOT, SRC

CLI_REPEATS = 3
PERTURBED_FRAC = 0.1


def _git_commit() -> str:
    # A checkout without .git of its own may sit inside another repository.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> dict:
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit()}


def closed_loop(run_pass, seconds: float) -> list:
    """Run passes k = 0, 1, ... back to back until ``seconds`` have passed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(len(passes)))
    return passes


def untraced_run(name: str, seed: int, seconds: float):
    passes = closed_loop(lambda k: procs.run_pass(name, seed + k, False),
                         seconds)
    # Each verdict's median over the passes, so that the percentiles below
    # rank the same verdicts in every run instead of mixing neighbours.
    keys = {key for p in passes for key in p["verdict_ms"]}
    verdicts = [statistics.median(p["verdict_ms"][key] for p in passes
                                  if key in p["verdict_ms"]) for key in keys]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "verify_s_p50": statistics.median(p["wall_s"] for p in passes),
        "verdict_ms_p50": statistics.median(verdicts),
        "verdict_ms_p90": statistics.quantiles(
            verdicts, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_frac": (attempted - failed) / attempted,
    }
    return values, passes, {"verdicts_ranked": len(verdicts)}


def traced_run(name: str, seed: int, seconds: float):
    imports = [procs.import_seconds() for _ in range(CLI_REPEATS)]
    values = {key: statistics.median(m[key] for m in imports)
              for key in imports[0]}
    values["cli.list_s"] = statistics.median(
        procs.list_seconds() for _ in range(CLI_REPEATS))

    passes = closed_loop(
        lambda k: procs.run_pass(name, seed + k, traced=k % 2 == 0), seconds)
    if len(passes) < 2:
        passes.append(procs.run_pass(name, seed + 1, traced=False))
    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if "layers" not in p]
    for key in traced[0]["layers"]:
        values[key] = statistics.median(p["layers"][key] for p in traced)
    for key in ("sys_s", "minor_faults"):
        values["process." + key] = statistics.median(p[key] for p in untraced)
    values["trace.minor_faults"] = statistics.median(
        p["minor_faults"] for p in traced)

    values["trace.verify_s_p50"] = statistics.median(p["wall_s"] for p in traced)
    untraced_s = statistics.median(p["wall_s"] for p in untraced)
    values["trace.overhead_s"] = values["trace.verify_s_p50"] - untraced_s
    perturbed = values["trace.overhead_s"] < -PERTURBED_FRAC * untraced_s
    if perturbed:
        print(f"warning: traced passes ran {-values['trace.overhead_s']:.2f} s "
              f"faster than untraced ones ({untraced_s:.2f} s); the per-layer "
              f"figures may not describe the untraced program", file=sys.stderr)
    values["checks.residual_to_tol_max"] = 0.0
    values["gridlab.order_error"] = 0.0
    values[traced[0]["accuracy_metric"]] = statistics.median(
        p["accuracy"] for p in traced)
    return values, passes, {"tracer_perturbs": perturbed,
                            "spans": traced[0]["spans"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(whys))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "harnacklab" / "__init__.py").is_file():
        print(f"error: harnacklab sources not found under {SRC}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else untraced_run
    values, passes, extra = run(args.workload, args.seed, args.seconds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["correct"] for p in passes)

    record = {
        "workload": args.workload, "why": whys[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(),
        "passes": [{k: v for k, v in p.items()
                    if k not in ("layers", "spans", "verdict_ms")}
                   for p in passes],
        "metrics": metrics,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    record.update(extra)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"BENCH_{args.workload}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for p in passes:
        for note in p["notes"]:
            print(f"seed {p['seed']}: {note}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} verdicts, {failed} failed; "
          f"residual digest of pass 0 {passes[0]['digest']}; record {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
