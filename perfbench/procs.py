"""Child processes: one pass per fresh interpreter, and cold CLI starts.

Every child gets ``src`` on its path and one BLAS/OpenMP thread. A pass runs
in a fresh interpreter because that is how ``harnacklab check`` runs, and
because the allocator's state then starts the same for every pass: at 128
points the product kernel's temporaries make a pass page-fault millions of
times, and in a long-lived process that count drifts from pass to pass.

That count hangs on glibc's dynamic mmap threshold, which rises to the size
of the largest mapped block freed so far, and on what lies at the top of the
heap when a temporary is freed. On a 2-core Xeon with glibc and numpy 2.4,
a single 1.6 MB array allocated and freed before a 128-point pass cut its
faults from 3.5 M to 30 k and its time about in half. The tracer therefore
allocates no large arrays and keeps its spans outside the heap.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TIMEOUT_S = 170


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh interpreter (see ``child.py``). Adds ``setup_s``:
    wall time from spawning the interpreter until its set-up is done.
    Standard error goes to a file, so a chatty child cannot fill a pipe and
    stall; a child that is not done within ``TIMEOUT_S`` is killed."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             str(int(traced))],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err,
            text=True)
        ready = []
        reader = threading.Thread(
            target=lambda: ready.append(proc.stdout.readline()))
        try:
            reader.start()
            reader.join(TIMEOUT_S)
            setup_s = time.perf_counter() - t0
            if not reader.is_alive():
                out, _ = proc.communicate(timeout=max(1.0, TIMEOUT_S - setup_s))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stdout.close()
        if proc.returncode != 0 or ready != ["ready\n"]:
            err.seek(0)
            raise RuntimeError(f"pass {workload} seed {seed} exited with "
                               f"{proc.returncode}: {err.read()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def _timed(argv: list) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}: "
                           f"{proc.stderr[-3000:]}")
    return wall, proc.stderr


def list_seconds() -> float:
    """Wall time of a cold ``harnacklab list``."""
    return _timed([sys.executable, "-m", "harnacklab.cli", "list"])[0]


def import_seconds() -> dict:
    """``python -X importtime`` of ``import harnacklab``: the package's
    cumulative import time and the part of it spent in ``scipy.stats``."""
    _, report = _timed([sys.executable, "-X", "importtime", "-c",
                        "import harnacklab"])
    cumulative = {}
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    if "harnacklab" not in cumulative:
        raise RuntimeError("importtime output has no harnacklab row")
    return {"cli.import.total_s": cumulative["harnacklab"],
            "cli.import.scipy_stats_s": cumulative.get("scipy.stats", 0.0)}
