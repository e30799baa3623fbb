"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

Prints ``ready`` once harnacklab is imported and the workload's set-up is
done, then one JSON line: the pass result, the process's peak RSS, its
system time and minor page faults after the import and, with TRACE 1, the
per-layer metrics and the spans of set-up and pass. ``run.py`` starts it
with ``src`` on the path.
"""

import contextlib
import json
import resource
import sys
from dataclasses import asdict

import workloads


def main(name: str, seed: int, traced: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    def span(label):
        return tracer.span(label) if tracer else contextlib.nullcontext()

    before = resource.getrusage(resource.RUSAGE_SELF)
    try:
        with span("setup"):
            workload.setup(seed)
        print("ready", flush=True)
        with span("pass"):
            result = workload.run_pass(seed)
    finally:
        if tracer:
            tracer.uninstall()
    after = resource.getrusage(resource.RUSAGE_SELF)
    out = asdict(result)
    out.update(accuracy_metric=workload.accuracy_metric,
               peak_rss_mb=after.ru_maxrss / 1024.0,
               sys_s=after.ru_stime - before.ru_stime,
               minor_faults=after.ru_minflt - before.ru_minflt)
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.dump()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")))
