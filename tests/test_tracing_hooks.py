"""The benchmark's tracer rebinds package attributes by name; a rename on
either side must fail here, in tier 1, not only in the slow benchmark smoke
test."""

from pathlib import Path

from harnacklab import checks, gridlab
from harnacklab.solitons import build_context

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_install_and_count(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    # a context keeps the fields it evolved: count on contexts built here
    build_context.cache_clear()
    tracer.install()
    try:
        checks.run_check("CHK-L1", "cigar_flow", n_points=2)
    finally:
        tracer.uninstall()
        build_context.cache_clear()
    assert tracer.counts["fields.propagate.calls"] >= 1
    assert tracer.counts["jet.mul.calls"] >= 1


def test_tracer_grid_hooks_install_and_count(monkeypatch):
    # GridField inherits its arithmetic, but __init__ and partial, which the
    # tracer rebinds, stay in its own dict
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        gridlab.run_grid_check("CHK-L1", grid_sizes=(32, 48))
    finally:
        tracer.uninstall()
    for key in ("gridlab.field_ops", "gridlab.rk4.steps", "gridlab.partial.calls"):
        assert tracer.counts[key] >= 1, key
