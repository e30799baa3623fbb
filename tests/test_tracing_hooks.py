"""The benchmark's tracer rebinds package attributes by name; a rename on
either side must fail here, in tier 1, not only in the slow benchmark smoke
test."""

from pathlib import Path

from harnacklab import checks
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
