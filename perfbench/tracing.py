"""Spans and counters at harnacklab's layer boundaries, installed from outside.

The tracer rebinds module and class attributes of the already-imported
package (``checks.run_check``, ``Jet.partial``, ``MetricChart.ricci``, ...)
to thin wrappers and restores them on ``uninstall``; nothing under ``src/`` is
edited. Every layer reaches the others through module attributes
(``geo.covariant_derivative``, ``hk.evolution_rhs_terms``) or methods, so a
rebinding catches calls from inside a module as well as from its callers.

A span is ``(name, start_ns, end_ns, parent)``; spans stay in memory and are
summarised, or written out, when the run ends. The layer of a span is the part
of its name before the first dot: a module of ``src/harnacklab`` (``fieldmath``
is folded into ``jet``), or the benchmark's own root spans ``setup`` and
``pass``.

Spans are kept in anonymous memory maps, not in a Python list: a list's
growing buffer sits in the malloc heap, keeps glibc from trimming it, and so
hides page faults that the product kernel's temporaries cost an untraced
pass (see ``procs.py``).

Kernel counts are computed, not sampled: multiply-adds are the product
kernel's pair-table length times the batch, and bytes are the float64 arrays
that kernel reads and writes. They repeat exactly between runs on one seed.
"""

import contextlib
import functools
import math
import mmap
import time
from collections import Counter

import numpy as np

from harnacklab import checks, fields, geometry, gridlab, harnack, solitons
from harnacklab.jet import Jet, JetSpace

# The workloads run at jet order 6, so no product is valid beyond it.
MAX_VALIDITY = 6
COMPOSE_METHODS = ("exp", "log", "reciprocal", "pow_real", "sin", "cos")
CURVATURE_PROPERTIES = ("christoffels", "riem_low", "ricci", "scalar_curvature")
RESIDUAL_FUNCTIONS = ("rel_residual", "tensor_residual",
                      "_nabla_ricci_atom_scale", "_eq1_vanishing_brackets")
LAYERS = ("jet", "solitons", "geometry", "harnack", "fields", "checks", "gridlab")
GRID_SIZES = (32, 64, 128)

COUNTS = ("jet.mul.calls", "jet.mul.madds", "jet.mul.bytes_computed",
          "jet.compose.calls", "jet.partial.calls", "solitons.context.builds",
          "geometry.covariant_derivative.calls", "fields.propagate.calls",
          "gridlab.rk4.steps", "gridlab.deriv.evals", "gridlab.partial.calls",
          "gridlab.field_ops") \
    + tuple(f"jet.mul.by_validity.v{v}" for v in range(MAX_VALIDITY + 1))
# metric -> prefix of the span names whose open time it sums
BUSY = {
    "jet.mul.busy_s": "jet.mul",
    "jet.compose.busy_s": "jet.compose",
    "jet.partial.busy_s": "jet.partial",
    "solitons.context.busy_s": "solitons.context",
    "solitons.sample_points.busy_s": "solitons.sample_points",
    "geometry.curvature.busy_s": "geometry.curvature",
    "geometry.covariant_derivative.busy_s": "geometry.covariant_derivative",
    "harnack.terms.busy_s": "harnack.",
    "harnack.evolution_rhs_terms.busy_s": "harnack.evolution_rhs_terms",
    "fields.propagate.busy_s": "fields.propagate",
    "checks.residual.busy_s": "checks.residual",
    "gridlab.rk4.busy_s": "gridlab.rk4",
    "gridlab.partial.busy_s": "gridlab.partial",
} | {f"gridlab.scenario.busy_s.n{n}": f"gridlab.scenario.n{n}"
     for n in GRID_SIZES}


def _rk4_dt_limit_factor() -> float:
    """c such that RK4 on the grid Laplacian is stable for dt <= c dx^2.

    The Laplacian is the 4th-order first-derivative stencil applied twice, so
    its largest eigenvalue is 2 * max|(8 sin k - sin 2k)/6|^2 / dx^2 in 2D;
    the maximum sits where cos k = 1 - sqrt(3/2). RK4 is stable on the
    negative real axis down to the real root of 1 + z/2 + z^2/6 + z^3/24.

    Closed form on purpose: a large temporary array allocated and freed here
    would raise glibc's dynamic mmap threshold and so change how the traced
    process pages (see ``procs.py``).
    """
    cos_k = 1.0 - math.sqrt(1.5)
    symbol = math.sqrt(1.0 - cos_k ** 2) * (4.0 - cos_k) / 3.0
    roots = np.roots([1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0])
    edge = -min(r.real for r in roots if abs(r.imag) < 1e-12)
    return edge / (2.0 * symbol ** 2)


RK4_DT_LIMIT = _rk4_dt_limit_factor()

# A span record is four int64: name index, start ns, end ns, parent index.
SPAN_FIELDS = 4
SPANS_PER_MAP = 1 << 16


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.dt_margin = math.inf
        self._names = {}
        self._maps = []
        self._n_spans = 0
        self._stack = [-1]
        self._undo = []
        self._useful = {}

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = self._n_spans
        block, slot = divmod(idx, SPANS_PER_MAP)
        if block == len(self._maps):
            self._maps.append(memoryview(mmap.mmap(
                -1, 8 * SPAN_FIELDS * SPANS_PER_MAP)).cast("q"))
        record = self._maps[block]
        at = slot * SPAN_FIELDS
        name_id = self._names.setdefault(name, len(self._names))
        record[at], record[at + 3] = name_id, self._stack[-1]
        self._n_spans = idx + 1
        self._stack.append(idx)
        record[at + 1] = time.perf_counter_ns()
        return idx

    def close(self, idx: int):
        end = time.perf_counter_ns()
        self._stack.pop()
        block, slot = divmod(idx, SPANS_PER_MAP)
        self._maps[block][slot * SPAN_FIELDS + 2] = end

    def _records(self) -> list:
        """Every span as [name index, start ns, end ns, parent index]."""
        flat = []
        for block in self._maps:
            flat += block.tolist()
        flat = flat[:self._n_spans * SPAN_FIELDS]
        return [flat[i:i + SPAN_FIELDS] for i in range(0, len(flat), SPAN_FIELDS)]

    @property
    def spans(self) -> list:
        """Every span as (name, start_ns, end_ns, parent)."""
        names = list(self._names)
        return [(names[n], start, end, parent)
                for n, start, end, parent in self._records()]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    def _set(self, owner, attr: str, value):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------

    def install(self):
        self._install_jet()
        self._install_solitons()
        self._install_geometry()
        self._install_terms_and_checks()
        self._install_gridlab()

    def _useful_pairs(self, space: JetSpace) -> np.ndarray:
        """useful[v] = product pairs whose target degree is <= v."""
        table = self._useful.get(space)
        if table is None:
            target = space.degrees[space._mul_i] + space.degrees[space._mul_j]
            table = np.array([np.count_nonzero(target <= v)
                              for v in range(space.order + 1)])
            self._useful[space] = table
        return table

    def _product(self, space: JetSpace, validity: int, batch: int, n: int):
        c = self.counts
        c[f"jet.mul.by_validity.v{validity}"] += n
        c["jet.mul.useful_madds"] += n * batch * int(self._useful_pairs(space)[validity])

    def _install_jet(self):
        c = self.counts
        mul_raw = JetSpace.__dict__["mul_raw"]

        def counted_mul_raw(space, a, b):
            batch = a.shape[1]
            pairs = len(space._mul_i)
            c["jet.mul.calls"] += 1
            c["jet.mul.madds"] += pairs * batch
            # inputs a, b and the output (size rows each), the two gathered
            # operands and the product terms (pairs rows each), float64
            c["jet.mul.bytes_computed"] += 8 * batch * (3 * space.size + 3 * pairs)
            return mul_raw(space, a, b)

        self._set(JetSpace, "mul_raw", self.wrap("jet.mul", counted_mul_raw))

        mul = Jet.__dict__["__mul__"]
        tracer = self

        def counted_mul(x, other):
            if isinstance(other, Jet):
                tracer._product(x.space, min(x.order, other.order), x.batch, 1)
            elif isinstance(other, np.ndarray):
                tracer._product(x.space, x.order, x.batch, 1)
            return mul(x, other)

        self._set(Jet, "__mul__", counted_mul)
        self._set(Jet, "__rmul__", counted_mul)

        compose = Jet.__dict__["_compose"]

        def counted_compose(x, series):
            tracer._product(x.space, x.order, x.batch, x.space.order)
            return compose(x, series)

        self._set(Jet, "_compose", counted_compose)
        for name in COMPOSE_METHODS:
            self._set(Jet, name, self._counted_span(
                "jet.compose", Jet.__dict__[name]))
        self._set(Jet, "partial", self._counted_span(
            "jet.partial", Jet.__dict__["partial"]))

    def _counted_span(self, name: str, fn):
        c = self.counts
        key = name + ".calls"
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            c[key] += 1
            return traced(*args, **kwargs)
        return counted

    def _install_solitons(self):
        build = solitons.build_context
        tracer = self
        c = self.counts

        def traced_build(*args, **kwargs):
            before = build.cache_info()
            with tracer.span("solitons.context"):
                ctx = build(*args, **kwargs)
            after = build.cache_info()
            c["solitons.context.hits"] += after.hits - before.hits
            c["solitons.context.builds"] += after.misses - before.misses
            return ctx

        self._set(solitons, "build_context", traced_build)
        self._set(checks, "build_context", traced_build)
        self._set(solitons, "sample_points",
                  self.wrap("solitons.sample_points", solitons.sample_points))

    def _install_geometry(self):
        # Each curvature property of a chart is computed, in its own span,
        # by whichever check first needs it, so its time counts as geometry
        # and not as that check's own. Forcing all four before the first
        # check would be tidier but reorders the pass's allocations: on
        # jet_wide it raised the page-fault count by about a fifth.
        chart = geometry.MetricChart
        for prop in CURVATURE_PROPERTIES:
            wrapped = functools.cached_property(
                self.wrap("geometry.curvature", chart.__dict__[prop].func))
            wrapped.__set_name__(chart, prop)
            self._set(chart, prop, wrapped)
        self._set(geometry, "covariant_derivative", self._counted_span(
            "geometry.covariant_derivative", geometry.covariant_derivative))

    def _install_terms_and_checks(self):
        for name, fn in vars(harnack).copy().items():
            if callable(fn) and not name.startswith("_") \
                    and getattr(fn, "__module__", None) == harnack.__name__:
                self._set(harnack, name, self._counted_span(
                    "harnack." + name, fn))
        for name in ("propagate_scalar", "propagate_sym2"):
            self._set(fields, name, self._counted_span(
                "fields.propagate", getattr(fields, name)))
        for name in RESIDUAL_FUNCTIONS:
            self._set(checks, name, self.wrap("checks.residual",
                                              getattr(checks, name)))

        self._set(checks, "run_check",
                  self.wrap("checks.run_check", checks.run_check))

    def _install_gridlab(self):
        c = self.counts
        tracer = self
        traced_step = self.wrap("gridlab.rk4", gridlab._rk4_step)

        def counted_step(state, deriv, dt):
            dx = 2.0 * math.pi / next(iter(state.values())).shape[0]
            tracer.dt_margin = min(tracer.dt_margin, RK4_DT_LIMIT * dx * dx / dt)
            c["gridlab.rk4.steps"] += 1

            def counted_deriv(s):
                c["gridlab.deriv.evals"] += 1
                return deriv(s)
            return traced_step(state, counted_deriv, dt)

        self._set(gridlab, "_rk4_step", counted_step)
        self._set(gridlab.GridField, "partial", self._counted_span(
            "gridlab.partial", gridlab.GridField.__dict__["partial"]))

        init = gridlab.GridField.__dict__["__init__"]

        def counted_init(field, values, dx):
            c["gridlab.field_ops"] += 1
            init(field, values, dx)

        self._set(gridlab.GridField, "__init__", counted_init)

        scenarios = dict(gridlab._SCENARIOS)
        for check_id, (soliton, fn, band) in gridlab._SCENARIOS.items():
            scenarios[check_id] = (soliton, self._scenario_span(fn), band)
        self._set(gridlab, "_SCENARIOS", scenarios)

    def _scenario_span(self, fn):
        @functools.wraps(fn)
        def traced(n, seed):
            with self.span(f"gridlab.scenario.n{n}"):
                return fn(n, seed)
        return traced

    # -- summary -----------------------------------------------------------

    @staticmethod
    def busy_s(spans: list, prefix: str) -> float:
        """Seconds during which some span whose name starts with ``prefix``
        was open; a matching span nested in another is not counted twice."""
        inside = [False] * len(spans)
        total = 0
        for idx, (name, start, end, parent) in enumerate(spans):
            covered = parent >= 0 and inside[parent]
            hit = name.startswith(prefix)
            inside[idx] = covered or hit
            if hit and not covered:
                total += end - start
        return total * 1e-9

    @staticmethod
    def _self_ns(spans: list) -> list:
        """Each span's duration minus what its direct children cover."""
        child = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - covered
                for (_, start, end, _), covered in zip(spans, child)]

    def layer_metrics(self) -> dict:
        """Per-layer numbers for the spans and counts recorded so far."""
        c = self.counts
        spans = self.spans
        out = {name: c[name] for name in COUNTS}
        out.update({name: self.busy_s(spans, prefix)
                    for name, prefix in BUSY.items()})
        out["harnack.terms.calls"] = sum(
            v for k, v in c.items() if k.startswith("harnack."))
        madds = c["jet.mul.madds"]
        out["jet.mul.ns_per_madd"] = 1e9 * out["jet.mul.busy_s"] / madds if madds else 0.0
        out["jet.mul.useful_frac"] = c["jet.mul.useful_madds"] / madds if madds else 0.0
        lookups = c["solitons.context.hits"] + c["solitons.context.builds"]
        out["solitons.context.hit_frac"] = \
            c["solitons.context.hits"] / lookups if lookups else 0.0
        out["gridlab.rk4.dt_margin"] = \
            self.dt_margin if c["gridlab.rk4.steps"] else 0.0

        own = Counter()
        for (name, *_), ns in zip(spans, self._self_ns(spans)):
            own[name.split(".", 1)[0]] += ns
            if name == "checks.run_check":
                own[name] += ns
        out["checks.run_check.self_s"] = own["checks.run_check"] * 1e-9
        for layer in LAYERS:
            out[f"{layer}.self_s"] = own[layer] * 1e-9
        return out

    def dump(self) -> dict:
        return {"names": list(self._names), "spans": self._records()}
