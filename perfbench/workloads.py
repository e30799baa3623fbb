"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass calls one public entry point (``checks.run_suite`` or
``gridlab.run_grid_suite``) once, in a fresh interpreter, after ``setup``
has built what it needs. It reports the wall time of each verdict, how many
verdicts it attempted and how many failed, its worst accuracy figure, and a
digest of every residual's float64 bits, so that two versions of the code
can be shown to agree bit for bit.
"""

import hashlib
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from harnacklab import checks, gridlab, solitons
from harnacklab.jet import jet_space

JET_ORDER = 6
# Coordinates x, y plus t (time-dependent charts) or s (CHK-R1's deformation).
JET_VARS = 3
# design order of the grid route's stencils and time derivative
TARGET_ORDER = 4.0


@dataclass
class PassResult:
    seed: int
    wall_s: float
    verdict_ms: dict
    attempted: int
    failed: int
    correct: bool
    digest: str
    accuracy: float
    notes: list = field(default_factory=list)


def _floats(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@dataclass(frozen=True)
class JetWorkload:
    """``run_suite`` over ``check_ids`` (None: the whole registry)."""
    check_ids: tuple | None
    n_points: int
    expected_verdicts: int
    accuracy_metric = "checks.residual_to_tol_max"

    def _applicable(self):
        ids = self.check_ids or sorted(checks.REGISTRY)
        return [(c, s) for c in ids for s in solitons.CATALOG
                if not solitons.CATALOG[s].grid_only
                and s in checks.get_check(c).applies_to]

    def setup(self, seed: int):
        """Build the jet tables, sample points and the jet context of every
        chart the pass uses (looked up on the module, so a tracer sees it)."""
        jet_space(JET_VARS, JET_ORDER)
        pairs = self._applicable()
        for name in sorted({s for _, s in pairs}):
            solitons.build_context(name, seed, self.n_points, JET_ORDER)
        for name in sorted({s for c, s in pairs if c == "CHK-R1"}):
            solitons.build_context(name, seed, self.n_points, JET_ORDER,
                                   time="const", deform=True)

    def run_pass(self, seed: int) -> PassResult:
        t0 = time.perf_counter()
        reports = checks.run_suite(checks=self.check_ids, seed=seed,
                                   n_points=self.n_points, order=JET_ORDER)
        wall = time.perf_counter() - t0
        ran = [r for r in reports if r.status != checks.STATUS_SKIPPED]
        digest = hashlib.sha256()
        failed, notes = 0, []
        for r in ran:
            ok = r.status == checks.STATUS_PASS \
                and r.max_rel_residual <= r.tolerance
            if not ok:
                failed += 1
                notes.append(f"{r.check_id} on {r.soliton}: {r.status}, "
                             f"residual {r.max_rel_residual:.3e} > {r.tolerance:.0e}")
            digest.update(f"{r.check_id}|{r.soliton}|{r.status}|".encode())
            digest.update(np.ascontiguousarray(r.point_residuals,
                                               dtype="<f8").tobytes())
            digest.update(_floats([r.parts[k] for k in sorted(r.parts)]))
        if len(ran) != self.expected_verdicts:
            notes.append(f"{len(ran)} verdicts, expected {self.expected_verdicts}")
        return PassResult(
            seed=seed, wall_s=wall,
            verdict_ms={f"{r.check_id}/{r.soliton}": r.millis for r in ran},
            attempted=len(ran), failed=failed,
            correct=failed == 0 and len(ran) == self.expected_verdicts,
            digest=digest.hexdigest(),
            accuracy=max(r.max_rel_residual / r.tolerance for r in ran),
            notes=notes)


@dataclass(frozen=True)
class GridWorkload:
    """``run_grid_suite`` over every grid scenario at ``sizes``. A verdict
    is one scenario's convergence run over all sizes: the unit that gets a
    status. Per-size times are in the traced run's per-layer metrics."""
    sizes: tuple
    accuracy_metric = "gridlab.order_error"

    def setup(self, seed: int):
        """The grid route builds its grids inside each scenario; a fresh
        process needs only the import."""

    def run_pass(self, seed: int) -> PassResult:
        t0 = time.perf_counter()
        reports = gridlab.run_grid_suite(seed=seed, grid_sizes=self.sizes)
        wall = time.perf_counter() - t0
        digest = hashlib.sha256()
        failed, notes = 0, []
        for r in reports:
            lo, hi = r.order_band
            ok = r.status == gridlab.STATUS_PASS and r.fitted_order >= lo \
                and (hi is None or r.fitted_order <= hi)
            if not ok:
                failed += 1
                notes.append(f"{r.check_id}: {r.status}, order {r.fitted_order:.3f} "
                             f"outside {r.order_band}")
            digest.update(f"{r.check_id}|{r.status}|".encode())
            digest.update(_floats(list(r.residuals) + list(r.pairwise_orders)
                                  + [r.fitted_order]))
        expected = len(gridlab.GRID_CHECKS)
        if len(reports) != expected:
            notes.append(f"{len(reports)} scenarios, expected {expected}")
        return PassResult(
            seed=seed, wall_s=wall, verdict_ms={r.check_id: r.millis for r in reports},
            attempted=len(reports), failed=failed,
            correct=failed == 0 and len(reports) == expected,
            digest=digest.hexdigest(),
            accuracy=max(abs(r.fitted_order - TARGET_ORDER) for r in reports),
            notes=notes)


WORKLOADS = {
    "jet_registry": JetWorkload(None, 32, 102),
    "jet_wide": JetWorkload(("CHK-EQ1", "CHK-L1", "CHK-L2"), 128, 12),
    "grid_convergence": GridWorkload((32, 64, 128)),
}
