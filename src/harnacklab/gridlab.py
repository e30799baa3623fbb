"""Finite-difference verification on a periodic torus.

This is the independent route: the same geometry and Harnack code that runs on
jets runs here on grid-sampled fields, with derivatives supplied by 4th-order
central stencils and evolution by classical RK4. A check's identity is then
a statement about the discrete residual: it must vanish at the stencil's
design order as the grid is refined, with the initial data held fixed (its
Fourier content is bandlimited, so every resolution sees the same function).

Time-derivative design: the residual needs d/dt of the checked quantity, taken
by a 5-point central stencil over stored slices. The slice spacing is
tau = 0.1 * dx, proportional to dx rather than dx^2. This matters: on the flat
torus the discrete operators commute exactly, so the residual contains *only*
the time-sampling error ~ tau^4 * d^5Z/dt^5; with tau ~ dx that term scales as
dx^4 and the observed order lands at the design order instead of ~8 and then
collapsing into roundoff. The RK4 step divides each span evenly under
dt <= 0.8 * RK4_DT_LIMIT * dx^2 / lambda_max(g^-1), read from the initial
state, so slices land on exact step boundaries. That close to the stability
limit the RK4 error is not negligible at the coarsest grid: on CHK-L1 at
n = 32 (5 steps) it shows next to the tau^4 error, and the residual sits up
to 28% above the one a step of 0.2 dx^2 gives. At n >= 48 every residual
stays within 2% of that reference.

The torus is 2-D, and the state helpers below are written for two
dimensions. CHK-EQ1 and CHK-L1 are one scenario, the evolution identity for
Z(h, A + t B) with h under the Lichnerowicz flow: EQ1 marches a perturbed
metric by Ricci flow, L1 holds the flat chart fixed with A = B = 0, where
every group of the identity's right side folds to 0.0. Every scenario's
residual follows one rule (``_sup_residual``), and the march's metric guard
is the chart's own definiteness test.

Constants are numbers, not fields, under the rule ``geometry`` states: the
flat chart's metric is ``geo.flat_metric``, so its Christoffel symbols and
curvature come out as exact 0.0, and ``GridField`` folds the scalar
identities. The folds are exact up to the sign of a zero (and a non-finite
``x * 0.0``, which IEEE makes NaN, folds to 0.0), so residuals keep every
bit. Folding returns shared objects: a field's ``values`` is never modified
in place. The stencil reads its four shifted
operands as slices of one wrap-padded copy, in the order of the formula.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import geometry as geo, harnack as hk
from .fields import trig_params
from .geometry import _acc
from .jet import NUMBER

DT_SAFETY = 0.8
SLICE_SPACING_FACTOR = 0.1
T_STAR = 0.05
GRID_SIZES = (32, 64, 128)  # the resolutions of a default convergence run


class GridStabilityError(RuntimeError):
    pass


class GridField:
    """Scalar field sampled on an N x N periodic grid; 4th-order derivatives."""

    __array_ufunc__ = None

    def __init__(self, values: np.ndarray, dx: float):
        self.values = values
        self.dx = dx

    def partial(self, axis: int) -> "GridField":
        """((-v[i+2] + 8 v[i+1]) - 8 v[i-1]) + v[i-2], then / (12 dx), with
        the shifted operands read as slices of one wrap-padded copy."""
        v = self.values
        n = v.shape[axis]
        lead = (slice(None),) * axis
        w = np.concatenate((v[lead + (slice(-2, None),)], v,
                            v[lead + (slice(2),)]), axis)
        vm2, vm1, vp1, vp2 = (w[lead + (slice(k, k + n),)] for k in (0, 1, 3, 4))
        d = np.multiply(vp1, 8.0)  # 8 v[i+1] - v[i+2] == -v[i+2] + 8 v[i+1]
        d -= vp2
        d -= np.multiply(vm1, 8.0)
        d += vm2
        d /= 12.0 * self.dx
        return GridField(d, self.dx)

    def _coerce(self, other):
        if isinstance(other, GridField):
            return other.values
        if isinstance(other, NUMBER):
            return float(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.__class__ is float and o == 0.0:
            return self
        return GridField(self.values + o, self.dx)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.__class__ is float and o == 0.0:
            return self
        return GridField(self.values - o, self.dx)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GridField(o - self.values, self.dx)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.__class__ is float:
            if o == 0.0:
                return 0.0
            if o == 1.0:
                return self
        return GridField(self.values * o, self.dx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.__class__ is float:
            if o == 0.0:
                raise ZeroDivisionError("grid field divided by zero")
            if o == 1.0:
                return self
        return GridField(self.values / o, self.dx)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GridField(o / self.values, self.dx)

    def __neg__(self):
        return GridField(-self.values, self.dx)

    def __repr__(self):
        return f"GridField(n={self.values.shape[0]}, mean={self.values.mean():.4g})"


class TorusGrid:
    """Uniform N x N grid on [0, 2 pi)^2; axis 0 is x, axis 1 is y."""

    def __init__(self, n: int):
        self.n = n
        self.dx = 2.0 * np.pi / n
        ticks = np.arange(n) * self.dx
        self.x, self.y = np.meshgrid(ticks, ticks, indexing="ij")


def eval_trig(grid: TorusGrid, params: list, base: float = 0.0) -> GridField:
    """Sample ``fields.trig_params`` terms on the grid. The scenarios draw
    them under ``"grid:" + tag``; every resolution sees the same function."""
    vals = np.full((grid.n, grid.n), base)
    for a, (wx, wy), phase in params:
        vals = vals + a * np.sin(wx * grid.x + wy * grid.y + phase)
    return GridField(vals, grid.dx)


def _rk4_dt_limit() -> float:
    """c such that RK4 on the flat grid Laplacian is stable for dt <= c dx^2.

    The Laplacian is the 4th-order first-derivative stencil applied twice, so
    its largest eigenvalue is 2 * max|(8 sin k - sin 2k)/6|^2 / dx^2 in 2D;
    the maximum sits where cos k = 1 - sqrt(3/2). RK4 is stable on the
    negative real axis down to the real root of z^3 + 4 z^2 + 12 z + 24
    (Hairer & Wanner, Solving ODEs II, IV.2), taken by Cardano's formula:
    z = w - 4/3 gives w^3 + p w + q with p = 20/3, q = 344/27. Plain floats,
    so importing the module makes no LAPACK call.
    """
    cos_k = 1.0 - math.sqrt(1.5)
    symbol = math.sqrt(1.0 - cos_k ** 2) * (4.0 - cos_k) / 3.0
    p, q = 20.0 / 3.0, 344.0 / 27.0
    root = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    w = sum(math.copysign(abs(v) ** (1.0 / 3.0), v)
            for v in (root - q / 2.0, -root - q / 2.0))
    return (4.0 / 3.0 - w) / (2.0 * symbol ** 2)


RK4_DT_LIMIT = _rk4_dt_limit()


def _rk4_step(state: dict, deriv, dt: float) -> dict:
    k1 = deriv(state)
    k2 = deriv({k: state[k] + 0.5 * dt * k1[k] for k in state})
    k3 = deriv({k: state[k] + 0.5 * dt * k2[k] for k in state})
    k4 = deriv({k: state[k] + dt * k3[k] for k in state})
    return {k: state[k] + (dt / 6.0) * (k1[k] + 2.0 * k2[k] + 2.0 * k3[k] + k4[k])
            for k in state}


def _check_state(grid: TorusGrid, state: dict, positive: tuple = ()):
    for k, v in state.items():
        if not np.all(np.isfinite(v)):
            raise GridStabilityError(f"non-finite values in {k}")
    for k in positive:
        if np.any(state[k] <= 0.0):
            raise GridStabilityError(f"{k} lost positivity")
    if "g00" in state:
        try:
            _chart_from_state(grid, state).require_positive_definite()
        except geo.MetricError:
            raise GridStabilityError(
                "metric lost positive definiteness") from None


def _ginv_max_eigenvalue(state: dict) -> float:
    """lambda_max(g^-1) = 1 / lambda_min(g) over the grid, which bounds how far
    the metric's principal symbol exceeds the flat one. 1 without a metric."""
    if "g00" not in state:
        return 1.0
    a, b, c = state["g00"], state["g01"], state["g11"]
    return 1.0 / np.min(0.5 * (a + c) - np.hypot(0.5 * (a - c), b))


def _min_slice_grid(t_center: float) -> int:
    """Smallest n whose slice window 4 tau = 0.4 * 2 pi / n fits after t = 0."""
    return math.floor(4.0 * SLICE_SPACING_FACTOR * np.pi / t_center) + 1


def evolve_slices(grid: TorusGrid, state: dict, deriv, t_center: float,
                  positive: tuple = ()) -> tuple:
    """March the state from t = 0 and return (5 slice states, slice times, tau).

    Slices are spaced tau = 0.1 dx around t_center. The RK4 step divides
    each span evenly under dt <= DT_SAFETY * RK4_DT_LIMIT * dx^2 /
    lambda_max(g^-1), with the metric read once from the initial state, so
    slice times are exact. Every state, the initial one included, passes
    ``_check_state``. On CHK-L1 at n = 32 the march takes 5 steps, and its
    RK4 error shows next to the tau^4 error.
    """
    tau = SLICE_SPACING_FACTOR * grid.dx
    t_first = t_center - 2.0 * tau
    if t_first <= 0.0:
        raise ValueError(
            f"slice window 4 tau = {4 * tau:.4g} does not fit around t = "
            f"{t_center}; need n >= {_min_slice_grid(t_center)}, got {grid.n}")
    _check_state(grid, state, positive)
    dt_max = DT_SAFETY * RK4_DT_LIMIT * grid.dx ** 2 / _ginv_max_eigenvalue(state)

    def march(st, span):
        steps = max(1, math.ceil(span / dt_max))
        dt = span / steps
        for _ in range(steps):
            st = _rk4_step(st, deriv, dt)
            _check_state(grid, st, positive)
        return st

    state = march(state, t_first)
    slices = [state]
    for _ in range(4):
        state = march(state, tau)
        slices.append(state)
    times = [t_first + k * tau for k in range(5)]
    return slices, times, tau


def time_derivative(slice_values: list, tau: float) -> np.ndarray:
    """4th-order derivative at the center of five tau-spaced samples."""
    z0, z1, _, z3, z4 = slice_values
    return (z0 - 8.0 * z1 + 8.0 * z3 - z4) / (12.0 * tau)


def _flat_chart() -> geo.MetricChart:
    """The flat torus metric, its components plain numbers: its curvature
    comes out as exact 0.0 and the arithmetic on it folds away."""
    return geo.MetricChart(geo.flat_metric(2))


# A symmetric 2-tensor is kept in the state as its components
# geo.sym2_indices lists, (i, j) with j <= i, under key prefix + f"{j}{i}":
# "00", "01", "11".

def _sym2_from_state(grid: TorusGrid, state: dict, prefix: str) -> geo.TensorValue:
    return geo.sym2_from(
        lambda i, j: GridField(state[f"{prefix}{j}{i}"], grid.dx), 2)


def _state_from_sym2(prefix: str, t: geo.TensorValue) -> dict:
    return {f"{prefix}{j}{i}": t[j, i].values
            for i, j in geo.sym2_indices(len(t.comps))}


def _chart_from_state(grid: TorusGrid, state: dict) -> geo.MetricChart:
    return geo.MetricChart(_sym2_from_state(grid, state, "g").comps)


def _perturbation_state(grid: TorusGrid, seed: int, tag: str,
                        amplitude: float) -> dict:
    return _state_from_sym2(tag, geo.sym2_from(lambda i, j: eval_trig(
        grid, trig_params(seed, f"grid:{tag}{j}{i}", 2, amplitude)), 2))


def _sup_residual(lhs: list, rhs: list) -> float:
    """The grid's residual rule: max |sum(lhs) - sum(rhs)| over the grid, over
    the sum of every term's max |term|. Each side is summed on its own and
    the lhs scale is added first; that order keeps the pinned residual bits."""
    lhs, rhs = ([geo.field_data(t) for t in side] for side in (lhs, rhs))
    scale = sum(np.abs(t).max() for t in lhs) + sum(np.abs(t).max() for t in rhs)
    return np.abs(sum(lhs) - sum(rhs)).max() / (scale + 1e-30)


def _evolution_identity(grid: TorusGrid, state0: dict, a, b,
                        chart: geo.MetricChart | None = None) -> float:
    """h under the Lichnerowicz flow, X = A + t B: the residual of
    (d/dt - Lap) Z(h, X) against the evolution identity's four groups.

    With ``chart`` the metric is that chart, held fixed; it must be a Ricci
    flow fixed point. Without it the metric is the state's, marched by
    dg/dt = -2 Rc alongside h.
    """
    def chart_of(state):
        return _chart_from_state(grid, state) if chart is None else chart

    def deriv(state):
        ch = chart_of(state)
        out = _state_from_sym2(
            "h", geo.lichnerowicz_laplacian(ch, _sym2_from_state(grid, state, "h")))
        if chart is None:
            out |= {k: -2.0 * v for k, v in _state_from_sym2("g", ch.ricci).items()}
        return out

    def fields_at(state, t):
        x = geo.vector_from(lambda i: a[i] + t * b[i], 2, con=True)
        return geo.Sym2Field(chart_of(state), _sym2_from_state(grid, state, "h")), x

    slices, times, tau = evolve_slices(grid, state0, deriv, T_STAR)
    zs = [_acc(hk.linear_trace_terms(*fields_at(st, t)))
          for st, t in zip(slices, times)]
    dtz = time_derivative([z.values for z in zs], tau)
    h, x = fields_at(slices[2], times[2])
    dxdt = geo.vector_from(lambda i: b[i], 2, con=True)
    lap = geo.laplacian(h.chart, zs[2]).values
    return _sup_residual([dtz, -lap], hk.evolution_rhs_terms(h, x, dxdt))


def _scenario_l1(n: int, seed: int) -> float:
    """Flat torus, f = 0: with X = 0 every group vanishes, so Z(h, 0) =
    div div h + <Rc, h> must solve the heat equation."""
    grid = TorusGrid(n)
    return _evolution_identity(grid, _perturbation_state(grid, seed, "h", 0.4),
                               (0.0, 0.0), (0.0, 0.0), _flat_chart())


def _scenario_b2(n: int, seed: int) -> float:
    """Flat torus: v = log u under du/dt = Lap u; the log nonlinearity breaks
    exact discrete commutation, so spatial truncation enters the residual."""
    grid = TorusGrid(n)
    chart = _flat_chart()

    def deriv(state):
        u = GridField(state["u"], grid.dx)
        return {"u": geo.laplacian(chart, u).values}

    u0 = eval_trig(grid, trig_params(seed, "grid:b2.u0", 2, 0.3))
    state0 = {"u": np.exp(u0.values)}
    slices, _, tau = evolve_slices(grid, state0, deriv, T_STAR, positive=("u",))
    vs = [geo.ScalarField(chart, GridField(np.log(s["u"]), grid.dx)) for s in slices]
    qs = [hk.log_q(v) for v in vs]
    dtq = time_derivative([q.values for q in qs], tau)
    dt, *spatial = hk.l_eps_terms(lambda _: dtq, vs[2], qs[2])
    # the normalizer counts L's spatial part as one term, the production as one
    return _sup_residual([dt, sum(spatial)],
                         [sum(hk.lq_production_terms(vs[2], 0.0))])


def _scenario_eq1(n: int, seed: int) -> float:
    """Perturbed torus metric under actual Ricci flow, h under the
    Lichnerowicz flow, X = A + t B: the full evolution identity for Z(h, X)."""
    grid = TorusGrid(n)
    g = _perturbation_state(grid, seed + 1, "g", 0.12)
    state0 = {**_perturbation_state(grid, seed, "h", 0.4), **g,
              "g00": 1.0 + g["g00"], "g11": 1.0 + g["g11"]}
    a, b = ([eval_trig(grid, trig_params(seed, f"grid:eq1.{v}[{i}]", 2, 0.5))
             for i in range(2)] for v in "AB")
    return _evolution_identity(grid, state0, a, b)


# the band every scenario's fitted order must land in: the design order is 4
ORDER_BAND = (3.3, 4.7)
_SCENARIOS = {
    "CHK-L1": ("flat_torus", _scenario_l1, ORDER_BAND),
    "CHK-B2": ("flat_torus", _scenario_b2, ORDER_BAND),
    "CHK-EQ1": ("torus_generic", _scenario_eq1, ORDER_BAND),
}
GRID_CHECKS = tuple(_SCENARIOS)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass
class ConvergenceReport:
    check_id: str
    soliton: str
    seed: int
    grid_sizes: tuple
    residuals: tuple
    pairwise_orders: tuple
    fitted_order: float
    order_band: tuple
    status: str
    t_star: float
    millis: float

    def to_dict(self) -> dict:
        """Every field but the seed, which a document states once; tuples
        become lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(self).items() if k != "seed"}


@functools.cache
def _raise_mmap_threshold():
    """Allocate, touch and free one 4 MiB array, once per process.

    glibc serves a block of at least its mmap threshold (128 KiB at start,
    the size of an n = 128 field) with its own mmap, so every such temporary
    costs fresh page faults. Freeing a mapped block raises the threshold to
    the block's size, after which the fields are served from the reused heap.
    This acts only on this process's allocator and changes no result; under
    another allocator it is one short-lived allocation.
    """
    np.ones(1 << 19)


def run_grid_check(check_id: str, seed: int = 0,
                   grid_sizes: tuple = GRID_SIZES) -> ConvergenceReport:
    """Run one convergence scenario across resolutions and fit the order.

    Status: pass when refinement is monotone and the fitted order sits inside
    the scenario's band; inconclusive when the residual fails to shrink
    monotonically (nothing can be said about order from such data); fail when
    the trend is clean but the order is outside the band.
    """
    if check_id not in _SCENARIOS:
        raise KeyError(
            f"no grid scenario for {check_id!r}; available: {sorted(_SCENARIOS)}")
    problems = []
    n_min = _min_slice_grid(T_STAR)
    if min(grid_sizes, default=n_min) < n_min:
        problems.append(f"slice window around t = {T_STAR}: need n >= {n_min}")
    if len(grid_sizes) < 2 or any(n2 <= n1 for n1, n2 in
                                  zip(grid_sizes, grid_sizes[1:])):
        problems.append("an order fit needs at least 2 distinct sizes "
                        "in increasing order")
    if problems:
        raise ValueError(f"grid sizes {list(grid_sizes)}: " + "; ".join(problems))
    soliton, scenario, band = _SCENARIOS[check_id]
    _raise_mmap_threshold()
    t0 = time.perf_counter()
    residuals = [scenario(n, seed) for n in grid_sizes]
    millis = 1000.0 * (time.perf_counter() - t0)

    pairwise = []
    for (n1, r1), (n2, r2) in zip(zip(grid_sizes, residuals),
                                  zip(grid_sizes[1:], residuals[1:])):
        pairwise.append(np.log(r1 / r2) / np.log(n2 / n1))
    logs_n = np.log(np.asarray(grid_sizes, dtype=float))
    logs_r = np.log(np.asarray(residuals))
    fitted = float(-np.polyfit(logs_n, logs_r, 1)[0])

    monotone = all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))
    lo, hi = band
    if not monotone:
        status = STATUS_INCONCLUSIVE
    elif lo <= fitted <= hi:
        status = STATUS_PASS
    else:
        status = STATUS_FAIL
    return ConvergenceReport(
        check_id, soliton, seed, tuple(grid_sizes), tuple(residuals),
        tuple(float(p) for p in pairwise), fitted,
        (lo, hi), status, T_STAR, millis)


def run_grid_suite(checks=None, seed: int = 0,
                   grid_sizes: tuple = GRID_SIZES) -> list:
    return [run_grid_check(c, seed=seed, grid_sizes=grid_sizes)
            for c in (checks or GRID_CHECKS)]
