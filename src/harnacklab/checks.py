"""Identity checks: each declared once, and every part judged by one rule.

Every check evaluates one mathematical identity (or inequality) on a soliton
chart at a pack of sample points via exact jet arithmetic. Its runner forms
no residual: it returns {part name: ``Identity``}, the part's signed terms
per component and, where every term can vanish on the chart, an atom scale.
``run_check`` judges each part by ``tensor_residual``, per point:

    residual = max over components |sum of terms|
               / (1e-30 + sum over components and terms of |term| + atom scale)

The terms are the finest additive pieces of the identity (for an evolution
identity, d/dt and the Laplacian of each summand count separately), so
residuals are scale-invariant. The numerator takes the worst component and
the denominator sums over all, so a small component's defect is not masked.

An atom scale sums the |atom products| behind the terms, an atom being an
input's value or the partial of one, so that roundoff is not divided by
itself where the terms vanish: it is the identity's own term builder run on
``geometry.Magnitude`` inputs (the evolution identity's vanishing brackets on
a steady soliton; ``_nabla_ricci_atom_scale`` for grad R = 2 Rc(grad f) and
CHK-H2). CHK-R1's stationary measure takes |e^{-f} dvol|. CHK-B5's inequality
is the identity L P - Q^2/n - slack = 0 with slack = max(L P - Q^2/n, 0) from
the values: it cancels exactly when the bound holds and is 0 when it fails.

A soliton identity is one check: its shrinking form adds terms in the
context's soliton constant ``lam``, which are exact zeros on a steady chart.

``_check`` above a runner declares its check: the statement, the predicate
on ``SolitonSpec`` that picks the jet charts it applies to, the tolerance and
``context``, the ``build_context`` keywords beyond (chart, seed, n_points,
order) that only CHK-R1 uses. ``run_check`` builds that context, runs the
runner and judges its parts inside the timed region, whose time is the
report's ``millis``. Contexts are shared (``build_context`` is a cache) and
keep what their first user built: the chart its curvature, the context its
evolved fields (the h of CHK-EQ1, L1 and L2, the log u of CHK-B2 to B6 and
B8, per eps). So a check's time leaves out what an earlier check built.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import fields, geometry as geo, harnack as hk
from .geometry import field_data
from .jet import JetCapError, JetOrderError
from .solitons import CATALOG, build_context, catalog_get

DEFAULT_TOLERANCE = 1e-8
TOLERANCE_CAP = 1e-6
_FLOOR = 1e-30

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"

_EPS_SET = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def _where(**values):
    """Predicate on a SolitonSpec: each named field has the given value. A
    check's ``applies_to`` is the jet charts of the catalog its predicate
    accepts, in catalog order."""
    return lambda spec: all(getattr(spec, k) == v for k, v in values.items())


_any = _where()
_shrinking = _where(kind="shrinking")
_normalized = _where(normalized_steady=True)
_exact_flow = _where(ricci_flow_exact=True)
_steady_system = _where(kind="steady", ricci_flow_exact=True)
_grad2 = _where(kind="steady", potential_time_rule="grad2")


def rel_residual(terms) -> np.ndarray:
    """Per-point relative residual of a list of signed scalar terms: a
    tensor identity with one component. No runner calls it; the benchmark's
    tracer still wraps it by name."""
    return tensor_residual([terms])


def tensor_residual(term_lists, extra_scale=None) -> np.ndarray:
    """The one residual rule: ``term_lists[component]`` is the signed term
    list of that component. Numerator takes the worst component,
    denominator sums magnitudes over all components and terms, plus the
    identity's atom scale ``extra_scale`` where it has one."""
    nums, den = [], _FLOOR
    for terms in term_lists:
        arrs = [field_data(t) for t in terms]
        nums.append(np.abs(sum(arrs)))
        den = den + sum(np.abs(a) for a in arrs)
    if extra_scale is not None:
        den = den + extra_scale
    return np.max(nums, axis=0) / den


def _nabla_ricci_atom_scale(chart) -> np.ndarray:
    """Pre-cancellation magnitude of computing grad Rc: its atoms (|partials
    of Rc| and |Gamma| * |Rc|) summed over components, which is
    ``covariant_derivative`` on magnitudes. This is the scale against which
    the roundoff of any grad-Rc-built quantity is measured."""
    dric = geo.covariant_derivative(geo.MagnitudeChart(chart),
                                    geo.magnitudes(chart.ricci))
    return sum((c.values for c in dric.comps.flat), _FLOOR)


@dataclass(frozen=True)
class Identity:
    """One part of a check: ``components[c]`` is the signed term list of
    component c, which sums to zero where the identity holds, and
    ``atom_scale`` (None, or one value per point) the magnitude of the
    arithmetic behind terms that can all vanish."""
    components: list
    atom_scale: object = None


def _balance(lhs, rhs) -> Identity:
    """The scalar identity sum(lhs) = sum(rhs)."""
    return Identity([lhs + [-t for t in rhs]])


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    statement: str
    applies: object = field(repr=False, compare=False)  # SolitonSpec -> bool
    runner: object = field(repr=False, compare=False)  # ctx -> {part: Identity}
    tolerance: float = DEFAULT_TOLERANCE
    # keyword arguments of build_context beyond (name, seed, n_points, order)
    context: dict = field(default_factory=dict, compare=False)
    applies_to: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tolerance", min(self.tolerance, TOLERANCE_CAP))
        object.__setattr__(self, "applies_to", tuple(
            name for name, spec in CATALOG.items()
            if not spec.grid_only and self.applies(spec)))


@dataclass
class CheckReport:
    check_id: str
    soliton: str
    seed: int
    n_points: int
    tolerance: float
    status: str
    max_rel_residual: float | None
    median_rel_residual: float | None
    millis: float
    parts: dict = field(default_factory=dict)
    point_residuals: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """Every field but the seed, which a document states once, and the
        per-point residuals, which only CSV output carries."""
        return {k: v for k, v in vars(self).items()
                if k not in ("seed", "point_residuals")}


REGISTRY = {}


def _check(check_id, statement, applies, tolerance=DEFAULT_TOLERANCE,
           context=None):
    """Declare check ``check_id``, run by the function below: its
    statement, predicate, tolerance and ``build_context`` keywords."""
    def declare(runner):
        REGISTRY[check_id] = CheckSpec(check_id, statement, applies, runner,
                                       tolerance, dict(context or {}))
        return runner
    return declare


def _sym2_terms(n, pairs):
    """Component term lists for a symmetric-2-tensor identity from
    [(tensor, scale), ...]; only the stored components (i, j), j <= i, enter:
    the others repeat them."""
    return [[t[i, j] * s for t, s in pairs] for i, j in geo.sym2_indices(n)]


# ---------------------------------------------------------------------------
# runners: each takes the SolitonContext that run_check builds for it and
# returns {part_name: Identity}

@_check("CHK-S1",
        "Ric + Hess f = lam g with lam = 0 (steady) or -1/(2t) (shrinking); "
        "moving charts also solve dg/dt = -2 Ric exactly",
        _any, 1e-9)
def _run_s1(ctx):
    ch = ctx.chart
    n = ch.n
    hf = geo.hessian(ch, ctx.f)
    lam_g = geo.sym2_from(lambda i, j: ch.g[i, j] * -ctx.lam, n)
    pairs = [(ch.ricci, 1.0), (hf, 1.0), (lam_g, 1.0)]
    parts = {"soliton_equation": Identity(_sym2_terms(n, pairs))}
    if ctx.spec.ricci_flow_exact:
        dg = geo.sym2_from(lambda i, j: ctx.dt(ch.g[i, j]), n)
        parts["ricci_flow"] = Identity(
            _sym2_terms(n, [(dg, 1.0), (ch.ricci, 2.0)]))
    return parts


@_check("CHK-S2",
        "Lap R + 2|Rc|^2 = <grad R, grad f> (steady; shrinking adds -R/t) "
        "and grad R = 2 Rc(grad f)",
        _any)
def _run_s2(ctx):
    ch = ctx.chart
    r = ch.scalar_curvature
    df = geo.differential(ch, ctx.f)
    dr = geo.differential(ch, r)
    rc2 = geo.inner_sym2(ch, ch.ricci, ch.ricci)
    grr = geo.inner_vec(ch, dr, df)
    terms = [geo.laplacian(ch, r), 2.0 * rc2, -grr, r * -ctx.lam * 2.0]
    gf = geo.raise_vector(ch, df)
    return {
        "scalar_curvature_identity": Identity([terms]),
        "curvature_gradient": Identity(
            [[dr[i]] + [-2.0 * ch.ricci[i, k] * gf[k] for k in range(ch.n)]
             for i in range(ch.n)], _nabla_ricci_atom_scale(ch)),
    }


@_check("CHK-S3", "normalized steady: R + |grad f|^2 = 1 and R = -Lap f",
        _normalized)
def _run_s3(ctx):
    ch = ctx.chart
    df = geo.differential(ch, ctx.f)
    return {
        "normalization": Identity(
            [[ch.scalar_curvature, geo.inner_vec(ch, df, df), -1.0]]),
        "trace_equation": Identity(
            [[ch.scalar_curvature, geo.laplacian(ch, ctx.f)]]),
    }


@_check("CHK-H1",
        "M_pq - lam R_pq = P_ipq grad^i f (lam = 0 steady, -1/(2t) shrinking)",
        _any)
def _run_h1(ctx):
    ch = ctx.chart
    m = hk.matrix_harnack(ch)
    p = hk.p_tensor(ch)
    gf = geo.gradient(ch, ctx.f)
    out = [[m[i, j]] + [-p[k, i, j] * gf[k] for k in range(ch.n)]
           + [ch.ricci[i, j] * -ctx.lam] for i, j in geo.sym2_indices(ch.n)]
    return {"matrix_harnack_potential": Identity(out)}


@_check("CHK-H2", "P_ipq = riem[p,i,j,q] grad^j f on any gradient soliton",
        _any)
def _run_h2(ctx):
    ch = ctx.chart
    n = ch.n
    p = hk.p_tensor(ch)
    gf = geo.gradient(ch, ctx.f)
    low = ch.riem_low
    out = []
    for i in range(n):
        for pp in range(n):
            for q in range(n):
                out.append([p[i, pp, q]]
                           + [-low[pp, i, j, q] * gf[j] for j in range(n)])
    return {"p_tensor_curvature": Identity(out, _nabla_ricci_atom_scale(ch))}


@_check("CHK-H3",
        "((d/dt - Lap) grad f)^j - R^j_k grad^k f = 2 lam grad^j f", _any)
def _run_h3(ctx):
    ch = ctx.chart
    gf = geo.gradient(ch, ctx.f)
    lap_gf = geo.rough_laplacian(ch, gf)
    mixed = geo.mixed_ricci(ch)
    out = []
    for j in range(ch.n):
        out.append([ctx.dt(gf[j]), -lap_gf[j]]
                   + [-mixed[j, k] * gf[k] for k in range(ch.n)]
                   + [gf[j] * -ctx.lam * 2.0])
    return {"potential_gradient_evolution": Identity(out)}


@_check("CHK-H4", "Z(Rc, -grad f) = lam R", _any)
def _run_h4(ctx):
    ch = ctx.chart
    terms = hk.linear_trace_terms(ch, ch.ricci, fields.neg_grad_potential(ctx))
    return {"trace_harnack_soliton":
            Identity([terms + [ch.scalar_curvature * -ctx.lam]])}


@_check("CHK-H4t",
        "2 Z(Rc, X) = Lap R + 2|Rc|^2 + 2<grad R, X> + 2 Rc(X,X) for any X",
        _any, 1e-9)
def _run_h4t(ctx):
    ch = ctx.chart
    x = fields.trig_vector(ctx, "h4t.X")
    zt = [2.0 * t for t in hk.linear_trace_terms(ch, ch.ricci, x)]
    return {"trace_form": _balance(hk.trace_harnack_terms(ch, x), zt)}


def _heat_terms(ctx, pieces):
    """d/dt and -Lap of each summand separately."""
    ch = ctx.chart
    return [ctx.dt(z) for z in pieces] + [-geo.laplacian(ch, z) for z in pieces]


def _evolved_h(ctx):
    """The trig h under dh/dt = Lichnerowicz(h), built once per context."""
    return ctx.evolved(("h", None), lambda: fields.propagate_sym2(
        ctx, fields.trig_sym2(ctx, "h")))


@_check("CHK-EQ1",
        "(d/dt - Lap) Z(h,X) equals the four curvature production groups "
        "under Ricci flow with dh/dt = Lichnerowicz(h); on a steady soliton "
        "with h = Rc, X = -grad f each group vanishes",
        _exact_flow, 1e-7)
def _run_eq1(ctx):
    ch = ctx.chart
    h = _evolved_h(ctx)
    x = fields.trig_vector(ctx, "eq1.X", time_linear=True)
    dxdt = geo.vector_from(lambda i: ctx.dt(x[i]), ch.n, con=True)
    curvature = hk.chart_inputs(ch)
    lhs = _heat_terms(ctx, hk.linear_trace_terms(ch, h, x))
    rhs = hk.evolution_rhs_groups(ch, **curvature,
                                  **hk.field_inputs(ch, h, x, dxdt))
    parts = {"evolution_identity": _balance(lhs, rhs)}
    if ctx.spec.kind == "steady":
        parts.update(_eq1_vanishing_brackets(ctx, curvature))
    return parts


def _eq1_vanishing_brackets(ctx, curvature):
    """On a steady soliton with h = Ric, X = -grad f, each of the four groups
    on the right of the evolution identity vanishes. ``curvature`` is
    ``hk.chart_inputs`` of the context's chart. Each group's atom scale is
    the same group evaluated on the magnitudes of its inputs, which stays
    away from zero where the group itself vanishes on the soliton."""
    ch = ctx.chart
    x = fields.neg_grad_potential(ctx)
    dxdt = geo.vector_from(lambda i: ctx.dt(x[i]), ch.n, con=True)
    inputs = curvature | hk.field_inputs(ch, ch.ricci, x, dxdt)
    brackets = hk.evolution_rhs_groups(ch, **inputs)
    scales = hk.evolution_rhs_groups(
        geo.MagnitudeChart(ch), **{k: geo.magnitudes(v) for k, v in inputs.items()})
    return {f"vanishing_bracket_{k + 1}": Identity([[b]], field_data(s))
            for k, (b, s) in enumerate(zip(brackets, scales))}


@_check("CHK-L1",
        "Z(h, -grad f) solves the heat equation on a steady soliton "
        "(dg/dt = -2Rc, df/dt = Lap f or |grad f|^2, dh/dt = Lichnerowicz(h))",
        _steady_system, 1e-7)
def _run_l1(ctx):
    h = _evolved_h(ctx)
    pieces = hk.linear_trace_terms(ctx.chart, h, fields.neg_grad_potential(ctx))
    return {"heat_equation": Identity([_heat_terms(ctx, pieces)])}


@_check("CHK-L2",
        "on a shrinker, (d/dt - Lap)(Z + H/2t) = -(2/t)(Z + H/2t), "
        "equivalently t^2 (Z + H/2t) is a heat solution; and "
        "(d/dt - Lap) H = 2<h, Rc>",
        _shrinking, 1e-7)
def _run_l2(ctx):
    ch = ctx.chart
    h = _evolved_h(ctx)
    zp = hk.linear_trace_terms(ch, h, fields.neg_grad_potential(ctx))
    bigh = geo.trace_sym2(ch, h)
    pieces = zp + [bigh * -ctx.lam]
    damped = _heat_terms(ctx, pieces) + [(-4.0 * ctx.lam) * z for z in pieces]
    t2 = ctx.t * ctx.t
    conserved = _heat_terms(ctx, [t2 * z for z in pieces])
    trace_ev = [ctx.dt(bigh), -geo.laplacian(ch, bigh),
                -2.0 * geo.inner_sym2(ch, h, ch.ricci)]
    return {
        "damped_heat": Identity([damped]),
        "conserved_form": Identity([conserved]),
        "trace_evolution": Identity([trace_ev]),
    }


@_check("CHK-R1",
        "under dg/ds = h, df/ds = H/2: "
        "d/ds (R + 2 Lap f - |grad f|^2) = Z(h, -grad f) - 2<h, Rc + Hess f>, "
        "and the weighted measure e^{-f} dvol is stationary",
        _any, context={"time": "const", "deform": True})
def _run_r1(ctx):
    ch0 = ctx.chart
    h = fields.trig_sym2(ctx, "r1.h")
    bigh = geo.trace_sym2(ch0, h)
    gs = [[ch0.g[i, j] + ctx.s * h[i, j] for j in range(ch0.n)]
          for i in range(ch0.n)]
    chs = geo.MetricChart(gs)
    fs = ctx.f + ctx.s * (0.5 * bigh)
    lhs = ctx.ds(sum(hk.perelman_scalar_terms(chs, fs)))
    zterms = hk.linear_trace_terms(ch0, h, fields.neg_grad_potential(ctx))
    defect = geo.tensor_map(lambda p, q: p + q, ch0.ricci, geo.hessian(ch0, ctx.f))
    coupling = -2.0 * geo.inner_sym2(ch0, h, defect)
    density = (-fs).exp() * chs.volume_density
    return {
        "deformation_identity": _balance([lhs], zterms + [coupling]),
        "weighted_measure": Identity([[ctx.ds(density)]],
                                     np.abs(field_data(density))),
    }


@_check("CHK-R2",
        "V = (2 Lap f - |grad f|^2 + R) e^{-f} satisfies "
        "(-d/dt - Lap + R) V = -2 |Rc + Hess f|^2 e^{-f} along the "
        "conjugate-potential flow df/dt = -Lap f + |grad f|^2 - R",
        _steady_system, 1e-7)
def _run_r2(ctx):
    ch = ctx.chart

    def identity(f):
        v = hk.conjugate_density(ch, f)
        lhs = hk.box_star_terms(ch, ctx.dt, v)
        rhs = -2.0 * hk.soliton_defect_norm2(ch, f) * geo.exp(-f)
        return _balance(lhs, [rhs])

    f0 = fields.trig_scalar(ctx, "r2.f0", base=0.5)
    fprop = fields.propagate_scalar(ctx, f0, fields.rhs_conjugate_potential)
    parts = {"generic_potential": identity(fprop)}
    if ctx.spec.potential_time_rule == "grad2":
        parts["soliton_potential"] = identity(ctx.f)
    return parts


def _log_solution(ctx, eps):
    """log u for du/dt = eps^{-1} Lap u + R u from a trig u0, built once per
    (context, eps)."""
    def build():
        u0 = fields.trig_scalar(ctx, "b.u0", amplitude=0.3).exp()
        return fields.propagate_scalar(ctx, u0, fields.rhs_linear_heat(eps)).log()
    return ctx.evolved(("b.u0", eps), build)


@_check("CHK-B1",
        "u = e^f solves du/dt = Lap u + R u when df/dt = |grad f|^2 on a "
        "normalized steady (or f = 0 flat)",
        _grad2)
def _run_b1(ctx):
    ch = ctx.chart
    u = geo.exp(ctx.f)
    return {"potential_solution": Identity(
        [[ctx.dt(u), -geo.laplacian(ch, u), -ch.scalar_curvature * u]])}


@_check("CHK-B2",
        "L Q = |Hess v|^2 + <Rc, Hess v> + Rc(grad(v-f), grad(v-f)) for "
        "Q = Lap v + R, v = log u, du/dt = Lap u + R u",
        _grad2, 1e-7)
def _run_b2(ctx):
    v = _log_solution(ctx, 1.0)
    lhs = hk.l_eps_terms(ctx.chart, ctx.dt, v, hk.log_q(ctx.chart, v), 1.0)
    rhs = hk.lq_production_terms(ctx.chart, v, ctx.f)
    return {"log_laplacian_evolution": _balance(lhs, rhs)}


@_check("CHK-B3", "L(|grad v|^2 + R) = |Rc|^2 - |Hess v|^2", _grad2, 1e-7)
def _run_b3(ctx):
    ch = ctx.chart
    v = _log_solution(ctx, 1.0)
    dv = geo.differential(ch, v)
    w = geo.inner_vec(ch, dv, dv) + ch.scalar_curvature
    lhs = hk.l_eps_terms(ch, ctx.dt, v, w, 1.0)
    rhs = hk.grad2r_production_terms(ch, v)
    return {"gradient_energy_evolution": _balance(lhs, rhs)}


@_check("CHK-B4",
        "L P = |Hess v + Rc|^2 + 2 Rc(grad(v-f), grad(v-f)) for "
        "P = 2 Lap v + |grad v|^2 + 3R",
        _grad2, 1e-7)
def _run_b4(ctx):
    ch = ctx.chart
    v = _log_solution(ctx, 1.0)
    lhs = hk.l_eps_terms(ch, ctx.dt, v, hk.harnack_p_eps(ch, v, 1.0), 1.0)
    rhs = hk.lp_production_terms(ch, v, ctx.f)
    return {"harnack_evolution": _balance(lhs, rhs)}


@_check("CHK-B5", "L P >= Q^2 / n pointwise when Rc >= 0 (Cauchy-Schwarz)",
        # One named chart: widening B5 to every chart with Rc >= 0 would
        # add verdicts to the registry's fixed count of 102.
        _where(name="cigar_flow_v2"), 1e-7)
def _run_b5(ctx):
    ch = ctx.chart
    v = _log_solution(ctx, 1.0)
    q = field_data(hk.log_q(ch, v))
    lp = field_data(sum(
        hk.l_eps_terms(ch, ctx.dt, v, hk.harnack_p_eps(ch, v, 1.0), 1.0)))
    bound = q * q / ch.n
    slack = np.maximum(lp - bound, 0.0)
    return {"cauchy_schwarz_bound": Identity([[lp, -bound, -slack]])}


@_check("CHK-B6",
        "L_eps P_eps equals its five-term production formula for "
        "P_eps = 2 Lap v + |grad v|^2 + (2 eps + 1) R, du/dt = eps^{-1} Lap u + R u",
        _grad2, 1e-7)
def _run_b6(ctx):
    ch = ctx.chart
    parts = {}
    for eps in _EPS_SET:
        v = _log_solution(ctx, eps)
        lhs = hk.l_eps_terms(ch, ctx.dt, v, hk.harnack_p_eps(ch, v, eps), eps)
        rhs = hk.leps_production_terms(ch, v, ctx.f, eps)
        parts[f"eps({eps:g})"] = _balance(lhs, rhs)
    return parts


@_check("CHK-B7",
        "algebraic rewrite of the Ricci production terms: "
        "2/eps A(grad(v - eps f)) + (1 - 1/eps) A(grad(v+f)) = "
        "(1 + 1/eps) A(grad(v-f)) + 2(eps - 1/eps) A(grad f) for symmetric A",
        _any, 1e-7)
def _run_b7(ctx):
    v = fields.trig_scalar(ctx, "b7.v", base=0.2)
    return {f"eps({eps:g})": _balance(*hk.ricci_terms_rewrite(
                ctx.chart, ctx.chart.ricci, v, ctx.f, eps))
            for eps in _EPS_SET}


@_check("CHK-B8",
        "eps = -1: (1/2 (d/dt + Lap) + grad v . grad)(2 Lap v + |grad v|^2 - R) "
        "= -|Rc - Hess v|^2 = -|Hess(f + v)|^2",
        _grad2, 1e-7)
def _run_b8(ctx):
    ch = ctx.chart
    v = _log_solution(ctx, -1.0)
    lhs = hk.l_eps_terms(ch, ctx.dt, v, hk.harnack_p_eps(ch, v, -1.0), -1.0)
    diff = geo.tensor_map(lambda a, b: a - b, ch.ricci, geo.hessian(ch, v))
    hfv = geo.hessian(ch, ctx.f + v)
    return {
        "energy_production": _balance(lhs, [-geo.inner_sym2(ch, diff, diff)]),
        "soliton_production": _balance(lhs, [-geo.inner_sym2(ch, hfv, hfv)]),
    }


class UnknownCheckError(KeyError):
    pass


def get_check(check_id: str) -> CheckSpec:
    try:
        return REGISTRY[check_id]
    except KeyError:
        raise UnknownCheckError(
            f"unknown check {check_id!r}; known: {sorted(REGISTRY)}") from None


def run_check(check_id: str, soliton: str, seed: int = 0, n_points: int = 32,
              order: int = 6, tolerance: float | None = None) -> CheckReport:
    spec = get_check(check_id)
    catalog_get(soliton)  # an unknown name raises
    tol = spec.tolerance if tolerance is None else min(tolerance, TOLERANCE_CAP)
    if soliton not in spec.applies_to:
        return CheckReport(check_id, soliton, seed, n_points, tol,
                           STATUS_SKIPPED, None, None, 0.0)
    t0 = time.perf_counter()
    ctx = build_context(soliton, seed, n_points, order, **spec.context)
    try:
        identities = spec.runner(ctx)
    except JetCapError as e:
        # no --order lifts a degree cap: name the variable, not the order
        var = ctx.var_names[e.var]
        raise JetOrderError(
            f"{check_id} on {soliton} takes more than {e.cap} derivative(s) "
            f"in {var}, the degree its jet context carries in {var}") from e
    except JetOrderError as e:
        raise JetOrderError(
            f"jet order {order} is too low for {check_id} on {soliton} ({e})") from e
    parts = {k: tensor_residual(p.components, p.atom_scale)
             for k, p in identities.items()}
    millis = 1000.0 * (time.perf_counter() - t0)
    worst = np.max(np.stack([np.broadcast_to(p, (n_points,)) for p in
                             parts.values()]), axis=0)
    status = STATUS_PASS if float(worst.max()) <= tol else STATUS_FAIL
    return CheckReport(
        check_id, soliton, seed, n_points, tol, status,
        float(worst.max()), float(np.median(worst)), millis,
        parts={k: float(np.max(v)) for k, v in sorted(parts.items())},
        point_residuals=worst)


def run_suite(checks=None, solitons=None, seed: int = 0, n_points: int = 32,
              order: int = 6, tolerance: float | None = None) -> list:
    check_ids = list(checks) if checks else sorted(REGISTRY)
    names = list(solitons) if solitons else list(CATALOG)
    return [run_check(c, s, seed=seed, n_points=n_points, order=order,
                      tolerance=tolerance)
            for c in check_ids for s in names]
