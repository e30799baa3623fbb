"""Harnack-type quantities for the linearized Ricci flow.

Quantities are built from a chart's curvature with the conventions fixed in
:mod:`.geometry`; in particular the lowered curvature slot order is such that
g^{ij} riem_low[p,i,j,q] = Ric_pq, which is the contraction pattern the
reaction terms below rely on.

Most functions return a *list of terms* rather than their sum: identity checks
normalize the defect of an identity by the sum of the magnitudes of its finest
additive pieces, so the term structure is part of the contract. The evolution
identity's right side is split into its inputs and the algebra over them, so
the normalizer of each group is derived from that one algebra, run on the
inputs' magnitudes, rather than written a second time.

Z(h, X) and the groups read h, Rc included, through its record
(``geometry.Sym2Field``) and the scalar builders f, R or v = log u through
theirs (``geometry.ScalarField``); what keeps a record is ``geometry.Kept``.
"""

from . import geometry as geo
from .geometry import _acc


def _matrix_harnack(n, ric, low, mixed, ric_up, lap_ric, hess_r) -> geo.TensorValue:
    return geo.sym2_from(
        lambda p, q: lap_ric[p, q] - 0.5 * hess_r[p, q]
        + 2.0 * _acc(low[p, i, j, q] * ric_up[i, j]
                     for i in range(n) for j in range(n))
        - _acc(ric[p, k] * mixed[k, q] for k in range(n)),
        n)


def chart_inputs(chart) -> dict:
    """The curvature tensors the groups are built from, by name: M's pieces
    and P. They depend on the chart alone and are kept on it as one build,
    which forms grad Rc once for P_ipq = grad_i R_pq - grad_p R_qi and
    Lap Rc both."""
    def build():
        n = chart.n
        dric = geo.covariant_derivative(chart, chart.ricci)  # dric[i][p][q]
        return {"ric": chart.ricci, "low": chart.riem_low,
                "mixed": chart.ricci.mixed, "ric_up": chart.ricci.up,
                "lap_ric": geo.rough_laplacian_from(chart, dric),
                "hess_r": chart.r_field.hess,
                "p": geo.TensorValue(3, 0, geo.comps_from(
                    lambda i, p, q: dric[i, p, q] - dric[p, q, i], (n, n, n)))}
    return chart.kept("curvature inputs", build)


def matrix_harnack(chart) -> geo.TensorValue:
    """M_pq = Lap R_pq - (1/2) grad_p grad_q R + 2 riem[p,i,j,q] R^{ij} - R_pk R^k_q."""
    m_inputs = {k: v for k, v in chart_inputs(chart).items() if k != "p"}
    return _matrix_harnack(chart.n, **m_inputs)


def p_tensor(chart) -> geo.TensorValue:
    """P_ipq = grad_i R_pq - grad_p R_qi, covariant of rank 3."""
    return chart_inputs(chart)["p"]


def linear_trace_terms(h: geo.Sym2Field, x: geo.TensorValue) -> list:
    """The four summands of Z(h, X) = div div h + <Rc,h> + 2<div h, X> + h(X,X)."""
    chart = h.chart
    return [h.div_div, h.rc, 2.0 * _acc(h.div[i] * x[i] for i in range(chart.n)),
            geo.sym2_apply(chart, h, x, x)]


def trace_harnack_terms(chart, x: geo.TensorValue) -> list:
    """Summands of 2 Z(Rc, X) = Lap R + 2|Rc|^2 + 2<grad R, X> + 2 Rc(X,X)."""
    n, r = chart.n, chart.r_field
    dr = r.d
    return [
        r.lap,
        2.0 * chart.ricci.rc,
        2.0 * _acc(dr[i] * x[i] for i in range(n)),
        2.0 * geo.sym2_apply(chart, chart.ricci, x, x),
    ]


def evolution_rhs_terms(h: geo.Sym2Field, x: geo.TensorValue,
                        dxdt: geo.TensorValue) -> list:
    """The four bracketed groups on the right side of the evolution identity

    (d/dt - Lap) Z(h,X) = 2 h^{pq} (M_pq + 2 P_ipq X^i + riem[p,i,j,q] X^i X^j)
        - 4 (grad_j X^i - R^i_j) grad^j (div(h)_i + h_ik X^k)
        + 2 (div(h)_j + h_ij X^i) (dX^j/dt - Lap X^j - R^j_k X^k)
        + 2 h_ij (grad_p X^i - R^i_p) (grad^p X^j - R^{pj})

    for the coupled system (Ricci flow, Lichnerowicz flow for h). ``dxdt`` is
    the coordinate time derivative of the components of X.
    """
    return evolution_rhs_groups(h.chart, **chart_inputs(h.chart),
                                **field_inputs(h, x, dxdt))


def field_inputs(h: geo.Sym2Field, x: geo.TensorValue, dxdt: geo.TensorValue) -> dict:
    """The tensors of (h, X) the groups are built from, by name."""
    chart = h.chart
    n = chart.n
    return {
        "h": h, "x": x, "dxdt": dxdt, "hup": h.up, "divh": h.div,
        "hx": geo.vector_from(lambda i: _acc(h[i, k] * x[k] for k in range(n)), n),
        # dx after h.div: formed before it, dx raised the grid route's peak RSS
        "dx": (dx := geo.covariant_derivative(chart, x)),  # dx[j][^i] = grad_j X^i
        "lap_x": geo.rough_laplacian_from(chart, dx),
    }


def evolution_rhs_groups(chart, h, x, dxdt, hup, p, divh, hx, dx, lap_x,
                         ric, low, mixed, ric_up, lap_ric, hess_r) -> list:
    """The four groups from :func:`chart_inputs` and :func:`field_inputs`.
    On a chart they are values; on a ``geo.MagnitudeChart`` with
    ``geo.magnitudes`` of the same inputs, each is its group's sum of |atom
    products|, an atom being an input's value or the partial of one."""
    n = chart.n
    m = _matrix_harnack(n, ric, low, mixed, ric_up, lap_ric, hess_r)
    term1 = 2.0 * _acc(
        hup[pp, q] * (m[pp, q]
                      + 2.0 * _acc(p[i, pp, q] * x[i] for i in range(n))
                      + _acc(low[pp, i, j, q] * x[i] * x[j]
                             for i in range(n) for j in range(n)))
        for pp in range(n) for q in range(n))

    # w is formed here so that a magnitude of grad w keeps both summands'
    # partials, also where w = div h + hX itself vanishes
    w = geo.vector_from(lambda i: divh[i] + hx[i], n)
    dw = geo.covariant_derivative(chart, w)    # dw[j][i]  = grad_j w_i
    # a[j][i] = grad_j X^i - R^i_j, the bracket that groups 2 and 4 share
    a = [[dx.comps[j, i] - mixed[i, j] for i in range(n)] for j in range(n)]
    term2 = -4.0 * _acc(
        a[j][i] * chart.ginv[j, l] * dw.comps[l, i]
        for i in range(n) for j in range(n) for l in range(n))

    term3 = 2.0 * _acc(
        w[j] * (dxdt[j] - lap_x[j] - _acc(mixed[j, k] * x[k] for k in range(n)))
        for j in range(n))

    term4 = 2.0 * _acc(
        h[i, j] * a[pp][i] * chart.ginv[pp, l] * a[l][j]
        for i in range(n) for j in range(n) for pp in range(n) for l in range(n))

    return [term1, term2, term3, term4]


def perelman_scalar_terms(f: geo.ScalarField) -> list:
    """Summands of R + 2 Lap f - |grad f|^2 (constant on a normalized steady)."""
    return [f.chart.scalar_curvature, 2.0 * f.lap, -f.norm2]


def conjugate_density(f: geo.ScalarField):
    """V = (2 Lap f - |grad f|^2 + R) e^{-f}."""
    return (2.0 * f.lap - f.norm2 + f.chart.scalar_curvature) * geo.exp(-f.s)


def box_star_terms(chart, dt, u) -> list:
    """Summands of the conjugate heat operator (-d/dt - Lap + R) u."""
    return [-dt(u), -geo.ScalarField(chart, u).lap, chart.scalar_curvature * u]


def soliton_defect_norm2(f: geo.ScalarField):
    """|Rc + Hess f|^2, the conjugate-density production term up to factors."""
    defect = geo.tensor_map(lambda a, b: a + b, f.chart.ricci, f.hess)
    return geo.Sym2Field(f.chart, defect).norm2


def log_q(v: geo.ScalarField):
    """Q = Lap v + R for v = log u."""
    return v.lap + v.chart.scalar_curvature


def harnack_p_eps(v: geo.ScalarField, eps: float = 1.0):
    """P_eps = 2 Lap v + |grad v|^2 + (2 eps + 1) R; eps = 1 is 2Q + |grad v|^2 + R."""
    return 2.0 * v.lap + v.norm2 + (2.0 * eps + 1.0) * v.chart.scalar_curvature


def l_eps_terms(dt, v: geo.ScalarField, w, eps: float = 1.0) -> list:
    """Summands of L_eps w = (1/2)(dw/dt - eps^{-1} Lap w) - eps^{-1} <grad v, grad w>."""
    w_field = geo.ScalarField(v.chart, w)
    return [0.5 * dt(w),
            (-0.5 / eps) * w_field.lap,
            (-1.0 / eps) * geo.inner_vec(v.chart, v.d, w_field.d)]


def lq_production_terms(v: geo.ScalarField, f) -> list:
    """|Hess v|^2 + <Rc, Hess v> + Rc(grad(v-f), grad(v-f))."""
    ch, hv = v.chart, v.hess
    gvf = v.of(v.s - f).grad
    return [hv.norm2, hv.rc, geo.sym2_apply(ch, ch.ricci, gvf, gvf)]


def grad2r_production_terms(v: geo.ScalarField) -> list:
    """|Rc|^2 - |Hess v|^2, the production term for |grad v|^2 + R."""
    hv = v.hess
    return [v.chart.ricci.rc, -hv.norm2]


def lp_production_terms(v: geo.ScalarField, f) -> list:
    """|Hess v + Rc|^2 + 2 Rc(grad(v-f), grad(v-f))."""
    ch = v.chart
    s = geo.tensor_map(lambda a, b: a + b, v.hess, ch.ricci)
    gvf = v.of(v.s - f).grad
    return [geo.Sym2Field(ch, s).norm2,
            2.0 * geo.sym2_apply(ch, ch.ricci, gvf, gvf)]


def leps_production_terms(v: geo.ScalarField, f, eps: float) -> list:
    """Production term of L_eps P_eps:

    eps^{-1}|Hess v|^2 + 2<Rc,Hess v> + eps^{-1}|Rc|^2
      + 2 eps^{-1} Rc(grad(v - eps f), grad(v - eps f))
      + (1 - eps^{-1}) Rc(grad(v + f), grad(v + f)).
    """
    ch, hv, ric = v.chart, v.hess, v.chart.ricci
    g1 = v.of(v.s - eps * f).grad
    g2 = v.of(v.s + f).grad
    ie = 1.0 / eps
    return [ie * hv.norm2, 2.0 * hv.rc, ie * ric.rc,
            2.0 * ie * geo.sym2_apply(ch, ric, g1, g1),
            (1.0 - ie) * geo.sym2_apply(ch, ric, g2, g2)]


def ricci_terms_rewrite(chart, a: geo.TensorValue, v, f, eps_set) -> dict:
    """Both forms of the Ricci part of the production term, for any symmetric A
    and each eps of ``eps_set``, as {eps: (lhs, rhs)}:

    2 eps^{-1} A(grad(v - eps f), .) + (1 - eps^{-1}) A(grad(v + f), .)
      == (1 + eps^{-1}) A(grad(v - f), .) + 2 (eps - eps^{-1}) A(grad f, grad f).

    A(grad s, grad s) is formed once per distinct scalar object s of the call.
    """
    formed = {}  # id(s): (s, A(grad s, grad s)); s is held, so no id is reused

    def a_of(s):
        if id(s) not in formed:
            g = geo.ScalarField(chart, s).grad
            formed[id(s)] = (s, geo.sym2_apply(chart, a, g, g))
        return formed[id(s)][1]
    a_plus, a_minus, a_f = a_of(v + f), a_of(v - f), a_of(f)
    out = {}
    for eps in eps_set:
        ie = 1.0 / eps
        out[eps] = ([2.0 * ie * a_of(v - eps * f), (1.0 - ie) * a_plus],
                    [(1.0 + ie) * a_minus, 2.0 * (eps - ie) * a_f])
    return out
