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
"""

import numpy as np

from . import geometry as geo
from .geometry import _acc


def _curvature_inputs(chart) -> dict:
    ric = chart.ricci
    return {"ric": ric, "low": chart.riem_low, "mixed": geo.mixed_ricci(chart),
            "ric_up": geo.raise_sym2(chart, ric),
            "lap_ric": geo.rough_laplacian(chart, ric),
            "hess_r": geo.hessian(chart, chart.scalar_curvature)}


def _matrix_harnack(n, ric, low, mixed, ric_up, lap_ric, hess_r) -> geo.TensorValue:
    return geo.sym2_from(
        lambda p, q: lap_ric[p, q] - 0.5 * hess_r[p, q]
        + 2.0 * _acc(low[p, i, j, q] * ric_up[i, j]
                     for i in range(n) for j in range(n))
        - _acc(ric[p, k] * mixed[k, q] for k in range(n)),
        n)


def matrix_harnack(chart) -> geo.TensorValue:
    """M_pq = Lap R_pq - (1/2) grad_p grad_q R + 2 riem[p,i,j,q] R^{ij} - R_pk R^k_q."""
    return _matrix_harnack(chart.n, **_curvature_inputs(chart))


def p_tensor(chart) -> geo.TensorValue:
    """P_ipq = grad_i R_pq - grad_p R_qi, covariant of rank 3."""
    n = chart.n
    dric = geo.covariant_derivative(chart, chart.ricci)  # dric[i][p][q]
    comps = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for p in range(n):
            for q in range(n):
                comps[i, p, q] = dric.comps[i, p, q] - dric.comps[p, q, i]
    return geo.TensorValue(3, 0, comps)


def linear_trace_terms(chart, h: geo.TensorValue, x: geo.TensorValue) -> list:
    """The four summands of Z(h, X) = div div h + <Rc,h> + 2<div h, X> + h(X,X)."""
    n = chart.n
    divh = geo.divergence_sym2(chart, h)
    return [
        geo.divergence_vec(chart, geo.raise_vector(chart, divh)),
        geo.inner_sym2(chart, chart.ricci, h),
        2.0 * _acc(divh[i] * x[i] for i in range(n)),
        geo.sym2_apply(chart, h, x, x),
    ]


def linear_trace(chart, h: geo.TensorValue, x: geo.TensorValue):
    return _acc(linear_trace_terms(chart, h, x))


def trace_harnack_terms(chart, x: geo.TensorValue) -> list:
    """Summands of 2 Z(Rc, X) = Lap R + 2|Rc|^2 + 2<grad R, X> + 2 Rc(X,X)."""
    n = chart.n
    r = chart.scalar_curvature
    dr = geo.differential(chart, r)
    return [
        geo.laplacian(chart, r),
        2.0 * geo.inner_sym2(chart, chart.ricci, chart.ricci),
        2.0 * _acc(dr[i] * x[i] for i in range(n)),
        2.0 * geo.sym2_apply(chart, chart.ricci, x, x),
    ]


def evolution_rhs_terms(chart, h: geo.TensorValue, x: geo.TensorValue,
                        dxdt: geo.TensorValue) -> list:
    """The four bracketed groups on the right side of the evolution identity

    (d/dt - Lap) Z(h,X) = 2 h^{pq} (M_pq + 2 P_ipq X^i + riem[p,i,j,q] X^i X^j)
        - 4 (grad_j X^i - R^i_j) grad^j (div(h)_i + h_ik X^k)
        + 2 (div(h)_j + h_ij X^i) (dX^j/dt - Lap X^j - R^j_k X^k)
        + 2 h_ij (grad_p X^i - R^i_p) (grad^p X^j - R^{pj})

    for the coupled system (Ricci flow, Lichnerowicz flow for h). ``dxdt`` is
    the coordinate time derivative of the components of X.
    """
    return evolution_rhs_groups(chart, **chart_inputs(chart),
                                **field_inputs(chart, h, x, dxdt))


def chart_inputs(chart) -> dict:
    """The curvature tensors the groups are built from, by name; M enters as
    its pieces. They depend on the chart alone, so a caller that evaluates
    the groups for several fields builds them once."""
    return _curvature_inputs(chart) | {"p": p_tensor(chart)}


def field_inputs(chart, h: geo.TensorValue, x: geo.TensorValue,
                 dxdt: geo.TensorValue) -> dict:
    """The tensors of (h, X) the groups are built from, by name."""
    n = chart.n
    return {
        "h": h, "x": x, "dxdt": dxdt,
        "hup": geo.raise_sym2(chart, h),
        "divh": geo.divergence_sym2(chart, h),
        "hx": geo.vector_from(lambda i: _acc(h[i, k] * x[k] for k in range(n)), n),
        "dx": geo.covariant_derivative(chart, x),    # dx[j][^i] = grad_j X^i
        "lap_x": geo.rough_laplacian(chart, x),
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


def perelman_scalar_terms(chart, f) -> list:
    """Summands of R + 2 Lap f - |grad f|^2 (constant on a normalized steady)."""
    df = geo.differential(chart, f)
    return [chart.scalar_curvature,
            2.0 * geo.laplacian(chart, f),
            -geo.inner_vec(chart, df, df)]


def conjugate_density(chart, f):
    """V = (2 Lap f - |grad f|^2 + R) e^{-f}."""
    df = geo.differential(chart, f)
    return (2.0 * geo.laplacian(chart, f) - geo.inner_vec(chart, df, df)
            + chart.scalar_curvature) * (-f).exp()


def box_star_terms(chart, dt, u) -> list:
    """Summands of the conjugate heat operator (-d/dt - Lap + R) u."""
    return [-dt(u), -geo.laplacian(chart, u), chart.scalar_curvature * u]


def soliton_defect_norm2(chart, f):
    """|Rc + Hess f|^2, the conjugate-density production term up to factors."""
    defect = geo.tensor_map(lambda a, b: a + b, chart.ricci, geo.hessian(chart, f))
    return geo.inner_sym2(chart, defect, defect)


def log_q(chart, v):
    """Q = Lap v + R for v = log u."""
    return geo.laplacian(chart, v) + chart.scalar_curvature


def harnack_p_eps(chart, v, eps: float = 1.0):
    """P_eps = 2 Lap v + |grad v|^2 + (2 eps + 1) R; eps = 1 is 2Q + |grad v|^2 + R."""
    dv = geo.differential(chart, v)
    return (2.0 * geo.laplacian(chart, v) + geo.inner_vec(chart, dv, dv)
            + (2.0 * eps + 1.0) * chart.scalar_curvature)


def l_eps_terms(chart, dt, v, w, eps: float = 1.0) -> list:
    """Summands of L_eps w = (1/2)(dw/dt - eps^{-1} Lap w) - eps^{-1} <grad v, grad w>."""
    dv = geo.differential(chart, v)
    dw = geo.differential(chart, w)
    return [0.5 * dt(w),
            (-0.5 / eps) * geo.laplacian(chart, w),
            (-1.0 / eps) * geo.inner_vec(chart, dv, dw)]


def lq_production_terms(chart, v, f) -> list:
    """|Hess v|^2 + <Rc, Hess v> + Rc(grad(v-f), grad(v-f))."""
    hv = geo.hessian(chart, v)
    gvf = geo.gradient(chart, v - f)
    return [geo.inner_sym2(chart, hv, hv),
            geo.inner_sym2(chart, chart.ricci, hv),
            geo.sym2_apply(chart, chart.ricci, gvf, gvf)]


def grad2r_production_terms(chart, v) -> list:
    """|Rc|^2 - |Hess v|^2, the production term for |grad v|^2 + R."""
    hv = geo.hessian(chart, v)
    return [geo.inner_sym2(chart, chart.ricci, chart.ricci),
            -geo.inner_sym2(chart, hv, hv)]


def lp_production_terms(chart, v, f) -> list:
    """|Hess v + Rc|^2 + 2 Rc(grad(v-f), grad(v-f))."""
    s = geo.tensor_map(lambda a, b: a + b, geo.hessian(chart, v), chart.ricci)
    gvf = geo.gradient(chart, v - f)
    return [geo.inner_sym2(chart, s, s),
            2.0 * geo.sym2_apply(chart, chart.ricci, gvf, gvf)]


def leps_production_terms(chart, v, f, eps: float) -> list:
    """Production term of L_eps P_eps:

    eps^{-1}|Hess v|^2 + 2<Rc,Hess v> + eps^{-1}|Rc|^2
      + 2 eps^{-1} Rc(grad(v - eps f), grad(v - eps f))
      + (1 - eps^{-1}) Rc(grad(v + f), grad(v + f)).
    """
    hv = geo.hessian(chart, v)
    ric = chart.ricci
    g1 = geo.gradient(chart, v - eps * f)
    g2 = geo.gradient(chart, v + f)
    ie = 1.0 / eps
    return [ie * geo.inner_sym2(chart, hv, hv),
            2.0 * geo.inner_sym2(chart, ric, hv),
            ie * geo.inner_sym2(chart, ric, ric),
            2.0 * ie * geo.sym2_apply(chart, ric, g1, g1),
            (1.0 - ie) * geo.sym2_apply(chart, ric, g2, g2)]


def ricci_terms_rewrite(chart, a: geo.TensorValue, v, f, eps: float):
    """Both forms of the Ricci part of the production term, for any symmetric A:

    2 eps^{-1} A(grad(v - eps f), .) + (1 - eps^{-1}) A(grad(v + f), .)
      == (1 + eps^{-1}) A(grad(v - f), .) + 2 (eps - eps^{-1}) A(grad f, grad f).
    """
    ie = 1.0 / eps
    g1 = geo.gradient(chart, v - eps * f)
    g2 = geo.gradient(chart, v + f)
    g3 = geo.gradient(chart, v - f)
    g4 = geo.gradient(chart, f)
    lhs = [2.0 * ie * geo.sym2_apply(chart, a, g1, g1),
           (1.0 - ie) * geo.sym2_apply(chart, a, g2, g2)]
    rhs = [(1.0 + ie) * geo.sym2_apply(chart, a, g3, g3),
           2.0 * (eps - ie) * geo.sym2_apply(chart, a, g4, g4)]
    return lhs, rhs
