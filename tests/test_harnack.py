import numpy as np
import pytest

from harnacklab import checks, fields, geometry as geo, harnack as hk
from harnacklab.geometry import field_data
from harnacklab.jet import jet_space
from harnacklab.solitons import build_context


def _maxabs(elem):
    return float(np.max(np.abs(field_data(elem))))


def generic_chart(order=5):
    sp = jet_space(2, order)
    pts = np.array([[0.35, -0.7, 0.2], [0.6, 0.15, -0.85]])
    x, y = sp.variables(pts)
    g00 = 1.0 + 0.2 * (x + 2.0 * y).sin()
    g01 = 0.15 * (2.0 * x - y).cos()
    g11 = 1.0 + 0.25 * (0.5 * x + y).cos()
    return geo.MetricChart([[g00, g01], [g01, g11]]), x, y


def test_matrix_harnack_trace():
    # g^{pq} M_pq = (1/2) Lap R + |Rc|^2 on any metric
    ch, _, _ = generic_chart()
    m = hk.matrix_harnack(ch)
    tr = geo.trace_sym2(ch, m)
    want = 0.5 * geo.laplacian(ch, ch.scalar_curvature) \
        + geo.inner_sym2(ch, ch.ricci, ch.ricci)
    assert _maxabs(tr - want) < 1e-10


def test_p_tensor_antisymmetry_and_trace():
    ch, _, _ = generic_chart()
    p = hk.p_tensor(ch)
    for i in range(2):
        for pp in range(2):
            for q in range(2):
                assert _maxabs(p[i, pp, q] + p[pp, i, q]) < 1e-12
    # g^{pq} P_ipq = (1/2) grad_i R by the contracted Bianchi identity
    dr = geo.differential(ch, ch.scalar_curvature)
    for i in range(2):
        tr = sum(ch.ginv[pp, q] * p[i, pp, q] for pp in range(2)
                 for q in range(2))
        assert _maxabs(tr - 0.5 * dr[i]) < 1e-11


def test_linear_trace_polarization():
    ch, x, y = generic_chart()
    h = geo.sym2_from(lambda i, j: [[1.0 + 0.3 * x.sin(), 0.2 * x * y],
                                    [0.2 * x * y, y.cos()]][i][j], 2)
    xv = geo.vector_from(lambda i: [x.sin(), y * 0.5][i], 2, con=True)
    yv = geo.vector_from(lambda i: [y.cos(), x * 0.3][i], 2, con=True)
    zero = geo.vector_from(lambda i: 0.0 * x, 2, con=True)
    both = geo.vector_from(lambda i: xv[i] + yv[i], 2, con=True)
    hf = geo.Sym2Field(ch, h)

    def z(v):
        return sum(hk.linear_trace_terms(hf, v))
    mix = z(both) - z(xv) - z(yv) + z(zero)
    want = 2.0 * geo.sym2_apply(ch, h, xv, yv)
    assert _maxabs(mix - want) < 1e-11


def test_trace_harnack_matches_doubled_linear_trace_any_metric():
    # 2 Z(Rc, X) = Lap R + 2|Rc|^2 + 2 <grad R, X> + 2 Rc(X,X) needs only the
    # contracted Bianchi identity, so it holds on a generic chart
    ch, x, y = generic_chart()
    xv = geo.vector_from(lambda i: [0.4 + x.sin(), y * y][i], 2, con=True)
    lhs = 2.0 * sum(hk.linear_trace_terms(geo.Sym2Field(ch, ch.ricci), xv))
    rhs = sum(hk.trace_harnack_terms(ch, xv))
    assert _maxabs(lhs - rhs) < 1e-10


def test_perelman_scalar_is_minus_one_on_normalized_cigar():
    for name in ("cigar_static", "cigar_flow"):
        ctx = build_context(name, n_points=8, order=4)
        total = sum(hk.perelman_scalar_terms(ctx.potential))
        assert _maxabs(total + 1.0) < 1e-11, name


def test_perelman_scalar_gaussian_closed_form():
    ctx = build_context("gaussian_shrinker", n_points=16, order=4)
    total = field_data(sum(hk.perelman_scalar_terms(ctx.potential)))
    x, t = ctx.points["x"], ctx.points["t"]
    r2 = x[0] ** 2 + x[1] ** 2
    want = -2.0 / t - r2 / (4.0 * t * t)
    assert np.max(np.abs(total - want)) < 1e-11


def test_conjugate_density_gaussian_closed_form():
    ctx = build_context("gaussian_shrinker", n_points=16, order=4)
    v = field_data(hk.conjugate_density(ctx.potential))
    x, t = ctx.points["x"], ctx.points["t"]
    r2 = x[0] ** 2 + x[1] ** 2
    want = (-2.0 / t - r2 / (4.0 * t * t)) * np.exp(-(r2 / (-4.0 * t) - 1.0))
    assert np.max(np.abs(v - want)) < 1e-10


def test_soliton_defect_vanishes_on_solitons():
    for name in ("cigar_static", "gaussian_shrinker"):
        ctx = build_context(name, n_points=8, order=4)
        d = hk.soliton_defect_norm2(ctx.potential)
        if ctx.spec.kind == "shrinking":
            # steady defect |Rc + Hess f|^2 = |g/(-2t)|^2 = 1/(2t^2) here
            want = 0.5 * ctx.t.reciprocal() * ctx.t.reciprocal()
            assert _maxabs(d - want) < 1e-11
        else:
            assert _maxabs(d) < 1e-11


def test_soliton_defect_positive_generic():
    ch, x, y = generic_chart()
    u = 0.4 * (x * y).sin() + 0.2 * x
    d = hk.soliton_defect_norm2(geo.ScalarField(ch, u))
    assert np.all(field_data(d) > 0.0)


def test_harnack_p_eps_flat_frozen():
    sp = jet_space(2, 4)
    x, y = sp.variables(np.array([[0.3, 1.2], [0.8, -0.4]]))
    one, zero = 1.0 + 0.0 * x, 0.0 * x
    ch = geo.MetricChart([[one, zero], [zero, one]])
    v = x.sin()
    for eps in (-1.0, 0.5, 2.0):
        p = field_data(hk.harnack_p_eps(geo.ScalarField(ch, v), eps))
        want = -2.0 * np.sin([0.3, 1.2]) + np.cos([0.3, 1.2]) ** 2
        assert np.max(np.abs(p - want)) < 1e-12


def test_l_eps_operator_terms():
    ctx = build_context("flat_torus", n_points=6, order=5)
    w = fields.propagate_scalar(ctx, ctx.coords[0].sin(),
                                lambda c, u: geo.laplacian(c.chart, u))
    v = geo.ScalarField(ctx.chart, ctx.space.constant(np.zeros(6)))
    terms = hk.l_eps_terms(ctx.dt, v, w, eps=1.0)
    got = field_data(sum(terms))
    # for v = 0: L_1 w = (1/2)(dw/dt - Lap w) = 0 along the heat flow
    assert np.max(np.abs(got)) < 1e-12
    # eps rescales only the spatial part
    terms2 = hk.l_eps_terms(ctx.dt, v, w, eps=2.0)
    gap = field_data(sum(terms2)) - field_data(
        0.5 * ctx.dt(w) - 0.25 * geo.laplacian(ctx.chart, w))
    assert np.max(np.abs(gap)) < 1e-13


def test_box_star_terms_sum():
    ctx = build_context("cigar_flow", n_points=5, order=5)
    u = fields.trig_scalar(ctx, "u") * (-0.3 * ctx.t).exp()
    total = sum(hk.box_star_terms(ctx.chart, ctx.dt, u))
    manual = -ctx.dt(u) - geo.laplacian(ctx.chart, u) \
        + ctx.chart.scalar_curvature * u
    assert _maxabs(total - manual) < 1e-12


@pytest.fixture(scope="module")
def ricci_rewrite_sides():
    """Both sides of the rewrite for every eps of the set, from one call."""
    ch, x, y = generic_chart()
    a = geo.sym2_from(lambda i, j: [[x.cos(), 0.3 * x * y],
                                    [0.3 * x * y, 1.0 + y.sin()]][i][j], 2)
    v = 0.5 * (x + y).sin()
    f = 0.3 * (x - 2.0 * y).cos()
    return hk.ricci_terms_rewrite(ch, a, v, f, checks._EPS_SET)


@pytest.mark.parametrize("eps", checks._EPS_SET)
def test_ricci_rewrite_any_symmetric_tensor(eps, ricci_rewrite_sides):
    lhs, rhs = ricci_rewrite_sides[eps]
    assert _maxabs(sum(lhs) - sum(rhs)) < 1e-11


def test_ricci_rewrite_forms_one_gradient_per_distinct_scalar(monkeypatch):
    # on flat_torus f is the number 0.0, so v + f, v - f and each v - eps f
    # are v itself: the rewrite forms grad v and grad f alone
    gradient, seen = geo.gradient, []
    monkeypatch.setattr(geo, "gradient", lambda chart, s: (
        seen.append(s), gradient(chart, s))[1])
    ctx = build_context("flat_torus", 0, 4)
    v, f = fields.trig_scalar(ctx, "b7.v", base=0.2), ctx.f
    scalars = [v + f, v - f, f] + [v - eps * f for eps in checks._EPS_SET]
    distinct = [s for k, s in enumerate(scalars)
                if all(s is not t for t in scalars[:k])]
    hk.ricci_terms_rewrite(ctx.chart, ctx.chart.ricci, v, f, checks._EPS_SET)
    assert len(distinct) == 2 and len(seen) == len(distinct)


def test_field_inputs_forms_nabla_x_once(monkeypatch):
    # dx and lap_x read one grad X: CHK-EQ1's identity and its vanishing
    # brackets each differentiate their X once
    derivative, inputs, seen, xs = geo.covariant_derivative, hk.field_inputs, [], []
    monkeypatch.setattr(geo, "covariant_derivative", lambda chart, t, reads=None: (
        seen.append(t), derivative(chart, t, reads))[1])
    monkeypatch.setattr(hk, "field_inputs", lambda h, x, dxdt: (
        xs.append(x), inputs(h, x, dxdt))[1])
    checks.REGISTRY["CHK-EQ1"].runner(build_context("cigar_flow", 0, 4))
    assert len(xs) == 2
    assert [sum(t is x for t in seen) for x in xs] == [1, 1]


def test_leps_production_reduces_to_lp_at_eps_one():
    ctx = build_context("cigar_flow_v2", n_points=6, order=5)
    v = geo.ScalarField(ctx.chart, fields.trig_scalar(ctx, "v"))
    a = sum(hk.leps_production_terms(v, ctx.f, 1.0))
    b = sum(hk.lp_production_terms(v, ctx.f))
    assert _maxabs(a - b) < 1e-11


def _bits(value) -> list:
    """Every element a tensor, list or dict of tensors holds, as bytes."""
    if isinstance(value, dict):
        return [b for k in sorted(value) for b in _bits(value[k])]
    if isinstance(value, (list, geo.TensorValue)):
        elems = value.comps.flat if isinstance(value, geo.TensorValue) else value
        return [b for e in elems for b in _bits(e)]
    return [field_data(value).tobytes()]


@pytest.mark.parametrize("soliton", ["cigar_flow", "sphere_shrinker",
                                     "gaussian_shrinker"])
def test_kept_tensors_have_the_bits_of_building_them(soliton):
    # what a chart or a context keeps, the records of R, f and Rc and the
    # one curvature inputs build among it, equal the builders written out
    # bit for bit: a Hessian is the covariant derivative of ds, and a
    # Laplacian traces that Hessian
    ctx = build_context(soliton, 0, 4, 6)
    ch = ctx.chart
    r, ric = ch.scalar_curvature, ch.ricci
    rec, r_rec, f_rec = geo.ricci_field(ch), geo.r_field(ch), ctx.potential
    inputs = hk.chart_inputs(ch)
    dric = geo.covariant_derivative(ch, ric)
    hess_r = geo.covariant_derivative(ch, geo.differential(ch, r))
    df = geo.differential(ch, ctx.f)
    hess_f = geo.covariant_derivative(ch, df)
    pairs = [
        (r_rec.hess, hess_r),
        (r_rec.lap, geo.trace_sym2(ch, hess_r)),
        (f_rec.grad, geo.raise_vector(ch, df)),
        (f_rec.hess, hess_f),
        (f_rec.lap, geo.trace_sym2(ch, hess_f)),
        (f_rec.norm2, geo.inner_vec(ch, df, df)),
        (list(rec.mixed.flat), list(geo._raise_first(ch, ric.comps).flat)),
        (rec.up, geo.raise_sym2(ch, ric)),
        (rec.div, geo.divergence_sym2(ch, ric)),
        (rec.div_div, geo.divergence_vec(
            ch, geo.raise_vector(ch, geo.divergence_sym2(ch, ric)))),
        (rec.rc, geo.inner_sym2(ch, ric, ric)),
        (inputs["lap_ric"], geo.rough_laplacian(ch, ric)),
        (inputs["p"], [dric[i, p, q] - dric[p, q, i]
                       for i, p, q in np.ndindex(dric.comps.shape)]),
    ]
    for k, (kept, built) in enumerate(pairs):
        assert _bits(kept) == _bits(built), k
