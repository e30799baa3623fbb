import math

import numpy as np
import pytest

from harnacklab import fields, geometry as geo
from harnacklab.geometry import field_data
from harnacklab.jet import Jet, JetOrderError
from harnacklab.solitons import build_context

from coordinates import coordinate_jets


def _maxabs(elem):
    return float(np.max(np.abs(field_data(elem))))


def _rhs_heat(ctx, u):
    return geo.ScalarField(ctx.chart, u).lap


def test_heat_propagation_matches_closed_form():
    ctx = build_context("flat_torus", n_points=6, order=6)
    x = coordinate_jets(ctx)[0]
    u0 = x.sin()
    u = fields.propagate_scalar(ctx, u0, _rhs_heat)
    exact = x.sin() * (-ctx.t).exp()
    # every derivative with total degree inside the validity order (the
    # space carries at most one time differentiation) must be exact
    assert u.order == 5
    for e, alpha in enumerate(ctx.space.exponents):
        if ctx.space.degrees[e] > u.order:
            continue
        # compare derivatives d^alpha = c_alpha * alpha!
        fact = math.prod(math.factorial(int(k)) for k in alpha)
        got, want = u.coeff(alpha) * fact, exact.coeff(alpha) * fact
        assert np.max(np.abs(got - want)) < 1e-12, tuple(alpha)


def test_propagation_solves_its_equation():
    ctx = build_context("cigar_flow", n_points=6, order=5)
    u0 = fields.trig_scalar(ctx, "u")
    u = fields.propagate_scalar(ctx, u0, _rhs_heat)
    gap = ctx.dt(u) - geo.ScalarField(ctx.chart, u).lap
    # pointwise defect: the value of dt(u) is a t-degree-1 row the step set,
    # and the Laplacian's value reads only t-degree-0 rows, so the equation
    # holds exactly at the points
    assert _maxabs(gap) < 1e-10


def test_propagation_is_linear():
    ctx = build_context("flat_torus", n_points=5, order=5)
    a = fields.trig_scalar(ctx, "a")
    b = fields.trig_scalar(ctx, "b")
    pa = fields.propagate_scalar(ctx, a, _rhs_heat)
    pb = fields.propagate_scalar(ctx, b, _rhs_heat)
    pab = fields.propagate_scalar(ctx, a + 2.0 * b, _rhs_heat)
    assert np.max(np.abs(pab.coeffs - (pa.coeffs + 2.0 * pb.coeffs))) < 1e-12


def test_conjugate_potential_rule_recovers_gauge_shift():
    # f = t - log(e^t + r^2) satisfies df/dt = -Lap f + |grad f|^2 - R
    ctx = build_context("cigar_flow_v2", n_points=6, order=5)
    lhs = ctx.dt(ctx.f)
    rhs = fields.rhs_conjugate_potential(ctx, ctx.f)
    assert _maxabs(lhs - rhs) < 1e-11


def _with_t_rows(ctx, u, seed):
    """u with seeded nonzero values in every row of t-degree >= 1."""
    coeffs = u.coeffs.copy()
    rows = ctx.space.exponents[:, ctx.time_index] > 0
    coeffs[rows] = np.random.default_rng(seed).standard_normal(
        (np.count_nonzero(rows), u.batch))
    return Jet(ctx.space, coeffs, u.order, u.left)


def test_propagation_reads_only_the_initial_t_free_slice():
    # the right side is evaluated on the initial jet itself: its t-rows
    # reach neither the right side's t-degree-0 rows nor the step
    ctx = build_context("cigar_flow", n_points=4, order=5)
    u0 = fields.trig_scalar(ctx, "u")
    got = fields.propagate_scalar(ctx, _with_t_rows(ctx, u0, 0), _rhs_heat)
    want = fields.propagate_scalar(ctx, u0, _rhs_heat)
    assert (got.order, got.left) == (want.order, want.left)
    assert np.array_equal(got.coeffs, want.coeffs)
    h0 = fields.trig_sym2(ctx, "h")
    noisy = geo.sym2_from(lambda i, j: _with_t_rows(ctx, h0[i, j], 3 * i + j), 2)
    got, want = (fields.propagate_sym2(ctx, h) for h in (noisy, h0))
    for i, j in geo.sym2_indices(2):
        assert got[i, j].order == want[i, j].order
        assert np.array_equal(got[i, j].coeffs, want[i, j].coeffs)


def test_trig_fields_deterministic_and_nonconstant():
    ctx = build_context("cigar_static", n_points=8, order=4)
    a = fields.trig_scalar(ctx, "w")
    b = fields.trig_scalar(ctx, "w")
    c = fields.trig_scalar(ctx, "other")
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    grad_sq = a.partial(0) * a.partial(0) + a.partial(1) * a.partial(1)
    assert np.all(np.max(field_data(grad_sq)) > 0.0)


def test_trig_vector_time_linear():
    ctx = build_context("cigar_flow", n_points=5, order=4)
    x = fields.trig_vector(ctx, "X", time_linear=True)
    for i in range(2):
        # X = A + t B, so dX/dt is the B part
        b = fields.trig_scalar(ctx, f"X.B[{i}]", amplitude=0.5)
        assert _maxabs(ctx.dt(x[i]) - b) < 1e-13
    static = fields.trig_vector(ctx, "X")
    assert all(_maxabs(ctx.dt(static[i])) == 0.0 for i in range(2))


def test_propagate_sym2_solves_lichnerowicz_flow():
    ctx = build_context("cigar_flow", n_points=5, order=4)
    static = fields.trig_sym2(ctx, "h")
    assert all(_maxabs(ctx.dt(static[i, j])) == 0.0
               for i in range(2) for j in range(2))
    prop = fields.propagate_sym2(ctx, static)
    lich = geo.lichnerowicz_laplacian(ctx.chart, prop)
    for i in range(2):
        for j in range(2):
            assert _maxabs(ctx.dt(prop[i, j]) - lich[i, j]) < 1e-10


def test_propagated_ricci_is_a_fixed_point():
    # on an exact Ricci flow, d Rc/dt = Lichnerowicz(Rc): propagating the
    # initial Ricci slice must reproduce the chart's own Ricci tensor
    ctx = build_context("cigar_flow", n_points=5, order=6)
    prop = fields.propagate_sym2(ctx, ctx.chart.ricci)
    et = ctx.space.exponents[:, ctx.time_index]
    for i in range(2):
        for j in range(2):
            gap = prop[i, j] - ctx.chart.ricci[i, j]
            valid = (ctx.space.degrees <= gap.order) & (et <= 1)
            assert gap.order >= 3
            assert np.max(np.abs(gap.coeffs[valid])) < 1e-10


def test_rhs_linear_heat_reduces_to_heat_plus_reaction():
    ctx = build_context("cigar_flow", n_points=5, order=4)
    u = fields.trig_scalar(ctx, "u")
    a = fields.rhs_linear_heat(1.0)(ctx, u)
    b = _rhs_heat(ctx, u) + ctx.chart.scalar_curvature * u
    assert _maxabs(a - b) < 1e-13


def test_propagation_requires_time_variable():
    ctx = build_context("cigar_static", n_points=4, order=4, time="const")
    u0 = coordinate_jets(ctx)[0].sin()
    with pytest.raises(ValueError):
        fields.propagate_scalar(ctx, u0, _rhs_heat)
    with pytest.raises(ValueError):
        fields.propagate_sym2(ctx, fields.trig_sym2(ctx, "h"))


def test_neg_grad_potential_is_contravariant_negative_gradient():
    ctx = build_context("cigar_static", n_points=5, order=4)
    x = fields.neg_grad_potential(ctx)
    df = geo.vector_from(lambda i: ctx.f.partial(i), ctx.chart.n)
    grad = geo.raise_vector(ctx.chart, df)
    for i in range(2):
        assert _maxabs(x[i] + grad[i]) < 1e-13


def _hex_draws(dim):
    return [(float(a).hex(), w, float(phase).hex())
            for a, w, phase in fields.trig_params(0, "scalar:u", dim)]


def test_trig_params_pinned():
    # every jet and grid residual depends on these draws
    assert _hex_draws(2) == [
        ("0x1.173cb7df1b765p-2", (-2, -2), "0x1.e437b533728a0p+1"),
        ("0x1.5c3d519ab0d28p-2", (1, -2), "0x1.9173e37776ba6p+0"),
        ("-0x1.683a4328e999fp-2", (-2, -1), "0x1.7bd46f54164e2p+1")]


def test_trig_params_pinned_in_three_dimensions():
    # one frequency per coordinate, drawn from the same stream
    assert _hex_draws(3) == [
        ("0x1.173cb7df1b765p-2", (-2, -2, 1), "0x1.e437b533728a0p+1"),
        ("0x1.5c3d519ab0d28p-2", (-2, -1, -1), "0x1.4ce114160d705p+2"),
        ("-0x1.33beeec1b77c6p-3", (2, 0, 0), "0x1.8c82b2045c59ep+2")]


def test_second_time_derivative_past_the_cap_raises():
    # the context carries t to degree 1: a second d/dt has no rows to read,
    # and reading them anyway used to return zeros
    ctx = build_context("cigar_flow", n_points=4, order=5)
    u = fields.propagate_scalar(ctx, fields.trig_scalar(ctx, "u"), _rhs_heat)
    g00 = ctx.chart.g[0, 0]
    for elem in (u, g00):
        with pytest.raises(JetOrderError):
            ctx.dt(ctx.dt(elem))


def test_propagate_sym2_returns_fresh_shared_components():
    # covariant_derivative dedupes partials by id(component), so h[0, 1]
    # and h[1, 0] must stay one object; propagation builds new jets and
    # leaves the initial slice, time rows and all, as it was
    ctx = build_context("cigar_flow", n_points=4, order=5)
    h0 = ctx.chart.ricci
    before = {(i, j): h0[i, j].coeffs.copy() for i in range(2) for j in range(2)}
    h = fields.propagate_sym2(ctx, h0)
    assert h[0, 1] is h[1, 0]
    for (i, j), coeffs in before.items():
        assert h[i, j] is not h0[i, j]
        assert np.array_equal(h0[i, j].coeffs, coeffs)
