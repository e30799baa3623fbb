import numpy as np
import pytest

from harnacklab import geometry as geo, gridlab as gl
from harnacklab.fields import trig_params
from harnacklab.geometry import MetricError, field_data
from harnacklab.gridlab import TorusGrid, eval_trig
from harnacklab.jet import jet_space


def _coords(order=5, pts=None):
    sp = jet_space(2, order)
    if pts is None:
        pts = np.array([[0.3, -0.8, 0.45], [0.7, 0.25, -0.6]])
    return sp.variables(pts)


def flat_chart(order=4):
    x, y = _coords(order)
    one, zero = 1.0 + 0.0 * x, 0.0 * x
    return geo.MetricChart([[one, zero], [zero, one]]), x, y


def generic_chart(order=5):
    """delta plus an anisotropic trig perturbation; nothing special holds."""
    x, y = _coords(order)
    g00 = 1.0 + 0.2 * (x + 2.0 * y).sin()
    g01 = 0.15 * (2.0 * x - y).cos()
    g11 = 1.0 + 0.25 * (x * 0.5 + y).cos()
    return geo.MetricChart([[g00, g01], [g01, g11]]), x, y


def sphere_chart(order=5):
    # round unit 2-sphere in stereographic coordinates
    x, y = _coords(order)
    conf = 4.0 * ((1.0 + x * x + y * y) ** 2).reciprocal()
    zero = 0.0 * x
    return geo.MetricChart([[conf, zero], [zero, conf]]), x, y


def _maxabs(elem):
    return float(np.max(np.abs(field_data(elem))))


def test_flat_chart_is_flat():
    ch, x, _ = flat_chart()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert _maxabs(ch.christoffels[k, i, j]) == 0.0
    assert _maxabs(ch.scalar_curvature) == 0.0
    assert all(_maxabs(ch.ricci[i, j]) == 0.0 for i in range(2) for j in range(2))


def test_sphere_scalar_curvature_is_two():
    ch, _, _ = sphere_chart()
    r = field_data(ch.scalar_curvature)
    assert np.max(np.abs(r - 2.0)) < 1e-10


def test_sphere_is_einstein():
    ch, _, _ = sphere_chart()
    for i in range(2):
        for j in range(2):
            gap = ch.ricci[i, j] - 0.5 * ch.scalar_curvature * ch.g[i, j]
            assert _maxabs(gap) < 1e-11


def test_conformal_scalar_curvature_oracle():
    # g = e^{2u} delta has R = -2 e^{-2u} (flat laplacian of u); the right
    # side below never touches the curvature machinery
    x, y = _coords(6)
    u = 0.3 * (x + 0.5 * y).sin() + 0.2 * (x * y).cos()
    conf = (2.0 * u).exp()
    zero = 0.0 * x
    ch = geo.MetricChart([[conf, zero], [zero, conf]])
    lap0 = u.partial(0).partial(0) + u.partial(1).partial(1)
    want = -2.0 * (-2.0 * u).exp() * lap0
    assert _maxabs(ch.scalar_curvature - want) < 1e-10


def test_cigar_scalar_curvature_closed_form():
    x, y = _coords(5)
    conf = 4.0 * (1.0 + x * x + y * y).reciprocal()
    zero = 0.0 * x
    ch = geo.MetricChart([[conf, zero], [zero, conf]])
    want = (1.0 + x * x + y * y).reciprocal()
    assert _maxabs(ch.scalar_curvature - want) < 1e-12


def test_scalar_curvature_scaling_law():
    ch, x, y = generic_chart()
    scaled = geo.MetricChart([[4.0 * ch.g[i][j] for j in range(2)]
                              for i in range(2)])
    gap = scaled.scalar_curvature - 0.25 * ch.scalar_curvature
    assert _maxabs(gap) < 1e-12


def test_riemann_symmetries_and_first_bianchi():
    ch, _, _ = generic_chart()
    low = ch.riem_low
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert _maxabs(low[i, j, k, l] + low[j, i, k, l]) < 1e-13
                    assert _maxabs(low[i, j, k, l] + low[i, j, l, k]) < 1e-12
                    assert _maxabs(low[i, j, k, l] - low[k, l, i, j]) < 1e-12
                    bianchi = low[i, j, k, l] + low[j, k, i, l] + low[k, i, j, l]
                    assert _maxabs(bianchi) < 1e-12


def test_contracted_bianchi():
    ch, _, _ = generic_chart()
    div_ric = geo.divergence_sym2(ch, ch.ricci)
    dr = geo.differential(ch, ch.scalar_curvature)
    for i in range(2):
        assert _maxabs(div_ric[i] - 0.5 * dr[i]) < 1e-11


def test_metric_compatibility():
    ch, _, _ = generic_chart()
    nabla_g = geo.covariant_derivative(ch, geo.TensorValue(2, 0, ch.g))
    for idx in np.ndindex(2, 2, 2):
        assert _maxabs(nabla_g.comps[idx]) < 1e-13


def test_lichnerowicz_annihilates_the_metric():
    ch, _, _ = generic_chart()
    lg = geo.lichnerowicz_laplacian(ch, geo.TensorValue(2, 0, ch.g))
    for i in range(2):
        for j in range(2):
            assert _maxabs(lg[i, j]) < 1e-10


def test_volume_density_cigar_origin():
    sp = jet_space(2, 4)
    x, y = sp.variables(np.array([[0.0], [0.0]]))
    conf = 4.0 * (1.0 + x * x + y * y).reciprocal()
    zero = 0.0 * x
    ch = geo.MetricChart([[conf, zero], [zero, conf]])
    assert field_data(ch.volume_density)[0] == pytest.approx(4.0, abs=1e-14)


def test_flat_divergence_examples():
    ch, x, y = flat_chart()
    h = geo.sym2_from(lambda i, j: x.cos() if i == j else 0.0 * x, 2)
    div = geo.divergence_sym2(ch, h)
    assert _maxabs(div[0] + x.sin()) < 1e-13
    assert _maxabs(div[1]) < 1e-13
    # on a flat chart a covector has its vector's components, so a position
    # slip passes here; test_inner_vec_index_position_invariance catches it
    assert _maxabs(geo.divergence_vec(ch, geo.raise_vector(ch, div))
                   + x.cos()) < 1e-12
    assert _maxabs(geo.laplacian(ch, x.sin()) + x.sin()) < 1e-12


def test_raise_sym2_roundtrip():
    ch, x, y = generic_chart()
    h = geo.sym2_from(lambda i, j: [[1.0 + x * x, x * y], [x * y, y.cos()]][i][j], 2)
    hup = geo.raise_sym2(ch, h)
    for i in range(2):
        for j in range(2):
            lowered = sum(ch.g[i, k] * ch.g[j, l] * hup[k, l]
                          for k in range(2) for l in range(2))
            assert _maxabs(lowered - h[i, j]) < 1e-12
    assert _maxabs(geo.trace_sym2(ch, geo.TensorValue(2, 0, ch.g)) - 2.0) < 1e-13
    # <h, g> = tr h
    assert _maxabs(geo.inner_sym2(ch, h, geo.TensorValue(2, 0, ch.g))
                   - geo.trace_sym2(ch, h)) < 1e-12


def test_inner_vec_index_position_invariance():
    # each operation takes one index position and refuses the other
    ch, x, y = generic_chart()
    phi, psi = x.sin() + 0.3 * y, y.cos() + 0.1 * x * x
    v, w = geo.gradient(ch, phi), geo.gradient(ch, psi)
    dv, dw = geo.differential(ch, phi), geo.differential(ch, psi)
    # g^{ij} dphi_i dpsi_j is g_ij v^i w^j on the gradients
    want = sum(ch.g[i, j] * v[i] * w[j] for i in range(2) for j in range(2))
    assert _maxabs(geo.inner_vec(ch, dv, dw) - want) < 1e-13
    assert np.all(field_data(geo.inner_vec(ch, dv, dv)) > 0.0)
    for refused in (lambda: geo.inner_vec(ch, v, dw),
                    lambda: geo.inner_vec(ch, dv, w),
                    lambda: geo.sym2_apply(ch, ch.ricci, dv, w),
                    lambda: geo.sym2_apply(ch, ch.ricci, v, dw),
                    lambda: geo.divergence_vec(ch, dv)):
        with pytest.raises(TypeError):
            refused()


def test_hessian_is_symmetric_and_traces_to_laplacian():
    ch, x, y = generic_chart()
    u = (x + 2.0 * y).sin() * x
    hess = geo.hessian(ch, u)
    assert _maxabs(hess[0, 1] - hess[1, 0]) == 0.0
    assert _maxabs(geo.trace_sym2(ch, hess) - geo.laplacian(ch, u)) < 1e-13
    rough = geo.rough_laplacian(ch, geo.scalar_tensor(u))
    assert _maxabs(rough.comps[()] - geo.laplacian(ch, u)) < 1e-11


def test_mixed_ricci_and_sym2_apply():
    ch, x, y = generic_chart()
    mixed = geo.mixed_ricci(ch)
    for i in range(2):
        for j in range(2):
            manual = sum(ch.ginv[i, k] * ch.ricci[k, j] for k in range(2))
            assert _maxabs(mixed[i, j] - manual) < 1e-13
    v = geo.vector_from(lambda i: [x, y][i], 2, con=True)
    quad = geo.sym2_apply(ch, ch.ricci, v, v)
    manual = sum(ch.ricci[i, j] * v[i] * v[j] for i in range(2) for j in range(2))
    assert _maxabs(quad - manual) < 1e-13


def test_degenerate_metric_raises():
    x, y = _coords(3)
    ch = geo.MetricChart([[0.0 * x, 0.0 * x], [0.0 * x, 1.0 + 0.0 * x]])
    with pytest.raises(MetricError):
        ch.ginv


def _negative_definite_jets():
    x, _ = _coords(3)
    return [[-1.0 + 0.0 * x, 0.0 * x], [0.0 * x, -1.0 + 0.0 * x]]


# Each has det > 0, so a determinant test alone takes it for a metric.
@pytest.mark.parametrize("g", [
    [[-1.0, 0.0], [0.0, -1.0]],
    _negative_definite_jets(),
    [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],  # 2 x 2 minor < 0
], ids=["2d", "2d-jets", "3d-first-minor", "3d-second-minor"])
def test_indefinite_metric_with_positive_determinant_raises(g):
    ch = geo.MetricChart(g)
    assert np.all(field_data(ch.det) > 0.0)
    with pytest.raises(MetricError):
        ch.ginv


# S^2 x R, the unit sphere in stereographic coordinates, pulled back by a
# constant non-orthogonal A: g(w) = A^T diag(c, c, 1) A at u = A w, with
# c = 4 / (1 + u0^2 + u1^2)^2. Every g_ij is non-zero and Ric(w) =
# A^T diag(c, c, 0) A is no multiple of g.
_SHEAR = np.array([[1.0, 0.3, -0.2], [0.25, 0.9, 0.4], [-0.3, 0.2, 1.1]])


def sheared_cylinder_chart(order=4):
    sp = jet_space(3, order)
    w = sp.variables(np.array([[0.3, -0.7, 0.5, 1.2],
                               [0.6, 0.2, -0.4, -0.9],
                               [0.1, 0.8, -1.2, 0.3]]))
    u = [sum(_SHEAR[k, j] * w[j] for j in range(3)) for k in range(3)]
    c = 4.0 * ((1.0 + u[0] * u[0] + u[1] * u[1]) ** 2).reciprocal()

    def pulled_back(sphere, line):
        return geo.sym2_from(lambda i, j: sphere * (
            _SHEAR[0, i] * _SHEAR[0, j] + _SHEAR[1, i] * _SHEAR[1, j])
            + line * _SHEAR[2, i] * _SHEAR[2, j], 3)
    return geo.MetricChart(pulled_back(c, 1.0).comps), pulled_back(c, 0.0)


def test_sheared_cylinder_curvature_in_three_dimensions():
    ch, want_ricci = sheared_cylinder_chart()
    assert ch.n == 3
    assert all(np.min(np.abs(field_data(ch.g[i, j]))) > 1e-3
               for i in range(3) for j in range(3))
    assert np.max(np.abs(field_data(ch.scalar_curvature) - 2.0)) < 1e-12
    for i in range(3):
        for j in range(3):
            assert _maxabs(ch.ricci[i, j] - want_ricci[i, j]) < 1e-12, (i, j)
            ginv_g = sum(ch.ginv[i, k] * ch.g[k, j] for k in range(3))
            assert _maxabs(ginv_g - float(i == j)) < 1e-13, (i, j)


def _grid_chart():
    """A GridField chart built the way the grid march builds one."""
    grid = TorusGrid(32)
    g = gl._perturbation_state(grid, 1, "g", 0.12)
    return gl._chart_from_state(grid, {**g, "g00": 1.0 + g["g00"],
                                       "g11": 1.0 + g["g11"]})


def test_symmetric_components_are_one_object():
    # covariant_derivative takes one partial per distinct object, so the grid
    # march's cost rests on [j, i] being the [i, j] object
    assert geo.sym2_indices(3) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    for ch in (generic_chart()[0], sheared_cylinder_chart()[0], _grid_chart()):
        n = ch.n
        arrays = {"ginv": ch.ginv, "ricci": ch.ricci.comps,
                  "rough": geo.rough_laplacian(ch, ch.ricci).comps,
                  "lichnerowicz": geo.lichnerowicz_laplacian(ch, ch.ricci).comps}
        arrays |= {f"christoffels[{k}]": ch.christoffels[k] for k in range(n)}
        for name, comps in arrays.items():
            assert comps.shape == (n, n)
            for i, j in geo.sym2_indices(n):
                assert comps[j, i] is comps[i, j], (n, name, i, j)


def test_covariant_derivative_prepends_axis():
    ch, x, y = generic_chart()
    v = geo.vector_from(lambda i: [x.sin(), y.cos()][i], 2, con=True)
    dv = geo.covariant_derivative(ch, v)
    assert dv.cov == 1 and dv.con == 1
    assert dv.comps.shape == (2, 2)
    # new covariant slot first: dv[i, j] = nabla_i v^j
    manual = ch.d(v[1], 0) + sum(ch.christoffels[1, 0, p] * v[p]
                                 for p in range(2))
    assert _maxabs(dv.comps[0, 1] - manual) < 1e-13


def test_magnitude_arithmetic():
    x, y = _coords()
    u, v = x - 1.0, x * y
    a, b = geo.Magnitude.of(u), geo.Magnitude.of(v)
    au, av = np.abs(field_data(u)), np.abs(field_data(v))
    assert np.array_equal((a + b).values, au + av)
    assert np.array_equal((a - b).values, au + av)  # differences add
    assert np.array_equal((a * b).values, au * av)
    assert np.array_equal((-3.0 * a).values, 3.0 * au)
    assert np.array_equal((a * -0.5).values, 0.5 * au)


def test_magnitude_partial_of_inputs_and_their_sums():
    x, y = _coords()
    u, v = x * y, (x - y).sin()
    a, b = geo.Magnitude.of(u), geo.Magnitude.of(v)
    assert np.array_equal(a.partial(0).values, np.abs(field_data(u.partial(0))))
    # a sum of inputs keeps its summands apart under differentiation
    want = np.abs(field_data(u.partial(1))) + np.abs(field_data(v.partial(1)))
    assert np.array_equal((a - b).partial(1).values, want)
    # so a sum that cancels still has the size of its summands' partials
    cancel = geo.Magnitude.of(u) + geo.Magnitude.of(-1.0 * u)
    assert np.all(cancel.partial(0).values > 0.0)
    for product in (a * b, 2.0 * a, a + a * b):
        with pytest.raises(TypeError):
            product.partial(0)


def test_one_dimensional_chart_inverse():
    sp = jet_space(1, 4)
    (x,) = sp.variables(np.array([[0.3, -0.8, 1.4]]))
    ch = geo.MetricChart([[1.0 + 0.3 * x * x]])
    assert ch.n == 1
    assert np.array_equal(ch.det.coeffs, ch.g[0, 0].coeffs)
    assert _maxabs(ch.ginv[0, 0] * ch.g[0, 0] - 1.0) < 1e-15
    plain = geo.MetricChart([[4.0]])
    assert plain.det == 4.0 and plain.ginv[0, 0] == 0.25


def _bits(elem):
    """Every float64 bit of an element's data, signs of zeros included."""
    data = elem.coeffs if hasattr(elem, "coeffs") else field_data(elem)
    return np.ascontiguousarray(data).view(np.int64)


def _grid_metric():
    grid = TorusGrid(16)
    g00, g11 = (eval_trig(grid, trig_params(5, tag, 2, 0.2), 1.0)
                for tag in ("g00", "g11"))
    g01 = eval_trig(grid, trig_params(5, "g01", 2, 0.1))
    return [[g00, g01], [g01, g11]]


@pytest.mark.parametrize("make_g", [
    lambda: generic_chart()[0].g,
    lambda: sphere_chart()[0].g,
    _grid_metric,
], ids=["generic-jets", "sphere-jets", "grid"])
def test_two_dimensional_det_and_ginv_equal_the_closed_forms(make_g):
    # the reference: the closed forms the n = 2 branches used to write out
    g = make_g()
    ch = geo.MetricChart(g)
    g00, g01, g10, g11 = g[0][0], g[0][1], g[1][0], g[1][1]
    det = g00 * g11 - g01 * g10
    assert np.array_equal(_bits(ch.det), _bits(det))
    for got, want in ((ch.ginv[0, 0], g11 / det), (ch.ginv[1, 1], g00 / det),
                      (ch.ginv[0, 1], -g01 / det), (ch.ginv[1, 0], -g01 / det)):
        assert np.array_equal(_bits(got), _bits(want))
