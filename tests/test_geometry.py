import gc
import weakref

import numpy as np
import pytest

from harnacklab import geometry as geo, gridlab as gl
from harnacklab.fields import trig_params
from harnacklab.geometry import MetricError, field_data
from harnacklab.gridlab import TorusGrid, eval_trig
from harnacklab.jet import Jet, jet_space


def _rank0(s) -> geo.TensorValue:
    """A scalar as a tensor of rank 0."""
    return geo.TensorValue(0, 0, geo.comps_from(lambda: s, ()))


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


def test_integer_identity_chart_has_zero_ricci():
    # numpy integer entries are plain numbers, as Python ints are
    ch = geo.MetricChart(np.eye(2, dtype=int))
    assert all(c == 0.0 for c in ch.ricci.comps.flat)


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
    div_ric = ch.ricci.div
    dr = ch.r_field.d
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
    rec = geo.Sym2Field(ch, h)
    div = rec.div
    assert _maxabs(div[0] + x.sin()) < 1e-13
    assert _maxabs(div[1]) < 1e-13
    # on a flat chart a covector has its vector's components, so a position
    # slip passes here; test_inner_vec_index_position_invariance catches it
    assert _maxabs(rec.div_div + x.cos()) < 1e-12
    assert _maxabs(geo.ScalarField(ch, x.sin()).lap + x.sin()) < 1e-12


def test_raise_sym2_roundtrip():
    ch, x, y = generic_chart()
    h = geo.Sym2Field(ch, geo.sym2_from(
        lambda i, j: [[1.0 + x * x, x * y], [x * y, y.cos()]][i][j], 2))
    hup = h.up
    for i in range(2):
        for j in range(2):
            lowered = sum(ch.g[i, k] * ch.g[j, l] * hup[k, l]
                          for k in range(2) for l in range(2))
            assert _maxabs(lowered - h[i, j]) < 1e-12
    g = geo.Sym2Field(ch, geo.TensorValue(2, 0, ch.g))
    assert _maxabs(g.trace - 2.0) < 1e-13
    # <h, g> = tr h
    assert _maxabs(g.pair(h) - h.trace) < 1e-12


def test_inner_vec_index_position_invariance():
    # each operation takes one index position and refuses the other
    ch, x, y = generic_chart()
    phi, psi = x.sin() + 0.3 * y, y.cos() + 0.1 * x * x
    v, w = geo.ScalarField(ch, phi).grad, geo.ScalarField(ch, psi).grad
    dv, dw = geo.ScalarField(ch, phi).d, geo.ScalarField(ch, psi).d
    # g^{ij} dphi_i dpsi_j is g_ij v^i w^j on the gradients
    want = sum(ch.g[i, j] * v[i] * w[j] for i in range(2) for j in range(2))
    assert _maxabs(geo.inner_vec(ch, dv, dw) - want) < 1e-13
    assert np.all(field_data(geo.inner_vec(ch, dv, dv)) > 0.0)
    for refused in (lambda: geo.inner_vec(ch, v, dw),
                    lambda: geo.inner_vec(ch, dv, w),
                    lambda: geo.sym2_apply(ch, ch.ricci, dv, w),
                    lambda: geo.sym2_apply(ch, ch.ricci, v, dw)):
        with pytest.raises(TypeError):
            refused()


def test_hessian_is_symmetric_and_traces_to_laplacian():
    ch, x, y = generic_chart()
    u = (x + 2.0 * y).sin() * x
    rec = geo.ScalarField(ch, u)
    hess = rec.hess
    assert _maxabs(hess[0, 1] - hess[1, 0]) == 0.0
    assert _maxabs(hess.trace - rec.lap) < 1e-13
    rough = geo.rough_laplacian(ch, _rank0(u))
    assert _maxabs(rough.comps[()] - rec.lap) < 1e-11


def test_ricci_is_its_charts_record():
    ch = generic_chart()[0]
    assert isinstance(ch.ricci, geo.Sym2Field)
    assert (ch.ricci.cov, ch.ricci.con) == (2, 0)


def test_a_grid_chart_is_freed_when_its_last_reader_drops_it():
    # Rc's and R's records reach their chart through a weak proxy, so the
    # chart is freed without a cyclic collection
    gc.disable()
    try:
        ch = _grid_chart()
        _ = ch.ricci.up, ch.r_field.hess
        ref = weakref.ref(ch)
        del ch
        assert ref() is None
    finally:
        gc.enable()


def test_mixed_ricci_and_sym2_apply():
    ch, x, y = generic_chart()
    mixed = ch.ricci.mixed
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
    manual = geo.partial(v[1], 0) + sum(ch.christoffels[1, 0, p] * v[p]
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


def _bits(elem, zero_sign=True):
    """Every float64 bit of an element's data, signs of zeros included
    unless ``zero_sign`` is False."""
    data = elem.coeffs if hasattr(elem, "coeffs") else field_data(elem)
    return np.ascontiguousarray(data if zero_sign else data + 0.0).view(np.int64)


def _grid_metric():
    grid = TorusGrid(16)
    g00, g11 = (1.0 + eval_trig(grid, trig_params(5, tag, 2, 0.2))
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


def _reference_covariant_derivative(chart, t):
    """``covariant_derivative`` as written before its product table: each
    (Gamma, component) product is formed where a sum reads it."""
    n = chart.n
    gam = chart.christoffels
    comps = np.empty((n,) + t.comps.shape, dtype=object)
    for i in range(n):
        partials = {}
        for idx in np.ndindex(*t.comps.shape):
            elem = t.comps[idx]
            val = partials.get(id(elem))
            if val is None:
                val = partials[id(elem)] = geo.partial(elem, i)
            for a in range(t.cov):
                val = val - geo._acc(gam[p, i, idx[a]]
                                     * t.comps[idx[:a] + (p,) + idx[a + 1:]]
                                     for p in range(n))
            for a in range(t.cov, t.rank):
                val = val + geo._acc(gam[idx[a], i, p]
                                     * t.comps[idx[:a] + (p,) + idx[a + 1:]]
                                     for p in range(n))
            comps[(i,) + idx] = val
    return geo.TensorValue(t.cov + 1, t.con, comps)


def _reference_pairs(chart, t, reads=None):
    """Every (Gamma, component) read of the reference loop, in order, for the
    components (i,) + idx in ``reads`` (every one when None)."""
    n = chart.n
    gam = chart.christoffels
    for i in range(n):
        for idx in np.ndindex(*t.comps.shape):
            if reads is not None and (i,) + idx not in reads:
                continue
            for a in range(t.rank):
                for p in range(n):
                    g = gam[p, i, idx[a]] if a < t.cov else gam[idx[a], i, p]
                    yield g, t.comps[idx[:a] + (p,) + idx[a + 1:]]


def _test_tensors(ch, s=None):
    """Ranks 1 to 3, covariant and contravariant slots, with shared
    (``sym2_from``) and unshared (``tensor_map``) components, all built from
    the scalar ``s`` (log det g by default)."""
    n = ch.n
    s = ch.det.log() if s is None else s
    covector = geo.ScalarField(ch, s).d
    vector = geo.raise_vector(ch, covector)
    hess = geo.ScalarField(ch, s).hess
    shared = geo.sym2_from(lambda i, j: hess[i, j], n)
    unshared = geo.tensor_map(lambda c: 1.5 * c, shared)
    mixed = geo.covariant_derivative(ch, vector)
    assert unshared[0, 1] is not unshared[1, 0] and shared[0, 1] is shared[1, 0]
    return {"covector": covector, "vector": vector, "sym2": shared,
            "unshared2": unshared, "raised2": geo.Sym2Field(ch, shared).up,
            "mixed11": mixed, "cov3": geo.covariant_derivative(ch, shared),
            "mixed21": geo.covariant_derivative(ch, mixed),
            "n": n}


@pytest.mark.parametrize("make_chart", [
    lambda: generic_chart()[0], lambda: sphere_chart()[0],
    lambda: sheared_cylinder_chart()[0],
], ids=["generic", "sphere", "sheared-3d"])
def test_covariant_derivative_forms_each_jet_pair_once(make_chart, monkeypatch):
    ch = make_chart()
    tensors = _test_tensors(ch)
    n = tensors.pop("n")
    mul_raw = type(ch.det.space).mul_raw
    calls = []

    def counted(space, a, b):
        calls.append(1)
        return mul_raw(space, a, b)
    monkeypatch.setattr(type(ch.det.space), "mul_raw", counted)
    repeats = 0
    for name, t in tensors.items():
        calls.clear()
        got = geo.covariant_derivative(ch, t)
        formed = len(calls)
        calls.clear()
        want = _reference_covariant_derivative(ch, t)
        assert got.comps.shape == want.comps.shape == (n,) + t.comps.shape
        assert (got.cov, got.con) == (want.cov, want.con)
        for a, b in zip(got.comps.flat, want.comps.flat):
            assert type(a) is type(b), name
            assert np.array_equal(_bits(a), _bits(b)), name
            if hasattr(a, "coeffs"):
                assert (a.order, a.left) == (b.order, b.left), name
        jet_pairs = [(id(g), id(c)) for g, c in _reference_pairs(ch, t)
                     if hasattr(g, "coeffs") and hasattr(c, "coeffs")]
        assert len(calls) == len(jet_pairs), name
        assert formed == len(set(jet_pairs)), name
        repeats += len(jet_pairs) - formed
    assert repeats > 0


def _grid_case():
    ch = _grid_chart()
    return ch, geo.covariant_derivative(ch, ch.ricci), gl.GridField


def _number_case():
    # flat_metric's Christoffels are the number 0.0: every product with them
    # would fold to 0.0, so none is formed
    jets = generic_chart()[0]
    return (geo.MetricChart(geo.flat_metric(2)),
            geo.covariant_derivative(jets, jets.ricci), Jet)


def _magnitude_case():
    jets = generic_chart()[0]
    return (geo.MagnitudeChart(jets),
            geo.magnitudes(geo.covariant_derivative(jets, jets.ricci)),
            geo.Magnitude)


def _counting_products(monkeypatch, elem_type) -> list:
    """Count every product of an element of ``elem_type``, from either side."""
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counted(x, other, mul=getattr(elem_type, name)):
            calls.append(1)
            return mul(x, other)
        monkeypatch.setattr(elem_type, name, counted)
    return calls


def _assert_same_elements(got, want, where="", zero_sign=True):
    assert type(got) is type(want), where
    assert np.array_equal(_bits(got, zero_sign), _bits(want, zero_sign)), where
    if hasattr(got, "coeffs"):
        assert (got.order, got.left) == (want.order, want.left), where


@pytest.mark.parametrize("make_case", [_grid_case, _number_case, _magnitude_case],
                         ids=["grid", "number-christoffels", "magnitudes"])
def test_covariant_derivative_forms_each_pair_once_on_every_chart(make_case,
                                                                  monkeypatch):
    # the product rule does not ask what the chart's elements are
    ch, t, elem_type = make_case()
    ch.christoffels  # built before counting
    calls = _counting_products(monkeypatch, elem_type)
    got = geo.covariant_derivative(ch, t)
    formed = len(calls)
    monkeypatch.undo()
    want = _reference_covariant_derivative(ch, t)
    for a, b in zip(got.comps.flat, want.comps.flat):
        _assert_same_elements(a, b)
    reads = [(id(g), id(c)) for g, c in _reference_pairs(ch, t)]
    if make_case is _number_case:
        assert all(geo._is_zero(g) for g in ch.christoffels.flat)
        assert formed == 0 < len(reads)
    else:
        assert formed == len(set(reads)) < len(reads)


def _flat_grid_scalar(grid=None):
    grid = TorusGrid(32) if grid is None else grid
    return 1.0 + eval_trig(grid, trig_params(3, "s", 2, 0.3))


def _read_case(ch, elem_type, scalar=None, magnitudes=False):
    tensors = _test_tensors(ch, None if scalar is None else scalar(ch))
    del tensors["n"]
    if magnitudes:
        ch = geo.MagnitudeChart(ch)
        tensors = {name: geo.magnitudes(t) for name, t in tensors.items()}
    return ch, tensors, elem_type


@pytest.mark.parametrize("make_case", [
    lambda: _read_case(generic_chart()[0], Jet),
    lambda: _read_case(sphere_chart()[0], Jet),
    lambda: _read_case(sheared_cylinder_chart()[0], Jet),
    lambda: _read_case(_grid_chart(), gl.GridField, lambda ch: ch.det),
    lambda: _read_case(gl._flat_chart(), gl.GridField,
                        lambda ch: _flat_grid_scalar()),
    lambda: _read_case(generic_chart()[0], geo.Magnitude, magnitudes=True),
], ids=["generic", "sphere", "sheared-3d", "grid-curved", "grid-flat", "magnitudes"])
def test_covariant_derivative_forms_only_what_it_reads(make_case, monkeypatch):
    ch, tensors, elem_type = make_case()
    ch.christoffels  # built before counting
    for name, t in tensors.items():
        everything = list(np.ndindex((ch.n,) + t.comps.shape))
        for reads in (everything[::2], everything[1::3], everything[:1]):
            calls = _counting_products(monkeypatch, elem_type)
            got = geo.covariant_derivative(ch, t, reads)
            formed = len(calls)
            monkeypatch.undo()
            want = _reference_covariant_derivative(ch, t)
            for idx in everything:
                if idx in reads:
                    _assert_same_elements(got.comps[idx], want.comps[idx], (name, idx))
                else:
                    assert got.comps[idx] is None, (name, idx)
            # the products are the distinct pairs of the requested
            # components, less those whose Gamma is the number 0.0
            pairs = {(id(g), id(c)) for g, c in _reference_pairs(ch, t, reads)
                     if not geo._is_zero(g)}
            assert formed == len(pairs), name


def _counting_partials(monkeypatch) -> list:
    calls = []
    partial = gl.GridField.partial

    def counted(self, axis):
        calls.append(axis)
        return partial(self, axis)
    monkeypatch.setattr(gl.GridField, "partial", counted)
    return calls


def _grid_sym2(grid):
    return geo.sym2_from(
        lambda i, j: eval_trig(grid, trig_params(4, f"h{j}{i}", 2, 0.2)), 2)


@pytest.mark.parametrize("flat, want_lich, want_lap", [
    (True, 12, 4), (False, 18, 6),
], ids=["flat", "curved"])
def test_grid_laplacians_take_only_the_traced_partials(flat, want_lich, want_lap,
                                                       monkeypatch):
    # a trace against g^{ij} = 0.0 reads no mixed second derivative: on the
    # flat chart the Lichnerowicz Laplacian takes 6 first and 6 second
    # partials of h (18 when every second derivative was formed), the
    # Laplacian 2 and 2 (6); the curved chart reads all four (i, j), and
    # forms only the sym2 components of the second derivative (22 when it
    # formed every one)
    grid = TorusGrid(32)
    ch = gl._flat_chart() if flat else _grid_chart()
    ch.ricci  # built before counting
    h, s = _grid_sym2(grid), _flat_grid_scalar(grid)
    calls = _counting_partials(monkeypatch)
    geo.lichnerowicz_laplacian(ch, h)
    assert len(calls) == want_lich
    calls.clear()
    geo.ScalarField(ch, s).lap
    assert len(calls) == want_lap
    assert ch.traced == (((0, 0), (1, 1)) if flat
                         else ((0, 0), (0, 1), (1, 0), (1, 1)))


def _old_trace(chart, dd, idx):
    """The trace over every (i, j), as written before ``chart.traced``."""
    n = chart.n
    return geo._acc(chart.ginv[i, j] * dd.comps[(i, j) + idx]
                    for i in range(n) for j in range(n))


def _old_rough_laplacian(chart, t):
    dd = _reference_covariant_derivative(
        chart, _reference_covariant_derivative(chart, t))
    if (t.cov, t.con) == (2, 0):
        return geo.sym2_from(lambda p, q: _old_trace(chart, dd, (p, q)), chart.n)
    return geo.TensorValue(t.cov, t.con, geo.comps_from(
        lambda *idx: _old_trace(chart, dd, idx), t.comps.shape))


def _old_divergences(chart, h):
    n = chart.n
    dh = _reference_covariant_derivative(chart, h)
    div = geo.vector_from(lambda i: _old_trace(chart, dh, (i,)), n)
    dv = _reference_covariant_derivative(chart, geo.raise_vector(chart, div))
    return div, geo._acc(dv.comps[i, i] for i in range(n))


def _trace_cases():
    grid = TorusGrid(32)
    sphere, x, y = sphere_chart()
    sheared = sheared_cylinder_chart()[0]
    w = sheared.det.log()
    return [
        ("sphere", sphere, (x * y).sin() + x, geo.sym2_from(
            lambda i, j: [[1.0 + x * x, x * y], [x * y, y.cos()]][i][j], 2)),
        ("grid-flat", gl._flat_chart(), _flat_grid_scalar(grid), _grid_sym2(grid)),
        ("grid-curved", _grid_chart(), _flat_grid_scalar(grid), _grid_sym2(grid)),
        ("sheared-3d", sheared, w, geo.ScalarField(sheared, w).hess),
    ]


def test_traced_contractions_keep_the_full_formulas_bits():
    for name, ch, s, h in _trace_cases():
        n = ch.n
        ds = _reference_covariant_derivative(ch, _rank0(s))
        vec = geo.raise_vector(ch, ds)
        pairs = [
            (geo.ScalarField(ch, s).hess.trace,
             _old_trace(ch, _reference_covariant_derivative(ch, ds), ())),
            (geo.ScalarField(ch, s).lap,
             _old_trace(ch, _reference_covariant_derivative(ch, ds), ())),
            *zip(geo.rough_laplacian(ch, h).comps.flat,
                 _old_rough_laplacian(ch, h).comps.flat),
            *zip(geo.rough_laplacian(ch, vec).comps.flat,
                 _old_rough_laplacian(ch, vec).comps.flat),
        ]
        div, divdiv = _old_divergences(ch, h)
        rec = geo.Sym2Field(ch, h)
        pairs += list(zip(rec.div.comps.flat, div.comps.flat))
        pairs.append((rec.div_div, divdiv))
        assert len(pairs) == 2 + n * n + n + n + 1
        for k, (a, b) in enumerate(pairs):
            _assert_same_elements(a, b, (name, k))


def _old_christoffels(chart):
    """``christoffels`` as written before its bracket was formed once per
    (i, j, l): once per k."""
    n = chart.n
    dg = np.empty((n, n, n), dtype=object)
    for i in range(n):
        dg[i] = geo.sym2_from(lambda j, l: geo.partial(chart.g[j, l], i), n).comps
    gam = np.empty((n, n, n), dtype=object)
    for k in range(n):
        gam[k] = geo.sym2_from(lambda i, j: 0.5 * geo._acc(
            chart.ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
            for l in range(n)), n).comps
    return gam


def _old_riem_low(chart, gam):
    """``riem_low`` as written before low[j, i] was the negation of
    low[i, j]: Rup formed for i < j, negated for i > j, and lowered at
    every (i, j)."""
    n = chart.n
    rup = np.empty((n, n, n, n), dtype=object)
    for i, j, l, k in np.ndindex(n, n, n, n):
        if i == j:
            rup[l, k, i, j] = 0.0
        elif i > j:
            rup[l, k, i, j] = -rup[l, k, j, i]
        else:
            rup[l, k, i, j] = (
                geo.partial(gam[l, j, k], i) - geo.partial(gam[l, i, k], j)
                + geo._acc(gam[l, i, p] * gam[p, j, k] - gam[l, j, p] * gam[p, i, k]
                           for p in range(n)))
    return geo.comps_from(
        lambda i, j, k, l: geo._acc(chart.g[l, m] * rup[m, k, i, j] for m in range(n)),
        (n,) * 4)


@pytest.mark.parametrize("make_chart", [
    lambda: sheared_cylinder_chart()[0], _grid_chart,
], ids=["sheared-3d", "grid-curved"])
def test_curvature_keeps_the_old_formulas_bits(make_chart):
    ch = make_chart()
    gam = _old_christoffels(ch)
    for got, want in zip(ch.christoffels.flat, gam.flat):
        _assert_same_elements(got, want)
    # -(a + b) is (-a) + (-b) in every bit but the sign of an exact zero:
    # a cancellation gives +0.0 in both sums, so the negation's is -0.0
    for got, want in zip(ch.riem_low.flat, _old_riem_low(ch, gam).flat):
        _assert_same_elements(got, want, zero_sign=False)
