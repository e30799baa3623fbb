import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harnacklab.jet import (Jet, JetCapError, JetError, JetOrderError,
                            JetSpace, SingularPointError, jet_space)


def test_geometric_series_coefficients():
    sp = jet_space(1, 3)
    x = sp.variables([0.0])[0]
    u = (1.0 + x).reciprocal()
    # 1/(1+x) = 1 - x + x^2 - x^3 + ...
    for k, want in enumerate([1.0, -1.0, 1.0, -1.0]):
        assert u.coeff((k,)) == pytest.approx(want, abs=1e-15)


def test_square_recentered():
    sp = jet_space(1, 2)
    x = sp.variables([1.0])[0]
    u = x * x
    # x^2 = 1 + 2(x-1) + (x-1)^2 around x = 1, exactly
    assert u.coeff((0,)) == 1.0
    assert u.coeff((1,)) == 2.0
    assert u.coeff((2,)) == 1.0


def _dict_mul(a: dict, b: dict, order: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out.get(e, 0.0) + ca * cb
    return out


def test_multiplication_against_dict_convolution():
    rng = np.random.default_rng(7)
    sp = jet_space(3, 5)
    for _ in range(20):
        ca = rng.standard_normal(sp.size)
        cb = rng.standard_normal(sp.size)
        a = Jet(sp, ca[:, None].copy(), sp.order)
        b = Jet(sp, cb[:, None].copy(), sp.order)
        da = {tuple(e): c for e, c in zip(sp.exponents, ca)}
        db = {tuple(e): c for e, c in zip(sp.exponents, cb)}
        want = _dict_mul(da, db, sp.order)
        got = a * b
        for idx, e in enumerate(sp.exponents):
            assert got.coeffs[idx, 0] == pytest.approx(
                want.get(tuple(e), 0.0), abs=1e-12)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(3)
    sp = jet_space(2, 6)
    c = 0.3 * rng.standard_normal((sp.size, 5))
    c[0] = rng.uniform(0.5, 2.0, 5)
    u = Jet(sp, c, sp.order)
    v = u.log().exp()
    assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12


def test_derivatives_match_finite_differences():
    def f(x, y):
        return math.exp(math.sin(x) + 0.3 * y) / (2.0 + x * x)

    p = (0.4, -0.7)
    sp = jet_space(2, 4)
    x, y = sp.variables(np.array(p))
    u = ((x.sin() + 0.3 * y).exp()) / (2.0 + x * x)
    h = 1e-2
    # centered 4th-order stencil for d^2/dxdy via nested first derivatives
    def dx(g, x0, y0):
        return (-g(x0 + 2 * h, y0) + 8 * g(x0 + h, y0)
                - 8 * g(x0 - h, y0) + g(x0 - 2 * h, y0)) / (12 * h)

    fd = (-dx(f, p[0], p[1] + 2 * h) * 1.0 + 8 * dx(f, p[0], p[1] + h)
          - 8 * dx(f, p[0], p[1] - h) + dx(f, p[0], p[1] - 2 * h)) / (12 * h)
    # d^alpha f(p) = c_alpha * alpha!, and (1, 1)! = 1
    assert u.coeff((1, 1))[0] == pytest.approx(fd, rel=1e-7)
    assert u.value()[0] == pytest.approx(f(*p), rel=1e-14)


def test_polynomial_seeds_are_exact_at_top_order():
    sp = jet_space(2, 4)
    x, y = sp.variables([2.0, -1.0])
    u = x ** 4 + y ** 3 * x
    # seeds are exact polynomials, so the top-degree coefficients are valid
    assert u.order == sp.order
    assert u.coeff((4, 0))[0] == 1.0


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def jets(draw, n_vars=2, order=3):
    sp = jet_space(n_vars, order)
    c = np.array([[draw(small)] for _ in range(sp.size)])
    return Jet(sp, c, order)


@settings(max_examples=40, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-9
    com = a * b - b * a
    assert np.max(np.abs(com.coeffs)) < 1e-12
    dist = a * (b + c) - (a * b + a * c)
    assert np.max(np.abs(dist.coeffs)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(jets(), jets())
def test_leibniz_rule(a, b):
    sp = a.space
    for v in range(2):
        lhs = (a * b).partial(v)
        rhs = a.partial(v) * b + a * b.partial(v)
        assert lhs.order == rhs.order == a.order - 1
        # coefficients above the validity order carry no meaning; compare below
        valid = sp.degrees <= lhs.order
        assert np.max(np.abs(lhs.coeffs[valid] - rhs.coeffs[valid])) < 1e-10


def test_partials_commute():
    sp = jet_space(2, 5)
    x, y = sp.variables([0.3, 0.9])
    u = (x * y).exp() + x.sin() * y
    d01 = u.partial(0).partial(1)
    d10 = u.partial(1).partial(0)
    assert np.max(np.abs(d01.coeffs - d10.coeffs)) < 1e-14


def test_validity_order_tracking():
    sp = jet_space(2, 4)
    x, y = sp.variables([0.5, 0.5])
    u = x.exp()
    d = u.partial(0)
    assert d.order == 3
    dd = d.partial(0).partial(1).partial(1)
    assert dd.order == 0
    with pytest.raises(JetOrderError):
        dd.partial(0)
    with pytest.raises(JetOrderError):
        d.coeff((4, 0))
    # ring ops propagate the weaker validity
    assert (u + d).order == 3
    assert (u * d).order == 3
    assert (y * d).order == 3


def test_singular_point_guards():
    sp = jet_space(1, 3)
    x = sp.variables([0.0])[0]
    with pytest.raises(SingularPointError):
        x.reciprocal()
    with pytest.raises(SingularPointError):
        x.log()
    with pytest.raises(SingularPointError):
        (x - 1.0).pow_real(0.5)
    with pytest.raises(SingularPointError):
        (-1.0 + x).pow_real(1.5)


def test_batched_matches_single_point():
    sp = jet_space(2, 4)
    pts = np.array([[0.2, 1.1, -0.4], [0.9, -0.3, 0.6]])
    x, y = sp.variables(pts)
    u = (x.sin() + y.cos() * x).exp() / (1.0 + x * x)
    for b in range(3):
        xs, ys = sp.variables(pts[:, b])
        us = (xs.sin() + ys.cos() * xs).exp() / (1.0 + xs * xs)
        assert np.max(np.abs(u.coeffs[:, b] - us.coeffs[:, 0])) < 1e-14


def test_integer_and_real_powers_agree():
    sp = jet_space(1, 5)
    x = sp.variables([0.7])[0]
    u = 1.3 + x.sin()
    assert np.max(np.abs((u ** 3).coeffs - u.pow_real(3.0).coeffs)) < 1e-12


def test_trig_identity():
    sp = jet_space(2, 6)
    x, y = sp.variables([0.4, -1.2])
    u = x * y + 0.3 * x
    one = u.sin() * u.sin() + u.cos() * u.cos()
    assert one.value()[0] == pytest.approx(1.0, abs=1e-14)
    tail = one.coeffs[1:]
    assert np.max(np.abs(tail)) < 1e-13


def test_scalar_fast_paths():
    sp = jet_space(2, 3)
    x, _ = sp.variables([0.5, 0.5])
    assert np.max(np.abs((2.0 * x - x - x).coeffs)) == 0.0
    assert np.max(np.abs(((x + 1.0) - (1.0 + x)).coeffs)) == 0.0
    assert np.max(np.abs((x / 2.0 - 0.5 * x).coeffs)) == 0.0
    r = 2.0 / (1.0 + x)
    assert r.value()[0] == pytest.approx(4.0 / 3.0)


# -- truncated product kernel -------------------------------------------------

KERNEL_SPACES = [(2, 4), (3, 6), (3, 8)]


def _full_product(sp, a, b):
    """Untruncated reference: every pair of the table, whatever the validity."""
    return np.add.reduceat(a[sp._mul_i] * b[sp._mul_j], sp._mul_seg, axis=0)


def _noisy_coeffs(sp, rng, batch=3):
    # rows past a jet's validity hold noise: truncation must never read them
    c = rng.standard_normal((sp.size, batch))
    c[0] = rng.uniform(0.5, 2.0, batch)
    return c


@pytest.mark.parametrize("n_vars,order", KERNEL_SPACES)
def test_truncated_product_matches_full_table(n_vars, order):
    sp = jet_space(n_vars, order)
    rng = np.random.default_rng(11)
    ca, cb = _noisy_coeffs(sp, rng), _noisy_coeffs(sp, rng)
    ref = _full_product(sp, ca, cb)
    for d1, d2 in itertools.product(range(order + 1), repeat=2):
        got = Jet(sp, ca, d1) * Jet(sp, cb, d2)
        n = sp.n_upto[min(d1, d2)]
        assert got.order == min(d1, d2)
        assert got.coeffs.shape == (sp.size, 3)
        assert np.array_equal(got.coeffs[:n], ref[:n]), (d1, d2)
        assert not got.coeffs[n:].any(), (d1, d2)


COMPOSED = {
    "exp": Jet.exp,
    "log": Jet.log,
    "reciprocal": Jet.reciprocal,
    "pow_real": lambda u: u.pow_real(1.7),
    "sin": Jet.sin,
    "cos": Jet.cos,
}


def _full_horner(x, fn):
    """``fn(x)`` by a Horner loop to the space order over the full product."""
    series = []
    full = Jet(x.space, x.coeffs, x.space.order)
    full._compose = series.extend   # capture the series fn would compose
    fn(full)
    u = x.coeffs.copy()
    u[0] = 0.0
    out = np.zeros_like(u)
    out[0] = series[-1]
    for m in range(x.space.order - 1, -1, -1):
        out = _full_product(x.space, out, u)
        out[0] += series[m]
    return out


@pytest.mark.parametrize("name", sorted(COMPOSED))
@pytest.mark.parametrize("n_vars,order", KERNEL_SPACES)
def test_truncated_compose_matches_full_horner(n_vars, order, name):
    sp = jet_space(n_vars, order)
    coeffs = _noisy_coeffs(sp, np.random.default_rng(5))
    for d in range(order + 1):
        x = Jet(sp, coeffs, d)
        got = COMPOSED[name](x)
        n = sp.n_upto[d]
        assert got.order == d
        assert np.array_equal(got.coeffs[:n], _full_horner(x, COMPOSED[name])[:n]), d
        assert not got.coeffs[n:].any(), d


@pytest.mark.parametrize("n_vars,order", KERNEL_SPACES)
def test_prefix_tables_count_independently(n_vars, order):
    sp = jet_space(n_vars, order)
    degrees = [int(sum(e)) for e in sp.exponents]
    for d in range(order + 1):
        assert sp.n_upto[d] == sum(g <= d for g in degrees)
        assert sp.pairs_upto[d] == sum(g1 + g2 <= d
                                       for g1 in degrees for g2 in degrees)
    assert sp.pairs_upto[order] == len(sp._mul_i)


def test_products_do_not_alias_the_shared_scratch():
    sp = jet_space(3, 6)
    rng = np.random.default_rng(2)
    a, b, c, d = (Jet(sp, _noisy_coeffs(sp, rng, 4), sp.order) for _ in range(4))
    first = a * b
    kept = first.coeffs.copy()
    second = c * d
    assert not np.shares_memory(first.coeffs, second.coeffs)
    assert np.array_equal(first.coeffs, kept)
    assert not np.shares_memory(second.coeffs, sp._scratch)


@pytest.mark.parametrize("space", KERNEL_SPACES + [(3, 6, (None, None, 1))])
def test_zero_operand_matches_the_full_table(space):
    sp = jet_space(*space)
    rng = np.random.default_rng(17)
    other = _noisy_coeffs(sp, rng)
    zero = np.zeros((sp.size, 3))
    ref = _full_product(sp, zero, other)
    spent = tuple(max(c - 1, 0) for c in sp.caps)
    for d1, d2 in itertools.product(range(sp.order + 1), repeat=2):
        n = sp.n_upto[min(d1, d2)]
        z, u = Jet(sp, zero, d1, spent), Jet(sp, other, d2)
        for got in (z * u, u * z):
            assert got.order == min(d1, d2) and got.left == spent
            assert got.coeffs.shape == (sp.size, 3)
            assert np.array_equal(got.coeffs[:n], ref[:n]), (d1, d2)
            assert not got.coeffs[n:].any(), (d1, d2)
    c = sp.constant(np.zeros(3))
    for d in range(sp.order + 1):
        u = Jet(sp, other, d)
        for got in (c * u, u * c):
            assert got.order == d and got.coeffs.shape == (sp.size, 3)
            assert not got.coeffs.any()


def test_zero_on_the_validity_prefix_gives_zero():
    sp = JetSpace(3, 6, (None, None, 1))
    rng = np.random.default_rng(19)
    u = Jet(sp, _noisy_coeffs(sp, rng), sp.order)
    past = _noisy_coeffs(sp, rng)
    past[:sp.n_upto[3]] = 0.0
    for zero in (Jet(sp, past, 3), sp.constant(np.zeros(3))):
        got = zero * u
        assert got.order == zero.order and not got.coeffs.any()


def test_zero_jet_does_not_hide_a_non_finite_coefficient():
    # every pair is formed, so IEEE's 0.0 * inf and 0.0 * nan are NaN in
    # each row that an inf or nan coefficient feeds, and only there
    sp = jet_space(2, 4)
    c = _noisy_coeffs(sp, np.random.default_rng(23))
    c[0, 0], c[3, 1] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        got = sp.constant(np.zeros(3)) * Jet(sp, c, sp.order)
    fed_by_3 = np.all(sp.exponents >= sp.exponents[3], axis=1)
    assert np.isnan(got.coeffs[:, 0]).all()
    assert np.array_equal(np.isnan(got.coeffs[:, 1]), fed_by_3)
    assert not got.coeffs[~fed_by_3, 1].any()
    assert not got.coeffs[:, 2].any()


def test_mul_raw_rejects_rows_off_the_validity_prefix():
    sp = jet_space(2, 4)
    a = np.ones((sp.size, 1))
    with pytest.raises(JetError):
        sp.mul_raw(a[:4], a[:4])
    with pytest.raises(JetError):
        sp.mul_raw(a[:sp.n_upto[2]], a[:sp.n_upto[3]])
    # one shape: a batch-1 operand does not broadcast
    with pytest.raises(JetError):
        sp.mul_raw(a, np.ones((sp.size, 3)))


def test_lookup_one_exponent_or_rows_and_refuses_the_unrepresentable():
    sp = jet_space(3, 4)
    rows = sp.exponents[[0, 5, sp.size - 1]]
    assert np.array_equal(sp.lookup(rows), [0, 5, sp.size - 1])
    assert sp.lookup((0, 2, 1)) == sp.lookup(np.array([[0, 2, 1]]))[0]
    for bad in [(1, 0), (1, 0, 0, 0), (-1, 1, 0), (2, 2, 1)]:
        with pytest.raises(JetError):
            sp.lookup(bad)
    x = sp.variables(np.array([0.5, 0.1, 0.2]))[0]
    with pytest.raises(JetError):
        x.coeff((1, 0))


# -- per-variable degree caps ---------------------------------------------------

def test_capped_table_sizes():
    # (x, y, t <= 1) and (x, y, z, t <= 1) at order 6, against 84 / 924 and
    # 210 / 3003 uncapped
    for n_vars, rows, pairs in [(3, 49, 462), (4, 140, 1848)]:
        sp = jet_space(n_vars, 6, (None,) * (n_vars - 1) + (1,))
        assert (sp.size, len(sp._mul_i)) == (rows, pairs)
        assert sp.n_upto[-1] == rows and sp.pairs_upto[-1] == pairs


@st.composite
def capped_spaces(draw):
    n_vars = draw(st.integers(2, 4))
    order = draw(st.integers(0, 6))
    caps = tuple(draw(st.sampled_from([None, 1, 2])) for _ in range(n_vars))
    return jet_space(n_vars, order), jet_space(n_vars, order, caps)


@settings(max_examples=60, deadline=None)
@given(capped_spaces(), st.integers(0, 2**32 - 1), st.data())
def test_capped_rows_are_bit_identical_to_uncapped(spaces, seed, data):
    full, capped = spaces
    rows = full.lookup(capped.exponents)
    rng = np.random.default_rng(seed)
    d1, d2 = (data.draw(st.integers(0, full.order)) for _ in range(2))
    a = Jet(full, _noisy_coeffs(full, rng), d1)
    b = Jet(full, _noisy_coeffs(full, rng), d2)
    ca, cb = (Jet(capped, u.coeffs[rows], u.order) for u in (a, b))

    assert np.array_equal((ca * cb).coeffs, (a * b).coeffs[rows])
    for fn in (Jet.exp, Jet.reciprocal):
        assert np.array_equal(fn(ca).coeffs, fn(a).coeffs[rows])
    for v in range(full.n_vars):
        if d1 < 1:
            continue
        got = ca.partial(v)
        # rows at the cap in v are fed from degree cap + 1, which a capped
        # space does not carry: ``left`` marks them spent
        inside = capped.exponents[:, v] <= got.left[v]
        assert np.array_equal(got.coeffs[inside], a.partial(v).coeffs[rows][inside])

    for v, cap in enumerate(capped.caps):
        if cap < capped.order:
            e = [0] * capped.n_vars
            e[v] = cap + 1
            with pytest.raises(JetError):
                capped.lookup(e)


def test_partial_past_a_cap_raises():
    sp = jet_space(3, 5, (None, None, 1))
    x, y, t = sp.variables([0.5, 0.5, 0.1])
    u = (x * t).exp() + y
    du = u.partial(2)
    assert du.left == (5, 5, 0) and (du * u).left == (5, 5, 0)
    assert u.partial(0).left == u.left == sp.caps
    with pytest.raises(JetCapError) as e:
        du.partial(2)
    assert (e.value.var, e.value.cap) == (2, 1)
    with pytest.raises(JetOrderError):
        du.coeff((0, 0, 1))
    # spatial partials of a t-derivative stay available
    assert du.partial(0).partial(1).order == 2


# -- sinusoid constructor -----------------------------------------------------

# (spatial variables, the extra variable's base point): x, y, t at sample
# times; CHK-R1's x, y, s with t constant and s seeded at 0, which has the
# same caps and so the same space; and x, y, z, t
SINUSOID_LAYOUTS = {"x,y,t": (2, 0.3), "x,y,s": (2, 0.0), "x,y,z,t": (3, -0.8)}


def _sinusoid_case(layout, w=None):
    """(space, w padded with 0 on the extra variable, theta, the argument
    w . x + phase as a jet) at five base points."""
    n, extra = SINUSOID_LAYOUTS[layout]
    sp = jet_space(n + 1, 6, (None,) * n + (1,))
    rng = np.random.default_rng(n)
    if w is None:
        w = tuple(int(k) for k in rng.choice([-2, -1, 1, 2], size=n))
    points = np.vstack([rng.uniform(-2.0, 2.0, (n, 5)), np.full((1, 5), extra)])
    terms = [wk * c for wk, c in zip(w, sp.variables(points))]
    arg = sum(terms[1:], terms[0]) + rng.uniform(0.0, 2 * np.pi)
    return sp, w + (0,), arg.value(), arg


@pytest.mark.parametrize("layout", sorted(SINUSOID_LAYOUTS))
def test_sinusoid_matches_the_composed_sine(layout):
    sp, w, theta, arg = _sinusoid_case(layout)
    got, want = sp.sinusoid(w, theta), arg.sin()
    assert (got.order, got.left) == (sp.order, sp.caps)
    low = sp.degrees <= 1
    assert np.array_equal(got.coeffs[low], want.coeffs[low])
    # higher rows: sin^(m)(theta) w^alpha / alpha! against a Horner loop
    ulp = np.spacing(np.abs(want.coeffs).max(axis=1, keepdims=True))
    assert np.all(np.abs(got.coeffs - want.coeffs) <= 4.0 * ulp)


@pytest.mark.parametrize("layout", sorted(SINUSOID_LAYOUTS))
def test_sinusoid_is_constant_in_its_capped_variable(layout):
    sp, w, theta, _ = _sinusoid_case(layout)
    u = sp.sinusoid(w, theta)
    v = sp.n_vars - 1
    rows = u.coeffs[sp.exponents[:, v] >= 1]
    assert np.all(rows == 0.0) and not np.signbit(rows).any()
    du = u.partial(v)
    assert not du.coeffs.any()
    with pytest.raises(JetCapError):
        du.partial(v)


@pytest.mark.parametrize("layout", sorted(SINUSOID_LAYOUTS))
def test_sinusoid_partial_is_the_shifted_wave(layout):
    sp, w, theta, _ = _sinusoid_case(layout)
    u = sp.sinusoid(w, theta)
    # d/dx_k sin(theta + w . (x - p)) = w_k sin(theta + pi/2 + w . (x - p))
    shifted = sp.sinusoid(w, theta + np.pi / 2)
    n = sp.n_upto[sp.order - 1]
    for k in range(sp.n_vars - 1):
        assert np.max(np.abs(u.partial(k).coeffs[:n]
                             - w[k] * shifted.coeffs[:n])) < 1e-13


def test_sinusoid_with_a_zero_frequency():
    sp, w, theta, arg = _sinusoid_case("x,y,z,t", w=(0, -2, 1))
    u = sp.sinusoid(w, theta)
    want = arg.sin()
    low = sp.degrees <= 1
    assert np.array_equal(u.coeffs[low], want.coeffs[low])
    # constant in x: every x row is exactly 0.0 and d/dx vanishes
    assert not u.coeffs[sp.exponents[:, 0] >= 1].any()
    assert not u.partial(0).coeffs.any()
    ulp = np.spacing(np.abs(want.coeffs).max(axis=1, keepdims=True))
    assert np.all(np.abs(u.coeffs - want.coeffs) <= 4.0 * ulp)
    with pytest.raises(JetError):
        sp.sinusoid(w[:-1], theta)
