"""Riemannian geometry of a coordinate chart over generic field elements.

Every function here is written once against a small element protocol (ring
arithmetic with plain numbers as constants, ``.partial(i)``) and therefore
runs unchanged on truncated jets and on grid-sampled fields. That
single code path is what makes the symbolic checks and the finite-difference
checks share one set of sign conventions. Loops read the dimension from the
chart, and a chart's coordinate i is its elements' variable i. A metric is
positive definite when every leading principal minor is positive (Sylvester's
criterion); ``MetricChart.require_positive_definite`` is that one test, for
``ginv`` and for the grid march's guard.

Conventions, fixed once and verified by the unit-sphere anchor test:

* Christoffel symbols  Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
* Curvature operator   R(e_i, e_j) e_k = Rup^l_{k i j} e_l  with
  Rup^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
              + Gamma^l_{ip} Gamma^p_{jk} - Gamma^l_{jp} Gamma^p_{ik}.
* Lowered curvature    riem_low[i,j,k,l] = < R(e_i,e_j) e_k , e_l >,
  so the round sphere has positive sectional curvature and
  Ric_jk = g^{il} riem_low[i,j,k,l] gives scalar curvature +2 on the unit
  2-sphere. The same array contracted as g^{ij} riem_low[p,i,j,q] returns
  Ric_pq, which is the form the curvature-reaction terms below use.

Tensor components are stored in object ndarrays with covariant axes first;
:func:`covariant_derivative` prepends the new covariant axis. A symmetric
pair of axes is formed at the components :func:`sym2_indices` lists, j <= i
in row order, and [j, i] holds the same object as [i, j]: that order fixes
each builder's summation order, and the sharing lets
:func:`covariant_derivative` take one partial per distinct object.

Each operation takes a vector in one index position and raises TypeError on
the other (:func:`inner_vec` pairs covectors; :func:`sym2_apply` and
:func:`divergence_vec` take vectors), so a caller raises or lowers once.
"""

from functools import cached_property, reduce

import numpy as np

from .jet import Jet


class MetricError(ValueError):
    pass


class ChartDomainError(ValueError):
    """Sample point lies outside the chart's validity region."""


def _acc(terms):
    return reduce(lambda a, b: a + b, terms)


def field_data(elem) -> np.ndarray:
    """Pointwise values of an element, for guards and reporting."""
    if isinstance(elem, Jet):
        return elem.value()
    if isinstance(elem, (int, float, np.floating, np.ndarray)):
        return np.asarray(elem, dtype=float)
    values = getattr(elem, "values", None)
    if values is not None:
        return np.asarray(values)
    raise TypeError(f"not a field element: {elem!r}")


class TensorValue:
    """Components of a tensor at the chart's base points.

    ``comps`` is an object ndarray of field elements with shape (n,)*(cov+con),
    covariant axes first. Purely a labeled container; the geometry functions
    below do the index work.
    """

    def __init__(self, cov: int, con: int, comps: np.ndarray):
        self.cov = cov
        self.con = con
        self.comps = comps

    def __getitem__(self, idx):
        return self.comps[idx]

    @property
    def rank(self):
        return self.cov + self.con


def tensor_map(fn, *tensors: TensorValue) -> TensorValue:
    """Apply ``fn`` componentwise; all inputs must share a signature."""
    first = tensors[0]
    comps = np.empty(first.comps.shape, dtype=object)
    for idx in np.ndindex(*first.comps.shape):
        comps[idx] = fn(*(t.comps[idx] for t in tensors))
    return TensorValue(first.cov, first.con, comps)


class MetricChart:
    """A metric given by its components in one coordinate chart.

    ``g`` is an (n, n) nested sequence of field elements, symmetric in its
    indices. Coordinate i is the elements' variable i: jets list the
    coordinates first, grid fields carry nothing else. A component may be a
    plain number, a constant whose partials are 0.0. Curvature data is
    computed lazily and cached on the chart.
    """

    def __init__(self, g):
        comps = np.empty((len(g), len(g)), dtype=object)
        for i in range(len(g)):
            for j in range(len(g)):
                comps[i, j] = g[i][j]
        self.n = comps.shape[0]
        self.g = comps

    def d(self, elem, i: int):
        if isinstance(elem, (int, float)):
            return 0.0
        return elem.partial(i)

    @cached_property
    def det(self):
        return _det_obj(self.g)

    def require_positive_definite(self):
        """Sylvester's criterion: raise MetricError unless every leading
        principal minor of g is positive at every point. Only the minors are
        formed; the last one is ``det``."""
        for k in range(1, self.n + 1):
            minor = self.det if k == self.n else _det_obj(self.g[:k, :k])
            if np.any(field_data(minor) <= 0.0):
                raise MetricError("metric is not positive definite on the chart")

    @cached_property
    def ginv(self):
        self.require_positive_definite()
        det = self.det
        return sym2_from(lambda i, j: _cofactor(self.g, j, i) / det, self.n).comps

    @cached_property
    def christoffels(self):
        n = self.n
        dg = np.empty((n, n, n), dtype=object)  # dg[i][j][l] = d_i g_jl
        for i in range(n):
            dg[i] = sym2_from(lambda j, l: self.d(self.g[j, l], i), n).comps
        gam = np.empty((n, n, n), dtype=object)  # gam[k][i][j], symmetric in i,j
        for k in range(n):
            gam[k] = sym2_from(lambda i, j: 0.5 * _acc(
                self.ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                for l in range(n)), n).comps
        return gam

    @cached_property
    def riem_low(self):
        n = self.n
        gam = self.christoffels
        rup = np.empty((n, n, n, n), dtype=object)  # rup[l][k][i][j]
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    for k in range(n):
                        if i == j:
                            rup[l, k, i, j] = 0.0 * gam[0, 0, 0]
                        elif i > j:
                            rup[l, k, i, j] = -rup[l, k, j, i]
                        else:
                            rup[l, k, i, j] = (
                                self.d(gam[l, j, k], i) - self.d(gam[l, i, k], j)
                                + _acc(gam[l, i, p] * gam[p, j, k]
                                       - gam[l, j, p] * gam[p, i, k]
                                       for p in range(n)))
        low = np.empty((n, n, n, n), dtype=object)  # low[i][j][k][l]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        low[i, j, k, l] = _acc(self.g[l, m] * rup[m, k, i, j]
                                               for m in range(n))
        return low

    @cached_property
    def ricci(self) -> TensorValue:
        n = self.n
        low = self.riem_low
        return sym2_from(lambda j, k: _acc(self.ginv[i, l] * low[i, j, k, l]
                                           for i in range(n) for l in range(n)),
                         n)

    @cached_property
    def scalar_curvature(self):
        return trace_sym2(self, self.ricci)

    @cached_property
    def volume_density(self):
        return self.det ** 0.5


def _cofactor(m: np.ndarray, i: int, j: int):
    sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
    sign = 1.0 if (i + j) % 2 == 0 else -1.0
    return sign * _det_obj(sub)


def _det_obj(m: np.ndarray):
    """Laplace expansion along the first row, each entry times its cofactor;
    a 0 x 0 matrix has determinant 1.0. For n = 2 this is the closed form
    g00 g11 - g01 g10, bit for bit."""
    if m.shape[0] == 0:
        return 1.0
    return _acc(m[0, j] * _cofactor(m, 0, j) for j in range(m.shape[0]))


class Magnitude:
    """Pointwise |value| of an element, to size a computation rather than do
    it (running error analysis): + and - add, * multiplies, and a plain
    number scales by its absolute value. ``Magnitude.of(elem)`` makes an
    input. The partial of an input, or of a sum of inputs, is the sum of their
    |partials|, so a sum that cancels keeps the size of its summands'
    derivatives; a product has no partial."""

    def __init__(self, values, sources=None):
        self.values = values
        self.sources = sources  # the summed inputs; None once a product enters

    @classmethod
    def of(cls, elem) -> "Magnitude":
        return cls(np.abs(field_data(elem)), (elem,))

    def partial(self, v: int) -> "Magnitude":
        if self.sources is None:
            raise TypeError("a product of magnitudes has no partial")
        return _acc(Magnitude.of(s.partial(v)) for s in self.sources)

    def __add__(self, other):
        both = self.sources is not None and other.sources is not None
        return Magnitude(self.values + other.values,
                         self.sources + other.sources if both else None)

    __sub__ = __add__

    def __mul__(self, other):
        if isinstance(other, Magnitude):
            return Magnitude(self.values * other.values)
        return Magnitude(abs(other) * self.values)

    __rmul__ = __mul__


def magnitudes(t):
    """Magnitude.of every component of a TensorValue or an object array."""
    if isinstance(t, TensorValue):
        return TensorValue(t.cov, t.con, magnitudes(t.comps))
    return np.frompyfunc(Magnitude.of, 1, 1)(t)


class MagnitudeChart:
    """|g^{ij}| and |Gamma^k_ij| of a chart: ``covariant_derivative`` of a
    tensor of Magnitudes runs on it unchanged and gives, per component, its
    |partial| plus the |Gamma| * |component| products."""

    def __init__(self, chart):
        self.n = chart.n
        self.ginv = magnitudes(chart.ginv)
        self.christoffels = magnitudes(chart.christoffels)

    d = MetricChart.d


def covariant_derivative(chart: MetricChart, t: TensorValue) -> TensorValue:
    """Levi-Civita covariant derivative; the new covariant axis comes first.

    A component object stored at several indices (a symmetric tensor keeps one
    object at [i, j] and [j, i]) is differentiated once per axis.
    """
    n = chart.n
    gam = chart.christoffels
    comps = np.empty((n,) + t.comps.shape, dtype=object)
    for i in range(n):
        partials = {}  # id(component) -> its partial along i
        for idx in np.ndindex(*t.comps.shape):
            elem = t.comps[idx]
            val = partials.get(id(elem))
            if val is None:
                val = partials[id(elem)] = chart.d(elem, i)
            for a in range(t.cov):
                val = val - _acc(gam[p, i, idx[a]]
                                 * t.comps[idx[:a] + (p,) + idx[a + 1:]]
                                 for p in range(n))
            for a in range(t.cov, t.rank):
                val = val + _acc(gam[idx[a], i, p]
                                 * t.comps[idx[:a] + (p,) + idx[a + 1:]]
                                 for p in range(n))
            comps[(i,) + idx] = val
    return TensorValue(t.cov + 1, t.con, comps)


def scalar_tensor(s) -> TensorValue:
    comps = np.empty((), dtype=object)
    comps[()] = s
    return TensorValue(0, 0, comps)


def differential(chart: MetricChart, s) -> TensorValue:
    return covariant_derivative(chart, scalar_tensor(s))


def _raise_first(chart: MetricChart, comps: np.ndarray) -> np.ndarray:
    """g^{il} comps[l, ...]: the first axis of a component array raised."""
    n = chart.n
    out = np.empty(comps.shape, dtype=object)
    for i in range(n):
        for rest in np.ndindex(*comps.shape[1:]):
            out[(i,) + rest] = _acc(chart.ginv[i, l] * comps[(l,) + rest]
                                    for l in range(n))
    return out


def raise_vector(chart: MetricChart, v: TensorValue) -> TensorValue:
    return TensorValue(0, 1, _raise_first(chart, v.comps))


def gradient(chart: MetricChart, s) -> TensorValue:
    return raise_vector(chart, differential(chart, s))


def hessian(chart: MetricChart, s) -> TensorValue:
    return covariant_derivative(chart, differential(chart, s))


def laplacian(chart: MetricChart, s):
    return trace_sym2(chart, hessian(chart, s))


def _trace_first_pair(chart: MetricChart, dd: TensorValue, idx: tuple):
    """g^{ij} dd_{ij idx}: one component of a second covariant derivative's
    trace over its two new axes."""
    n = chart.n
    return _acc(chart.ginv[i, j] * dd.comps[(i, j) + idx]
                for i in range(n) for j in range(n))


def rough_laplacian(chart: MetricChart, t: TensorValue) -> TensorValue:
    """g^{ij} nabla_i nabla_j t. A covariant 2-tensor is symmetric here: only
    its ``sym2_indices`` components are formed."""
    dd = covariant_derivative(chart, covariant_derivative(chart, t))
    if (t.cov, t.con) == (2, 0):
        return sym2_from(lambda p, q: _trace_first_pair(chart, dd, (p, q)), chart.n)
    comps = np.empty(t.comps.shape, dtype=object)
    for idx in np.ndindex(*t.comps.shape):
        comps[idx] = _trace_first_pair(chart, dd, idx)
    return TensorValue(t.cov, t.con, comps)


def trace_sym2(chart: MetricChart, h: TensorValue):
    return _trace_first_pair(chart, h, ())


def raise_sym2(chart: MetricChart, h: TensorValue) -> TensorValue:
    n = chart.n
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = _acc(chart.ginv[i, p] * chart.ginv[j, q] * h[p, q]
                               for p in range(n) for q in range(n))
    return TensorValue(0, 2, comps)


def inner_sym2(chart: MetricChart, a: TensorValue, b: TensorValue):
    """<A, B> = g^{ip} g^{jq} A_ij B_pq for covariant symmetric 2-tensors."""
    n = chart.n
    bup = raise_sym2(chart, b)
    return _acc(a[i, j] * bup[i, j] for i in range(n) for j in range(n))


def inner_vec(chart: MetricChart, a: TensorValue, b: TensorValue):
    """<a, b> = g^{ij} a_i b_j for two covectors."""
    if (a.cov, a.con) != (1, 0) or (b.cov, b.con) != (1, 0):
        raise TypeError("inner_vec pairs two covectors; lower a vector first")
    n = chart.n
    return _acc(chart.ginv[i, j] * a[i] * b[j]
                for i in range(n) for j in range(n))


def sym2_apply(chart: MetricChart, a: TensorValue, u: TensorValue, w: TensorValue):
    """A(U, W) = A_ij U^i W^j for a covariant symmetric 2-tensor and two vectors."""
    if (u.cov, u.con) != (0, 1) or (w.cov, w.con) != (0, 1):
        raise TypeError("sym2_apply takes two vectors; raise a covector first")
    n = chart.n
    return _acc(a[i, j] * u[i] * w[j] for i in range(n) for j in range(n))


def mixed_ricci(chart: MetricChart) -> np.ndarray:
    """R^i_j = g^{il} Ric_lj as an (n, n) object array, first index raised."""
    return _raise_first(chart, chart.ricci.comps)


def divergence_sym2(chart: MetricChart, h: TensorValue) -> TensorValue:
    """(div h)_i = g^{jk} (nabla_j h)_{ki}, a covariant vector."""
    dh = covariant_derivative(chart, h)  # dh[j][k][i]
    return vector_from(lambda i: _trace_first_pair(chart, dh, (i,)), chart.n)


def divergence_vec(chart: MetricChart, v: TensorValue):
    """div X = nabla_i X^i of a vector."""
    if (v.cov, v.con) != (0, 1):
        raise TypeError("divergence_vec takes a vector; raise a covector first")
    n = chart.n
    dv = covariant_derivative(chart, v)  # dv[i][^j]
    return _acc(dv.comps[i, i] for i in range(n))


def lichnerowicz_laplacian(chart: MetricChart, h: TensorValue) -> TensorValue:
    """Delta_L h_pq = Delta h_pq + 2 riem_low[p,i,j,q] h^{ij}
                      - Ric_p^k h_kq - Ric_q^k h_pk.

    Only the components with q <= p are formed, the rough Laplacian's too."""
    n = chart.n
    lap = rough_laplacian(chart, h)
    hup = raise_sym2(chart, h)
    low = chart.riem_low
    mixed = mixed_ricci(chart)  # mixed[k, p] = R^k_p = Ric_p^k
    return sym2_from(
        lambda p, q: lap[p, q] + 2.0 * _acc(low[p, i, j, q] * hup[i, j]
                                            for i in range(n) for j in range(n))
        - _acc(mixed[k, p] * h[k, q] for k in range(n))
        - _acc(mixed[k, q] * h[p, k] for k in range(n)),
        n)


def sym2_indices(n: int) -> list:
    """The components (i, j), j <= i, in row order, that a symmetric pair of
    axes forms; [j, i] holds the same object as [i, j]."""
    return [(i, j) for i in range(n) for j in range(i + 1)]


def sym2_from(fn, n: int) -> TensorValue:
    """Build a covariant symmetric 2-tensor from fn(i, j), calling each
    (i, j) of ``sym2_indices(n)`` once."""
    comps = np.empty((n, n), dtype=object)
    for i, j in sym2_indices(n):
        comps[i, j] = comps[j, i] = fn(i, j)
    return TensorValue(2, 0, comps)


def vector_from(fn, n: int, con: bool = False) -> TensorValue:
    comps = np.empty((n,), dtype=object)
    for i in range(n):
        comps[i] = fn(i)
    return TensorValue(0, 1, comps) if con else TensorValue(1, 0, comps)
