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

A constant is a plain number (``jet.NUMBER``) on both routes, never an
element: its :func:`partial` is 0.0 and its :func:`exp` a number, the one
place a number meets an analytic function. Every element type folds the
same five scalar identities, with the operands of a sum or a product in
either order: ``x * 0.0`` is the number 0.0, and ``x + 0.0``, ``x - 0.0``,
``x * 1.0`` and ``x / 1.0`` are ``x`` itself. A diagonal metric's
off-diagonal entries, a flat chart's curvature and a vanishing potential
are therefore numbers through every formula here. :func:`covariant_derivative`
forms no product with a Christoffel symbol that is the number 0.0, and a
trace against g^{ij} reads only the (i, j) of ``MetricChart.traced``, whose
g^{ij} is not the number 0.0, so a diagonal chart's Laplacian forms no mixed
second derivative.

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
:func:`covariant_derivative` prepends the new covariant axis. A component
array is built by :func:`comps_from`, one call per index in row order. A
symmetric pair of axes is formed at the components :func:`sym2_indices`
lists, j <= i in row order, and [j, i] holds the same object as [i, j]: that
order fixes each builder's summation order, and the sharing lets
:func:`covariant_derivative` take one partial per distinct object. It also
forms each (Gamma, component) product once per call, on every chart (jets,
grid fields, numbers or magnitudes), from a table that counts each pair's
reads first and drops the product after its last; the sums keep their
order, so the bits are those of multiplying where each sum reads. A caller
that reads only some components of the result passes them as ``reads``, and
only those are formed.

Each operation takes a vector in one index position and raises TypeError on
the other (:func:`inner_vec` pairs covectors; :func:`sym2_apply` and
:func:`divergence_vec` take vectors), so a caller raises or lowers once.

A scalar s and a symmetric 2-tensor h are each read through one record
(:class:`ScalarField`, :class:`Sym2Field`) that forms each derivative or
contraction on its first read, and where a field is kept its record is, so
its readers share one of each. :func:`gradient`, :func:`hessian`,
:func:`laplacian` and :func:`inner_sym2` read a fresh record: a scalar's
Laplacian has one rule, ``ScalarField.lap``. The chart keeps by name
(:class:`Kept`) the records of R (:func:`r_field`) and Rc
(:func:`ricci_field`), its :class:`MagnitudeChart` and what :mod:`.harnack`
and :mod:`.checks` keep there; its curvature stays in cached properties.
"""

import math
import weakref
from collections import Counter
from functools import cached_property, lru_cache, reduce

import numpy as np

from .jet import NUMBER, Jet


class MetricError(ValueError):
    pass


class ChartDomainError(ValueError):
    """Sample point lies outside the chart's validity region."""


def _acc(terms):
    return reduce(lambda a, b: a + b, terms)


def _is_zero(elem) -> bool:
    """Whether elem is the number 0.0, which every product with it folds to."""
    return isinstance(elem, NUMBER) and elem == 0.0


def partial(elem, i: int):
    """d_i of an element; a plain number is a constant, whose partial is 0.0."""
    if isinstance(elem, NUMBER):
        return 0.0
    return elem.partial(i)


def exp(elem):
    """e^elem; a plain number's is a number."""
    if isinstance(elem, NUMBER):
        return math.exp(elem)
    return elem.exp()


def field_data(elem) -> np.ndarray:
    """Pointwise values of an element, for guards and reporting."""
    if isinstance(elem, Jet):
        return elem.value()
    if isinstance(elem, NUMBER + (np.ndarray,)):
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


def comps_from(fn, shape: tuple) -> np.ndarray:
    """An object array holding fn(*idx) at every index of ``shape``, each
    formed once, in row order."""
    comps = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        comps[idx] = fn(*idx)
    return comps


def tensor_map(fn, *tensors: TensorValue) -> TensorValue:
    """Apply ``fn`` componentwise; all inputs must share a signature."""
    first = tensors[0]
    return TensorValue(first.cov, first.con, comps_from(
        lambda *idx: fn(*(t.comps[idx] for t in tensors)), first.comps.shape))


def flat_metric(n: int) -> list:
    """The Euclidean metric's components: the identity matrix as floats."""
    return [[float(i == j) for j in range(n)] for i in range(n)]


class Kept:
    """An owner of tensors kept by name: ``kept(name, build)`` is ``build()``
    on the first request for ``name`` and the same object after. The name
    says what the tensor is, never which object it was built from, so a
    kept tensor has the bits of building it again."""

    def kept(self, name, build):
        memo = self.__dict__.setdefault("_kept", {})
        if name not in memo:
            memo[name] = build()
        return memo[name]


class MetricChart(Kept):
    """A metric given by its components in one coordinate chart.

    ``g`` is an (n, n) nested sequence of field elements, symmetric in its
    indices. Coordinate i is the elements' variable i: jets list the
    coordinates first, grid fields carry nothing else. A component may be a
    plain number, a constant whose partials are 0.0. Curvature data is
    computed lazily and cached on the chart, and every other tensor of the
    chart alone is kept by name (``kept``).
    """

    def __init__(self, g):
        self.n = len(g)
        self.g = comps_from(lambda i, j: g[i][j], (self.n, self.n))

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
            dg[i] = sym2_from(lambda j, l: partial(self.g[j, l], i), n).comps
        # bracket[l][i][j] = d_i g_jl + d_j g_il - d_l g_ij, symmetric in i,j
        bracket = [sym2_from(lambda i, j: dg[i, j, l] + dg[j, i, l] - dg[l, i, j],
                             n).comps for l in range(n)]
        gam = np.empty((n, n, n), dtype=object)  # gam[k][i][j], symmetric in i,j
        for k in range(n):
            gam[k] = sym2_from(lambda i, j: 0.5 * _acc(
                self.ginv[k, l] * bracket[l][i, j] for l in range(n)), n).comps
        return gam

    @cached_property
    def zero_christoffels(self) -> frozenset:
        """The indices (k, i, j) whose Gamma^k_ij is the number 0.0."""
        gam = self.christoffels
        return frozenset(idx for idx in np.ndindex(gam.shape) if _is_zero(gam[idx]))

    @cached_property
    def traced(self) -> tuple:
        """The (i, j), in row order, whose g^{ij} is not the number 0.0: the
        components a trace against g^{ij} reads."""
        return tuple(ij for ij in np.ndindex(self.n, self.n)
                     if not _is_zero(self.ginv[ij]))

    @cached_property
    def riem_low(self):
        """low[i][j][k][l] = g_lm Rup^m_{kij}. Rup is formed for i < j and is
        0.0 for i = j. low[j, i] is the negation of low[i, j], which has the
        bits of lowering -Rup but for the sign of a zero: a sum that cancels
        exactly is +0.0 either way."""
        n = self.n
        gam = self.christoffels
        low = np.empty((n,) * 4, dtype=object)
        for i, j in np.ndindex(n, n):
            if i > j:
                low[i, j] = -low[j, i]
                continue
            rup = comps_from(  # rup[l][k] = Rup^l_{kij}
                lambda l, k: 0.0 if i == j else (
                    partial(gam[l, j, k], i)
                    - partial(gam[l, i, k], j)
                    + _acc(gam[l, i, p] * gam[p, j, k]
                           - gam[l, j, p] * gam[p, i, k]
                           for p in range(n))),
                (n, n))
            low[i, j] = comps_from(
                lambda k, l: _acc(self.g[l, m] * rup[m, k] for m in range(n)),
                (n, n))
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
        return _acc(Magnitude.of(partial(s, v)) for s in self.sources)

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


def magnitude_chart(chart: MetricChart) -> "MagnitudeChart":
    """The chart's MagnitudeChart, kept on it."""
    return chart.kept("magnitudes", lambda: MagnitudeChart(chart))


class MagnitudeChart:
    """|g^{ij}| and |Gamma^k_ij| of a chart: ``covariant_derivative`` of a
    tensor of Magnitudes runs on it unchanged and gives, per component, its
    |partial| plus the |Gamma| * |component| products. A Magnitude is never
    the number 0.0, so every product is formed."""

    zero_christoffels = frozenset()

    def __init__(self, chart):
        self.n = chart.n
        self.ginv = magnitudes(chart.ginv)
        self.christoffels = magnitudes(chart.christoffels)


@lru_cache(maxsize=64)
def _connection_pattern(n: int, cov: int, rank: int, reads, zeros: frozenset) -> tuple:
    """The index pattern of nabla t for a tensor with ``cov`` covariant slots
    of ``rank``: per axis i, each component idx that ``reads`` holds as
    (i,) + idx (every one when ``reads`` is None) with, per slot a, whether
    the slot is covariant and the (Gamma index, component index) of its
    terms, p in order: Gamma^p_{i idx[a]} t[..p..] for a covariant slot and
    Gamma^{idx[a]}_{ip} t[..p..] for a contravariant one. A term whose Gamma
    index is in ``zeros`` is left out, and so is a slot left with none."""
    pattern = []
    for i in range(n):
        components = []
        for idx in np.ndindex(*(n,) * rank):
            if reads is not None and (i,) + idx not in reads:
                continue
            slots = []
            for a in range(rank):
                gams = [(p, i, idx[a]) if a < cov else (idx[a], i, p) for p in range(n)]
                pairs = tuple((g, idx[:a] + (p,) + idx[a + 1:])
                              for p, g in enumerate(gams) if g not in zeros)
                if pairs:
                    slots.append((a < cov, pairs))
            components.append((idx, tuple(slots)))
        pattern.append(tuple(components))
    return tuple(pattern)


def _product_table(pairs):
    """A product function for one ``covariant_derivative`` call that forms
    each (Gamma, component) pair once: ``pairs`` is the call's every read, in
    any order, and a product is dropped after its last read. Pairs are keyed
    on their operands' ids, which are stable while the chart and the tensor
    hold them."""
    left = Counter((id(g), id(c)) for g, c in pairs)
    held = {}

    def product(g, c):
        key = id(g), id(c)
        val = held.pop(key, None)
        if val is None:
            val = g * c
        left[key] -= 1
        if left[key]:
            held[key] = val
        return val
    return product


def covariant_derivative(chart: MetricChart, t: TensorValue, reads=None) -> TensorValue:
    """Levi-Civita covariant derivative; the new covariant axis comes first.

    ``reads``, when given, lists the result indices (i,) + idx the caller
    reads, and only those are formed: every other slot of the result is
    None, so a result built with ``reads`` never leaves the function that
    traces it. A term whose Gamma is the number 0.0 is not formed either
    (``chart.zero_christoffels``): its product folds to 0.0 and the sum it
    joins to the other terms, so the bits are those of the full formula.

    A component object stored at several indices (a symmetric tensor keeps one
    object at [i, j] and [j, i]) is differentiated once per axis, and each
    (Gamma, component) product is formed once per call (``_product_table``):
    Gamma's symmetric lower pair and shared components make many reads
    repeats. The rule does not ask what the elements are, so jets, grid
    fields, numbers and a ``MagnitudeChart`` all take it.
    """
    n = chart.n
    gam = chart.christoffels
    tc = t.comps
    pattern = _connection_pattern(n, t.cov, t.rank,
                                  None if reads is None else frozenset(reads),
                                  chart.zero_christoffels)
    product = _product_table(
        (gam[g], tc[c]) for components in pattern for _, slots in components
        for _, pairs in slots for g, c in pairs)
    comps = np.empty((n,) + tc.shape, dtype=object)
    for i, components in enumerate(pattern):
        partials = {}  # id(component) -> its partial along i
        for idx, slots in components:
            elem = tc[idx]
            val = partials.get(id(elem))
            if val is None:
                val = partials[id(elem)] = partial(elem, i)
            for covariant, pairs in slots:
                terms = (product(gam[g], tc[c]) for g, c in pairs)
                val = val - _acc(terms) if covariant else val + _acc(terms)
            comps[(i,) + idx] = val
    return TensorValue(t.cov + 1, t.con, comps)


def scalar_tensor(s) -> TensorValue:
    return TensorValue(0, 0, comps_from(lambda: s, ()))


def differential(chart: MetricChart, s) -> TensorValue:
    return covariant_derivative(chart, scalar_tensor(s))


def _raise_first(chart: MetricChart, comps: np.ndarray) -> np.ndarray:
    """g^{il} comps[l, ...]: the first axis of a component array raised."""
    return comps_from(lambda i, *rest: _acc(chart.ginv[i, l] * comps[(l,) + rest]
                                            for l in range(chart.n)),
                      comps.shape)


def raise_vector(chart: MetricChart, v: TensorValue) -> TensorValue:
    return TensorValue(0, 1, _raise_first(chart, v.comps))


def gradient(chart: MetricChart, s) -> TensorValue:
    return ScalarField(chart, s).grad


def hessian(chart: MetricChart, s) -> TensorValue:
    return ScalarField(chart, s).hess


def laplacian(chart: MetricChart, s):
    return ScalarField(chart, s).lap


class ScalarField:
    """A scalar ``s`` on ``chart`` and its derivatives: ``d`` ds, formed where
    it is read (partials, no product), and, each on its first read, ``norm2``
    |grad s|^2, ``grad``, ``hess`` and ``lap`` g^{ij} nabla_i nabla_j s, which
    forms only the (i, j) of the Hessian that ``chart.traced`` lists. R's
    record is kept on its chart (:func:`r_field`), those of f and of each
    evolved log u on their soliton context."""

    def __init__(self, chart: MetricChart, s):
        self.chart = chart
        self.s = s

    @property
    def d(self) -> TensorValue:
        return differential(self.chart, self.s)

    @cached_property
    def norm2(self):
        d = self.d
        return inner_vec(self.chart, d, d)

    @cached_property
    def grad(self) -> TensorValue:
        return raise_vector(self.chart, self.d)

    @cached_property
    def hess(self) -> TensorValue:
        return covariant_derivative(self.chart, self.d)

    @cached_property
    def lap(self):
        dd = covariant_derivative(self.chart, self.d, self.chart.traced)
        return _trace_first_pair(self.chart, dd, ())


def _trace_first_pair(chart: MetricChart, dd: TensorValue, idx: tuple):
    """g^{ij} dd_{ij idx}: one component of a second covariant derivative's
    trace over its two new axes, read at the (i, j) of ``chart.traced``; a
    term under g^{ij} = 0.0 would fold away."""
    return _acc(chart.ginv[ij] * dd.comps[ij + idx] for ij in chart.traced)


def rough_laplacian(chart: MetricChart, t: TensorValue) -> TensorValue:
    """g^{ij} nabla_i nabla_j t (:func:`rough_laplacian_from`)."""
    return rough_laplacian_from(chart, covariant_derivative(chart, t))


def rough_laplacian_from(chart: MetricChart, dt: TensorValue) -> TensorValue:
    """The rough Laplacian of t from dt = nabla t, so that a caller that
    reads nabla t too forms it once. A covariant 2-tensor t is symmetric
    here: only its ``sym2_indices`` components are formed. The second
    derivative forms only the components the trace reads."""
    shape = dt.comps.shape[1:]
    sym = (dt.cov, dt.con) == (3, 0)
    idxs = sym2_indices(chart.n) if sym else list(np.ndindex(shape))
    dd = covariant_derivative(chart, dt,
                              [ij + idx for ij in chart.traced for idx in idxs])
    if sym:
        return sym2_from(lambda p, q: _trace_first_pair(chart, dd, (p, q)), chart.n)
    return TensorValue(dt.cov - 1, dt.con, comps_from(
        lambda *idx: _trace_first_pair(chart, dd, idx), shape))


def trace_sym2(chart: MetricChart, h: TensorValue):
    return _trace_first_pair(chart, h, ())


def raise_sym2(chart: MetricChart, h: TensorValue) -> TensorValue:
    n = chart.n
    return TensorValue(0, 2, comps_from(
        lambda i, j: _acc(chart.ginv[i, p] * chart.ginv[j, q] * h[p, q]
                          for p in range(n) for q in range(n)),
        (n, n)))


def inner_sym2(chart: MetricChart, a: TensorValue, b: TensorValue):
    """<A, B> = g^{ip} g^{jq} A_ij B_pq for covariant symmetric 2-tensors."""
    return Sym2Field(chart, b).pair(a)


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


def divergence_sym2(chart: MetricChart, h: TensorValue) -> TensorValue:
    """(div h)_i = g^{jk} (nabla_j h)_{ki}, a covariant vector."""
    n = chart.n
    dh = covariant_derivative(  # dh[j][k][i]
        chart, h, [jk + (i,) for jk in chart.traced for i in range(n)])
    return vector_from(lambda i: _trace_first_pair(chart, dh, (i,)), n)


def divergence_vec(chart: MetricChart, v: TensorValue):
    """div X = nabla_i X^i of a vector."""
    if (v.cov, v.con) != (0, 1):
        raise TypeError("divergence_vec takes a vector; raise a covector first")
    n = chart.n
    dv = covariant_derivative(chart, v, [(i, i) for i in range(n)])  # dv[i][^i]
    return _acc(dv.comps[i, i] for i in range(n))


class Sym2Field:
    """A covariant symmetric 2-tensor ``h`` on ``chart`` and what Z(h, X) and
    the evolution groups read of it, each formed on its first read: ``up``
    h^{ij}, ``mixed`` h^i_j as an (n, n) object array, ``div`` div h,
    ``div_div`` div div h and ``rc`` <Rc, h>. ``pair(a)`` is A_ij h^{ij},
    the bits of ``inner_sym2(chart, a, h)``, and ``rc`` is ``pair(Rc)``. Rc's
    record is kept on its chart (:func:`ricci_field`), an evolved h's on its
    soliton context."""

    def __init__(self, chart: MetricChart, h: TensorValue):
        self.chart = chart
        self.h = h

    @cached_property
    def up(self) -> TensorValue:
        return raise_sym2(self.chart, self.h)

    @cached_property
    def mixed(self) -> np.ndarray:
        return _raise_first(self.chart, self.h.comps)

    @cached_property
    def div(self) -> TensorValue:
        return divergence_sym2(self.chart, self.h)

    @cached_property
    def div_div(self):
        return divergence_vec(self.chart, raise_vector(self.chart, self.div))

    @cached_property
    def rc(self):
        return self.pair(self.chart.ricci)

    def pair(self, a: TensorValue):
        up = self.up
        n = self.chart.n
        return _acc(a[i, j] * up[i, j] for i in range(n) for j in range(n))


def ricci_field(chart: MetricChart) -> Sym2Field:
    """Rc's record, kept on the chart: R^{ij}, R^i_j, div Rc, div div Rc and
    |Rc|^2 = <Rc, Rc> are formed once per chart. The record reaches its chart
    through a weak proxy, so the two form no reference cycle and a chart is
    freed when its last reader drops it, not at the next cyclic collection."""
    return chart.kept("Rc", lambda: Sym2Field(weakref.proxy(chart), chart.ricci))


def r_field(chart: MetricChart) -> ScalarField:
    """R's record, kept on the chart as Rc's is: Hess R and Lap R are formed
    once per chart."""
    return chart.kept("R", lambda: ScalarField(weakref.proxy(chart),
                                               chart.scalar_curvature))


def lichnerowicz_laplacian(chart: MetricChart, h: TensorValue) -> TensorValue:
    """Delta_L h_pq = Delta h_pq + 2 riem_low[p,i,j,q] h^{ij}
                      - Ric_p^k h_kq - Ric_q^k h_pk.

    Only the components with q <= p are formed, the rough Laplacian's too."""
    n = chart.n
    lap = rough_laplacian(chart, h)
    hup = raise_sym2(chart, h)
    low = chart.riem_low
    mixed = ricci_field(chart).mixed  # mixed[k, p] = R^k_p = Ric_p^k
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
    comps = comps_from(fn, (n,))
    return TensorValue(0, 1, comps) if con else TensorValue(1, 0, comps)
