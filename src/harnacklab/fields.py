"""Auxiliary fields on a soliton chart and evolution-constrained jets.

Random fields are trigonometric polynomials with seeded coefficients, so they
are globally smooth on every chart and reproducible from (seed, tag). The
grid route samples the same draws (``trig_params``) on its torus. On the jet
route they are written from their derivatives: the Taylor coefficients of a
term a sin(w . x + phase) are known in closed form (``JetSpace.sinusoid``),
so building a field forms no jet product.

The propagation helpers turn a time-independent jet into the jet of the
solution of an evolution equation d(field)/dt = RHS(field) by one first-order
step (``jet.strip``, then ``jet.first_order_step`` in t). A context carries
t to degree 1 only, so a jet is its t-degree-0 slice plus the t-degree-1
rows; the equation pins the latter to the RHS evaluated on the time-stripped
field,

    c_{beta + e_t} = d_{beta},        |beta| <= order - 1,

where d are the RHS's t-degree-0 coefficients. That is exact wherever the
identities look: they read at most one time derivative. The result is a fresh
jet whose validity order is at most (RHS validity + 1); the inputs are left
as they were. The checks call these helpers through ``SolitonContext.kept``,
so each evolved field is built once per context and kept as its record
(``geometry.Sym2Field`` or ``ScalarField``), which all its readers share.
"""

import numpy as np

from . import geometry as geo
from .jet import Jet, first_order_step, strip
from .solitons import SolitonContext, stream


def trig_params(seed: int, tag: str, dim: int, amplitude: float = 0.4) -> list:
    """The terms a sin(w . x + phase) of a trig polynomial in ``dim``
    coordinates, as three (a, w, phase) with ``w`` a tuple of ``dim`` integers
    in [-2, 2], not all zero. They are drawn from stream(seed, tag) alone: no
    chart or grid enters the draw, so each samples the same function."""
    rng = stream(seed, tag)
    out = []
    for _ in range(3):
        a = amplitude * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        w = (0,) * dim
        while not any(w):
            w = tuple(int(k) for k in rng.integers(-2, 3, size=dim))
        out.append((a, w, rng.uniform(0.0, 2 * np.pi)))
    return out


def trig_scalar(ctx: SolitonContext, tag: str, amplitude: float = 0.4,
                base: float = 0.0) -> Jet:
    """Trigonometric polynomial in the chart's coordinates drawn from
    (ctx.seed, tag), written from its derivatives: the term a sin(w . x +
    phase) is ``a * ctx.space.sinusoid(w, theta)``, with w zero on t and s
    and theta = w . p + phase at each sample point p, so no jet product is
    formed."""
    x = ctx.points["x"]
    pad = (0,) * (ctx.space.n_vars - len(x))
    out = base
    for a, w, phase in trig_params(ctx.seed, "scalar:" + tag, len(x), amplitude):
        theta = sum(wk * xk for wk, xk in zip(w, x) if wk) + phase
        out = out + a * ctx.space.sinusoid(w + pad, theta)
    return out


def trig_sym2(ctx: SolitonContext, tag: str) -> geo.TensorValue:
    return geo.sym2_from(lambda i, j: trig_scalar(ctx, f"{tag}[{i}{j}]"),
                         ctx.chart.n)


def trig_vector(ctx: SolitonContext, tag: str, time_linear: bool = False):
    """Contravariant vector field X = A(x), or X = A(x) + t*B(x) when
    ``time_linear`` (so dX/dt = B exactly); components of amplitude 0.5."""
    n = ctx.chart.n
    a = geo.vector_from(
        lambda i: trig_scalar(ctx, f"{tag}.A[{i}]", 0.5), n, con=True)
    if not time_linear:
        return a
    b = geo.vector_from(
        lambda i: trig_scalar(ctx, f"{tag}.B[{i}]", 0.5), n, con=True)
    return geo.vector_from(lambda i: a[i] + ctx.t * b[i], n, con=True)


def rhs_conjugate_potential(ctx: SolitonContext, u: Jet) -> Jet:
    """d f/dt = -Lap f + |grad f|^2 - R (potential along the conjugate heat flow)."""
    u = geo.ScalarField(ctx.chart, u)
    return -u.lap + u.norm2 - ctx.chart.scalar_curvature


def rhs_linear_heat(eps: float):
    """d u/dt = eps^{-1} Lap u + R u; eps = 1 is the linearized-flow scalar case."""
    def rhs(ctx: SolitonContext, u: Jet) -> Jet:
        return geo.laplacian(ctx.chart, u) / eps + ctx.chart.scalar_curvature * u
    return rhs


def _time_index(ctx: SolitonContext) -> int:
    if ctx.time_index is None:
        raise ValueError("propagation requires a context with a time variable")
    return ctx.time_index


def propagate_scalar(ctx: SolitonContext, u0: Jet, rhs_fn) -> Jet:
    """Jet of the solution of d u/dt = rhs_fn(u) with initial slice u0."""
    ti = _time_index(ctx)
    u = strip(u0, ti)
    rhs = rhs_fn(ctx, u)
    return first_order_step(u, ti, rhs, min(u.order, rhs.order + 1))


def propagate_sym2(ctx: SolitonContext, h0: geo.TensorValue) -> geo.TensorValue:
    """Jet of the solution of d h/dt = Lichnerowicz(h) with initial slice h0.

    Every component gets the lowest validity order among them.
    """
    ti = _time_index(ctx)
    n = ctx.chart.n
    h = geo.sym2_from(lambda i, j: strip(h0[i, j], ti), n)
    rhs = geo.lichnerowicz_laplacian(ctx.chart, h)
    lower = geo.sym2_indices(n)
    order = min(min(rhs[ij].order for ij in lower) + 1,
                min(h[ij].order for ij in lower))
    return geo.sym2_from(
        lambda i, j: first_order_step(h[i, j], ti, rhs[i, j], order), n)


def neg_grad_potential(ctx: SolitonContext) -> geo.TensorValue:
    """X = -grad f, negating the gradient f's kept record holds: a negation
    forms no product, so X itself is not kept."""
    grad = ctx.potential.grad
    return geo.vector_from(lambda i: -grad[i], ctx.chart.n, con=True)
