"""Auxiliary fields on a soliton chart and evolution-constrained jets.

Random fields are trigonometric polynomials with seeded coefficients, so they
are globally smooth on every chart and reproducible from (seed, tag). The
grid route samples the same draws (``trig_params``) on its torus.

The propagation helpers turn a time-independent jet into the jet of the
solution of an evolution equation d(field)/dt = RHS(field) through the Taylor
recursion on the time variable: writing the field as
sum_r c_{beta,r} x^beta t^r, the equation forces

    c_{beta, r+1} = d_{beta, r} / (r + 1),

where d are the coefficients of the RHS evaluated on the jet filled up to time
degree r. The RHS is recomputed at each r, so metric coefficients that depend
on t themselves (moving charts) enter correctly. The propagated jet's validity
order is reduced to (RHS validity + 1), and its degree left in t to q: that
encodes exactly which Taylor coefficients the recursion pinned down, and
reading or differentiating past either raises rather than returning junk.
A context carries t only to its ``time_degree``, so propagating to q above it
raises ``JetCapError`` before any work is done.
"""

import numpy as np

from . import geometry as geo
from .jet import Jet, JetCapError
from .solitons import SolitonContext, stream


def _with_time_left(ctx: SolitonContext, u: Jet, degree: int) -> tuple:
    """``u.left`` with the degree left in t replaced by ``degree``."""
    ti = ctx.time_index
    return u.left[:ti] + (degree,) + u.left[ti + 1:]


def strip_time(ctx: SolitonContext, u: Jet) -> Jet:
    """Freeze u at its base time: zero every coefficient with t-degree >= 1."""
    if ctx.time_index is None:
        return u
    coeffs = u.coeffs.copy()
    coeffs[ctx.space.exponents[:, ctx.time_index] >= 1] = 0.0
    return Jet(ctx.space, coeffs, u.order, u.left)


def trig_params(seed: int, tag: str, amplitude: float = 0.4) -> list:
    """The terms a sin(wx x + wy y + phase) of a trig polynomial, as three
    (a, wx, wy, phase), drawn from stream(seed, tag) alone: no chart or grid
    enters the draw, so each samples the same function."""
    rng = stream(seed, tag)
    out = []
    for _ in range(3):
        a = amplitude * rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        wx, wy = 0, 0
        while wx == 0 and wy == 0:
            wx, wy = (int(w) for w in rng.integers(-2, 3, size=2))
        out.append((a, wx, wy, rng.uniform(0.0, 2 * np.pi)))
    return out


def trig_scalar(ctx: SolitonContext, tag: str, amplitude: float = 0.4,
                base: float = 0.0) -> Jet:
    """Trigonometric polynomial in x, y drawn from (ctx.seed, tag)."""
    out = ctx.space.constant(np.full(ctx.n_points, base))
    for a, wx, wy, phase in trig_params(ctx.seed, "scalar:" + tag, amplitude):
        out = out + a * (wx * ctx.x + wy * ctx.y + phase).sin()
    return out


def trig_sym2(ctx: SolitonContext, tag: str) -> geo.TensorValue:
    return geo.sym2_from(lambda i, j: trig_scalar(ctx, f"{tag}[{i}{j}]"),
                         ctx.chart.n)


def trig_vector(ctx: SolitonContext, tag: str, time_linear: bool = False):
    """Contravariant vector field X = A(x,y), or X = A(x,y) + t*B(x,y) when
    ``time_linear`` (so dX/dt = B exactly); components of amplitude 0.5."""
    n = ctx.chart.n
    a = geo.vector_from(
        lambda i: trig_scalar(ctx, f"{tag}.A[{i}]", 0.5), n, con=True)
    if not time_linear:
        return a
    b = geo.vector_from(
        lambda i: trig_scalar(ctx, f"{tag}.B[{i}]", 0.5), n, con=True)
    return geo.vector_from(lambda i: a[i] + ctx.t * b[i], n, con=True)


def rhs_heat(ctx: SolitonContext, u: Jet) -> Jet:
    return geo.laplacian(ctx.chart, u)


def rhs_conjugate_potential(ctx: SolitonContext, u: Jet) -> Jet:
    """d f/dt = -Lap f + |grad f|^2 - R (potential along the conjugate heat flow)."""
    du = geo.differential(ctx.chart, u)
    return (-geo.laplacian(ctx.chart, u)
            + geo.inner_vec(ctx.chart, du, du)
            - ctx.chart.scalar_curvature)


def rhs_linear_heat(eps: float):
    """d u/dt = eps^{-1} Lap u + R u; eps = 1 is the linearized-flow scalar case."""
    def rhs(ctx: SolitonContext, u: Jet) -> Jet:
        return geo.laplacian(ctx.chart, u) / eps + ctx.chart.scalar_curvature * u
    return rhs


def _fill_time_degree(ctx: SolitonContext, coeffs: np.ndarray,
                      rhs_coeffs: np.ndarray, r: int, q: int):
    """Fill the t-degree r + 1 coefficients from the RHS's t-degree r ones,
    for spatial degree at most order - q."""
    space = ctx.space
    et = space.exponents[:, ctx.time_index]
    spatial = space.degrees - et
    src = np.nonzero((et == r) & (spatial <= space.order - q)
                     & (space.degrees <= space.order - 1))[0]
    bumped = space.exponents[src].copy()
    bumped[:, ctx.time_index] += 1
    coeffs[space.lookup(bumped)] = rhs_coeffs[src] / (r + 1)


def _check_time_degree(ctx: SolitonContext, q: int):
    if ctx.time_index is None:
        raise ValueError("propagation requires a context with a time variable")
    if q < 1:
        raise ValueError("need at least one time degree (q >= 1)")
    cap = ctx.space.caps[ctx.time_index]
    if q > cap:
        raise JetCapError(
            f"propagation to time degree {q} exceeds the context's cap of "
            f"{cap} in t; build the context with time_degree >= {q}",
            ctx.time_index, cap)


def propagate_scalar(ctx: SolitonContext, u0: Jet, rhs_fn, q: int = 1) -> Jet:
    """Jet of the solution of d u/dt = rhs_fn(u) with initial slice u0.

    Only time exponents 1..q are filled, so the result carries degree q in t:
    differentiating it more than q times in t raises ``JetCapError``. ``q``
    may not exceed the context's ``time_degree``.
    """
    _check_time_degree(ctx, q)
    u = strip_time(ctx, u0)  # a fresh copy, filled in place below
    left = _with_time_left(ctx, u, q)
    for r in range(q):
        rhs = rhs_fn(ctx, u)
        _fill_time_degree(ctx, u.coeffs, rhs.coeffs, r, q)
        u = Jet(ctx.space, u.coeffs, min(u.order, rhs.order + 1), left)
    return u


def propagate_sym2(ctx: SolitonContext, h0: geo.TensorValue,
                   q: int = 1) -> geo.TensorValue:
    """Jet of the solution of d h/dt = Lichnerowicz(h) with initial slice h0.

    Same time-degree contract as propagate_scalar: each component carries
    degree q in t, and q may not exceed the context's ``time_degree``.
    """
    _check_time_degree(ctx, q)
    n = ctx.chart.n
    upper = [(i, j) for i in range(n) for j in range(i + 1)]
    h = geo.sym2_from(lambda i, j: strip_time(ctx, h0[i, j]), n)
    for r in range(q):
        rhs = geo.lichnerowicz_laplacian(ctx.chart, h)
        order = min(min(rhs[ij].order for ij in upper) + 1,
                    min(h[ij].order for ij in upper))
        for ij in upper:
            _fill_time_degree(ctx, h[ij].coeffs, rhs[ij].coeffs, r, q)
            h[ij].order = order
            h[ij].left = _with_time_left(ctx, h[ij], q)
    return h


def neg_grad_potential(ctx: SolitonContext) -> geo.TensorValue:
    grad = geo.gradient(ctx.chart, ctx.f)
    return geo.vector_from(lambda i: -grad[i], ctx.chart.n, con=True)
