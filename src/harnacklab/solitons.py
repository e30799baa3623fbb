"""Catalog of explicit gradient Ricci solitons and jet contexts over them.

Each catalog entry supplies closed-form metric and potential components in one
coordinate chart, as functions of coordinate jets (x1, ..., xn, t); the chart's
dimension n is the number of axes of its ``sample_box``. The time argument is
always passed; static entries ignore it, and callers choose whether t is a
jet variable (so time derivatives are available) or a per-point constant.

Conventions: a gradient soliton satisfies Ric + Hess f = lam * g with lam = 0
(steady) or lam = -1/(2t), t < 0 (shrinking, so the metric g(t) = -2t * g_fixed
cases solve Ricci flow exactly). The soliton constant lam is written here
only, as ``SolitonContext.lam``, and f is read through one kept record, the
``geometry.ScalarField`` ``SolitonContext.potential``. "Normalized steady"
means R + |grad f|^2 = 1.
"""

import math
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import geometry as geo
from .jet import jet_space

# The jet truncation order: the most derivatives any registered identity
# reads (CHK-EQ1 and CHK-L1 among those that take five). A row of degree <= d
# is fed by the same products, in the same order, at every order >= d, so
# every residual keeps its bits at any higher order, which only costs time.
JET_ORDER = 5


class UnknownSolitonError(KeyError):
    pass


@dataclass(frozen=True)
class SolitonSpec:
    name: str
    kind: str                     # "steady" | "shrinking" | "none"
    description: str
    ricci_flow_exact: bool = False
    normalized_steady: bool = False
    potential_time_rule: str = "none"   # "heat": df/dt = Lap f ; "grad2": df/dt = |grad f|^2
    grid_only: bool = False
    sample_box: tuple = ((-3.0, 3.0), (-3.0, 3.0))
    time_interval: tuple = (0.0, 0.0)
    builder: object = field(default=None, repr=False, compare=False)


def _build_cigar(x, y, t, moving: bool, gauge: bool):
    """g = 4 delta / D, f = -log D, with D = e^t + r^2 when ``moving`` and
    1 + r^2 otherwise; ``gauge`` adds t to f."""
    r2 = x * x + y * y
    denom = (t.exp() + r2) if moving else (1.0 + r2)
    conf = 4.0 / denom
    log = denom.log()
    return [[conf, 0.0], [0.0, conf]], (t - log if gauge else -log)


def _build_flat_linear(x, y, t):
    return geo.flat_metric(2), 0.6 * x + 0.8 * y + t


def _build_gaussian(x, y, t):
    return geo.flat_metric(2), (x * x + y * y) / (-4.0 * t) - 1.0


def _build_sphere_shrinker(x, y, t):
    r2 = x * x + y * y
    conf = (-2.0 * t) * 4.0 / ((1.0 + r2) * (1.0 + r2))
    return [[conf, 0.0], [0.0, conf]], 0.0


def _build_flat_torus(x, y, t):
    return geo.flat_metric(2), 0.0


CATALOG = {
    s.name: s for s in [
        SolitonSpec(
            name="cigar_static", kind="steady",
            description="cigar soliton, fixed chart: g = 4 delta/(1+r^2), f = -log(1+r^2)",
            normalized_steady=True,
            builder=partial(_build_cigar, moving=False, gauge=False)),
        SolitonSpec(
            name="cigar_flow", kind="steady",
            description="cigar moving under its flow: g = 4 delta/(e^t+r^2), f = -log(e^t+r^2)",
            ricci_flow_exact=True, normalized_steady=True,
            potential_time_rule="heat", time_interval=(-0.7, 0.7),
            builder=partial(_build_cigar, moving=True, gauge=False)),
        SolitonSpec(
            name="cigar_flow_v2", kind="steady",
            description="cigar flow with gauge-shifted potential f = t - log(e^t+r^2)",
            ricci_flow_exact=True, normalized_steady=True,
            potential_time_rule="grad2", time_interval=(-0.7, 0.7),
            builder=partial(_build_cigar, moving=True, gauge=True)),
        SolitonSpec(
            name="flat_steady_linear", kind="steady",
            description="flat plane with unit linear potential f = 0.6x + 0.8y + t",
            ricci_flow_exact=True, normalized_steady=True,
            potential_time_rule="grad2", time_interval=(-0.7, 0.7),
            builder=_build_flat_linear),
        SolitonSpec(
            name="gaussian_shrinker", kind="shrinking",
            description="flat plane as a shrinker: f = |x|^2/(-4t) - 1, t < 0",
            ricci_flow_exact=True, potential_time_rule="grad2",
            sample_box=((-2.0, 2.0), (-2.0, 2.0)), time_interval=(-2.0, -0.5),
            builder=_build_gaussian),
        SolitonSpec(
            name="sphere_shrinker", kind="shrinking",
            description="round 2-sphere shrinking to a point: g(t) = -2t g_unit, f = 0",
            ricci_flow_exact=True,
            sample_box=((-2.0, 2.0), (-2.0, 2.0)), time_interval=(-2.0, -0.5),
            builder=_build_sphere_shrinker),
        SolitonSpec(
            name="flat_torus", kind="steady",
            description="flat square torus, f = 0 (steady but not normalized)",
            ricci_flow_exact=True, potential_time_rule="grad2",
            sample_box=((0.3, 2 * np.pi - 0.3), (0.3, 2 * np.pi - 0.3)),
            builder=_build_flat_torus),
        SolitonSpec(
            name="torus_generic", kind="none",
            description="perturbed flat torus metric, sampled data only (grid scenarios)",
            grid_only=True,
            sample_box=((0.3, 2 * np.pi - 0.3), (0.3, 2 * np.pi - 0.3))),
    ]
}


def catalog_get(name: str) -> SolitonSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownSolitonError(
            f"unknown soliton {name!r}; known: {sorted(CATALOG)}") from None


def stream(seed: int, tag: str) -> np.random.Generator:
    """Independent, process-stable RNG stream for (seed, tag)."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _first_primes(count: int) -> list:
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def scrambled_halton(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """The first ``n`` points (n, d) of the Halton sequence in the first ``d``
    prime bases, scrambled by random digit permutations (Owen, "A randomized
    Halton algorithm in R", arXiv:1706.02808).

    Bit for bit this is ``scipy.stats.qmc.Halton(d, scramble=True, seed=rng)
    .random(n)``: the permutations come from one child generator spawned off
    ``rng``'s seed sequence (which counts the spawn, as scipy's does), one
    shuffled ``arange(b)`` for each of the ``ceil(54 / log2 b) - 1`` digits a
    double can resolve. The digit weights are formed by repeated division, as
    the compiled original does; weights of ``b ** -(j + 1)`` move about half
    of all samples by a few ulps.
    """
    bits = rng.bit_generator
    child = np.random.Generator(type(bits)(bits.seed_seq.spawn(1)[0]))
    out = np.zeros((n, d))
    for col, base in enumerate(_first_primes(d)):
        perms = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
        for perm in perms:
            child.shuffle(perm)
        k = np.arange(n)
        weight = 1.0 / base
        for perm in perms:
            out[:, col] += perm[k % base] * weight
            k //= base
            weight /= base
    return out


def sample_points(spec: SolitonSpec, seed: int, n: int) -> dict:
    """Low-discrepancy sample pack: spatial points "x" (dim, n) and times "t" (n,).

    The points are a scrambled Halton sample (Owen, arXiv:1706.02808; see
    ``scrambled_halton``) with one coordinate per axis of ``spec.sample_box``
    plus one for time, drawn from the stream
    ``"pts:" + spec.name``. Points near a coordinate axis are nudged off it so
    that quantities with isolated critical points (|grad f| on the cigar at
    the origin) stay generic at every sample. A shrinking soliton sampled at
    t >= 0 raises ``ChartDomainError``.
    """
    dim = len(spec.sample_box)
    raw = scrambled_halton(stream(seed, "pts:" + spec.name), dim + 1, n)
    lo = np.array([b[0] for b in spec.sample_box])
    hi = np.array([b[1] for b in spec.sample_box])
    x = (lo + (hi - lo) * raw[:, :dim]).T
    centered = (lo < 0).any()
    if centered:
        near = np.abs(x) < 0.08
        x = np.where(near, x + 0.13 * np.where(x >= 0, 1.0, -1.0), x)
    t0, t1 = spec.time_interval
    times = t0 + (t1 - t0) * raw[:, dim]
    if spec.kind == "shrinking" and np.any(times >= 0.0):
        raise geo.ChartDomainError("shrinking soliton sampled at t >= 0")
    return {"x": x, "t": times}


class SolitonContext(geo.Kept):
    """One soliton chart evaluated as jets at a pack of sample points.

    The chart's dimension n is ``len(spec.sample_box)``, and ``coords`` holds
    its n coordinate jets. ``time`` selects whether t enters the jet space as a
    variable ("var") or as a per-point constant ("const"); ``deform`` appends
    one extra variable s seeded at 0 for one-parameter deformations. Variable
    layout: x1, ..., xn[, t][, s], so ``time_index`` is n when t is a variable.

    ``lam`` is the soliton constant of Ric + Hess f = lam g: the number 0.0 on
    a steady chart, the jet -1/(2t) on a shrinking one. ``f`` is the
    potential as the builder returns it: the number 0.0 where it vanishes.

    The identities are first order in t and s, so the space caps the degree
    in both at 1: a second ``dt`` or ``ds`` raises ``JetCapError`` instead of
    reading rows the space does not carry.

    The context keeps by name (``kept``, as the chart does) the records of f
    (``potential``) and of each seeded field evolved on it, each built by the
    first check that asks for it; a record holds the chart, which never
    refers to its context, so the two form no reference cycle.
    """

    def __init__(self, spec: SolitonSpec, seed: int, n_points: int, order: int,
                 time: str, deform: bool):
        if spec.grid_only:
            raise UnknownSolitonError(
                f"{spec.name} is defined by sampled data only; no jet chart")
        if time not in ("var", "const"):
            raise ValueError(f"time must be 'var' or 'const', got {time!r}")
        n = len(spec.sample_box)
        self.spec = spec
        self.seed = seed
        self.n_points = n_points
        self.time_index = n if time == "var" else None
        self.deform_index = (n + (time == "var")) if deform else None
        names = "xyz"[:n] if n <= 3 else [f"x{k + 1}" for k in range(n)]
        self.var_names = tuple(names) + ("t",) * (time == "var") + ("s",) * deform
        caps = (None,) * n + (1,) * (time == "var") + (1,) * deform

        pack = sample_points(spec, seed, n_points)
        self.points = pack
        self.space = jet_space(len(caps), order, caps)
        seeds = list(pack["x"])
        if time == "var":
            seeds.append(pack["t"])
        if deform:
            seeds.append(np.zeros(n_points))
        jets = self.space.variables(np.array(seeds))
        self.coords = tuple(jets[:n])
        self.t = jets[n] if time == "var" else self.space.constant(pack["t"])
        self.s = jets[self.deform_index] if deform else None
        self.lam = -0.5 * self.t.reciprocal() if spec.kind == "shrinking" else 0.0

        g, self.f = spec.builder(*self.coords, self.t)
        self.chart = geo.MetricChart(g)

    @property
    def potential(self) -> geo.ScalarField:
        """f's record (``geometry.ScalarField``), kept on the context."""
        return self.kept("f", lambda: geo.ScalarField(self.chart, self.f))

    def dt(self, elem):
        if self.time_index is None:
            raise ValueError("context built with constant time; no d/dt")
        return geo.partial(elem, self.time_index)

    def ds(self, elem):
        if self.deform_index is None:
            raise ValueError("context built without a deformation variable")
        return geo.partial(elem, self.deform_index)


@lru_cache(maxsize=64)
def build_context(name: str, seed: int = 0, n_points: int = 32,
                  order: int = JET_ORDER, time: str = "var",
                  deform: bool = False) -> SolitonContext:
    return SolitonContext(catalog_get(name), seed, n_points, order, time, deform)
