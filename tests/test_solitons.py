import hashlib

import numpy as np
import pytest

from harnacklab import geometry as geo
from harnacklab.geometry import field_data
from harnacklab.solitons import (CATALOG, UnknownSolitonError, build_context,
                                 catalog_get, sample_points,
                                 scrambled_halton, stream)

JET_NAMES = [n for n, s in CATALOG.items() if not s.grid_only]


def _maxabs(elem):
    return float(np.max(np.abs(field_data(elem))))


def test_catalog_names_frozen():
    assert sorted(CATALOG) == [
        "cigar_flow", "cigar_flow_v2", "cigar_static", "flat_steady_linear",
        "flat_torus", "gaussian_shrinker", "sphere_shrinker", "torus_generic"]
    assert catalog_get("cigar_flow").kind == "steady"
    with pytest.raises(UnknownSolitonError):
        catalog_get("cigar")


@pytest.mark.parametrize("name", JET_NAMES)
def test_soliton_equation_holds(name):
    ctx = build_context(name, n_points=8, order=4)
    hess = geo.ScalarField(ctx.chart, ctx.f).hess
    for i in range(ctx.chart.n):
        for j in range(ctx.chart.n):
            gap = ctx.chart.ricci[i, j] + hess[i, j] - ctx.lam * ctx.chart.g[i, j]
            assert _maxabs(gap) < 1e-11, (name, i, j)


@pytest.mark.parametrize("name", JET_NAMES)
def test_soliton_constant(name):
    ctx = build_context(name, n_points=8, order=4)
    if ctx.spec.kind == "steady":
        assert type(ctx.lam) is float and ctx.lam == 0.0
    else:
        assert ctx.spec.kind == "shrinking"
        want = -1.0 / (2.0 * ctx.t)
        assert np.max(np.abs(ctx.lam.coeffs - want.coeffs)) < 1e-15
        assert np.array_equal(field_data(ctx.lam), -0.5 / ctx.points["t"])


@pytest.mark.parametrize("name", [n for n in JET_NAMES
                                  if CATALOG[n].ricci_flow_exact])
def test_exact_flows_solve_ricci_flow(name):
    ctx = build_context(name, n_points=8, order=4)
    for i in range(ctx.chart.n):
        for j in range(ctx.chart.n):
            gap = ctx.dt(ctx.chart.g[i, j]) + 2.0 * ctx.chart.ricci[i, j]
            assert _maxabs(gap) < 1e-11, (name, i, j)


@pytest.mark.parametrize("name", JET_NAMES)
def test_potential_time_rule(name):
    ctx = build_context(name, n_points=8, order=4)
    rule = ctx.spec.potential_time_rule
    if rule == "none":
        return
    dtf = ctx.dt(ctx.f)
    if rule == "heat":
        want = ctx.potential.lap
    else:
        df = ctx.potential.d
        want = geo.inner_vec(ctx.chart, df, df)
    assert _maxabs(dtf - want) < 1e-11, name


def test_normalized_steady_flags():
    for name in JET_NAMES:
        spec = CATALOG[name]
        if not spec.normalized_steady:
            continue
        ctx = build_context(name, n_points=8, order=4)
        df = ctx.potential.d
        total = ctx.chart.scalar_curvature + geo.inner_vec(ctx.chart, df, df)
        assert _maxabs(total - 1.0) < 1e-11, name


def test_sampling_is_deterministic_and_tagged():
    spec = catalog_get("cigar_static")
    a = sample_points(spec, 5, 16)
    b = sample_points(spec, 5, 16)
    assert np.array_equal(a["x"], b["x"]) and np.array_equal(a["t"], b["t"])
    c = sample_points(spec, 6, 16)
    assert not np.array_equal(a["x"], c["x"])
    # different solitons draw from independent streams
    d = sample_points(catalog_get("cigar_flow"), 5, 16)
    assert not np.array_equal(a["x"], d["x"])


def test_sampling_respects_domain():
    spec = catalog_get("cigar_static")
    pack = sample_points(spec, 0, 64)
    lo = np.array([b[0] for b in spec.sample_box])[:, None]
    hi = np.array([b[1] for b in spec.sample_box])[:, None]
    assert np.all(pack["x"] >= lo) and np.all(pack["x"] <= hi)
    assert np.all(np.abs(pack["x"]) >= 0.08)

    shr = catalog_get("gaussian_shrinker")
    tpack = sample_points(shr, 0, 64)
    assert np.all(tpack["t"] < 0.0)


# Recorded from scipy 1.17's qmc.Halton(d, scramble=True, seed=rng).random(n):
# for each (chart, seed), the sha256 prefix of the n = 200 sample's float64
# bytes and the last point of the n = 1, 32 and 200 samples.
_HALTON_PINS = {
    ("cigar_static", 0): ("f335ac26cf1b3e81", [
        ("0x1.fbb2a887a49c8p-3", "0x1.2db75c96c381ep-2", "0x1.b9bd70eac689ep-2"),
        ("0x1.8eecaa21e9272p-1", "0x1.f7fce47d7ad0ep-2", "0x1.ef4d5002b3244p-1"),
        ("0x1.b8ecaa21e9272p-1", "0x1.43a1bd0b1e54ap-1", "0x1.1c741f681cf6dp-2")]),
    ("cigar_static", 5): ("7d58cec7c7955095", [
        ("0x1.2edd5ab8bcd0ep-2", "0x1.0a8f9e0880787p-1", "0x1.dd074bc861de6p-1"),
        ("0x1.676ead5c5e687p-1", "0x1.88fb12f8b309dp-1", "0x1.1a5020c80f830p-2"),
        ("0x1.516ead5c5e687p-1", "0x1.b31ee49e193a3p-1", "0x1.7721ff6586bd3p-6")]),
    ("cigar_static", 1000): ("d48f5caebb02f60e", [
        ("0x1.630373832a826p-1", "0x1.fa6a2e2c9a318p-2", "0x1.0ed1460d418a8p-1"),
        ("0x1.2606e7065504cp-2", "0x1.da7123baa5973p-1", "0x1.9b86a16c51f0ap-3"),
        ("0x1.4a06e7065504cp-2", "0x1.92cdd8ee44ab3p-1", "0x1.6f7baad039c24p-1")]),
    ("gaussian_shrinker", 0): ("299b42f2b8e80578", [
        ("0x1.ed816a42525a2p-1", "0x1.076c64df27cb2p-2", "0x1.a11e7c23ccd8bp-1"),
        ("0x1.d816a42525a20p-5", "0x1.9383a10d9a37cp-1", "0x1.35f33de964721p-2"),
        ("0x1.5c0b521292d10p-4", "0x1.db26ebd9fb23cp-1", "0x1.2152e9e9a3114p-1")]),
    ("gaussian_shrinker", 5): ("b3260d535f539b37", [
        ("0x1.56ce0c4ba4880p-8", "0x1.86f5f79b7fa11p-5", "0x1.f9906b450dcfap-3"),
        ("0x1.f2ad9c1897491p-1", "0x1.3b3352d55f7bbp-1", "0x1.09a7b0524998bp-1"),
        ("0x1.c4ad9c1897491p-1", "0x1.68b49b21ca8dcp-2", "0x1.3787bd6dbb0e5p-1")]),
    ("gaussian_shrinker", 1000): ("369d90649f7c66d6", [
        ("0x1.6bf3602d3e64ap-2", "0x1.946de82362b55p-1", "0x1.53ccc5bf16955p-1"),
        ("0x1.45f9b0169f325p-1", "0x1.90e61a8bf1887p-6", "0x1.2eef96a476d6dp-1"),
        ("0x1.73f9b0169f325p-1", "0x1.59177ed749843p-3", "0x1.dd6ced116af5fp-1")]),
    ("flat_torus", 0): ("cbf1cb2a55dade3c", [
        ("0x1.28cf80ef93287p-1", "0x1.dbfc87eb12a2bp-2", "0x1.f6cc1cca701fep-2"),
        ("0x1.b19f01df2650ep-2", "0x1.0777b4b157856p-7", "0x1.722ec29e90206p-1"),
        ("0x1.dd9f01df2650ep-2", "0x1.377236d0e0cb7p-3", "0x1.390a795f61dd1p-5")]),
    ("flat_torus", 5): ("61d40e4d8ffd1bd8", [
        ("0x1.b7546e140b194p-2", "0x1.3e33f5ec4f086p-3", "0x1.abb034d23ba05p-4"),
        ("0x1.2baa370a058cap-1", "0x1.396d629dd7b59p-1", "0x1.5015c51110285p-1"),
        ("0x1.1daa370a058cap-1", "0x1.159bbd37a73f8p-1", "0x1.fe931b7e04477p-1")]),
    ("flat_torus", 1000): ("3c5b00a07c64e357", [
        ("0x1.f512982653730p-1", "0x1.69468fc75dd9cp-1", "0x1.36b638e4a76b9p-2"),
        ("0x1.44a60994dcc00p-7", "0x1.0423cbd402324p-1", "0x1.22861e7e9d702p-1"),
        ("0x1.9894c1329b980p-4", "0x1.74ca39e51eba7p-2", "0x1.1baf51fff5515p-5")]),
}


def _sha16(sample):
    return hashlib.sha256(sample.astype("<f8").tobytes()).hexdigest()[:16]


def _hex_row(row):
    return tuple(float.hex(float(v)) for v in row)


@pytest.mark.parametrize("name,seed", sorted(_HALTON_PINS))
def test_halton_matches_pinned_scipy_bits(name, seed):
    digest, last_rows = _HALTON_PINS[name, seed]
    samples = [scrambled_halton(stream(seed, "pts:" + name), 3, n)
               for n in (1, 32, 200)]
    assert [_hex_row(s[-1]) for s in samples] == last_rows
    assert _sha16(samples[2]) == digest
    # the sequence is extended, not redrawn: shorter samples are prefixes
    assert np.array_equal(samples[2][:32], samples[1])
    assert np.array_equal(samples[2][:1], samples[0])


def test_halton_four_bases_matches_pinned_scipy_bits():
    sample = scrambled_halton(stream(7, "halton:d4"), 4, 64)
    assert _sha16(sample) == "38bddec1f418a08f"
    assert _hex_row(sample[-1]) == (
        "0x1.a9c13ad4f4f11p-1", "0x1.3bb6ab49878d4p-1",
        "0x1.054ba6a1284bep-2", "0x1.77063544b27f2p-3")


def test_sample_points_draws_one_coordinate_per_box_axis_plus_time():
    spec = catalog_get("cigar_static")
    raw = scrambled_halton(stream(5, "pts:cigar_static"), 3, 16)
    pack = sample_points(spec, 5, 16)
    lo, hi = spec.time_interval
    assert pack["x"].shape == (2, 16)
    assert np.array_equal(pack["t"], lo + (hi - lo) * raw[:, 2])


def test_stream_separation():
    a = stream(0, "alpha").standard_normal(4)
    b = stream(0, "alpha").standard_normal(4)
    c = stream(0, "beta").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_grid_only_has_no_jet_chart():
    assert CATALOG["torus_generic"].grid_only
    with pytest.raises(UnknownSolitonError):
        build_context("torus_generic", n_points=4, order=3)


def test_context_time_modes():
    ctx = build_context("cigar_static", n_points=4, order=3, time="const")
    with pytest.raises(ValueError):
        ctx.dt(ctx.f)
    ctx2 = build_context("cigar_static", n_points=4, order=3, deform=True)
    assert ctx2.s is not None
    assert _maxabs(ctx2.ds(ctx2.f)) == 0.0
    with pytest.raises(ValueError):
        build_context("cigar_static", n_points=4, order=3, time="sometimes")


def test_build_context_is_cached():
    a = build_context("cigar_static", n_points=4, order=3)
    b = build_context("cigar_static", n_points=4, order=3)
    assert a is b


@pytest.mark.parametrize("name", JET_NAMES)
def test_catalog_off_diagonal_metric_is_the_number_zero(name):
    # every product with these entries folds to 0.0 (no jet product is formed)
    chart = build_context(name, n_points=4, order=4).chart
    for comps in (chart.g, chart.ginv):
        for c in (comps[0, 1], comps[1, 0]):
            assert type(c) is float and c == 0.0


@pytest.mark.parametrize("name", ["sphere_shrinker", "flat_torus"])
def test_constant_potential_is_the_number_zero(name):
    ctx = build_context(name, n_points=4, order=4)
    assert type(ctx.f) is float and ctx.f == 0.0
    grad = geo.ScalarField(ctx.chart, ctx.f).grad
    assert all(type(c) is float and c == 0.0 for c in grad.comps.flat)
