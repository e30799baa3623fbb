from fractions import Fraction

import numpy as np
import pytest

from harnacklab import checks, fields, geometry as geo, harnack as hk
from harnacklab.checks import (REGISTRY, TOLERANCE_CAP, Identity,
                               UnknownCheckError, rel_residual, run_check,
                               run_suite, tensor_residual)
from harnacklab.geometry import field_data
from harnacklab.jet import Jet
from harnacklab.solitons import (CATALOG, SolitonContext, SolitonSpec,
                                 UnknownSolitonError, build_context)

ALL_IDS = [
    "CHK-B1", "CHK-B2", "CHK-B3", "CHK-B4", "CHK-B5", "CHK-B6", "CHK-B7",
    "CHK-B8", "CHK-EQ1", "CHK-H1", "CHK-H2", "CHK-H3", "CHK-H4", "CHK-H4t",
    "CHK-L1", "CHK-L2", "CHK-R1", "CHK-R2", "CHK-S1", "CHK-S2", "CHK-S3"]


def _judge(identity):
    """A part's per-point residual, by the rule run_check applies."""
    return tensor_residual(identity.components, identity.atom_scale)


def test_registry_ids_frozen():
    assert sorted(REGISTRY) == ALL_IDS


def test_one_registry_entry_per_runner():
    # a soliton identity is registered once, in its lam-form, not once per kind
    runners = [spec.runner for spec in REGISTRY.values()]
    assert len(set(runners)) == len(runners)


def test_registry_entries_well_formed():
    for cid, spec in REGISTRY.items():
        assert spec.check_id == cid
        assert spec.statement.strip()
        assert 0.0 < spec.tolerance <= TOLERANCE_CAP
        assert spec.applies_to
        for name in spec.applies_to:
            assert name in CATALOG, (cid, name)
            assert not CATALOG[name].grid_only


_CIGARS = ("cigar_static", "cigar_flow", "cigar_flow_v2")
_ALL = _CIGARS + ("flat_steady_linear", "gaussian_shrinker",
                  "sphere_shrinker", "flat_torus")
_SHRINKING = ("gaussian_shrinker", "sphere_shrinker")
_STEADY_SYSTEM = ("cigar_flow", "cigar_flow_v2", "flat_steady_linear",
                  "flat_torus")
_GRAD2 = ("cigar_flow_v2", "flat_steady_linear", "flat_torus")
APPLIES_TO = {
    "CHK-B1": _GRAD2, "CHK-B2": _GRAD2, "CHK-B3": _GRAD2, "CHK-B4": _GRAD2,
    "CHK-B5": ("cigar_flow_v2",), "CHK-B6": _GRAD2, "CHK-B7": _ALL,
    "CHK-B8": _GRAD2,
    "CHK-EQ1": ("cigar_flow", "cigar_flow_v2", "flat_steady_linear",
                "gaussian_shrinker", "sphere_shrinker", "flat_torus"),
    "CHK-H1": _ALL, "CHK-H2": _ALL, "CHK-H3": _ALL, "CHK-H4": _ALL,
    "CHK-H4t": _ALL,
    "CHK-L1": _STEADY_SYSTEM, "CHK-L2": _SHRINKING, "CHK-R1": _ALL,
    "CHK-R2": _STEADY_SYSTEM, "CHK-S1": _ALL, "CHK-S2": _ALL,
    "CHK-S3": _CIGARS + ("flat_steady_linear",),
}


def test_applies_to_pinned():
    # derived from the soliton flags; the derivation must move no pair
    assert {cid: spec.applies_to for cid, spec in REGISTRY.items()} == APPLIES_TO
    assert sum(len(names) for names in APPLIES_TO.values()) == 102


def test_rel_residual_conventions():
    one = np.ones(3)
    assert np.allclose(rel_residual([one, -one]), 0.0)
    assert np.allclose(rel_residual([one, one]), 1.0)
    # tiny imbalance over large terms
    r = rel_residual([1e8 * one, -1e8 * one + 1.0])
    assert np.allclose(r, 1.0 / (2e8 + 1.0), rtol=1e-6)
    # all-zero terms do not divide by zero
    assert np.all(np.isfinite(rel_residual([0.0 * one, 0.0 * one])))


def test_rel_residual_scale_invariance():
    rng = np.random.default_rng(0)
    terms = [rng.standard_normal(5) for _ in range(4)]
    base = rel_residual(terms)
    scaled = rel_residual([1e7 * t for t in terms])
    assert np.allclose(base, scaled, rtol=1e-12)


def test_tensor_residual_worst_component_over_global_scale():
    a = np.ones(4)
    lists = [[a, -a], [1e-6 * a, 0.5e-6 * a]]
    # numerator: worst component defect; denominator: everything
    r = tensor_residual(lists)
    want = 1.5e-6 / (2.0 + 1.5e-6)
    assert np.allclose(r, want, rtol=1e-9)
    # extra_scale only grows the denominator
    r2 = tensor_residual(lists, extra_scale=np.full(4, 10.0))
    assert np.all(r2 < r)


def test_every_part_is_one_identity_judged_by_one_call(monkeypatch):
    # run_check forms every residual, each with one tensor_residual call;
    # runners only state their identities
    calls, judge = [], checks.tensor_residual
    monkeypatch.setattr(checks, "tensor_residual",
                        lambda *args: calls.append(args) or judge(*args))
    ran = [r for r in run_suite(seed=0, n_points=2)
           if r.status != checks.STATUS_SKIPPED]
    assert len(ran) == 102
    assert len(calls) == sum(len(r.parts) for r in ran)
    for spec in REGISTRY.values():
        for name in spec.applies_to:
            parts = spec.runner(build_context(name, 0, 2, 6, **spec.context))
            assert parts and all(type(p) is Identity for p in parts.values()), \
                (spec.check_id, name)
    # and running the runners themselves judged nothing
    assert len(calls) == sum(len(r.parts) for r in ran)


def _old_single_term_ratio(identity):
    """The hand-written ratio that CHK-EQ1's vanishing brackets and CHK-R1's
    weighted measure read before one rule judged them: |term| over the
    atom scale alone."""
    [[term]] = identity.components
    return np.abs(field_data(term)) / (1e-30 + identity.atom_scale)


@pytest.mark.parametrize("seed", [0, 1000])
def test_single_term_parts_now_count_their_term(seed):
    # the one rule adds |term| to the denominator, so new = old / (1 + old)
    # up to rounding: each side rounds its sums and quotient, and they are
    # measured up to 2 ulps apart per point (1 at seed 0, 2 at seed 1000)
    cases = []
    for name in REGISTRY["CHK-EQ1"].applies_to:
        ctx = build_context(name, seed, 32, 6)
        if ctx.spec.kind == "steady":
            curvature = hk.chart_inputs(ctx.chart)
            cases += checks._eq1_vanishing_brackets(ctx, curvature).items()
    for name in REGISTRY["CHK-R1"].applies_to:
        ctx = build_context(name, seed, 32, 6, time="const", deform=True)
        cases.append(("weighted_measure", checks._run_r1(ctx)["weighted_measure"]))
    assert len(cases) == 4 * 4 + 7
    for part, identity in cases:
        old = np.broadcast_to(_old_single_term_ratio(identity), (32,))
        new = np.broadcast_to(_judge(identity), (32,))
        assert np.all(new <= old), part
        want = np.array([float(Fraction(o) / (1 + Fraction(o))) for o in old])
        ulps = np.abs(new.view(np.int64) - want.view(np.int64))
        assert np.all(ulps <= 2), (part, ulps.max())


def test_b5_slack_identity_reads_the_old_ratio_when_the_bound_fails(monkeypatch):
    # halving L P's terms breaks L P >= Q^2/n at some points and not others
    l_eps_terms = hk.l_eps_terms
    monkeypatch.setattr(hk, "l_eps_terms",
                        lambda *args: [0.5 * t for t in l_eps_terms(*args)])
    rep = run_check("CHK-B5", "cigar_flow_v2", n_points=16)
    ctx = build_context("cigar_flow_v2", 0, 16, 6)
    ch, v = ctx.chart, checks._log_solution(ctx, 1.0)
    q = field_data(hk.log_q(ch, v))
    lp = field_data(sum(
        hk.l_eps_terms(ch, ctx.dt, v, hk.harnack_p_eps(ch, v, 1.0), 1.0)))
    bound = q * q / ch.n
    old = np.maximum(bound - lp, 0.0) / (np.abs(bound) + np.abs(lp) + 1e-30)
    assert 0 < np.count_nonzero(old) < 16
    assert rep.status == checks.STATUS_FAIL
    assert np.array_equal(rep.point_residuals.view(np.int64), old.view(np.int64))
    assert rep.parts == {"cauchy_schwarz_bound": old.max()}


def test_skip_logic():
    rep = run_check("CHK-L2", "cigar_static", n_points=4, order=4)
    assert rep.status == checks.STATUS_SKIPPED
    assert rep.max_rel_residual is None and rep.point_residuals is None
    rep2 = run_check("CHK-S1", "torus_generic", n_points=4, order=4)
    assert rep2.status == checks.STATUS_SKIPPED


def test_run_check_pass_and_report_shape():
    rep = run_check("CHK-H4", "cigar_static", n_points=8, order=5)
    assert rep.status == checks.STATUS_PASS
    assert rep.point_residuals.shape == (8,)
    assert rep.max_rel_residual <= rep.tolerance
    assert rep.median_rel_residual <= rep.max_rel_residual
    assert rep.parts and all(np.isfinite(v) for v in rep.parts.values())
    d = rep.to_dict()
    assert sorted(d) == ["check_id", "max_rel_residual", "median_rel_residual",
                         "millis", "n_points", "parts", "soliton", "status",
                         "tolerance"]


def test_run_check_builds_each_context_with_one_call_shape(monkeypatch):
    # build_context is an lru_cache: its key changes with the call's shape
    # (positional or keyword, keyword order), so a caller that pre-builds
    # contexts must be able to match it.
    calls = []
    build = checks.build_context

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(checks, "build_context", spy)
    ran = [r for r in run_suite(seed=2, n_points=2, order=5)
           if r.status != checks.STATUS_SKIPPED]
    assert len(ran) == len(calls) == 102
    r1 = {"time": "const", "deform": True}
    for rep, (args, kwargs) in zip(ran, calls):
        assert args == (rep.soliton, 2, 2, 5)
        want = r1 if rep.check_id == "CHK-R1" else {}
        assert list(kwargs.items()) == list(want.items())


def test_registry_never_writes_into_a_built_jet(monkeypatch):
    # jets are values: freeze each one as it is built (read-only coefficients,
    # no attribute set twice) and the whole registry must still pass
    init = Jet.__init__

    def frozen_init(jet, *args, **kwargs):
        init(jet, *args, **kwargs)
        jet.coeffs.setflags(write=False)

    def set_once(jet, name, value):
        if name in jet.__dict__:
            raise AttributeError(f"Jet.{name} is already set")
        object.__setattr__(jet, name, value)

    monkeypatch.setattr(Jet, "__init__", frozen_init)
    monkeypatch.setattr(Jet, "__setattr__", set_once)
    build_context.cache_clear()  # every context's jets get built frozen
    try:
        ran = [r for r in run_suite(seed=0, n_points=3, order=6)
               if r.status != checks.STATUS_SKIPPED]
    finally:
        build_context.cache_clear()
    assert len(ran) == 102
    assert all(r.status == checks.STATUS_PASS for r in ran)


def test_contexts_prebuilt_in_the_benchmark_call_shape_are_cache_hits():
    # perfbench/workloads.py builds every context before the timed pass with
    # these exact calls; the pass must then build none of its own
    seed, n, order = 5, 2, 6
    for name in {s for c in REGISTRY.values() for s in c.applies_to}:
        build_context(name, seed, n, order)
    for name in REGISTRY["CHK-R1"].applies_to:
        build_context(name, seed, n, order, time="const", deform=True)
    misses = build_context.cache_info().misses
    run_suite(seed=seed, n_points=n, order=order)
    assert build_context.cache_info().misses == misses


def test_impossible_tolerance_fails_honestly():
    rep = run_check("CHK-S1", "cigar_static", n_points=4, order=4,
                    tolerance=1e-300)
    assert rep.status == checks.STATUS_FAIL


def test_tolerance_is_capped():
    rep = run_check("CHK-S1", "cigar_static", n_points=4, order=4,
                    tolerance=1.0)
    assert rep.tolerance <= TOLERANCE_CAP


def test_unknown_ids_raise():
    with pytest.raises(UnknownCheckError):
        run_check("CHK-NOPE", "cigar_static")
    with pytest.raises(UnknownSolitonError):
        run_check("CHK-S1", "parabola")


def test_run_suite_filters():
    reps = run_suite(checks=("CHK-S1",), solitons=("cigar_static",),
                     n_points=4, order=4)
    assert len(reps) == 1 and reps[0].status == checks.STATUS_PASS
    reps = run_suite(checks=("CHK-H4", "CHK-S3"),
                     solitons=("cigar_static", "gaussian_shrinker"),
                     n_points=4, order=4)
    statuses = {(r.check_id, r.soliton): r.status for r in reps}
    assert statuses[("CHK-H4", "cigar_static")] == checks.STATUS_PASS
    assert statuses[("CHK-H4", "gaussian_shrinker")] == checks.STATUS_PASS
    assert statuses[("CHK-S3", "cigar_static")] == checks.STATUS_PASS
    assert statuses[("CHK-S3", "gaussian_shrinker")] == checks.STATUS_SKIPPED


def test_seed_changes_points_not_verdicts():
    a = run_check("CHK-H4t", "cigar_flow", seed=0, n_points=6, order=5)
    b = run_check("CHK-H4t", "cigar_flow", seed=1, n_points=6, order=5)
    assert a.status == b.status == checks.STATUS_PASS
    assert not np.array_equal(a.point_residuals, b.point_residuals)


def test_determinism_across_calls():
    a = run_check("CHK-EQ1", "cigar_flow", seed=3, n_points=6, order=5)
    b = run_check("CHK-EQ1", "cigar_flow", seed=3, n_points=6, order=5)
    assert np.array_equal(a.point_residuals, b.point_residuals)
    assert a.parts == b.parts


def test_vanishing_brackets_reported_on_steady_flows():
    rep = run_check("CHK-EQ1", "flat_steady_linear", n_points=6, order=5)
    for k in range(1, 5):
        assert f"vanishing_bracket_{k}" in rep.parts
    rep2 = run_check("CHK-EQ1", "sphere_shrinker", n_points=6, order=5)
    assert "vanishing_bracket_1" not in rep2.parts


# The four bracket normalizers and the grad-Rc scale on cigar_flow (seed 0,
# 4 points) as hand-written lists of |atom products| computed them, before
# the normalizers were derived from the evolution identity's term builder.
_PINNED_BRACKET_SCALES = [
    ["0x1.ee5d0e6034ba0p-4", "0x1.89007a01f8fc4p-4", "0x1.99eaf65a13764p-5",
     "0x1.20a1398cc1dacp-3"],
    ["0x1.22e1bab04e388p-3", "0x1.890d859940dacp-4", "0x1.dbdc79b6a409fp-5",
     "0x1.687fed480e53dp-3"],
    ["0x1.3ee7f5447066ap-4", "0x1.06005156a5fd4p-4", "0x1.0f99237971595p-5",
     "0x1.6e32674572735p-4"],
    ["0x1.702ad1e94a676p-6", "0x1.05e63a28163edp-6", "0x1.5dff596e286a1p-8",
     "0x1.d6376b0b115d8p-6"]]
_PINNED_NABLA_RICCI_SCALE = [
    "0x1.fa8ec09c5ff36p-2", "0x1.013748c3aa070p+0", "0x1.f6f26e48a80acp-3",
    "0x1.7011f88c4611cp-2"]


def _hex_array(values):
    return np.array([float.fromhex(v) for v in values])


def test_derived_normalizers_match_the_hand_written_atoms():
    ctx = build_context("cigar_flow", 0, 4, 6)
    ch = ctx.chart
    x = fields.neg_grad_potential(ctx)
    dxdt = geo.vector_from(lambda i: ctx.dt(x[i]), ch.n, con=True)
    brackets = hk.evolution_rhs_terms(ch, ch.ricci, x, dxdt)
    parts = checks._eq1_vanishing_brackets(ctx, hk.chart_inputs(ch))
    for k, pinned in enumerate(_PINNED_BRACKET_SCALES):
        part = parts[f"vanishing_bracket_{k + 1}"]
        [[term]] = part.components
        assert np.array_equal(field_data(term), field_data(brackets[k]))
        got = part.atom_scale
        if k == 1:
            # bracket 2's atoms are now the partials of div h and hX and
            # their Christoffel products, not the whole covariant derivatives
            ratio = got / _hex_array(pinned)
            assert np.all((ratio >= 1.0) & (ratio <= 4.0)), ratio
        else:
            assert np.array_equal(got, _hex_array(pinned)), k + 1
    got = checks._nabla_ricci_atom_scale(ch)
    want = _hex_array(_PINNED_NABLA_RICCI_SCALE)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert np.all(ulps <= 4), ulps


@pytest.mark.parametrize("soliton", ["cigar_flow", "cigar_flow_v2"])
def test_bracket_normalizers_do_not_swamp_a_defect(soliton, monkeypatch):
    # X = -grad f + 0.05 trig is no soliton field, so no bracket vanishes
    ctx = build_context(soliton, 0, 8, 6)
    x0 = fields.neg_grad_potential(ctx)
    bump = fields.trig_vector(ctx, "defect")
    x = geo.vector_from(lambda i: x0[i] + 0.05 * bump[i], ctx.chart.n, con=True)
    monkeypatch.setattr(fields, "neg_grad_potential", lambda _: x)
    curvature = hk.chart_inputs(ctx.chart)
    for part, identity in checks._eq1_vanishing_brackets(ctx, curvature).items():
        res = _judge(identity)
        assert np.max(res) > 1e-5, (part, np.max(res))


def test_eq1_builds_the_chart_inputs_once(monkeypatch):
    calls = []
    p_tensor = hk.p_tensor
    monkeypatch.setattr(hk, "p_tensor",
                        lambda chart: calls.append(chart) or p_tensor(chart))
    rep = run_check("CHK-EQ1", "cigar_flow", n_points=4, order=6)
    assert "vanishing_bracket_1" in rep.parts
    assert len(calls) == 1


def test_each_covector_is_raised_once(monkeypatch):
    # geometry takes each vector in one index position, so a caller raises a
    # covector once and hands the vector to every use
    real, calls, alive = geo.raise_vector, [], []

    def spy(chart, v):
        alive.append((chart, v))  # so that no id is reused
        calls.append((id(chart), id(v)))
        return real(chart, v)
    monkeypatch.setattr(geo, "raise_vector", spy)
    run_suite(checks=("CHK-B2", "CHK-B4", "CHK-B6", "CHK-B7"), seed=0, n_points=2)
    assert calls and len(set(calls)) == len(calls)


def test_eps_family_parts():
    rep = run_check("CHK-B6", "flat_torus", n_points=6, order=5)
    eps_parts = [k for k in rep.parts if k.startswith("eps(")]
    assert len(eps_parts) == 6
    assert rep.status == checks.STATUS_PASS


def test_b5_residual_is_zero_when_bound_holds():
    rep = run_check("CHK-B5", "cigar_flow_v2", n_points=16, order=5)
    assert rep.status == checks.STATUS_PASS
    assert rep.max_rel_residual == 0.0


def _gaussian_3d(x, y, z, t):
    one, zero = 1.0 + 0.0 * x, 0.0 * x
    g = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    return g, (x * x + y * y + z * z) / (-4.0 * t) - 1.5


# A 3-D chart built here, not in the catalog, so the registry keeps its
# verdicts: the jet context reads the dimension from the sample box.
_GAUSSIAN_3D = SolitonSpec(
    name="gaussian_shrinker_3d", kind="shrinking",
    description="flat R^3 as a shrinker: f = |x|^2/(-4t) - 3/2, t < 0",
    ricci_flow_exact=True, potential_time_rule="grad2",
    sample_box=((-2.0, 2.0),) * 3, time_interval=(-2.0, -0.5),
    builder=_gaussian_3d)


def test_three_dimensional_context_runs_the_shrinker_checks():
    # Every check whose predicate takes the 3-D chart, with the context
    # run_check would build for it. On this flat chart only EQ1, H3, L2 and
    # R1 leave non-zero residuals: the test shows the runners are
    # dimension-generic, not that each of their terms is live in 3-D.
    assert _GAUSSIAN_3D.name not in CATALOG
    ctx = SolitonContext(_GAUSSIAN_3D, 0, 8, 6, time="var", deform=False)
    assert ctx.var_names == ("x", "y", "z", "t")
    assert ctx.time_index == 3 and ctx.space.n_vars == 4
    assert ctx.chart.n == 3 and len(ctx.coords) == 3
    assert ctx.points["x"].shape == (3, 8)
    ran = []
    for cid, spec in sorted(REGISTRY.items()):
        if not spec.applies(_GAUSSIAN_3D):
            continue
        kwargs = {"time": "var", "deform": False} | spec.context
        ctx = SolitonContext(_GAUSSIAN_3D, 0, 8, 6, **kwargs)
        for part, identity in spec.runner(ctx).items():
            assert np.max(_judge(identity)) <= spec.tolerance, (cid, part)
        ran.append(cid)
    assert ran == ["CHK-B7", "CHK-EQ1", "CHK-H1", "CHK-H2", "CHK-H3", "CHK-H4",
                   "CHK-H4t", "CHK-L2", "CHK-R1", "CHK-S1", "CHK-S2"]


def _fresh(fn):
    """fn() on contexts built for it alone, and none of them kept after."""
    build_context.cache_clear()
    try:
        return fn()
    finally:
        build_context.cache_clear()


def _bits_of(report):
    return (report.status, report.point_residuals.tobytes(),
            sorted(report.parts.items()))


@pytest.mark.parametrize("check_id, soliton", [
    ("CHK-L1", "cigar_flow"), ("CHK-L1", "flat_steady_linear"),
    ("CHK-L2", "sphere_shrinker"), ("CHK-L2", "gaussian_shrinker")])
def test_shared_h_gives_the_bits_of_a_fresh_one(check_id, soliton):
    def after_eq1():
        run_check("CHK-EQ1", soliton, n_points=4)
        return run_check(check_id, soliton, n_points=4)
    alone = _fresh(lambda: run_check(check_id, soliton, n_points=4))
    assert _bits_of(_fresh(after_eq1)) == _bits_of(alone)


def test_evolved_h_is_built_once_per_context(monkeypatch):
    propagate, built = fields.propagate_sym2, []
    monkeypatch.setattr(fields, "propagate_sym2", lambda ctx, h0: built.append(
        ctx.spec.name) or propagate(ctx, h0))
    ids = ("CHK-EQ1", "CHK-L1", "CHK-L2")
    reports = _fresh(lambda: run_suite(checks=ids, n_points=2))
    charts = {r.soliton for r in reports if r.status != checks.STATUS_SKIPPED}
    assert len(charts) == 6 and sorted(built) == sorted(charts)


def test_log_solution_is_built_once_per_context_and_eps(monkeypatch):
    propagate, heat = fields.propagate_scalar, fields.rhs_linear_heat
    built, eps = [], []
    monkeypatch.setattr(fields, "propagate_scalar", lambda ctx, u0, rhs: (
        built.append(ctx.spec.name) or propagate(ctx, u0, rhs)))
    monkeypatch.setattr(fields, "rhs_linear_heat",
                        lambda e: eps.append(e) or heat(e))
    ids = ("CHK-B2", "CHK-B3", "CHK-B4", "CHK-B5", "CHK-B6")
    reports = _fresh(lambda: run_suite(checks=ids, n_points=2))
    charts = {r.soliton for r in reports if r.status != checks.STATUS_SKIPPED}
    pairs = list(zip(built, eps))
    assert len(built) == len(eps) == len(set(pairs))
    assert set(pairs) == {(s, e) for s in charts for e in checks._EPS_SET}
