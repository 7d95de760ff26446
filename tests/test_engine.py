"""Schedules, noise/bias families, projections, the recursion step, full
runs, the plain-float loop of table-backed drifts, interpolations, and the
determinism guarantees."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sadi.engine as engine
from sadi.engine import (
    BallRegion,
    BoundedNoise,
    BoxRegion,
    ConstantBias,
    CustomBias,
    Drift,
    GaussianNoise,
    NoNoise,
    NoProjection,
    RunSpec,
    ShrinkingGaussianBias,
    SimulationBlowup,
    StepSchedule,
    UniformNoise,
    ZeroBias,
    project,
    run,
    run_ensemble,
)
from sadi.engine import ROLE_BIAS, ROLE_PERTURB, ROLE_SELECTOR, ROLE_ZETA, _role_generators
from sadi.sets import (Box, Cell, CellTable, LeastNorm, SetValuedMap, UniformVertex,
                       contains, select)
from sadi.presets import (lasso_preset, nonconvergence_preset, pegasos_preset, RegressionLaw,
                          SignFilterLaw)


# --- schedules and the time mesh -------------------------------------------


def test_schedule_laws():
    for sched in (StepSchedule.harmonic(1.0), StepSchedule.power_law(1.0, 0.5),
                  StepSchedule.power_law(2.0, 0.8)):
        a = sched.step_sizes(0, 2000)
        assert np.all(a > 0)
        assert np.all(np.diff(a) <= 0)
    # divergence proxy for the harmonic family
    h = StepSchedule.harmonic(1.0)
    assert h.time_at(1_000_000) > 10.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule.power_law(1.0, 1.5)
    with pytest.raises(ValueError):
        StepSchedule.harmonic(0.0)
    with pytest.raises(ValueError):
        StepSchedule.custom(lambda n: -1.0)


def test_time_mesh_origin():
    sched = StepSchedule.harmonic(1.0)
    assert sched.time_at(0) == 0.0
    assert sched.mesh_index(0.0) == 0


def test_harmonic_partial_sums():
    sched = StepSchedule.harmonic(1.0)
    assert sched.time_at(3) == pytest.approx(11.0 / 6.0, abs=1e-15)
    # t_2 = 1.5 <= 1.8 < t_3
    assert sched.mesh_index(1.8) == 2


def test_mesh_negative_time_is_zero():
    sched = StepSchedule.power_law(1.0, 0.5)
    assert sched.mesh_index(-5.0) == 0


def test_mesh_roundtrip():
    sched = StepSchedule.power_law(1.0, 0.5)
    for n in (0, 1, 7, 151):
        assert sched.mesh_index(sched.time_at(n)) == n


_FAMILIES = {"harmonic_1": (1.0, 1.0), "harmonic_0.3": (0.3, 1.0),
             "power_1_0.5": (1.0, 0.5), "power_2_1": (2.0, 1.0), "power_0.5_0.05": (0.5, 0.05)}


def _family(name):
    c, alpha = _FAMILIES[name]
    if name.startswith("harmonic"):
        return StepSchedule.harmonic(c)
    return StepSchedule.power_law(c, alpha)


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_unreachable_time_raises_before_growing_the_mesh(name):
    import tracemalloc

    sched = _family(name)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="horizon"):
            sched.mesh_index(1e9)
        with pytest.raises(ValueError, match="horizon"):
            sched.mesh_index(math.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_mesh_index_is_exact_at_reachable_times(name):
    sched = _family(name)
    for n in (1, 2, 63, 64, 65, 1000, 20_000, 300_000):
        t = sched.time_at(n)
        assert sched.mesh_index(t) == n
        assert sched.mesh_index(math.nextafter(t, -math.inf)) == n - 1
        assert sched.mesh_index(math.nextafter(t, math.inf)) == n
        assert sched.mesh_index(0.5 * (t + sched.time_at(n + 1))) == n


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_time_mesh_bits_do_not_depend_on_growth(name):
    fresh = _family(name)
    whole = [fresh.time_at(n) for n in range(0, 300_001, 997)]
    for pattern in ((1, 2, 63, 1000, 20_000), (300_000,), (64, 65, 66, 4096, 4097)):
        sched = _family(name)
        for n in pattern:
            sched.time_at(n)
        sched.mesh_index(fresh.time_at(150_000))  # grows by doubling blocks
        assert [sched.time_at(n) for n in range(0, 300_001, 997)] == whole
        assert sched.mesh_index(fresh.time_at(300_000)) == 300_000


# --- noise and bias families -------------------------------------------------


def test_gaussian_noise_moments(rng):
    model = GaussianNoise([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
    draws = model.sample_block(rng, 200_000)
    assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(draws.T), [[2.0, 0.5], [0.5, 1.0]], atol=0.03)


def test_uniform_noise_box(rng):
    model = UniformNoise([-1.0, 0.0], [1.0, 2.0])
    draws = model.sample_block(rng, 10_000)
    assert draws.min(axis=0)[0] >= -1.0 and draws.max(axis=0)[1] <= 2.0


def test_bounded_noise_enforces_bound(rng):
    ok = BoundedNoise(lambda g: g.uniform(-0.5, 0.5, size=2), bound=1.0, dim=2)
    draws = ok.sample_block(rng, 500)
    assert np.all(np.linalg.norm(draws, axis=1) <= 1.0)
    bad = BoundedNoise(lambda g: np.array([2.0, 0.0]), bound=1.0, dim=2)
    with pytest.raises(ValueError):
        bad.sample_block(rng, 1)


def test_custom_bias_rule(rng):
    model = CustomBias(lambda g, n: np.array([1.0 / (n + 1.0)]), dim=1,
                       declared_eta=0.0)
    block = model.sample_block(rng, 4)
    assert np.allclose(block[:, 0], [1.0, 0.5, 1.0 / 3.0, 0.25])
    assert model.sample_block(rng, 10)[9, 0] == pytest.approx(0.1)


def test_shrinking_bias_variance_schedule(rng):
    model = ShrinkingGaussianBias(1, c=1.0, gamma=0.5)
    rows = np.array([model.sample_block(rng, 100)[:, 0] for _ in range(10_000)])
    for n in (0, 9, 99):
        target = (n + 1.0) ** -0.5
        assert rows[:, n].var() == pytest.approx(target, rel=0.08)
    assert model.declared_eta == 0.0
    assert ShrinkingGaussianBias(1, c=1.0, gamma=0.0).declared_eta == math.inf
    assert ConstantBias([0.3, 0.4]).declared_eta == pytest.approx(0.5)


# --- projections ---------------------------------------------------------------


def test_project_box_clamp():
    region = BoxRegion([-1, -1], [1, 1])
    assert np.allclose(project(region, [2.0, 0.5]), [1.0, 0.5])


def test_project_ball_scaling():
    region = BallRegion([0, 0], 1.0)
    assert np.allclose(project(region, [3.0, 4.0]), [0.6, 0.8])


def test_project_inside_is_identity():
    region = BallRegion([0, 0], 2.0)
    x = np.array([0.3, -0.4])
    assert np.array_equal(project(region, x), x)


def test_project_requires_region():
    with pytest.raises(ValueError):
        project(NoProjection(), [0.0])


def test_projection_idempotent_bitwise(rng):
    regions = [BoxRegion([-1, -1], [1, 1]), BallRegion([0.25, -0.5], 1.3)]
    for _ in range(500):
        region = regions[int(rng.integers(2))]
        x = rng.uniform(-4, 4, size=2)
        p1 = project(region, x)
        p2 = project(region, p1)
        assert np.array_equal(p1, p2)


def test_projection_optimality(rng):
    for _ in range(1000):
        if rng.random() < 0.5:
            lo = rng.uniform(-3, 0, size=2)
            hi = lo + rng.uniform(0.5, 3, size=2)
            region = BoxRegion(lo, hi)
            samples = lo + rng.random((100, 2)) * (hi - lo)
        else:
            c = rng.uniform(-2, 2, size=2)
            r = rng.uniform(0.5, 2.0)
            region = BallRegion(c, r)
            g = rng.standard_normal((100, 2))
            g = g / np.linalg.norm(g, axis=1, keepdims=True)
            samples = c + g * (r * rng.random((100, 1)))
        x = rng.uniform(-5, 5, size=2)
        px = project(region, x)
        d = np.linalg.norm(x - px)
        assert np.all(d <= np.linalg.norm(samples - x, axis=1) + 1e-9)


_finite = dict(allow_nan=False, allow_infinity=False)


def _vectors(d, bound):
    return st.lists(st.floats(-bound, bound, **_finite), min_size=d, max_size=d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_projection_contract_property(data):
    """Both regions project rows idempotently, bit for bit, onto a point of
    the region that no region point beats: the support of the region along
    x - p is attained at p, up to rounding."""
    d = data.draw(st.integers(1, 3), label="dim")
    if data.draw(st.booleans(), label="box"):
        lo = np.array(data.draw(_vectors(d, 3.0), label="lo"))
        width = data.draw(st.lists(st.floats(1e-3, 4.0, **_finite), min_size=d, max_size=d),
                          label="width")
        region = BoxRegion(lo, lo + np.array(width))
    else:
        region = BallRegion(data.draw(_vectors(d, 3.0), label="center"),
                            data.draw(st.floats(1e-3, 4.0, **_finite), label="radius"))
    rows = np.array(data.draw(st.lists(_vectors(d, 20.0), min_size=1, max_size=6), label="x"))
    projected = region.project_rows(rows)
    assert np.array_equal(region.project_rows(projected), projected)
    shape = region.as_convex_set()
    for x, p in zip(rows, projected):
        assert contains(shape, p, 1e-9)
        gap = shape.support(x - p) - float((x - p) @ p)
        assert gap <= 1e-9 * (1.0 + float(x @ x))


# --- single steps ----------------------------------------------------------------


def _zero_drift(dim):
    return Drift(dim=dim)


def _one_step(drift, x0, sched, noise_zeta=None, n_steps=1):
    spec = RunSpec(drift=drift, schedule=sched, x0=x0, n_steps=n_steps,
                   noise_zeta=noise_zeta or NoNoise())
    return run(spec, 0)


def test_step_identity_with_no_terms():
    x = np.array([0.7, -0.2])
    traj = _one_step(_zero_drift(2), x, StepSchedule.harmonic(1.0))
    assert np.array_equal(traj.iterates[1], x)
    assert not traj.projection_active[0]


def test_step_sign_error_filter_arithmetic():
    # residual sign update with unit regressor: 0 + 0.5*1*sign(1 - 0) = 0.5
    def sample_term(x_rows, xi_rows):
        resid = 1.0 - x_rows[:, 0]
        return np.sign(resid)[:, None]

    drift = Drift(dim=1, sample_term=sample_term)
    traj = _one_step(drift, [0.0], StepSchedule.custom(lambda n: 0.5))
    assert traj.iterates[1, 0] == 0.5


def test_step_penalized_regression_arithmetic():
    # w=1, sample (x,y)=(1,1), penalty 0.7, a=0.1: 1 + 0.1*0 + 0.1*(-0.7) = 0.93
    lam = 0.7

    def smooth(w_rows, z_rows):
        x, y = z_rows[:, 0], z_rows[:, 1]
        return ((y - w_rows[:, 0] * x) * x)[:, None]

    def sample_term(w_rows, xi_rows):
        return -lam * np.sign(w_rows)

    drift = Drift(dim=1, smooth=smooth, sample_term=sample_term)
    fixed = BoundedNoise(lambda g: np.array([1.0, 1.0]), bound=2.0, dim=2)
    traj = _one_step(drift, [1.0], StepSchedule.custom(lambda n: 0.1), noise_zeta=fixed)
    assert traj.iterates[1, 0] == pytest.approx(0.93, abs=1e-15)
    assert traj.smooth_terms[0, 0] == 0.0
    assert traj.set_terms[0, 0] == -0.7


def test_step_blowup_carries_index():
    # unit steps walk 0, 1, 2, 3; the smooth term turns infinite at 3
    def smooth(x_rows, z_rows):
        return np.where(x_rows >= 3.0, np.inf, 1.0)

    drift = Drift(dim=1, smooth=smooth)
    with pytest.raises(SimulationBlowup) as err:
        _one_step(drift, [0.0], StepSchedule.custom(lambda n: 1.0), n_steps=6)
    assert err.value.step_index == 3


# --- the plain-float loop of table-backed drifts ------------------------------------


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float_loop_matches_row_loop_bitwise():
    p = nonconvergence_preset()
    table = p.spec.drift.sample_term
    # seed 3 enters all four corridors by step 713; 5,000 steps span two of
    # the float loop's 4,096-step blocks
    spec = replace(p.spec, x0=[2.0, 2.0], n_steps=5_000)
    ck = [0, 4_096, 4_500, 5_000]
    one = run_ensemble(spec, 3, 1, checkpoints=ck, record_paths=True)
    two = run_ensemble(spec, 3, 2, checkpoints=ck, record_paths=True)
    traj = run(spec, 3)
    assert len(set(table.region_ids(one.paths[0][:-1]).tolist()) & {2, 3, 4, 5}) >= 3
    _assert_same_bits(one.paths[0], two.paths[0])
    _assert_same_bits(traj.iterates, two.paths[0])
    _assert_same_bits(one.finals[0], two.finals[0])
    _assert_same_bits(one.checkpoint_states[0], two.checkpoint_states[0])
    assert one.fail_steps.tolist() == [-1]
    _assert_same_bits(traj.set_terms, table(traj.iterates[:-1]))


def test_float_loop_is_taken_for_one_replication(monkeypatch):
    # the float loop never calls the row term; more replications do
    p = nonconvergence_preset()
    spec = replace(p.spec, x0=[1.5, 0.0], n_steps=200)

    def refuse(*args, **kwargs):
        raise AssertionError("row term called")

    monkeypatch.setattr(Drift, "set_term_rows", refuse)
    run_ensemble(spec, 1, 1)
    with pytest.raises(AssertionError):
        run_ensemble(spec, 1, 2)


def test_float_loop_additive_noise_and_constant_bias():
    p = nonconvergence_preset()
    spec = replace(p.spec, x0=[0.0, 0.0], n_steps=2_000, bias=ConstantBias([0.01, -0.02]))
    spec.noise_zetatilde = GaussianNoise([0.0, 0.0], [[0.5, 0.1], [0.1, 0.3]])
    one = run_ensemble(spec, 8, 1, checkpoints=[0, 1_000, 2_000], record_paths=True)
    two = run_ensemble(spec, 8, 2, checkpoints=[0, 1_000, 2_000], record_paths=True)
    _assert_same_bits(one.paths[0], two.paths[0])
    _assert_same_bits(one.checkpoint_states[0], two.checkpoint_states[0])
    traj = run(spec, 8)
    assert np.all(traj.bias_terms == [0.01, -0.02])
    assert np.any(traj.noise_terms != 0.0)


def _diverging_table_spec(n_steps=40):
    # x grows by a factor of about 1 + 1e100*a_n per step until it overflows
    table = CellTable(1, [
        Cell(lambda x: x[0] < -1.0, (1.0,), (1.0,)),
        Cell(None, (0.0,), (0.0,), slope=1e100),
    ])
    return RunSpec(drift=Drift(dim=1, sample_term=table),
                   schedule=StepSchedule.harmonic(1.0), x0=[1.0], n_steps=n_steps)


@pytest.mark.parametrize("n_reps", [1, 2])
def test_checkpoints_outside_the_horizon_rejected(n_reps):
    spec = replace(nonconvergence_preset().spec, x0=[1.5, 0.0], n_steps=10)
    with pytest.raises(ValueError):
        run_ensemble(spec, 0, n_reps, checkpoints=[0, 11])


def test_float_loop_records_blowup_and_run_raises():
    spec = _diverging_table_spec()
    with np.errstate(over="ignore", invalid="ignore"):
        one = run_ensemble(spec, 0, 1, checkpoints=[0, 40], record_paths=True)
        two = run_ensemble(spec, 0, 2, checkpoints=[0, 40], record_paths=True)
    fail = int(one.fail_steps[0])
    assert fail >= 0 and fail == int(two.fail_steps[0])
    assert np.all(np.isfinite(one.paths[0, :fail + 1]))
    assert not np.isfinite(one.paths[0, fail + 1, 0])
    _assert_same_bits(one.paths[0], two.paths[0])
    _assert_same_bits(one.finals[0], two.finals[0])
    with pytest.raises(SimulationBlowup) as err, np.errstate(over="ignore"):
        run(spec, 0)
    assert err.value.step_index == fail


# --- runs -------------------------------------------------------------------------


def _ou_spec(n_steps=400, x0=1.0, seed_dim=1):
    def smooth(x_rows, z_rows):
        return -(x_rows - 0.3) + z_rows

    drift = Drift(dim=1, smooth=smooth, smooth_mean=lambda x: -(x - 0.3))
    return RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5),
                   x0=[x0], n_steps=n_steps,
                   noise_zeta=GaussianNoise([0.0], [[1.0]]))


def test_run_zero_steps():
    spec = _ou_spec(n_steps=0)
    traj = run(spec, 1)
    assert traj.iterates.shape == (1, 1)


def test_run_replay_determinism():
    spec = _ou_spec()
    t1 = run(spec, 5)
    t2 = run(spec, 5)
    assert np.array_equal(t1.iterates, t2.iterates)


def test_run_decomposition_audit_exact():
    preset = lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones"))
    spec = replace(preset.spec, x0=[5.0], n_steps=300, bias=ShrinkingGaussianBias(1, 1.0, 1.0))
    traj = run(spec, 11)
    for n in range(traj.n_steps):
        recon = traj.iterates[n] + traj.step_sizes_used[n] * (
            traj.set_terms[n] + traj.smooth_terms[n]
            + traj.noise_terms[n] + traj.bias_terms[n])
        assert np.array_equal(recon, traj.iterates[n + 1])


def test_ensemble_matches_single_run_bitwise():
    spec = _ou_spec(n_steps=200)
    traj = run(spec, 9)
    ens = run_ensemble(spec, 9, 3, record_paths=True)
    assert np.array_equal(ens.paths[0], traj.iterates)


def test_ensemble_thread_chunking_identical():
    spec = _ou_spec(n_steps=150)
    a = run_ensemble(spec, 4, 40, threads=1)
    b = run_ensemble(spec, 4, 40, threads=8)
    assert np.array_equal(a.finals, b.finals)
    assert np.array_equal(a.fail_steps, b.fail_steps)


def _reference_generator(seed, rep, role):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep, role)))


def test_batched_substreams_match_seed_sequence():
    reps = (0, 1, 65536, 2**32 - 1)
    for seed in (0, 3, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 1):
        for role in range(6):
            expected = [_reference_generator(seed, rep, role).bit_generator.state
                        for rep in reps]
            batched = _role_generators(seed, reps, role)
            assert [g.bit_generator.state for g in batched] == expected
            single = [_role_generators(seed, [rep], role)[0] for rep in reps]
            assert [g.bit_generator.state for g in single] == expected


def test_ensemble_finals_follow_seed_sequence_streams():
    spec = _ou_spec(n_steps=120)
    seed = 2**40 + 3
    ens = run_ensemble(spec, seed, 3)
    a = spec.schedule.step_sizes(0, spec.n_steps)
    for rep in range(3):
        z = spec.noise_zeta.sample_block(_reference_generator(seed, rep, ROLE_ZETA),
                                         spec.n_steps)
        x = spec.x0.copy()
        for n in range(spec.n_steps):
            x = x + a[n] * (-(x - 0.3) + z[n])
        assert np.array_equal(ens.finals[rep], x)


def _pegasos_spec(n_steps):
    # ZeroBias (draw-free) with Gaussian noise on xi
    return replace(pegasos_preset(1.0).spec, x0=[3.0, 5.0], n_steps=n_steps)


def _shrinking_bias_spec(n_steps, bias=None):
    preset = lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones"))
    return replace(preset.spec, x0=[5.0], n_steps=n_steps,
                   bias=bias or ShrinkingGaussianBias(1, c=1.0, gamma=1.0))


@pytest.mark.parametrize("make_spec", [_pegasos_spec, _shrinking_bias_spec])
def test_run_matches_ensemble_row_bitwise(make_spec):
    spec = make_spec(250)
    traj = run(spec, 13)
    ens = run_ensemble(spec, 13, 4, record_paths=True)
    assert np.array_equal(ens.paths[0], traj.iterates)
    assert np.array_equal(ens.finals[0], traj.iterates[-1])


def test_draw_free_bias_terms_are_zero():
    traj = run(_pegasos_spec(150), 13)
    assert traj.bias_terms.shape == (150, 2)
    assert not traj.bias_terms.any()


def test_shrinking_bias_terms_follow_bias_stream():
    bias = ShrinkingGaussianBias(1, c=1.0, gamma=1.0)
    for n_steps in (200, 80, 200):  # the per-step deviation is cached by block length
        traj = run(_shrinking_bias_spec(n_steps, bias), 13)
        z = _reference_generator(13, 0, ROLE_BIAS).standard_normal((n_steps, 1))
        sd = np.sqrt(1.0 * (np.arange(n_steps) + 1.0) ** -1.0)
        assert np.array_equal(traj.bias_terms, z * sd[:, None])


def test_role_streams_isolated():
    """Adding a bias stream must not perturb the noise draws."""
    spec_plain = _ou_spec(n_steps=100)
    base = run(spec_plain, 21)
    spec_biased = _ou_spec(n_steps=100)
    spec_biased.bias = ConstantBias([0.0])
    biased = run(spec_biased, 21)
    assert np.array_equal(base.noise_terms, biased.noise_terms)
    assert np.array_equal(base.smooth_terms, biased.smooth_terms)


def test_projected_run_stays_inside():
    spec = _ou_spec(n_steps=500, x0=0.9)
    spec.projection = BoxRegion([-1.0], [1.0])
    traj = run(spec, 3)
    region_set = Box([-1.0], [1.0])
    for x in traj.iterates:
        assert contains(region_set, x, 1e-12)


def test_ensemble_records_blowups():
    def smooth(x_rows, z_rows):
        with np.errstate(over="ignore", invalid="ignore"):
            return x_rows * x_rows * 1e3  # explodes quickly

    drift = Drift(dim=1, smooth=smooth)
    spec = RunSpec(drift=drift, schedule=StepSchedule.custom(lambda n: 1.0),
                   x0=[5.0], n_steps=60)
    res = run_ensemble(spec, 1, 4)
    assert res.n_failed == 4
    assert np.all(res.fail_steps >= 0)
    with pytest.raises(SimulationBlowup):
        run(spec, 1)


def test_selector_perturbation_stays_in_ball(rng):
    value = Box([-1.0], [1.0])
    gmap = SetValuedMap(1, lambda x: value, common_bound=1.0)
    radius = 0.25
    drift = Drift(dim=1, set_map=gmap, selector=LeastNorm(),
                  m_rule=lambda x, xi: radius)
    spec = RunSpec(drift=drift, schedule=StepSchedule.custom(lambda n: 1e-6),
                   x0=[0.0], n_steps=200)
    traj = run(spec, 17)
    # the logged set term must lie in value + radius*ball
    for term in traj.set_terms:
        assert abs(term[0]) <= 1.0 + radius + 1e-12
        assert contains(value, np.clip(term, -1, 1), 1e-9)


def test_drift_mean_matches_monte_carlo(rng):
    preset = lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones"))
    gen = np.random.default_rng(0)
    for w in np.linspace(-2, 2, 10):
        z = preset.spec.noise_zeta.sample_block(gen, 100_000)
        vals = preset.spec.drift.smooth(np.full((100_000, 1), w), z)
        se = vals.std() / math.sqrt(100_000)
        assert abs(vals.mean() - preset.spec.drift.mean_field([w])[0]) < 3 * se + 1e-9


# --- interpolation ------------------------------------------------------------------


def _toy_traj():
    spec = _ou_spec(n_steps=50)
    return run(spec, 2)


def test_interpolate_at_knots():
    traj = _toy_traj()
    sched = traj.schedule
    for n in (0, 3, 17):
        t = sched.time_at(n)
        assert np.array_equal(traj.interpolate(t, "constant"), traj.iterates[n])
        assert np.array_equal(traj.interpolate(t, "linear"), traj.iterates[n])


def test_interpolate_midpoint_average():
    traj = _toy_traj()
    sched = traj.schedule
    n = 5
    mid = 0.5 * (sched.time_at(n) + sched.time_at(n + 1))
    got = traj.interpolate(mid, "linear")
    assert np.allclose(got, 0.5 * (traj.iterates[n] + traj.iterates[n + 1]), atol=1e-12)


def test_interpolate_shifted_plateau():
    traj = _toy_traj()
    n = 10
    t_n = traj.schedule.time_at(n)
    assert np.array_equal(traj.interpolate(-t_n - 1.0, "linear", shift=n),
                          traj.iterates[0])


def test_interpolate_beyond_horizon_raises():
    traj = _toy_traj()
    horizon = traj.schedule.time_at(traj.n_steps)
    with pytest.raises(ValueError):
        traj.interpolate(horizon + 1.0, "linear")


def test_interpolate_constant_mode_left_limit():
    traj = _toy_traj()
    sched = traj.schedule
    t = 0.5 * (sched.time_at(2) + sched.time_at(3))
    assert np.array_equal(traj.interpolate(t, "constant"), traj.iterates[2])


def test_interpolate_mode_aliases():
    traj = _toy_traj()
    t = 0.3
    assert np.array_equal(traj.interpolate(t, "PiecewiseConstant"),
                          traj.interpolate(t, "constant"))
    assert np.array_equal(traj.interpolate(t, "PiecewiseLinear"),
                          traj.interpolate(t, "linear"))
    with pytest.raises(ValueError):
        traj.interpolate(t, "cubic")


def test_trajectory_csv_roundtrip(tmp_path):
    traj = _toy_traj()
    path = tmp_path / "traj.csv"
    traj.fingerprint = "abc"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and "fingerprint=abc" in lines[0]
    assert lines[1].split(",")[:4] == ["n", "t", "a", "x0"]
    assert len(lines) == 2 + traj.n_steps
    # 17-significant-digit round trip of the first iterate
    first = float(lines[2].split(",")[3])
    assert first == traj.iterates[0][0]


# --- time-blocked draws -----------------------------------------------------------


def _gaussian(dim):
    a = np.arange(1.0, dim * dim + 1.0).reshape(dim, dim) / dim
    return GaussianNoise(np.linspace(-1.0, 1.0, dim), a @ a.T + np.eye(dim))


_MODELS = {
    **{f"gaussian_{d}": (lambda d=d: _gaussian(d)) for d in (1, 2, 3, 4)},
    "gaussian_singular": lambda: GaussianNoise([0.5, 0.0], [[1.0, 1.0], [1.0, 1.0]]),
    "uniform": lambda: UniformNoise([-1.0, 0.0], [1.0, 2.0]),
    "bounded": lambda: BoundedNoise(lambda g: g.uniform(-0.5, 0.5, size=2), bound=1.0, dim=2),
    "laplace": lambda: SignFilterLaw([1.0], noise="laplace").noise_model(),
    "none": lambda: NoNoise(2),
    "zero_bias": lambda: ZeroBias(2),
    "constant_bias": lambda: ConstantBias([0.3, -0.4]),
    "shrinking_bias": lambda: ShrinkingGaussianBias(2, c=2.0, gamma=0.7),
    "custom_bias": lambda: CustomBias(lambda g, n: g.standard_normal(2) / (n + 1.0), dim=2),
}


def _streams(n_reps, seed=5):
    return [_reference_generator(seed, rep, 1) for rep in range(n_reps)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_MODELS)), n_reps=st.integers(1, 5),
       start=st.integers(0, 10_000),
       cuts=st.lists(st.integers(1, 39), max_size=6, unique=True),
       chunk=st.sampled_from([1, 50, 200, engine._NORMALS_CHUNK]))
def test_block_draws_equal_one_whole_horizon_draw(name, n_reps, start, cuts, chunk):
    n = 40
    model = _MODELS[name]()
    whole = np.stack([model.sample_block(gen, n, start) for gen in _streams(n_reps)], axis=1)
    bounds = [0] + sorted(cuts) + [n]
    filled, single = np.empty((n, n_reps, model.dim)), np.empty((n, n_reps, model.dim))
    gens, gen_rows = _streams(n_reps), _streams(n_reps)
    saved = engine._NORMALS_CHUNK
    engine._NORMALS_CHUNK = chunk  # normals drawn for one or a few replications at a time
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            model.fill_block(gens, start + lo, filled[lo:hi])
            for i, gen in enumerate(gen_rows):
                single[lo:hi, i] = model.sample_block(gen, hi - lo, start + lo)
    finally:
        engine._NORMALS_CHUNK = saved
    assert np.array_equal(filled, whole)
    assert np.array_equal(single, whole)


def _square_map():
    square = Box([-1.0, -1.0], [1.0, 1.0])
    return SetValuedMap(2, lambda x: square, common_bound=1.5)


def _uniform_vertex_spec(n_steps):
    # a square's four vertices, picked by the selector draw, and a ball perturbation
    drift = Drift(dim=2, set_map=_square_map(), selector=UniformVertex(),
                  m_rule=lambda x, xi: 0.1 * abs(xi[0]))
    return RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5), x0=[0.2, -0.1],
                   n_steps=n_steps, noise_xi=_gaussian(2),
                   noise_zetatilde=_gaussian(2), bias=ShrinkingGaussianBias(2, 1.0, 0.5))


_CHUNK_SPECS = {
    "lasso_shrinking_bias": lambda n: _shrinking_bias_spec(n),
    "pegasos": _pegasos_spec,
    "ou": lambda n: _ou_spec(n_steps=n),
    "uniform_vertex_perturbed": _uniform_vertex_spec,
    "custom_bias": lambda n: _shrinking_bias_spec(
        n, CustomBias(lambda g, k: g.standard_normal(1) / (k + 1.0), dim=1)),
}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_CHUNK_SPECS)), n_reps=st.integers(1, 3),
       block=st.integers(1, 50))
@example(name="uniform_vertex_perturbed", n_reps=3, block=1)
@example(name="pegasos", n_reps=1, block=1)
@example(name="lasso_shrinking_bias", n_reps=2, block=7)
def test_ensemble_bytes_do_not_depend_on_block_length(name, n_reps, block):
    n_steps = 45
    spec = _CHUNK_SPECS[name](n_steps)
    reference = run_ensemble(spec, 11, n_reps, checkpoints=[0, 13, 45], record_paths=True)
    width = engine._Draws(spec, 11, n_reps).width
    saved = engine._DRAW_BUDGET
    engine._DRAW_BUDGET = block * n_reps * max(width, 1)
    try:
        blocked = run_ensemble(spec, 11, n_reps, checkpoints=[0, 13, 45], record_paths=True)
    finally:
        engine._DRAW_BUDGET = saved
    assert np.array_equal(blocked.finals, reference.finals)
    assert np.array_equal(blocked.checkpoint_states, reference.checkpoint_states)
    assert np.array_equal(blocked.paths, reference.paths)
    assert np.array_equal(blocked.fail_steps, reference.fail_steps)


def test_draw_memory_does_not_grow_with_the_horizon(monkeypatch):
    import tracemalloc

    # a budget below R*N*width for both horizons, so both run in blocks
    monkeypatch.setattr(engine, "_DRAW_BUDGET", 1 << 14)
    peaks = []
    for n_steps in (2_000, 20_000):
        spec = _shrinking_bias_spec(n_steps)
        run_ensemble(spec, 3, 20)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            run_ensemble(spec, 3, 20)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one step-size block of the longer run is the only allowed difference
    assert peaks[1] <= peaks[0] + 8 * (1 << 14)


def test_sample_terms_build_no_selector_streams(monkeypatch):
    roles = []
    role_generators = engine._role_generators

    def recording(seed, reps, role):
        roles.append(role)
        return role_generators(seed, reps, role)

    monkeypatch.setattr(engine, "_role_generators", recording)
    for spec in (_shrinking_bias_spec(30), _pegasos_spec(30)):
        run_ensemble(spec, 3, 4)
        run(spec, 3)
    assert roles and ROLE_SELECTOR not in roles


def test_uniform_vertex_selects_with_selector_stream():
    gmap = _square_map()
    spec = RunSpec(drift=Drift(dim=2, set_map=gmap, selector=UniformVertex()),
                   schedule=StepSchedule.power_law(1.0, 0.5), x0=[0.2, -0.1], n_steps=60)
    seed = 9
    ens = run_ensemble(spec, seed, 3, record_paths=True)
    a = spec.schedule.step_sizes(0, spec.n_steps)
    for rep in range(3):
        gen = _reference_generator(seed, rep, ROLE_SELECTOR)
        x = spec.x0.copy()
        for n in range(spec.n_steps):
            x = x + a[n] * select(gmap, x, UniformVertex(), gen)
            assert np.array_equal(ens.paths[rep, n + 1], x)


@pytest.mark.parametrize("budget", [engine._DRAW_BUDGET, 5])
def test_perturbation_reads_normals_then_uniforms(monkeypatch, budget):
    # the least-norm point of the square is 0, so each step moves by the ball point alone
    monkeypatch.setattr(engine, "_DRAW_BUDGET", budget)
    spec = RunSpec(drift=Drift(dim=2, set_map=_square_map(), m_rule=lambda x, xi: 0.5),
                   schedule=StepSchedule.power_law(1.0, 0.5), x0=[0.2, -0.1], n_steps=40)
    seed = 4
    ens = run_ensemble(spec, seed, 2, record_paths=True)
    a = spec.schedule.step_sizes(0, spec.n_steps)
    for rep in range(2):
        gen = _reference_generator(seed, rep, ROLE_PERTURB)
        g, u = gen.standard_normal((spec.n_steps, 2)), gen.random(spec.n_steps)
        x = spec.x0.copy()
        for n in range(spec.n_steps):
            point = (u[n] ** 0.5) * g[n] / float(np.linalg.norm(g[n]))
            x = x + a[n] * (0.0 + 0.5 * point)
            assert np.array_equal(ens.paths[rep, n + 1], x)
