"""Schedules, noise/bias families, projections, the recursion step, full
runs, the plain-float loop of table-backed drifts, interpolations, and the
determinism guarantees."""

import math
import os
import signal
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sadi.engine as engine
from sadi.engine import (
    BoundedNoise,
    ConstantBias,
    CustomBias,
    Drift,
    GaussianNoise,
    NoNoise,
    RunSpec,
    ShrinkingGaussianBias,
    SimulationBlowup,
    StepSchedule,
    UniformNoise,
    ZeroBias,
    run,
    run_ensemble,
    step_count,
)
from sadi.engine import ROLE_BIAS, ROLE_PERTURB, ROLE_SELECTOR, ROLE_ZETA, _role_generators
from sadi.sets import (Ball, Box, Cell, CellTable, LeastNorm, SetValuedMap, UniformVertex,
                       contains, nearest_point, select)
from sadi.presets import (lasso_preset, nonconvergence_preset, pegasos_preset, RegressionLaw,
                          SignFilterLaw, sign_error_filter_preset)
import engine_reference


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


@pytest.mark.parametrize("region", [Box([-1.0], [1.0]), Box([-1.0] * 3, [1.0] * 3),
                                    Ball([0.0], 1.0)])
def test_run_spec_rejects_a_projection_of_another_dimension(region):
    spec = pegasos_preset(1.0).spec
    with pytest.raises(ValueError, match="projection dimension"):
        replace(spec, projection=region)
    replace(spec, projection=Box([-1.0, -1.0], [1.0, 1.0]))


_DTS = ("0.0001", "0.001", "0.002", "0.0025", "0.005", "0.01", "0.02", "0.025", "0.05",
        "0.1")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(n=st.integers(0, 10**7), dt=st.sampled_from(_DTS))
@example(n=244_276, dt="0.005")  # horizon 1221.38
@example(n=32_005, dt="0.001")
def test_step_count_of_a_horizon_written_as_n_steps(n, dt):
    # the horizon as a decimal would be typed: n*dt rounded once to a float
    horizon = float(Decimal(n) * Decimal(dt))
    assert step_count(horizon, float(dt)) == n
    assert step_count(math.nextafter(horizon, math.inf) + float(dt) / 3, float(dt)) == n + 1


@pytest.mark.parametrize("dt", [1e-3, 5e-3, 1e-2, 5e-2, 0.1])
def test_integer_horizons_keep_their_step_counts(dt):
    # the rule the counts followed before: a fixed slack of 1e-12 steps
    for horizon in range(0, 2001):
        old = int(math.ceil(horizon / dt - 1e-12)) if horizon > 0 else 0
        assert step_count(float(horizon), dt) == old


def test_step_count_edges():
    assert step_count(0.0, 0.1) == 0
    assert step_count(-1.0, 0.1) == 0
    assert step_count(1e-20, 1.0) == 1
    assert step_count(0.35, 0.1) == 4
    # at most 2**53 steps, refused before an infinite ratio is rounded
    assert step_count(2.0**53, 1.0) == 2**53
    for span, dt in ((2.0**53 + 2.0, 1.0), (1e308, 1e-3), (1.0, 1e-300), (math.inf, 1.0)):
        with pytest.raises(ValueError, match=r"more than 2\*\*53 steps"):
            step_count(span, dt)


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
    region = Box([-1, -1], [1, 1])
    assert np.allclose(nearest_point(region, [2.0, 0.5]), [1.0, 0.5])


def test_project_ball_scaling():
    region = Ball([0, 0], 1.0)
    assert np.allclose(nearest_point(region, [3.0, 4.0]), [0.6, 0.8])


def test_project_inside_is_identity():
    region = Ball([0, 0], 2.0)
    x = np.array([0.3, -0.4])
    assert np.array_equal(nearest_point(region, x), x)


def test_projection_idempotent_bitwise(rng):
    regions = [Box([-1, -1], [1, 1]), Ball([0.25, -0.5], 1.3)]
    for _ in range(500):
        region = regions[int(rng.integers(2))]
        x = rng.uniform(-4, 4, size=2)
        p1 = nearest_point(region, x)
        p2 = nearest_point(region, p1)
        assert np.array_equal(p1, p2)


def test_projection_optimality(rng):
    for _ in range(1000):
        if rng.random() < 0.5:
            lo = rng.uniform(-3, 0, size=2)
            hi = lo + rng.uniform(0.5, 3, size=2)
            region = Box(lo, hi)
            samples = lo + rng.random((100, 2)) * (hi - lo)
        else:
            c = rng.uniform(-2, 2, size=2)
            r = rng.uniform(0.5, 2.0)
            region = Ball(c, r)
            g = rng.standard_normal((100, 2))
            g = g / np.linalg.norm(g, axis=1, keepdims=True)
            samples = c + g * (r * rng.random((100, 1)))
        x = rng.uniform(-5, 5, size=2)
        px = nearest_point(region, x)
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
        region = Box(lo, lo + np.array(width))
    else:
        region = Ball(data.draw(_vectors(d, 3.0), label="center"),
                      data.draw(st.floats(1e-3, 4.0, **_finite), label="radius"))
    rows = np.array(data.draw(st.lists(_vectors(d, 20.0), min_size=1, max_size=6), label="x"))
    projected = region.project_rows(rows)
    assert np.array_equal(region.project_rows(projected), projected)
    for x, p in zip(rows, projected):
        assert contains(region, p, 1e-9)
        gap = region.support(x - p) - float((x - p) @ p)
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
    # seed 3 enters all four corridors by step 713; 5,000 steps span twenty
    # of the float loop's 250-step blocks
    spec = replace(p.spec, x0=[2.0, 2.0], n_steps=5_000)
    one = run_ensemble(spec, 3, 1, checkpoints=range(5_001))
    two = run_ensemble(spec, 3, 2, checkpoints=range(5_001))
    traj = run(spec, 3)
    assert len(set(table.region_ids(one.checkpoint_states[0][:-1]).tolist())
               & {2, 3, 4, 5}) >= 3
    _assert_same_bits(one.checkpoint_states[0], two.checkpoint_states[0])
    _assert_same_bits(traj.iterates, two.checkpoint_states[0])
    _assert_same_bits(one.finals[0], two.finals[0])
    # a few indices of the float loop are those rows of the row loop's path
    ck = [0, 4_096, 4_500, 5_000]
    _assert_same_bits(run_ensemble(spec, 3, 1, checkpoints=ck).checkpoint_states[0],
                      two.checkpoint_states[0, ck])
    assert one.fail_steps.tolist() == [-1]
    _assert_same_bits(traj.set_terms, table(traj.iterates[:-1]))


def test_float_loop_matches_row_loop_across_blocks(monkeypatch):
    # x climbs by a_n = 1/(n+1) from -6.2 to 0 near step 276, in the second
    # 250-step block, and then grows by about 1e100*a_n a step until it
    # overflows; the checkpoints are unsorted and repeated at the block edges
    monkeypatch.setattr(engine, "_BLOCK_STEPS", 250)
    table = CellTable(1, [
        Cell(((-math.inf, 0.0, "()"),), (1.0,), (1.0,)),
        Cell(None, (0.0,), (0.0,), slope=1e100),
    ])
    spec = RunSpec(drift=Drift(dim=1, sample_term=table),
                   schedule=StepSchedule.harmonic(1.0), x0=[-6.2], n_steps=1_000)
    checkpoints = [1_000, 251, 249, 250, 0, 249, 600, 1_000]
    one = run_ensemble(spec, 2, 1, checkpoints=checkpoints)
    two = run_ensemble(spec, 2, 2, checkpoints=checkpoints)
    assert 250 < one.fail_steps[0] < 500
    assert one.fail_steps.tolist() == two.fail_steps[:1].tolist()
    _assert_same_bits(one.checkpoint_states[0], two.checkpoint_states[0])
    _assert_same_bits(one.finals[0], two.finals[0])
    assert np.isinf(one.finals[0, 0])


def test_float_loop_memory_does_not_grow_with_the_horizon():
    import tracemalloc

    # one replication with 11 checkpoints holds a block of states, not a path
    spec = nonconvergence_preset().spec
    run_ensemble(replace(spec, n_steps=1_000), 3, 1, checkpoints=range(0, 1_001, 100))
    peaks = []
    for n_steps in (10_000, 100_000):
        tracemalloc.start()
        try:
            run_ensemble(replace(spec, n_steps=n_steps), 3, 1,
                         checkpoints=range(0, n_steps + 1, n_steps // 10))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


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
    one = run_ensemble(spec, 8, 1, checkpoints=range(2_001))
    two = run_ensemble(spec, 8, 2, checkpoints=range(2_001))
    _assert_same_bits(one.checkpoint_states[0], two.checkpoint_states[0])
    traj = run(spec, 8)
    assert np.all(traj.bias_terms == [0.01, -0.02])
    assert np.any(traj.noise_terms != 0.0)


def _diverging_table_spec(n_steps=40):
    # x grows by a factor of about 1 + 1e100*a_n per step until it overflows
    table = CellTable(1, [
        Cell(((-math.inf, -1.0, "()"),), (1.0,), (1.0,)),
        Cell(None, (0.0,), (0.0,), slope=1e100),
    ])
    return RunSpec(drift=Drift(dim=1, sample_term=table),
                   schedule=StepSchedule.harmonic(1.0), x0=[1.0], n_steps=n_steps)


@pytest.mark.parametrize("n_reps", [1, 2])
def test_checkpoints_outside_the_horizon_rejected(n_reps):
    spec = replace(nonconvergence_preset().spec, x0=[1.5, 0.0], n_steps=10)
    with pytest.raises(ValueError):
        run_ensemble(spec, 0, n_reps, checkpoints=[0, 11])


# each form of checkpoints, and the sorted list of its distinct indices
_CHECKPOINT_FORMS = [
    ("tuple", (0, 7, 30), [0, 7, 30]),
    ("range", range(0, 31, 10), [0, 10, 20, 30]),
    ("array", np.array([0, 7, 30]), [0, 7, 30]),
    ("array_int32", np.array([3, 29], dtype=np.int32), [3, 29]),
    ("array_of_zero", np.array([0]), [0]),
    ("array_of_last", np.array([30]), [30]),
    ("unsorted_repeated_list", [30, 7, 0, 7, 30], [0, 7, 30]),
    ("unsorted_repeated_array", np.array([29, 3, 3, 29]), [3, 29]),
    ("empty_array", np.array([], dtype=np.int64), []),
]


@pytest.mark.parametrize("n_reps", [1, 3])
@pytest.mark.parametrize("form, checkpoints, sorted_list", _CHECKPOINT_FORMS,
                         ids=[form for form, _, _ in _CHECKPOINT_FORMS])
def test_checkpoints_are_read_in_any_form(form, checkpoints, sorted_list, n_reps):
    # one replication of the cell table takes the plain-float loop, three the row loop
    spec = replace(nonconvergence_preset().spec, x0=[2.0, 2.0], n_steps=30)
    got = run_ensemble(spec, 4, n_reps, checkpoints=checkpoints)
    want = run_ensemble(spec, 4, n_reps, checkpoints=sorted_list)
    assert got.checkpoint_indices.tolist() == sorted_list
    for field_name in ("checkpoint_indices", "checkpoint_states"):
        a, b = getattr(got, field_name), getattr(want, field_name)
        assert (a is None) == (b is None) == (field_name == "checkpoint_states"
                                              and not sorted_list)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float_loop_records_blowup_and_run_raises():
    spec = _diverging_table_spec()
    with np.errstate(over="ignore", invalid="ignore"):
        one = run_ensemble(spec, 0, 1, checkpoints=range(41))
        two = run_ensemble(spec, 0, 2, checkpoints=range(41))
    fail = int(one.fail_steps[0])
    assert fail >= 0 and fail == int(two.fail_steps[0])
    assert np.all(np.isfinite(one.checkpoint_states[0, :fail + 1]))
    assert not np.isfinite(one.checkpoint_states[0, fail + 1, 0])
    _assert_same_bits(one.checkpoint_states[0], two.checkpoint_states[0])
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
    ens = run_ensemble(spec, 9, 3, checkpoints=range(201))
    assert np.array_equal(ens.checkpoint_states[0], traj.iterates)


def test_ensemble_thread_chunking_identical():
    spec = _ou_spec(n_steps=150)
    a = run_ensemble(spec, 4, 40, threads=1)
    b = run_ensemble(spec, 4, 40, threads=8)
    assert np.array_equal(a.finals, b.finals)
    assert np.array_equal(a.fail_steps, b.fail_steps)


def _forking(monkeypatch, tile=3, cpus=4):
    """Tiles of at most ``tile`` replications, so that a small ensemble
    forks, and ``cpus`` CPUs, so that more workers than the host's cores
    fork; returns the list that each fork appends to."""
    monkeypatch.setattr(engine, "_TILE_REPS", tile)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_ensemble_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    # 23 replications in tiles of at most 3 (8 tiles): 2 workers run 12 and
    # 11 of them (tiles of 3, 3, 3, 3 and 3, 3, 3, 2), 3 workers 8, 8 and 7
    # (3, 3, 2 and 3, 3, 2 and 3, 2, 2), so neither split is even.  Replication
    # 1 blows up in this process's range, 13 and 18 in the workers' (a zeta
    # above 2.7 at steps 27, 29 and 18), and each stays at +inf
    spec = _late_blowup_spec(45)
    ck = [45, 13, 0, 7, 13]
    want = engine_reference.run_ensemble(spec, 11, 23, ck)
    forks = _forking(monkeypatch)
    for workers in (1, 2, 3):
        forks.clear()
        got = run_ensemble(spec, 11, 23, ck, threads=workers)
        assert len(forks) == workers - 1
        assert got.fail_steps.tolist() == [-1, 27] + [-1] * 11 + [29] + [-1] * 4 + [18] + [-1] * 4
        assert got.checkpoint_indices.tolist() == [0, 7, 13, 45]
        _same_result(got, want)


def test_the_worker_count_is_capped_by_the_cpus_and_the_tiles(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # one tile per 4,096 replications: at most 4,096 never fork
    assert [engine._workers(8, r) for r in (1, 4_096, 4_097, 10_000)] == [1, 1, 2, 2]
    assert engine._workers(1, 10_000) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert [engine._workers(8, r) for r in (10_000, 40_000)] == [3, 8]
    monkeypatch.delattr(os, "fork")
    assert engine._workers(8, 40_000) == 1


class _WorkerError(Exception):
    pass


@pytest.mark.parametrize("where", ["worker", "killed_worker", "this_process"])
def test_a_failing_range_fails_the_run_and_leaves_no_child(monkeypatch, where):
    parent = os.getpid()

    def smooth(x, z):
        if (os.getpid() == parent) == (where == "this_process"):
            if where == "killed_worker":
                os.kill(os.getpid(), signal.SIGKILL)
            raise _WorkerError("no step may run here")
        return -x + z

    spec = replace(_ou_spec(n_steps=10), drift=Drift(dim=1, smooth=smooth))
    forks = _forking(monkeypatch)
    want = (RuntimeError, "a worker process exited with code -9") if where == "killed_worker" \
        else (_WorkerError, "no step may run here")
    with pytest.raises(want[0]) as info:
        run_ensemble(spec, 2, 23, threads=3)
    assert len(forks) == 2 and (type(info.value), str(info.value)) == want
    if where == "worker":
        # the first worker's, of replications 8 .. 15, with its traceback
        assert info.value.__notes__[0].startswith("raised in the worker of replications 8 .. 15:")
        assert "Traceback" in info.value.__notes__[0]
    # every worker was waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("reps", [range(5, 12), [2**32 - 1]])
def test_one_call_seeds_its_generators_through_one_emptied_seed_object(reps):
    seed = 2**40 + 3
    gens = _role_generators(seed, reps, ROLE_BIAS)
    seed_seqs = {id(gen.bit_generator.seed_seq) for gen in gens}
    assert len(seed_seqs) == 1 and gens[0].bit_generator.seed_seq.words is None
    for rep, gen in zip(reps, gens):
        want = _reference_generator(seed, rep, ROLE_BIAS)
        assert np.array_equal(gen.standard_normal(50), want.standard_normal(50))
        assert np.array_equal(gen.random(7), want.random(7))
    with pytest.raises(TypeError):
        gens[0].spawn(1)


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
    ens = run_ensemble(spec, 13, 4, checkpoints=range(251))
    assert np.array_equal(ens.checkpoint_states[0], traj.iterates)
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
    spec.projection = Box([-1.0], [1.0])
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
    # a root with zero entries, and a zero row under a mean of -0.0: the
    # sum of signed zeros decides that column's sign
    "gaussian_3_negative_zero": lambda: GaussianNoise(
        [0.4, -0.0, -0.0], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]]),
    "gaussian_3_zero_row": lambda: GaussianNoise(
        [0.0, 1.5, 0.0], [[0.0, 0.0, 0.0], [0.0, 2.0, 0.7], [0.0, 0.7, 1.0]]),
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


def _gaussian_reference(model, gen, n):
    """``mean + z @ root.T`` with every root entry, zeros included, summed
    column by column and then offset by the mean: the map's original order."""
    z = gen.standard_normal((n, model.dim))
    root = model._root
    out = np.empty_like(z)
    for k in range(model.dim):
        np.multiply(z[:, 0], root[k, 0], out=out[:, k])
        for j in range(1, model.dim):
            out[:, k] += z[:, j] * root[k, j]
    out += model.mean
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_MODELS)), n_reps=st.integers(1, 7),
       start=st.integers(0, 10_000),
       cuts=st.lists(st.integers(1, 39), max_size=6, unique=True),
       per_chunk=st.sampled_from([1, 2, 3, 10**6]))
@example(name="gaussian_3_negative_zero", n_reps=5, start=0, cuts=[7, 20], per_chunk=2)
@example(name="gaussian_3_negative_zero", n_reps=7, start=3, cuts=[], per_chunk=3)
@example(name="gaussian_3_zero_row", n_reps=5, start=0, cuts=[13], per_chunk=1)
@example(name="gaussian_3_zero_row", n_reps=4, start=9, cuts=[1], per_chunk=10**6)
@example(name="shrinking_bias", n_reps=5, start=2, cuts=[5], per_chunk=3)
def test_block_draws_equal_one_whole_horizon_draw(name, n_reps, start, cuts, per_chunk):
    n = 40
    model = _MODELS[name]()
    whole = np.stack([model.sample_block(gen, n, start) for gen in _streams(n_reps)], axis=1)
    if isinstance(model, GaussianNoise):
        reference = np.stack([_gaussian_reference(model, gen, n) for gen in _streams(n_reps)],
                             axis=1)
        assert whole.tobytes() == reference.tobytes()
    bounds = [0] + sorted(cuts) + [n]
    filled, single = np.empty((n, n_reps, model.dim)), np.empty((n, n_reps, model.dim))
    gens, gen_rows = _streams(n_reps), _streams(n_reps)
    saved = engine._NORMALS_CHUNK
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            # the normals of per_chunk replications at a time: 1, a count
            # that need not divide n_reps, or all of them at once
            engine._NORMALS_CHUNK = per_chunk * (hi - lo) * model.dim
            model.fill_block(gens, start + lo, filled[lo:hi])
            for i, gen in enumerate(gen_rows):
                single[lo:hi, i] = model.sample_block(gen, hi - lo, start + lo)
    finally:
        engine._NORMALS_CHUNK = saved
    # bytes, so that the sign of a zero counts
    assert filled.tobytes() == whole.tobytes()
    assert single.tobytes() == whole.tobytes()


def _affine_by_products(model, z):
    """The column map with every kept root entry multiplied, a unit entry
    too, and the mean added last.  An entry is kept when it is not zero, or
    when its column's mean is -0.0."""
    out = np.empty(z.shape)
    for k, m in enumerate(model.mean.tolist()):
        keep_zeros = m == 0.0 and math.copysign(1.0, m) < 0
        terms = [(j, r) for j, r in enumerate(model._root[k].tolist()) if r != 0.0 or keep_zeros]
        col = out[..., k]
        if terms:
            (j, r), *rest = terms
            np.multiply(z[..., j], r, out=col)
            for j, r in rest:
                col += z[..., j] * r
        else:
            col.fill(0.0)
        col += m
    return out


def test_the_gaussian_map_keeps_the_bits_of_its_products(monkeypatch):
    # a unit entry under a -0.0 mean, a zero row under a -0.0 mean, a block
    # with off-diagonal entries, and a unit entry alone in its column; the
    # normals hold signed zeros, infinities and NaNs, which a product by
    # 0.0 or 1.0 would show
    model = GaussianNoise([-0.0, -0.0, 0.25, 0.5, 1.5], np.block([
        [np.diag([1.0, 0.0]), np.zeros((2, 3))],
        [np.zeros((2, 2)), np.array([[3.0, 1.0], [1.0, 3.0]]), np.zeros((2, 1))],
        [np.zeros((1, 4)), np.ones((1, 1))]]))
    root = model._root
    assert root[0, 0] == root[4, 4] == 1.0 and not root[1].any() and root[2, 3] != 0.0
    assert not root[4, :4].any()
    z = np.random.default_rng(9).standard_normal((6, 9, 5))
    z.flat[::7], z.flat[3::11], z.flat[5::13] = 0.0, -0.0, np.inf
    z.flat[6::17], z.flat[2::19] = -np.inf, np.nan
    got = np.empty(z.shape)
    with np.errstate(all="ignore"):
        model._affine(model._columns(z, got))
        want = _affine_by_products(model, z)
    assert got.tobytes() == want.tobytes()
    # the step-major fill, 3 replications a chunk and a last chunk of 1
    monkeypatch.setattr(engine, "_NORMALS_CHUNK", 3 * 9 * 5)
    out = np.empty((9, 7, 5))
    model.fill_block(_streams(7), 0, out)
    for i, gen in enumerate(_streams(7)):
        want = _affine_by_products(model, gen.standard_normal((9, 5)))
        assert out[:, i].tobytes() == want.tobytes()


def _square_map():
    square = Box([-1.0, -1.0], [1.0, 1.0])
    return SetValuedMap(2, lambda x: square, common_bound=1.5)


def _uniform_vertex_spec(n_steps):
    # a square's four vertices, picked by the selector draw, and a ball perturbation
    drift = Drift(dim=2, set_map=_square_map(), selector=UniformVertex(),
                  m_rule=lambda x, xi: 0.1 * np.abs(xi[:, 0]))
    return RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5), x0=[0.2, -0.1],
                   n_steps=n_steps, noise_xi=_gaussian(2),
                   noise_zetatilde=_gaussian(2), bias=ShrinkingGaussianBias(2, 1.0, 0.5))


def _late_blowup_spec(n_steps):
    # at seed 11 only replication 1 draws a zeta above 2.7 (2.779, at step 27),
    # and the iterate is infinite from then on
    drift = Drift(dim=1, smooth=lambda x, z: np.where(z > 2.7, np.inf, z))
    return RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5), x0=[0.0],
                   n_steps=n_steps, noise_zeta=GaussianNoise([0.0], [[1.0]]))


_CHUNK_SPECS = {
    "lasso_shrinking_bias": lambda n: _shrinking_bias_spec(n),
    "pegasos": _pegasos_spec,
    "ou": lambda n: _ou_spec(n_steps=n),
    "uniform_vertex_perturbed": _uniform_vertex_spec,
    "custom_bias": lambda n: _shrinking_bias_spec(
        n, CustomBias(lambda g, k: g.standard_normal(1) / (k + 1.0), dim=1)),
    "late_blowup": _late_blowup_spec,
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_CHUNK_SPECS)), n_reps=st.integers(1, 7),
       block=st.integers(1, 50), tile=st.integers(1, 8))
@example(name="uniform_vertex_perturbed", n_reps=3, block=1, tile=1)
@example(name="uniform_vertex_perturbed", n_reps=7, block=4, tile=3)
@example(name="uniform_vertex_perturbed", n_reps=2, block=45, tile=4096)
@example(name="pegasos", n_reps=1, block=1, tile=1)
@example(name="pegasos", n_reps=7, block=13, tile=3)
@example(name="lasso_shrinking_bias", n_reps=2, block=7, tile=2)
@example(name="lasso_shrinking_bias", n_reps=5, block=9, tile=2)
@example(name="ou", n_reps=4, block=6, tile=1)
@example(name="ou", n_reps=7, block=50, tile=4)
@example(name="custom_bias", n_reps=5, block=3, tile=3)
@example(name="custom_bias", n_reps=3, block=45, tile=8)
@example(name="late_blowup", n_reps=3, block=5, tile=1)
@example(name="late_blowup", n_reps=7, block=45, tile=4)
def test_ensemble_bytes_do_not_depend_on_block_length(name, n_reps, block, tile):
    n_steps = 45
    spec = _CHUNK_SPECS[name](n_steps)
    reference = run_ensemble(spec, 11, n_reps, checkpoints=range(n_steps + 1))
    width = engine._Draws(spec, 11, n_reps).width
    saved = engine._DRAW_BUDGET, engine._TILE_REPS
    # tiles of at most `tile` replications, each read `block` steps at a time
    engine._TILE_REPS = tile
    engine._DRAW_BUDGET = block * next(engine._tiles(n_reps))[1] * max(width, 1)
    try:
        blocked = run_ensemble(spec, 11, n_reps, checkpoints=range(n_steps + 1))
    finally:
        engine._DRAW_BUDGET, engine._TILE_REPS = saved
    _same_result(blocked, reference)


def test_a_blowup_in_a_later_tile_is_written_at_its_replication(monkeypatch):
    spec = _late_blowup_spec(45)
    want = engine_reference.run_ensemble(spec, 11, 3, range(46))
    monkeypatch.setattr(engine, "_TILE_REPS", 1)
    got = run_ensemble(spec, 11, 3, range(46))
    assert got.fail_steps.tolist() == [-1, 27, -1]
    _same_result(got, want)


def _peak_bytes(monkeypatch, fn) -> int:
    """The traced peak of ``fn()`` plus the bytes of the draw buffers it
    maps, which tracemalloc does not see; a run keeps each buffer it maps
    to its end."""
    import tracemalloc

    mapped, real = [], engine._mapped
    monkeypatch.setattr(engine, "_mapped", lambda n: mapped.append(8 * n) or real(n))
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(engine, "_mapped", real)
    return peak + sum(mapped)


def test_draw_blocks_hold_at_most_256_steps_and_the_draw_budget(monkeypatch):
    ks, real = [], engine._Draws.block
    monkeypatch.setattr(engine._Draws, "block",
                        lambda self, n0, k: ks.append(k) or real(self, n0, k))
    run_ensemble(_ou_spec(n_steps=1_100), 3, 8)
    # the plain-float loop of one replication
    run(replace(nonconvergence_preset().spec, x0=[1.5, 0.0], n_steps=1_100), 3)
    # the 256-step bound takes 5 blocks, balanced
    assert ks == [220] * 10
    # a step of 10,000 doubles: the budget's 209 steps take 6 blocks, of 184
    assert engine._DRAW_BUDGET // 10_000 == 209
    assert engine.block_steps(1_100, 10_000) == 184


def test_balanced_blocks_keep_the_block_count_of_the_bound():
    per_steps = (1, 2, 3, 7, 4_096, 6_668, 10_000, 2**20, 2**21, 2**21 + 1, 2**40)
    for n in [*range(1_100), 4_095, 4_096, 10**6, 10**6 + 1, 2**53]:
        for per_step in per_steps:
            bound = max(1, min(n, engine._BLOCK_STEPS, engine._DRAW_BUDGET // per_step))
            k = engine.block_steps(n, per_step)
            count = -(-n // k)
            assert 1 <= k <= bound
            assert count == -(-n // bound)
            # the shortest length that covers the run in that many blocks
            assert k * count >= n > (k - 1) * count or n == 0
    assert [engine.block_steps(0, p) for p in per_steps] == [1] * len(per_steps)


def test_a_wide_ensemble_maps_balanced_blocks_and_draws_as_often(monkeypatch):
    # ex1's shape: two one-dimensional drawing roles, R = 10,000 in tiles of
    # 3,334, 3,333 and 3,333, N = 1,000 under the 256-step cap (the budget's
    # 2**21 // 6,668 = 314 steps is looser), so 4 blocks of 250 steps per tile
    spec = _shrinking_bias_spec(1_000)
    models = [entry[0] for entry in engine._Draws(spec, 3, 1)._roles
              if entry is not None and entry[1] is not None]
    assert [m.dim for m in models] == [1, 1]
    shapes, mapped, real = [], [], engine._mapped
    for cls in {type(m) for m in models}:
        fill = cls.fill_block
        monkeypatch.setattr(cls, "fill_block", lambda self, gens, n0, out, fill=fill:
                            shapes.append(out.shape[:2]) or fill(self, gens, n0, out))
    monkeypatch.setattr(engine, "_mapped", lambda n: mapped.append(8 * n) or real(n))
    run_ensemble(replace(spec, n_steps=10), 3, 100)  # first-call caches stay out of the peak
    shapes.clear(), mapped.clear()
    peak = _peak_bytes(monkeypatch, lambda: run_ensemble(spec, 3, 10_000))
    assert mapped == [8 * 250 * 3_334] * 2
    # 3 tiles of 4 blocks for each role: 24 calls, as many as unbalanced blocks take
    assert sorted(set(shapes)) == [(250, 3_333), (250, 3_334)] and len(shapes) == 24
    # the generators of a tile share one seed object; a seed object of
    # their own would add 176 B for each of a tile's 6,668 generators
    assert peak - sum(mapped) < 5_500_000


def test_an_ou_rates_ensemble_maps_draw_blocks_of_250_steps(monkeypatch):
    # ou_rates' shape: one one-dimensional drawing role, R = 2,000 in one
    # tile, N = 2,000; the 256-step cap takes 8 blocks of 250 steps, so the
    # draw buffer holds 250 x 2,000 doubles, where a 512-step cap held 500
    mapped, real = [], engine._mapped
    monkeypatch.setattr(engine, "_mapped", lambda n: mapped.append(8 * n) or real(n))
    run_ensemble(_ou_spec(n_steps=2_000), 11, 2_000)
    assert mapped == [8 * 250 * 2_000]


def test_a_forked_child_never_writes_into_the_parents_draw_block():
    block = engine._mapped(4)
    block[:] = 1.0
    pid = os.fork()
    if pid == 0:  # the child writes, then leaves without running the parent's cleanup
        try:
            block[:] = 2.0
            os._exit(0)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert block.tolist() == [1.0] * 4


def test_a_block_mapped_before_the_workers_fork_keeps_the_parents_bytes(monkeypatch):
    # the workers draw into a block this process mapped before they forked;
    # their writes stay their own, so the block and the outputs do not move
    forks = _forking(monkeypatch)
    spec = _shrinking_bias_spec(45)
    parent, block, mapped = os.getpid(), engine._mapped(1 << 12), engine._mapped
    block[:] = 1.0
    taken = [0]  # a worker's doubles of the block, each buffer the next ones

    def draw_buffer(n):
        if os.getpid() == parent:
            return mapped(n)
        taken[0] += n
        return block[taken[0] - n:taken[0]]

    monkeypatch.setattr(engine, "_mapped", draw_buffer)
    results = [run_ensemble(spec, 11, 23, [0, 13, 45], threads=w) for w in (1, 2, 3)]
    assert len(forks) == 3
    assert block.tolist() == [1.0] * (1 << 12)
    for result in results[1:]:
        _same_result(result, results[0])


def test_draw_memory_does_not_grow_with_the_horizon(monkeypatch):
    # a budget below R*N*width for both horizons, so both run in blocks
    monkeypatch.setattr(engine, "_DRAW_BUDGET", 1 << 14)
    peaks = []
    for n_steps in (2_000, 20_000):
        spec = _shrinking_bias_spec(n_steps)
        run_ensemble(spec, 3, 20)  # first-call caches stay out of the peak
        peaks.append(_peak_bytes(monkeypatch, lambda: run_ensemble(spec, 3, 20)))
    # one step-size block of the longer run is the only allowed difference
    assert peaks[1] <= peaks[0] + 8 * (1 << 14)


def test_replications_and_checkpoints_are_checked_before_any_tile(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a tile started")

    # a missing check reaches the stub instead of allocating for 2**32 replications
    monkeypatch.setattr(engine, "_Draws", no_draws)
    spec = _ou_spec(n_steps=10)
    with pytest.raises(ValueError, match=r"replication indices must lie in \[0, 2\*\*32\)"):
        run_ensemble(spec, 1, 2**32 + 1)
    for ck in ([-1], [11], [0, 5, 11]):
        with pytest.raises(ValueError, match="checkpoints"):
            run_ensemble(spec, 1, 4, ck)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_ensemble(spec, 1, 4, threads=0)


@pytest.mark.parametrize("make_spec", [_shrinking_bias_spec, _uniform_vertex_spec])
def test_draw_memory_does_not_grow_with_the_replications(monkeypatch, make_spec):
    tile, ck = 32, [0, 5, 10]
    monkeypatch.setattr(engine, "_TILE_REPS", tile)
    spec = make_spec(10)
    d = spec.drift.dim
    peaks = []
    for n_reps in (4 * tile, 16 * tile):
        run_ensemble(spec, 3, n_reps, ck)  # first-call caches stay out of the peak
        peaks.append(_peak_bytes(monkeypatch, lambda: run_ensemble(spec, 3, n_reps, ck)))
    # the (R, d) finals, the (R,) fail steps and the (R, k, d) checkpoint
    # states, and 8 KiB for the small view headers numpy's allocator holds
    # on to while a run goes on (a few dozen bytes per tile); one tile's
    # generators alone take over 26 KiB
    more = 12 * tile
    assert peaks[1] <= peaks[0] + 8 * more * (d + 1 + len(ck) * d) + 8192


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
    ens = run_ensemble(spec, seed, 3, checkpoints=range(spec.n_steps + 1))
    a = spec.schedule.step_sizes(0, spec.n_steps)
    for rep in range(3):
        gen = _reference_generator(seed, rep, ROLE_SELECTOR)
        x = spec.x0.copy()
        for n in range(spec.n_steps):
            x = x + a[n] * select(gmap, x, UniformVertex(), gen)
            assert np.array_equal(ens.checkpoint_states[rep, n + 1], x)


@pytest.mark.parametrize("budget", [1 << 22, 5])
def test_perturbation_reads_d_plus_2_normals(monkeypatch, budget):
    # the least-norm point of the square is 0, so each step moves by the ball
    # point alone: the first d of the step's d + 2 normals over the norm of
    # all d + 2; a budget that holds the whole run and one of 5 doubles, and
    # chunks of 7 doubles, which split a step's 4 normals
    monkeypatch.setattr(engine, "_DRAW_BUDGET", budget)
    spec = RunSpec(drift=Drift(dim=2, set_map=_square_map(), m_rule=lambda x, xi: 0.5),
                   schedule=StepSchedule.power_law(1.0, 0.5), x0=[0.2, -0.1], n_steps=40)
    seed = 4
    a = spec.schedule.step_sizes(0, spec.n_steps)
    for chunk in (engine._NORMALS_CHUNK, 7):
        monkeypatch.setattr(engine, "_NORMALS_CHUNK", chunk)
        ens = run_ensemble(spec, seed, 2, checkpoints=range(spec.n_steps + 1))
        for rep in range(2):
            g = _reference_generator(seed, rep, ROLE_PERTURB).standard_normal((spec.n_steps, 4))
            points = 0.5 * g[:, :2] / np.linalg.norm(g, axis=1)[:, None]
            x = spec.x0.copy()
            for n in range(spec.n_steps):
                x = x + a[n] * (0.0 + points[n])
                assert np.array_equal(ens.checkpoint_states[rep, n + 1], x)


def test_perturbation_radii_are_read_per_row():
    # the radius grows with the first coordinate, so rows of one step differ
    value = Box([-1.0, -1.0], [1.0, 1.0])
    gmap = SetValuedMap(2, lambda x: value, common_bound=1.5)

    def radii(x_rows, xi_rows):
        assert x_rows.ndim == 2 and xi_rows.shape[0] == x_rows.shape[0]
        return 0.1 + np.abs(x_rows[:, 0])

    drift = Drift(dim=2, set_map=gmap, m_rule=radii)
    spec = RunSpec(drift=drift, schedule=StepSchedule.custom(lambda n: 0.05),
                   x0=[0.5, -0.2], n_steps=60, noise_zetatilde=_gaussian(2))
    traj = run(spec, 5)
    # the least-norm selection of the square is 0, so each set term lies
    # within its row's radius of the origin
    r = 0.1 + np.abs(traj.iterates[:-1, 0])
    dist = np.linalg.norm(traj.set_terms, axis=1)
    assert np.all(dist <= r * (1.0 + 1e-12)) and np.ptp(r) > 0.1
    # rows of one ensemble step get their own radii: each replication's path
    # is the one-replication run of its seed's stream
    ens = run_ensemble(spec, 5, 3, checkpoints=range(61))
    assert np.array_equal(ens.checkpoint_states[0], traj.iterates)
    x_rows = np.array([[0.0, 0.0], [2.0, 0.0]])
    pert = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    b = drift.set_term_rows(x_rows, np.zeros((2, 0)), None, pert)
    assert b.tolist() == [[0.1, 0.0], [0.0, 2.1]]
    wrong = Drift(dim=2, set_map=gmap, m_rule=lambda x, xi: np.full(x.shape[0] + 1, 0.5))
    with pytest.raises(ValueError):
        wrong.set_term_rows(x_rows, np.zeros((2, 0)), None, pert)
    with pytest.raises(ValueError, match="perturbation draws missing"):
        drift.set_term_rows(x_rows, np.zeros((2, 0)), None, None)


# --- the row loop against its allocating reference ---------------------------------


def _same_result(got, want):
    # bytes, so that the sign of a zero and a NaN's bits count
    for field_name in ("finals", "fail_steps", "checkpoint_indices", "checkpoint_states"):
        a, b = getattr(got, field_name), getattr(want, field_name)
        assert (a is None) == (b is None), field_name
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field_name


def _rows_of(value):
    return lambda x, z: np.full_like(x, value)


class _NegativeZeros(BoundedNoise):
    """A drawing role whose every draw is -0.0."""

    def __init__(self, dim):
        super().__init__(lambda gen: np.full(dim, -0.0), bound=1.0, dim=dim)


def _signed_zero_spec(n_steps, smooth, noise_zetatilde, bias):
    # -0.0 set-term rows from an x0 with -0.0 entries: every zero role's add
    # turns a -0.0 sum into +0.0, so each add shows in the iterate's bits
    drift = Drift(dim=3, sample_term=_rows_of(-0.0), smooth=smooth)
    return RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5),
                   x0=[-0.0, 5.0, -0.0], n_steps=n_steps, noise_zetatilde=noise_zetatilde,
                   bias=bias)


def _blowup_spec(n_steps):
    def smooth(x_rows, z_rows):
        return 50.0 * x_rows * x_rows * (1.0 + z_rows * z_rows)

    return RunSpec(drift=Drift(dim=1, smooth=smooth), schedule=StepSchedule.power_law(1.0, 0.5),
                   x0=[1.0], n_steps=n_steps, noise_zeta=GaussianNoise([0.0], [[1.0]]))


def _projected_spec(n_steps, projection):
    spec = _uniform_vertex_spec(n_steps)
    return replace(spec, x0=[0.9, -0.95], projection=projection)


_REFERENCE_SPECS = {
    **{f"chunk_{name}": make for name, make in _CHUNK_SPECS.items()},
    # the smooth term is the only +0.0 role, then the additive term, then the bias
    "signed_zero_smooth": lambda n: _signed_zero_spec(n, None, _NegativeZeros(3),
                                                      ConstantBias([-0.0] * 3)),
    "signed_zero_additive": lambda n: _signed_zero_spec(n, _rows_of(-0.0), NoNoise(),
                                                        ConstantBias([-0.0] * 3)),
    "signed_zero_bias": lambda n: _signed_zero_spec(n, _rows_of(-0.0), _NegativeZeros(3),
                                                    ZeroBias(3)),
    "constant_bias_3d": lambda n: _signed_zero_spec(n, _rows_of(-0.0), _NegativeZeros(3),
                                                    ConstantBias([0.25, -1.0, -0.0])),
    # two or three +0.0 roles: the loop skips every zero role after the first
    "zero_additive_and_bias": lambda n: _signed_zero_spec(n, _rows_of(-0.0), NoNoise(),
                                                          ZeroBias(3)),
    "zero_smooth_additive_and_bias": lambda n: _signed_zero_spec(n, None, NoNoise(),
                                                                 ConstantBias([0.0] * 3)),
    "box": lambda n: _projected_spec(n, Box([-1.0, -1.0], [1.0, 1.0])),
    "ball": lambda n: _projected_spec(n, Ball([0.0, 0.0], 1.0)),
    "lasso_gaussian": lambda n: replace(lasso_preset(0.3, RegressionLaw(
        theta=[1.0, -0.5], features="gaussian", feature_mean=[0.3, -0.2],
        feature_cov=[[1.0, 0.4], [0.4, 2.0]])).spec, x0=[1.0, 1.0], n_steps=n),
    "sign_filter": lambda n: replace(sign_error_filter_preset(
        SignFilterLaw(theta_true=[0.5, -0.25])).spec, x0=[0.0, 0.0], n_steps=n),
}


@pytest.mark.parametrize("n_reps", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(_REFERENCE_SPECS))
def test_row_loop_matches_the_allocating_reference(monkeypatch, name, n_reps):
    spec = _REFERENCE_SPECS[name](45)
    width = max(1, engine._Draws(spec, 11, n_reps).width)
    # the reference runs every replication as one tile
    for tile in (engine._TILE_REPS, 2):
        monkeypatch.setattr(engine, "_TILE_REPS", tile)
        # blocks of 7 steps, so that a block boundary falls inside the run
        monkeypatch.setattr(engine, "_DRAW_BUDGET", 7 * min(tile, n_reps) * width)
        want = engine_reference.run_ensemble(spec, 11, n_reps, range(46))
        _same_result(run_ensemble(spec, 11, n_reps, range(46)), want)
        # sparse checkpoints, out of order and repeated
        want = engine_reference.run_ensemble(spec, 11, n_reps, [45, 13, 0, 13])
        _same_result(run_ensemble(spec, 11, n_reps, [45, 13, 0, 13]), want)


def test_draws_tell_the_draw_free_roles_of_positive_zeros():
    def zeros(name, role):
        return engine._Draws(_REFERENCE_SPECS[name](5), 3, 2).zeros(role)

    assert zeros("zero_additive_and_bias", engine.ROLE_ZETATILDE)
    assert zeros("zero_additive_and_bias", engine.ROLE_BIAS)
    assert zeros("zero_smooth_additive_and_bias", engine.ROLE_BIAS)  # ConstantBias of +0.0
    # a -0.0 entry, a nonzero entry, and a role that draws are not zeros
    assert not zeros("signed_zero_smooth", engine.ROLE_BIAS)
    assert not zeros("constant_bias_3d", engine.ROLE_BIAS)
    assert not zeros("signed_zero_smooth", engine.ROLE_ZETATILDE)


def test_signed_zeros_survive_only_where_every_role_is_negative_zero():
    # a -0.0 sum leaves a -0.0 coordinate alone; one +0.0 role makes it +0.0
    got = run_ensemble(_REFERENCE_SPECS["constant_bias_3d"](5), 3, 2).finals
    assert got[0, 2] == 0.0 and [math.copysign(1.0, v) for v in got[0]] == [1.0, 1.0, -1.0]
    for name in ("signed_zero_smooth", "signed_zero_additive", "signed_zero_bias",
                 "zero_additive_and_bias", "zero_smooth_additive_and_bias"):
        got = run_ensemble(_REFERENCE_SPECS[name](5), 3, 2).finals
        assert math.copysign(1.0, got[0, 0]) == 1.0 and math.copysign(1.0, got[0, 2]) == 1.0


@pytest.mark.parametrize("block", [5, 10**6])
def test_blowup_inside_a_block_matches_the_reference(monkeypatch, block):
    spec = _blowup_spec(20)
    monkeypatch.setattr(engine, "_DRAW_BUDGET", block * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        want = engine_reference.run_ensemble(spec, 2, 4, range(21))
        got = run_ensemble(spec, 2, 4, range(21))
    assert (want.fail_steps >= 0).all() and (want.fail_steps % 5 != 0).any()
    _same_result(got, want)


def test_huge_finite_rows_are_not_blowups_and_infinite_ones_are(monkeypatch):
    # every row starts at 1e308 in both coordinates, so the sum over the
    # tile is inf at every step; the noise pushes some rows past the float
    # range and leaves others finite.  One tile of 6 and tiles of 1 agree
    # with the reference's exact test at every step
    drift = Drift(dim=2, smooth=lambda x, z: 4e307 * z)
    spec = RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5), x0=[1e308, 1e308],
                   n_steps=30, noise_zeta=GaussianNoise([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        want = engine_reference.run_ensemble(spec, 4, 6, range(31))
        got = [run_ensemble(spec, 4, 6, range(31))]
        monkeypatch.setattr(engine, "_TILE_REPS", 1)
        got.append(run_ensemble(spec, 4, 6, range(31)))
    clean = want.finals[want.fail_steps < 0]
    assert 0 < clean.shape[0] < 6 and (np.abs(clean) > 1e307).all()
    for result in got:
        _same_result(result, want)


def test_the_step_writes_into_no_term_output_and_no_input():
    shared = np.full((4, 2), 0.25)
    drift = Drift(dim=2, sample_term=lambda x, xi: shared, smooth=lambda x, z: x)
    spec = RunSpec(drift=drift, schedule=StepSchedule.power_law(0.5, 0.5), x0=[0.3, -0.2],
                   n_steps=30, projection=Box([-1.0, -1.0], [1.0, 1.0]))
    first = run_ensemble(spec, 1, 4, checkpoints=range(31))
    kept = first.finals.copy()
    second = run_ensemble(spec, 1, 4, checkpoints=range(31))
    assert np.array_equal(shared, np.full((4, 2), 0.25))
    assert np.array_equal(spec.x0, [0.3, -0.2])
    assert np.array_equal(first.finals, kept)
    _same_result(second, engine_reference.run_ensemble(spec, 1, 4, range(31)))
    # with no projection the iterate alternates between the loop's own buffers
    free = replace(spec, projection=None)
    first = run_ensemble(free, 1, 4)
    kept = first.finals.copy()
    run_ensemble(free, 1, 4)
    assert np.array_equal(shared, np.full((4, 2), 0.25))
    assert np.array_equal(first.finals, kept)
    _same_result(first, engine_reference.run_ensemble(free, 1, 4))
    # a term that returns its own input is logged as the state it was given
    echo = replace(free, drift=Drift(dim=2, sample_term=lambda x, xi: x, smooth=lambda x, z: x))
    traj = run(echo, 1)
    assert np.array_equal(traj.set_terms, traj.iterates[:-1])
    assert np.array_equal(traj.smooth_terms, traj.iterates[:-1])


@pytest.mark.parametrize("bias", [ShrinkingGaussianBias(2, 1.0, 0.5), ZeroBias(2),
                                  ConstantBias([0.5, -0.0])])
@pytest.mark.parametrize("zetatilde", [_gaussian(2), NoNoise()])
def test_every_step_of_a_draw_block_is_a_dense_row_array(bias, zetatilde):
    spec = replace(_pegasos_spec(30), noise_zetatilde=zetatilde, bias=bias)
    n_reps, k = 5, 9
    draws = engine._Draws(spec, 3, n_reps)
    draws.tile(0, n_reps)
    blocks = draws.block(0, k)
    for (model, gens), blk in zip((e for e in draws._roles if e is not None),
                                  (b for b in blocks if b is not None)):
        assert blk.shape == (k, n_reps, model.dim)
        for j in range(k):
            assert blk[j].flags.c_contiguous
        if gens is None:
            # one step's rows, read at every step
            owner = blk
            while owner.base is not None:
                owner = owner.base
            assert blk.strides[0] == 0 and owner.nbytes == n_reps * model.dim * blk.itemsize
            assert blk[k - 1].tobytes() == np.repeat(model.sample_block(None, 1), n_reps,
                                                     axis=0).tobytes()
