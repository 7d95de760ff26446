"""Normalized series, the limit-inclusion simulator, tightness and outer
set-derivative diagnostics, and the marginal distribution comparison."""

import math

import numpy as np
import pytest

import sadi.engine as engine
from sadi.engine import (Drift, GaussianNoise, RunSpec, SimulationBlowup, StepSchedule, run,
                         run_ensemble)
from sadi.rates import (
    NormalizedSeries,
    SDIModel,
    compare_to_sdi,
    ks_distance,
    outer_t_check,
    simulate_sdi,
    tightness_diagnostic,
)
from sadi.sets import (Ball, Box, ExtremeVertex, Polytope, SetValuedMap, Singleton,
                       UniformVertex)
from sadi.presets import sign_interval_map
from conftest import sdi_arrays, tightness_arrays
import sdi_reference


def _ou_spec(n_steps=800, x0=1.3):
    def smooth(x_rows, z_rows):
        return -(x_rows - 0.3) + z_rows

    drift = Drift(dim=1, smooth=smooth, smooth_mean=lambda x: -(x - 0.3))
    return RunSpec(drift=drift, schedule=StepSchedule.power_law(1.0, 0.5),
                   x0=[x0], n_steps=n_steps, noise_zeta=GaussianNoise([0.0], [[1.0]]))


def _zero_map(dim):
    return SetValuedMap(dim, lambda x: Singleton(np.zeros(dim)),
                        common_bound=1e-9, name="zero")


# --- normalization -----------------------------------------------------------


def test_normalize_constant_at_limit():
    sched = StepSchedule.power_law(1.0, 0.5)
    its = np.full((101, 1), 0.3)
    series = NormalizedSeries.from_iterates(its, sched, [0.3])
    assert np.all(series.values == 0.0)


def test_normalize_hand_value():
    sched = StepSchedule.harmonic(1.0)
    its = np.zeros((7, 1))
    its[5, 0] = 0.4  # deviation 0.1 at index 5 with a_5 = 1/6
    series = NormalizedSeries.from_iterates(its, sched, [0.3], start=5)
    assert series.value(5)[0] == pytest.approx(0.1 * math.sqrt(6.0), rel=1e-12)


def test_normalize_reconstruction_exact(rng):
    traj = run(_ou_spec(200), 3)
    series = NormalizedSeries.from_iterates(traj.iterates, traj.schedule, [0.3], start=0)
    a = traj.schedule.step_sizes(0, traj.n_steps + 1)
    for n in (0, 17, 100, 200):
        recon = 0.3 + math.sqrt(a[n]) * series.value(n)[0]
        assert recon == pytest.approx(traj.iterates[n][0], abs=1e-12)


def test_normalize_constant_offset_diverges():
    sched = StepSchedule.power_law(1.0, 0.5)
    its = np.full((301, 1), 0.8)
    series = NormalizedSeries.from_iterates(its, sched, [0.3])
    mags = np.abs(series.values[:, 0])
    assert np.all(np.diff(mags) > 0)


# --- the limit-inclusion simulator ---------------------------------------------


def test_sdi_deterministic_linear_decay():
    model = SDIModel(A=[[-1.0]], sigma=[[0.0]])
    finals = simulate_sdi(model, [1.0], dt=1e-3, horizon=4.0, seed=0)
    assert finals.shape == (1, 1)
    assert finals[0, 0] == pytest.approx(math.exp(-4.0), abs=5e-3)


def test_sdi_constant_when_everything_vanishes():
    model = SDIModel(A=[[0.0]], sigma=[[0.0]])
    for horizon in (0.0, 0.01, 0.5, 2.0):
        finals = simulate_sdi(model, [0.7], dt=1e-2, horizon=horizon, seed=0, n_reps=3)
        assert np.all(finals == 0.7)


def test_sdi_long_run_variance_matches_stationary_law():
    # many paths at one late time: Var u(t) = (1 - exp(-2t))/2 from the origin,
    # within 1e-9 of the stationary 0.5 at t = 10
    model = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    finals = simulate_sdi(model, [0.0], dt=1e-2, horizon=10.0, seed=3, n_reps=4_000)
    assert finals[:, 0].var() == pytest.approx(0.5, rel=0.1)


def test_sdi_half_identity_changes_decay():
    model = SDIModel(A=[[-1.0]], sigma=[[0.0]], half_identity=True)
    finals = simulate_sdi(model, [1.0], dt=1e-3, horizon=4.0, seed=0)
    assert finals[0, 0] == pytest.approx(math.exp(-2.0), abs=5e-3)


def test_sdi_brownian_increment_variance():
    # one step of length dt from many starts: without drift, the final minus
    # the start is the Brownian increment
    sigma = np.array([[2.0, 0.0], [0.0, 0.5]])
    model = SDIModel(A=np.zeros((2, 2)), sigma=sigma)
    dt, n_reps = 1e-3, 40_000
    u0 = np.linspace(-1.0, 1.0, 2 * n_reps).reshape(n_reps, 2)
    finals = simulate_sdi(model, u0, dt=dt, horizon=dt, seed=8, n_reps=n_reps)
    incs = (finals - u0) / math.sqrt(dt)
    for j, target in enumerate([2.0, 0.5]):
        var = incs[:, j].var()
        se = target * math.sqrt(2.0 / n_reps)
        assert abs(var - target) < 3 * se


def test_sdi_positive_homogeneity_of_paths():
    # homogeneous selection without noise scales the whole path, its final too
    def rule(u):
        r = float(np.linalg.norm(u))
        return Box([-0.5 * r], [0.5 * r])

    t_map = SetValuedMap(1, rule, common_bound=10.0)
    model = SDIModel(A=[[-1.0]], sigma=[[0.0]], t_map=t_map)
    strategy = ExtremeVertex([1.0])
    base = simulate_sdi(model, [1.0], dt=1e-3, horizon=2.0, seed=0, strategy=strategy)
    scaled = simulate_sdi(model, [3.0], dt=1e-3, horizon=2.0, seed=0, strategy=strategy)
    assert np.allclose(scaled, 3.0 * base, atol=1e-9)


def test_sdi_model_homogeneity_spot_check(rng):
    def rule(u):
        r = float(np.linalg.norm(u))
        return Box([-r, -r], [r, r])

    t_map = SetValuedMap(2, rule, common_bound=10.0)
    model = SDIModel(A=-np.eye(2), sigma=np.zeros((2, 2)), t_map=t_map)
    probes = rng.uniform(-2, 2, size=(5, 2))
    assert model.check_homogeneity(probes)
    # a shifted map is not positively homogeneous
    bad = SetValuedMap(2, lambda u: Box(u - 1.0, u + 1.0),
                       common_bound=10.0)
    model_bad = SDIModel(A=-np.eye(2), sigma=np.zeros((2, 2)), t_map=bad)
    assert not model_bad.check_homogeneity([np.array([0.5, 0.5])])


@pytest.mark.parametrize("n_reps", [0, -1])
def test_sdi_rejects_fewer_than_one_replication(n_reps):
    model = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    for u0 in ([1.0], np.ones((max(n_reps, 0), 1))):
        with pytest.raises(ValueError, match="n_reps must be at least 1"):
            simulate_sdi(model, u0, 0.1, 1.0, n_reps=n_reps)


def test_sdi_rejects_paths_past_the_draw_budget_before_allocating():
    import tracemalloc

    model = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    # one step of 2**40 paths would draw 16 TiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_reps \\* dim must be at most 1048576"):
            simulate_sdi(model, [1.0], 0.1, 1.0, n_reps=2**40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert simulate_sdi(model, [1.0], 0.1, 0.1, n_reps=2**20).shape == (2**20, 1)


def test_sdi_rejects_indefinite_sigma():
    with pytest.raises(ValueError):
        SDIModel(A=[[-1.0]], sigma=[[-1.0]])


def test_sdi_selector_membership(rng):
    def rule(u):
        r = float(np.linalg.norm(u))
        return Box([-0.5 * r], [0.5 * r])

    from sadi.sets import contains

    # one step of length dt from many starts: the drift is the step over dt
    t_map = SetValuedMap(1, rule, common_bound=10.0)
    model = SDIModel(A=[[-1.0]], sigma=[[0.0]], t_map=t_map)
    u0 = np.linspace(-2.0, 2.0, 41)[:, None]
    finals = simulate_sdi(model, u0, dt=1e-2, horizon=1e-2, seed=0, n_reps=41)
    for u, u1 in zip(u0, finals):
        sel = (u1 - u) / 1e-2 - model.A @ u
        assert contains(t_map.value(u), sel, 1e-9)


_BLOCK_MODELS = {
    1: SDIModel(A=[[-0.7]], sigma=[[1.3]]),
    # a non-diagonal sigma: its root mixes the coordinates of each draw
    2: SDIModel(A=[[-1.0, 0.4], [0.2, -0.8]], sigma=[[1.0, 0.6], [0.6, 2.0]],
                half_identity=True),
}


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _force_sdi_block(monkeypatch, steps, n_reps, dim):
    """Blocks of ``steps`` steps through the draw budget, which counts the
    normals and their product, two doubles per replication, coordinate and
    step; a block above the step cap raises the cap as well."""
    monkeypatch.setattr(engine, "_DRAW_BUDGET", steps * 2 * n_reps * dim)
    monkeypatch.setattr(engine, "_BLOCK_STEPS", max(steps, engine._BLOCK_STEPS))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_reps", [1, 20])
@pytest.mark.parametrize("block", [1, 3, 7, 50, 512, 10**6])  # steps per draw; 600 at most
def test_sdi_block_draws_equal_the_per_step_loop(monkeypatch, dim, n_reps, block):
    # the normals are one sequential stream, so a shorter horizon takes a
    # prefix of the same steps: the finals at several horizons cover the path
    model = _BLOCK_MODELS[dim]
    _force_sdi_block(monkeypatch, block, n_reps, dim)
    u0 = np.linspace(-1.0, 1.0, n_reps * dim).reshape(n_reps, dim)
    for horizon in (0.0, 0.07, 2.5, 6.0):  # 0, 7, 250 and 600 steps
        got = simulate_sdi(model, u0, dt=0.01, horizon=horizon, seed=11, n_reps=n_reps)
        want = sdi_reference.simulate_sdi(model, u0, dt=0.01, horizon=horizon, seed=11,
                                          n_reps=n_reps)
        assert _same_bits(got, want)


def test_sdi_memory_does_not_grow_with_the_horizon():
    import tracemalloc

    model = _BLOCK_MODELS[1]
    peaks = []
    for horizon in (2.0, 8.0):  # 2,000 and 8,000 steps
        # first-call caches stay out of the peak
        simulate_sdi(model, [0.5], dt=1e-3, horizon=horizon, n_reps=200)
        tracemalloc.start()
        try:
            simulate_sdi(model, [0.5], dt=1e-3, horizon=horizon, n_reps=200)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # both horizons fill the same two (250, 200, 1) buffers, 400 KB each
    assert peaks[1] <= peaks[0] + 8192


def test_an_sdi_of_ou_rates_shape_draws_blocks_of_250_steps():
    import tracemalloc

    # 2,000 one-dimensional paths over the 5,000 steps of ou_rates' SDI: the
    # 256-step cap takes 20 blocks of 250, so the normals and their product
    # fill two (250, 2,000, 1) buffers of 4 MB, and a step adds only a few
    # (2,000, 1) arrays
    model = _BLOCK_MODELS[1]
    # first-call caches stay out of the peak
    simulate_sdi(model, [0.5], dt=1e-3, horizon=0.01, n_reps=2_000)
    tracemalloc.start()
    try:
        simulate_sdi(model, [0.5], dt=1e-3, horizon=5.0, n_reps=2_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = 2 * 8 * 250 * 2_000
    assert buffers <= peak < buffers + 100_000


@pytest.mark.parametrize("strategy", [None, UniformVertex()])
def test_sdi_selections_read_their_own_generator(monkeypatch, strategy):
    # a least-norm selection draws nothing; a random vertex draws from the
    # generator spawned for selections, never from the normals' one
    model = SDIModel(A=[[-1.0]], sigma=[[0.5]], t_map=sign_interval_map(1, 0.3))
    _force_sdi_block(monkeypatch, 7, 3, 1)
    picks = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(8,)))
    got = simulate_sdi(model, [0.2], dt=0.01, horizon=0.5, strategy=strategy, seed=4,
                       n_reps=3)
    want = sdi_reference.simulate_sdi(model, [0.2], dt=0.01, horizon=0.5, strategy=strategy,
                                      seed=4, n_reps=3, picks=picks)
    assert _same_bits(got, want)


@pytest.mark.parametrize("block", [1, 7, 10**6])
def test_sdi_blowup_step_matches_the_per_step_loop(monkeypatch, block):
    model = SDIModel(A=[[900.0, 0.0], [0.0, 2.0]], sigma=[[1.0, 0.3], [0.3, 1.0]])
    _force_sdi_block(monkeypatch, block, 4, 2)
    steps = []
    for simulate in (simulate_sdi, sdi_reference.simulate_sdi):
        with pytest.raises(SimulationBlowup) as err, np.errstate(over="ignore",
                                                                 invalid="ignore"):
            simulate(model, [1.0, 1.0], dt=0.1, horizon=100.0, seed=2, n_reps=4)
        steps.append(err.value.step_index)
    assert steps[0] == steps[1]
    assert steps[0] % 7  # inside a block of 7 steps


def test_huge_finite_sdi_paths_are_not_blowups_and_infinite_ones_are():
    # the sum over the paths is inf from the first step while every entry
    # is finite; the fastest path grows past the float range at a later step
    model = SDIModel(A=[[0.1, 0.0], [0.0, 0.1]], sigma=[[1.0, 0.0], [0.0, 1.0]])
    u0 = [[1e308, 1e308], [1.5e308, 1e308], [1e308, -1e308], [1.2e308, 1.3e308]]
    with np.errstate(over="ignore", invalid="ignore"):
        got = simulate_sdi(model, u0, dt=0.1, horizon=1.0, seed=3, n_reps=4)
        want = sdi_reference.simulate_sdi(model, u0, dt=0.1, horizon=1.0, seed=3, n_reps=4)
    assert np.isfinite(got).all() and _same_bits(got, want)
    blowups = []
    for simulate in (simulate_sdi, sdi_reference.simulate_sdi):
        with pytest.raises(SimulationBlowup) as err, np.errstate(over="ignore",
                                                                 invalid="ignore"):
            simulate(model, u0, dt=0.1, horizon=10.0, seed=3, n_reps=4)
        blowups.append(err.value)
    assert blowups[0].step_index == blowups[1].step_index > 10
    assert math.isinf(blowups[0].state[0]) and math.isfinite(blowups[0].state[1])


def test_an_overflowing_sdi_raises_its_blowup_under_warnings_as_errors():
    import warnings

    # the drift overflows to inf on the way to the blow-up
    model = SDIModel(A=[[1e308]], sigma=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SimulationBlowup) as err:
            simulate_sdi(model, [1.0], dt=0.5, horizon=10.0, seed=2, n_reps=3)
    assert err.value.step_index == 1 and math.isinf(err.value.state[0])


def test_sdi_step_count_of_a_decimal_horizon():
    # 128.08 / 0.005 is 25616.000000000004 in floats: 25,616 steps, not one
    # more.  Without noise a step is u += dt*(-u) bit for bit: the drift is
    # -u exactly, and the increment adds a zero
    model = SDIModel(A=[[-1.0]], sigma=[[0.0]])
    finals = simulate_sdi(model, [1.0], dt=0.005, horizon=128.08)
    u = 1.0
    for _ in range(25_616):
        u += 0.005 * (-u)
    assert finals.tolist() == [[u]]
    assert u + 0.005 * (-u) != u


# --- tightness ----------------------------------------------------------------


def _series_from_paths(paths, sched, x_star, start=0):
    return [NormalizedSeries.from_iterates(paths[r], sched, x_star, start=start)
            for r in range(paths.shape[0])]


def test_tightness_zero_series():
    sched = StepSchedule.power_law(1.0, 0.5)
    its = np.full((101, 1), 0.3)
    series = [NormalizedSeries.from_iterates(its, sched, [0.3]) for _ in range(120)]
    rep = tightness_diagnostic(*tightness_arrays(series, 8), kappa=0.1)
    assert rep.flag == "tight-consistent"
    assert np.all(rep.quantiles == 0.0)


def test_tightness_requires_ensemble():
    sched = StepSchedule.power_law(1.0, 0.5)
    its = np.full((11, 1), 0.3)
    series = [NormalizedSeries.from_iterates(its, sched, [0.3]) for _ in range(5)]
    with pytest.raises(ValueError):
        tightness_diagnostic(*tightness_arrays(series, 10), kappa=0.1)


def test_tightness_stationary_ensemble():
    spec = _ou_spec(n_steps=600)
    res = run_ensemble(spec, 5, 200, checkpoints=range(spec.n_steps + 1))
    series = _series_from_paths(res.checkpoint_states, spec.schedule, [0.3])
    rep = tightness_diagnostic(*tightness_arrays(series, 15), kappa=0.05)
    assert rep.flag == "tight-consistent"


def test_tightness_constant_offset_flags_divergence():
    sched = StepSchedule.power_law(1.0, 0.5)
    its = np.full((1001, 1), 0.8)
    series = [NormalizedSeries.from_iterates(its, sched, [0.3]) for _ in range(150)]
    rep = tightness_diagnostic(*tightness_arrays(series, 15), kappa=0.05)
    assert rep.flag == "diverging"


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_tightness_norms_round_as_the_per_vector_norm(d):
    rng = np.random.default_rng(d)
    values = rng.standard_normal((300, 6, d)) * 10.0 ** rng.uniform(-100, 100, (300, 6, 1))
    rep = tightness_diagnostic(np.arange(6), values, kappa=0.1)
    mags = np.array([[np.linalg.norm(v) for v in row] for row in values])
    assert rep.quantiles.tobytes() == np.quantile(mags, 0.9, axis=0).tobytes()


# --- outer set-derivative check -------------------------------------------------


def test_outer_check_constant_map_passes(rng):
    m = _zero_map(1)
    probes = rng.uniform(-0.5, 0.5, size=(10, 1))
    rep = outer_t_check(m, [0.0], _zero_map(1), delta=0.5, probes=probes)
    assert rep.passed


def test_outer_check_locally_constant_branch():
    m = sign_interval_map(1, 0.7)
    probes = [[x] for x in np.linspace(0.35, 0.55, 9)]
    rep = outer_t_check(m, [0.3], _zero_map(1), delta=0.5, probes=probes)
    assert rep.passed


def test_outer_check_one_sidedness_at_kink():
    m = sign_interval_map(1, 0.7)
    probes = [[x] for x in np.linspace(0.05, 0.3, 6)]
    # forward containment holds: {-lam} sits inside [-lam, lam] + slack
    rep = outer_t_check(m, [0.0], _zero_map(1), delta=0.5, probes=probes)
    assert rep.passed
    # the reversed comparison fails: the interval cannot fit inside {-lam}+slack
    reversed_map = SetValuedMap(
        1, lambda x: m.value(np.zeros(1)), common_bound=0.7)
    base_map = SetValuedMap(
        1, lambda x: m.value(np.array([0.2])), common_bound=0.7)
    rep2 = outer_t_check(reversed_map, [0.0], _zero_map(1), delta=0.5, probes=probes,
                         tol=1e-9)
    # reversed_map is constant [-0.7,0.7]; envelope around {-0.7} cannot cover it
    rep3 = outer_t_check(reversed_map, [0.0], _zero_map(1), delta=0.5,
                         probes=[[0.05]])
    assert rep3.passed  # constant map against itself still passes
    rep4 = outer_t_check(
        SetValuedMap(1, lambda x: Box([-0.7], [0.7]), common_bound=0.7),
        [0.0], _zero_map(1), delta=0.5, probes=probes)
    assert rep4.passed
    # genuine failure: values jump OUTWARD away from the base point
    jumping = SetValuedMap(
        1, lambda x: Box([-2.0], [2.0]) if x[0] > 0.0 else Singleton([0.0]), common_bound=2.0)
    rep5 = outer_t_check(jumping, [0.0], _zero_map(1), delta=0.5, probes=probes)
    assert not rep5.passed
    assert rep5.worst_violation > 1.0


def test_outer_check_2d_singleton_just_outside_the_envelope():
    # the value sits 0.5015 from x* = 0 at angle pi/32, between two of 32
    # evenly spread directions, where the support along each is below 0.5
    angle = math.pi / 32.0
    point = 0.5015 * np.array([math.cos(angle), math.sin(angle)])
    m = SetValuedMap(2, lambda x: Singleton(point if x[0] > 0.5 else np.zeros(2)),
                     common_bound=1.0)
    rep = outer_t_check(m, [0.0, 0.0], _zero_map(2), delta=0.5, probes=[[1.0, 0.0]])
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.0015, abs=1e-12)
    assert rep.failures[0][:2] == ((1.0, 0.0), tuple(point.tolist()))
    assert "fails at 1 probes" in str(rep)


def test_outer_check_2d_violation_is_the_sup_of_dense_support_gaps(rng):
    """Over a unit direction p the support gap h(val, p) - h(envelope, p) is
    at most the worst vertex distance beyond the envelope, and the gap in
    the direction of that distance reaches it: dense directions agree."""
    dirs = np.stack([np.cos(t := np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)),
                     np.sin(t)], axis=1)
    for _ in range(20):
        val = Polytope(rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), 2)))
        base = Polytope(rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), 2)))
        m = SetValuedMap(2, lambda x: val if x[0] > 0.0 else base, common_bound=2.0)
        delta = float(rng.uniform(0.05, 0.5))
        rep = outer_t_check(m, [0.0, 0.0], _zero_map(2), delta=delta, probes=[[1.0, 0.0]])
        # supports along every direction at once: the envelope is base + delta*ball
        gaps = (dirs @ val.vertices.T).max(axis=1) - (dirs @ base.vertices.T).max(axis=1) - delta
        gap = max(0.0, float(gaps.max()))
        # the sampled sup falls short by at most the spacing times the size
        assert rep.worst_violation - 1e-3 <= gap <= rep.worst_violation + 1e-9
        assert rep.passed == (rep.worst_violation == 0.0)


def test_outer_check_value_with_the_larger_ball_is_undecided():
    m = SetValuedMap(1, lambda x: Ball([0.0], 0.8 if x[0] > 0.0 else 0.0), common_bound=1.0)
    rep = outer_t_check(m, [0.0], _zero_map(1), delta=0.5, probes=[[0.4], [1.0]])
    assert not rep.passed and not rep.failures
    assert rep.undecided == [(0.4,), (1.0,)]
    assert "undecided at 2 probes" in str(rep)


# --- distribution comparison ------------------------------------------------------


def test_ks_distance_basic():
    a = np.array([0.0, 1.0, 2.0, 3.0])
    assert ks_distance(a, a) == 0.0
    b = a + 10.0
    assert ks_distance(a, b) == 1.0


def test_compare_same_law_small_distance():
    model = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    f1 = simulate_sdi(model, [0.0], dt=1e-2, horizon=5.0, seed=1, n_reps=300)
    f2 = simulate_sdi(model, [0.0], dt=1e-2, horizon=5.0, seed=2, n_reps=300)
    assert ks_distance(f1[:, 0], f2[:, 0]) <= 0.1


def test_compare_to_sdi_linear_gaussian():
    spec = _ou_spec(n_steps=2000)
    sched = spec.schedule
    t_n = sched.time_at(2000)
    start = next(n for n in range(2000) if sched.time_at(n) >= t_n - 5.0) - 1
    res = run_ensemble(spec, 11, 500, checkpoints=range(spec.n_steps + 1))
    series = _series_from_paths(res.checkpoint_states, sched, [0.3], start=start)
    model = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    rep = compare_to_sdi(*sdi_arrays(series, 5.0), model, t_eval=5.0, n_sdi_reps=500, seed=11)
    assert rep.distances[0] <= 0.15


def test_compare_to_sdi_detects_mismatch():
    """A wrong drift matrix separates the stationary laws.

    Stationary variances scale like 1/(2|A|); the Kolmogorov-Smirnov gap
    between the matched and the eightfold-contractive law is about 0.23
    (exact normal-CDF computation), comfortably detectable at 400 samples,
    whereas a factor-two mismatch sits at 0.083 and below the two-sample
    noise floor, so the stronger contrast is the meaningful one.
    """
    spec = _ou_spec(n_steps=2000, x0=2.3)
    sched = spec.schedule
    start = 1500
    res = run_ensemble(spec, 13, 400, checkpoints=range(spec.n_steps + 1))
    series = _series_from_paths(res.checkpoint_states, sched, [0.3], start=start)
    wrong = SDIModel(A=[[-8.0]], sigma=[[1.0]])
    rep = compare_to_sdi(*sdi_arrays(series, 1.0), wrong, t_eval=1.0, n_sdi_reps=400, seed=13)
    assert rep.distances[0] > 0.2
    right = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    rep_ok = compare_to_sdi(*sdi_arrays(series, 1.0), right, t_eval=1.0, n_sdi_reps=400, seed=13)
    assert rep_ok.distances[0] < rep.distances[0]


def test_compare_requires_enough_replications():
    spec = _ou_spec(n_steps=50)
    res = run_ensemble(spec, 1, 10, checkpoints=range(spec.n_steps + 1))
    series = _series_from_paths(res.checkpoint_states, spec.schedule, [0.3])
    model = SDIModel(A=[[-1.0]], sigma=[[1.0]])
    with pytest.raises(ValueError):
        compare_to_sdi(*sdi_arrays(series, 1.0), model, t_eval=1.0, n_sdi_reps=500)
