"""Euler integration of inclusions, sliding-mode damping, projections, and
the epsilon-chain return diagnostic."""

import math

import numpy as np
import pytest

from sadi.inclusions import epsilon_chain_diagnostic, integrate
from sadi.sets import Box, SetValuedMap, Singleton, contains
from sadi.presets import pegasos_preset, nonconvergence_preset
from conftest import neg_sign_map, squared_norm


def _constant_map(dim, vector):
    return SetValuedMap(dim, lambda x: Singleton(vector),
                        common_bound=float(np.linalg.norm(vector)) + 1e-9)


def test_analytic_decay():
    path = integrate(None, lambda x: -x, [1.0], 1e-3, 5.0)
    assert abs(path.states[-1][0] - math.exp(-5.0)) <= 5e-3


def test_sliding_mode_reached_and_held():
    path = integrate(neg_sign_map(), None, [1.0], 1e-3, 2.0)
    ts = path.times()
    window = path.states[(ts >= 1.1) & (ts <= 2.0), 0]
    assert np.all(np.abs(window) <= 1e-3)
    # hit happens in finite time near t = 1
    hit = ts[np.argmax(np.abs(path.states[:, 0]) <= 1e-3)]
    assert hit == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("x0, speed, snap", [(2.5, -2.0, 2.0), (0.5, 2.0, 1.0)],
                         ids=["down", "up"])
def test_a_step_crossing_two_thresholds_snaps_to_the_first_it_meets(x0, speed, snap):
    # one unit step from 2.5 to 0.5 (or back) crosses both 1 and 2
    fmap = SetValuedMap(1, bounds=lambda x: ([speed], [speed]), common_bound=2.0,
                        thresholds=[[1.0, 2.0]])
    path = integrate(fmap, None, [x0], 1.0, 1.0)
    assert path.states[1, 0] == snap
    assert path.events == [(0, 0, snap)]


def test_hinge_mean_field_equilibrium():
    p = pegasos_preset(1.0)
    path = integrate(p.spec.drift.set_map, p.spec.drift.mean_field, [3.0, 5.0], 1e-3, 20.0)
    assert np.linalg.norm(path.states[-1] - [0.2, 0.4]) <= 0.01


def test_selector_membership_along_path(rng):
    m = neg_sign_map()
    path = integrate(m, None, [0.5], 1e-3, 1.0)
    idx = rng.integers(0, path.n_steps, size=200)
    for k in idx:
        assert contains(m.value(path.states[k]), path.selector_values[k], 1e-9)


def test_increment_bound_along_path():
    # consecutive states move at most dt * (set bound + smooth bound)
    p = pegasos_preset(1.0)
    dt = 1e-3
    path = integrate(p.spec.drift.set_map, p.spec.drift.mean_field, [1.5, -1.0], dt, 5.0)
    smooth_bound = 2.0 * float(np.abs(path.states).max()) + 1.0
    limit = dt * (p.spec.drift.set_map.common_bound + smooth_bound)
    diffs = np.linalg.norm(np.diff(path.states, axis=0), axis=1)
    assert np.all(diffs <= limit + 1e-12)
    # and the step count covers the horizon within one step
    assert path.n_steps * dt >= path.horizon - dt


def test_first_order_consistency():
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        path = integrate(None, lambda x: -x, [1.0], dt, 3.0)
        errs.append(abs(path.states[-1][0] - math.exp(-3.0)))
    assert 1.5 <= errs[0] / errs[1] <= 2.5
    assert 1.5 <= errs[1] / errs[2] <= 2.5


def test_consistency_constant_fitted():
    # halving dt changes x(T) by at most C*dt with C from three levels
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        finals[dt] = integrate(None, lambda x: -x, [1.0], dt, 3.0).states[-1][0]
    c = abs(finals[4e-3] - finals[2e-3]) / 2e-3
    assert abs(finals[2e-3] - finals[1e-3]) <= c * 2e-3 * 1.2


def test_projected_path_stays_inside():
    region = Box([-1.0], [1.0])
    m = _constant_map(1, [2.0])
    path = integrate(m, None, [0.0], 1e-3, 3.0, projection=region)
    box = Box([-1.0], [1.0])
    for x in path.states:
        assert contains(box, x, 1e-12)
    # drift pushes to the boundary and projection pins it there
    assert path.states[-1][0] == pytest.approx(1.0, abs=1e-12)


def test_projected_matches_unprojected_in_interior():
    region = Box([-10.0], [10.0])
    m = neg_sign_map()
    a = integrate(m, None, [0.5], 1e-3, 1.0)
    b = integrate(m, None, [0.5], 1e-3, 1.0, projection=region)
    assert np.array_equal(a.states, b.states)


def test_lyapunov_monotone_along_certified_field():
    p = pegasos_preset(1.0)
    path = integrate(p.spec.drift.set_map, p.spec.drift.mean_field, [1.5, -1.0], 1e-3, 8.0)
    v = squared_norm(2)
    shift = p.x_star
    vals = np.array([v.value(x - shift) for x in path.states])
    # decay up to per-step slack dt*L with L a crude Lipschitz bound
    slack = 1e-3 * 12.0 * (p.spec.drift.set_map.common_bound + 2.0 * np.abs(path.states).max())
    outside = np.linalg.norm(path.states - shift, axis=1) > 0.05
    diffs = np.diff(vals)
    mask = outside[:-1] & outside[1:]
    assert np.all(diffs[mask] <= slack)


def test_blowup_carries_step_index():
    from sadi.engine import SimulationBlowup

    def explode(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return x * x * x * 1e5

    with pytest.raises(SimulationBlowup):
        integrate(None, explode, [10.0], 1.0, 40.0)


def test_a_decimal_horizon_of_n_steps_takes_n_steps():
    # 128.08 / 0.005 is 25616.000000000004 in floats
    path = integrate(None, lambda x: -x, [1.0], dt=0.005, horizon=128.08)
    assert path.n_steps == 25_616


def test_inclusion_csv(tmp_path):
    path = integrate(None, lambda x: -x, [1.0, 2.0], 1e-2, 0.5)
    out = tmp_path / "path.csv"
    path.to_csv(out, provenance=[("seed", 0)])
    lines = out.read_text().splitlines()
    assert lines[0] == "# dt=0.01 horizon=0.5 seed=0"
    assert lines[1] == "n,t,a,x0,x1,set0,set1"
    assert len(lines) == 2 + path.n_steps


@pytest.mark.parametrize("dt", [0.1, 1.0 / 3.0, 1e-3])
def test_inclusion_csv_rows_print_each_cell_as_its_own_column(tmp_path, dt):
    # the constant ``a`` column is in the row template; every row reads as
    # the table of n, n*dt, dt, the states and the selections printed cell
    # by cell with %.17g
    path = integrate(neg_sign_map(2.0), lambda x: -x, [1.5], dt, 20 * dt)
    out = tmp_path / "path.csv"
    path.to_csv(out)
    n = path.n_steps
    table = np.column_stack([np.arange(n) * dt, np.full(n, dt), path.states[:n],
                             path.selector_values])
    want = [",".join([str(i), *("%.17g" % v for v in row)]) for i, row in enumerate(table.tolist())]
    assert out.read_text(encoding="utf-8").splitlines()[2:] == want


def test_inclusion_validation():
    with pytest.raises(ValueError):
        integrate(None, lambda x: -x, [1.0], -1e-3, 1.0)
    with pytest.raises(ValueError):
        integrate(None, lambda x: -x, [1.0], 1e-3, -1.0)


# --- chain diagnostic --------------------------------------------------------


def test_chain_found_at_stable_equilibrium():
    p = pegasos_preset(1.0)
    rep = epsilon_chain_diagnostic(p.spec.drift.set_map, p.spec.drift.mean_field,
                                   [[0.2, 0.4]], eps=0.1, t_min=1.0, dt=1e-2,
                                   budget=10)[0]
    assert rep.found
    assert rep.n_segments == 1


def test_chain_found_on_cycling_field():
    nc = nonconvergence_preset()
    rep = epsilon_chain_diagnostic(nc.spec.drift.set_map, None, [[1.5, -1.5]],
                                   eps=0.6, t_min=1.5, dt=5e-3, budget=60)[0]
    assert rep.found
    assert rep.return_distance <= 0.6


def test_chain_exhausted_on_strict_decay():
    rep = epsilon_chain_diagnostic(None, lambda x: -x, [[2.0]], eps=0.1,
                                   t_min=1.0, dt=1e-2, budget=12)[0]
    assert not rep.found
    assert rep.return_distance > 0.1


def test_chain_validation():
    with pytest.raises(ValueError):
        epsilon_chain_diagnostic(None, lambda x: -x, [[1.0]], eps=0.0,
                                 t_min=1.0, dt=1e-2)
    with pytest.raises(ValueError):
        epsilon_chain_diagnostic(None, lambda x: -x, [[1.0]], eps=0.1,
                                 t_min=1.0, dt=1e-2, budget=0)


def test_chain_rejects_a_zero_dt_before_any_arithmetic():
    # the step count of t_min divides by dt before any segment is integrated
    with pytest.raises(ValueError, match="dt must be positive"):
        epsilon_chain_diagnostic(None, lambda x: -x, [[1.0]], eps=0.1, t_min=1.0, dt=0.0)
