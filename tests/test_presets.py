"""Application presets: declared equilibria, analysis maps, fast-path
agreement, and the certified decay bundles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sadi.engine import run_ensemble
from sadi.presets import (
    RegressionLaw,
    SignFilterLaw,
    lasso_preset,
    nonconvergence_preset,
    pegasos_preset,
    preset_by_name,
    rootfind_preset,
    sign_error_filter_preset,
    soft_threshold_solution,
)
from sadi.sets import LeastNorm, contains, select, support


# --- lasso -------------------------------------------------------------------


def test_lasso_reference_instance():
    p = lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones"))
    assert p.x_star[0] == pytest.approx(0.3, abs=1e-12)
    assert p.check_root()


def test_lasso_zero_penalty_limit_is_least_squares():
    # vanishing penalty recovers M^{-1} b; use a tiny lam (lam = 0 is invalid)
    law = RegressionLaw(theta=[0.5, -1.0], features="gaussian",
                        feature_mean=[0.0, 0.0], feature_cov=np.eye(2))
    p = lasso_preset(1e-12, law)
    ls = np.linalg.solve(law.second_moment(), law.cross_moment())
    assert np.allclose(p.x_star, ls, atol=1e-9)


def test_lasso_soft_threshold_kills_small_coefficients():
    # 1-D with unit second moment and cross moment 0.5 < penalty 0.7
    sol = soft_threshold_solution(np.array([[1.0]]), np.array([0.5]), 0.7)
    assert sol[0] == 0.0


def test_lasso_coordinate_descent_matches_kkt(rng):
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([1.0, -0.2])
    lam = 0.4
    w = soft_threshold_solution(m, b, lam)
    grad = m @ w - b
    for i in range(2):
        if w[i] > 0:
            assert grad[i] == pytest.approx(-lam, abs=1e-8)
        elif w[i] < 0:
            assert grad[i] == pytest.approx(lam, abs=1e-8)
        else:
            assert abs(grad[i]) <= lam + 1e-8


def test_lasso_degenerate_moment_warns():
    with pytest.warns(UserWarning):
        p = lasso_preset(0.5, RegressionLaw(theta=[1.0, 1.0], features="ones"))
    assert p.x_star is None


def test_lasso_fast_term_matches_map(rng):
    p = lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones"))
    states = rng.uniform(-2, 2, size=(200, 1))
    terms = p.spec.drift.sample_term(states, np.zeros((200, 0)))
    for i in range(200):
        assert np.allclose(terms[i], select(p.spec.drift.set_map, states[i], LeastNorm()),
                           atol=1e-12)


# --- pegasos -----------------------------------------------------------------


def test_pegasos_reference_equilibrium():
    p = pegasos_preset(1.0)
    assert np.allclose(p.x_star, [0.2, 0.4], atol=1e-12)
    assert p.check_root()


def test_pegasos_zero_signal():
    p = pegasos_preset(1.0, feature_mean=[0.0, 0.0])
    assert np.allclose(p.x_star, [0.0, 0.0])


def test_pegasos_interior_active_branch():
    # one dimension, strong ridge: equilibrium mu / (ridge_coeff*lam)
    p = pegasos_preset(1.0, feature_mean=[0.5], ridge_coeff=2.0)
    # here kappa=2 > mu^2=0.25, so the active branch root is 0.5/2 = 0.25
    assert p.x_star[0] == pytest.approx(0.25)
    assert 0.25 * 0.5 < 1.0  # activity (margin below one) is consistent
    assert p.check_root()
    # the half-penalty convention shifts the same root to mu/lam
    p1 = pegasos_preset(1.0, feature_mean=[0.5], ridge_coeff=1.0)
    assert p1.x_star[0] == pytest.approx(0.5)
    assert p1.check_root()


def test_pegasos_sample_term_selects_hinge_branch(rng):
    p = pegasos_preset(1.0)
    w = np.array([[0.0, 0.0], [10.0, 10.0]])
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    terms = p.spec.drift.sample_term(w, x)
    assert np.allclose(terms[0], [1.0, 2.0])   # margin 0 < 1: active
    assert np.allclose(terms[1], [0.0, 0.0])   # margin 30 > 1: inactive


def test_pegasos_mean_map_segment_at_margin():
    p = pegasos_preset(1.0)
    w = np.array([0.2, 0.4])  # margin exactly one
    value = p.spec.drift.set_map.value(w)
    assert contains(value, [0.0, 0.0], 1e-12)
    assert contains(value, [1.0, 2.0], 1e-12)
    assert contains(value, [0.5, 1.0], 1e-9)


# --- rootfind ------------------------------------------------------------------


def test_rootfind_origin_is_root():
    p = rootfind_preset()
    assert contains(p.spec.drift.set_map.value([0.0, 0.0]), [0.0, 0.0], 0.0)
    assert p.check_root()


def test_rootfind_spiked_value_at_ones():
    p = rootfind_preset()
    value = p.spec.drift.set_map.value([1.0, 1.0])
    # box oracle: (0,-2) + [-1,1]^2
    for p_dir, expected in ((np.array([1.0, 0.0]), 1.0),
                            (np.array([-1.0, 0.0]), 1.0),
                            (np.array([0.0, 1.0]), -1.0),
                            (np.array([0.0, -1.0]), 3.0)):
        assert support(value, p_dir) == pytest.approx(expected, abs=1e-12)


def test_rootfind_run_reaches_origin():
    p = rootfind_preset()
    spec = replace(p.spec, x0=[10.0, -20.0], n_steps=1000)
    res = run_ensemble(spec, 5, 300)
    mean = res.finals.mean(axis=0)
    assert np.all(np.abs(mean) < 0.05)


# --- sign-error filter -------------------------------------------------------


def test_sign_filter_zero_drift_at_truth():
    law = SignFilterLaw(theta_true=[0.7], noise="laplace", scale=1.0)
    p = sign_error_filter_preset(law)
    assert contains(p.limit_value([0.7]), [0.0], 1e-12)
    assert p.check_root()


def test_sign_filter_laplace_closed_form(rng):
    law = SignFilterLaw(theta_true=[0.4], noise="laplace", scale=0.8)
    for theta in rng.uniform(-2, 2, size=8):
        drift = law.mean_sign_drift([theta])[0]
        s = theta - 0.4
        cdf = 0.5 * math.exp(s / 0.8) if s < 0 else 1.0 - 0.5 * math.exp(-s / 0.8)
        assert drift == pytest.approx(1.0 - 2.0 * cdf, abs=1e-12)
        # zero exactly at the true parameter
    assert law.mean_sign_drift([0.4])[0] == 0.0


def test_sign_filter_mean_matches_monte_carlo(rng):
    law = SignFilterLaw(theta_true=[0.0], noise="laplace", scale=1.0)
    p = sign_error_filter_preset(law)
    gen = np.random.default_rng(1)
    theta = np.full((200_000, 1), 0.3)
    xi = p.spec.noise_xi.sample_block(gen, 200_000)
    vals = p.spec.drift.sample_term(theta, xi)
    se = vals.std() / math.sqrt(200_000)
    assert abs(vals.mean() - law.mean_sign_drift([0.3])[0]) < 3 * se + 1e-9


def test_sign_filter_step_matches_engine_arithmetic(rng):
    # shared arithmetic with the reference one-step example
    law = SignFilterLaw(theta_true=[1.0], noise="laplace", scale=0.0)

    # noiseless residual: y = 1, phi = 1
    p = sign_error_filter_preset(law)
    term = p.spec.drift.sample_term(np.array([[0.0]]), np.zeros((1, 1)))
    assert term[0, 0] == 1.0
    theta_next = 0.0 + 0.5 * term[0, 0]
    assert theta_next == 0.5


def test_sign_filter_noiseless_hull_at_truth():
    law = SignFilterLaw(theta_true=[1.0], noise="laplace", scale=0.0)
    p = sign_error_filter_preset(law)
    value = p.spec.drift.set_map.value([1.0])
    assert contains(value, [1.0], 1e-12) and contains(value, [-1.0], 1e-12)


# --- non-convergence showcase ---------------------------------------------------


def test_nonconv_roots_contain_zero():
    p = nonconvergence_preset()
    assert contains(p.spec.drift.set_map.value([0.0, 0.0]), [0.0, 0.0], 0.0)
    assert contains(p.spec.drift.set_map.value([2.0, 2.0]), [0.0, 0.0], 0.0)
    assert p.check_root()


def test_nonconv_region_classification():
    pts = np.array([
        [2.0, 2.0],    # the double-root cell
        [1.5, 0.0],    # right column pushing down
        [0.0, -1.5],   # bottom row pushing left
        [-1.5, -1.5],  # lower-left cell pushing up
        [-1.5, 1.5],   # top row pushing right
        [0.0, 0.0],    # interior creep
    ])
    table = nonconvergence_preset().spec.drift.sample_term
    assert table.region_ids(pts).tolist() == [1, 2, 3, 4, 5, 6]


def test_nonconv_fast_term_matches_map(rng):
    p = nonconvergence_preset()
    table = p.spec.drift.sample_term
    grid = np.stack(np.meshgrid(np.arange(-3, 3.5, 0.5), np.arange(-3, 3.5, 0.5)), -1)
    states = np.concatenate([rng.uniform(-3, 3, size=(400, 2)), grid.reshape(-1, 2)])
    terms = table(states, np.zeros((len(states), 0)))
    for x, term in zip(states, terms):
        v = select(p.spec.drift.set_map, x, LeastNorm())
        assert np.allclose(term, v, atol=1e-12)
        offset, slope = table.term_at(x.tolist())
        assert np.array_equal(np.asarray(offset) + slope * x, term)


def test_nonconv_fast_loop_matches_engine():
    # one replication takes the plain-float loop, two the row loop
    p = nonconvergence_preset()
    spec = replace(p.spec, x0=[2.0, 2.0], n_steps=5000)
    fast = run_ensemble(spec, 31, 1, record_paths=True)
    rows = run_ensemble(spec, 31, 2, record_paths=True)
    assert fast.paths[0].tobytes() == rows.paths[0].tobytes()


def test_nonconv_long_run_cycles_without_converging():
    p = nonconvergence_preset()
    spec = replace(p.spec, x0=[2.0, 2.0], n_steps=200_000)
    nc = run_ensemble(spec, 2, 1, checkpoints=range(20_000, 200_001, 20_000),
                      record_paths=True)
    visited = set(p.spec.drift.sample_term.region_ids(nc.paths[0][:-1]).tolist())
    assert len(visited & {2, 3, 4, 5}) >= 3
    ck = nc.checkpoint_states[0]
    d0 = np.linalg.norm(ck, axis=1)
    d2 = np.linalg.norm(ck - 2.0, axis=1)
    assert np.mean(np.minimum(d0, d2) <= 0.1) <= 0.3


# --- cross-cutting preset properties ---------------------------------------------


@pytest.mark.parametrize("maker", [
    lambda: lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones")),
    lambda: pegasos_preset(1.0),
    rootfind_preset,
    lambda: sign_error_filter_preset(SignFilterLaw(theta_true=[0.5])),
    nonconvergence_preset,
])
def test_preset_selector_respects_common_bound(maker, rng):
    p = maker()
    m = p.spec.drift.set_map
    for _ in range(2000):  # five presets make the full ten-thousand-state audit
        x = rng.uniform(-3, 3, size=p.spec.drift.dim)
        v = select(m, x, LeastNorm())
        assert np.linalg.norm(v) <= m.common_bound + 1e-9


@pytest.mark.parametrize("name,params", [
    ("lasso", {"lam": 0.7, "data": {"theta": [1.0], "features": "ones"}}),
    ("pegasos", {"lam": 1.0}),
    ("rootfind", {}),
    ("sign_filter", {"law": {"theta_true": [0.0]}}),
    ("nonconv", {}),
])
def test_preset_registry(name, params):
    p = preset_by_name(name, params)
    assert p.spec.name == name
    assert p.spec.drift.dim >= 1


def test_preset_registry_unknown():
    with pytest.raises(ValueError):
        preset_by_name("mystery")


def test_certificates_pass_small_grids():
    """Full documented grids run in the acceptance suite; spot-check here."""
    lasso = lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones"))
    bundle = lasso.stability
    cert = sadi_cert(bundle, 41)
    assert cert.passed and cert.min_margin >= -1e-9


def sadi_cert(bundle, resolution):
    from sadi.nonsmooth import certify_stability

    return certify_stability(bundle.v, bundle.u_list, bundle.shifted_map,
                             bundle.grid_lo, bundle.grid_hi, resolution,
                             bundle.exclude_radius, bundle.bound)
