"""Box-valued maps declared by their bounds, and every map's support on rows.

The float form, the column form and the per-point ``Box`` rules the bounds
replaced agree bit for bit; ``support_rows`` of every box map and of the
pegasos maps equals the support of the per-point values; the certifier's
array pass equals the per-point support path, and its near-kink row path
the per-point reduced derivative; the plain-float integrator
equals the per-point loop it replaced, which is kept here as the
reference."""

import itertools
import math

import numpy as np
import pytest

import sadi.nonsmooth
from sadi.engine import SimulationBlowup
from sadi.inclusions import epsilon_chain_diagnostic, integrate
from sadi.nonsmooth import (
    PiecewiseSmoothScalar,
    SmoothPiece,
    StabilityCertificate,
    _grid_points,
    _near_kinks,
    _outside_ball,
    certify_stability,
    u_generalized_derivative,
)
from sadi.presets import (
    RegressionLaw,
    lasso_preset,
    nonconvergence_preset,
    pegasos_preset,
    rootfind_preset,
    sign_interval_map,
)
from sadi.sets import (
    Ball,
    Box,
    ExtremeVertex,
    LeastNorm,
    SetValuedMap,
    Singleton,
    least_norm_point,
    minkowski_sum,
    on_thresholds,
    select,
)
from conftest import neg_sign_map, relu_scalar, squared_norm
from predicate_tables import nonconv_region


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


# --- the per-point rules the bounds replaced -----------------------------------


def _old_rootfind(w):
    def spike(v):
        return (-1.0, 1.0) if v == 1.0 else (0.0, 0.0)

    base = np.array([-w[0] + w[1], -w[0] - w[1]])
    lo2, hi2 = spike(w[1])
    lo1, hi1 = spike(w[0])
    return Box(base + np.array([lo2, lo1]), base + np.array([hi2, hi1]))


def _old_sign_bounds(w, lam):
    lo = np.where(w > 0.0, -lam, np.where(w < 0.0, lam, -lam))
    hi = np.where(w > 0.0, -lam, np.where(w < 0.0, lam, lam))
    return lo, hi


def _old_sign_interval(lam):
    return lambda w: Box(*_old_sign_bounds(w, lam))


def _old_lasso_shifted(lam, law, shift):
    m, b = law.second_moment(), law.cross_moment()

    def rule(w):
        lo, hi = _old_sign_bounds(w + shift, lam)
        return Box(lo + (b - m @ (w + shift)), hi + (b - m @ (w + shift)))

    return rule


def _old_cell_value(cells):
    """``CellTable.value`` of the nonconv ``cells`` before the table declared
    bounds, each cell found by the old predicates."""

    def rule(x):
        x = [float(v) for v in x]
        c = cells[nonconv_region(x) - 1]
        lo, hi = np.asarray(c.lo, dtype=float), np.asarray(c.hi, dtype=float)
        if c.slope:
            offset = np.asarray([v or -0.0 for v in c.lo], dtype=float)
            return Singleton(offset + c.slope * np.asarray(x))
        return Singleton(lo) if np.array_equal(lo, hi) else Box(lo, hi)

    return rule


def _box_of(value):
    if isinstance(value, Singleton):
        return value.point, value.point
    return value.lo, value.hi


def _lasso_2d():
    law = RegressionLaw(theta=[1.0, -0.5], features="gaussian",
                        feature_mean=[0.3, -0.2], feature_cov=[[1.0, 0.4], [0.4, 2.0]])
    return lasso_preset(0.3, law), law


_LAW_3D = RegressionLaw(theta=[1.0, -0.5, 2.0], features="gaussian")


# --- float form, column form and the old Box ------------------------------------


def _points(rng, dim, thresholds, scale=3.0):
    """Random points, points exactly on every threshold, every combination
    of thresholds, and signed zeros."""
    pts = [row for row in rng.uniform(-scale, scale, size=(200, dim))]
    for i, ts in enumerate(thresholds):
        for t in ts:
            for row in rng.uniform(-scale, scale, size=(10, dim)):
                row[i] = t
                pts.append(row)
    levels = [sorted(set(ts) | {0.0, -0.0, 1.0}) for ts in thresholds]
    pts += [np.array(c) for c in itertools.product(*levels)]
    pts += [np.array(c) for c in itertools.product((0.0, -0.0), repeat=dim)]
    return np.array(pts)


def _maps():
    lasso = lasso_preset(0.7)
    lasso2, law2 = _lasso_2d()
    law1 = RegressionLaw(theta=[1.0], features="ones")
    nonconv = nonconvergence_preset().spec.drift
    shift1, shift2 = lasso.x_star, lasso2.x_star
    lasso3 = lasso_preset(0.4, _LAW_3D)
    return {
        # name: (map, old rule, thresholds to probe)
        "rootfind": (rootfind_preset().spec.drift.set_map, _old_rootfind, [[1.0]] * 2),
        "sign_interval_1d": (sign_interval_map(1, 0.7), _old_sign_interval(0.7), [[0.0]]),
        "sign_interval_3d": (sign_interval_map(3, 0.25), _old_sign_interval(0.25), [[0.0]] * 3),
        "lasso_shifted_1d": (lasso.stability.shifted_map, _old_lasso_shifted(0.7, law1, shift1),
                             [[-shift1[0]]]),
        "lasso_shifted_2d": (lasso2.stability.shifted_map,
                             _old_lasso_shifted(0.3, law2, shift2),
                             [[-shift2[0]], [-shift2[1]]]),
        "lasso_shifted_3d": (lasso3.stability.shifted_map,
                             _old_lasso_shifted(0.4, _LAW_3D, lasso3.x_star),
                             [[-t] for t in lasso3.x_star]),
        "nonconv": (nonconv.set_map, _old_cell_value(nonconv.sample_term.cells),
                    [[-2.0, -1.0, 1.0, 2.0]] * 2),
    }


@pytest.mark.parametrize("name", sorted(_maps()))
def test_bounds_float_column_and_old_box_agree(name, rng):
    fmap, old, thresholds = _maps()[name]
    assert fmap.bounds is not None
    pts = _points(rng, fmap.dim, thresholds)
    lo_rows, hi_rows = fmap.bound_rows(pts)
    assert lo_rows.shape == hi_rows.shape == pts.shape
    for x, lo_r, hi_r in zip(pts, lo_rows, hi_rows):
        box = fmap.value(x)
        assert isinstance(box, Box)
        assert _bits(box.lo) == _bits(lo_r) and _bits(box.hi) == _bits(hi_r)
        want_lo, want_hi = _box_of(old(x))
        assert _bits(box.lo) == _bits(want_lo) and _bits(box.hi) == _bits(want_hi)


def test_a_map_takes_one_rule_or_bounds():
    with pytest.raises(ValueError):
        SetValuedMap(1, common_bound=1.0)
    with pytest.raises(ValueError):
        SetValuedMap(1, lambda x: Singleton(x), common_bound=1.0,
                     bounds=lambda x: ([0.0], [0.0]))


# --- support on rows -----------------------------------------------------------


def _per_point_supports(fmap, p, rows):
    """The oracle: the support of each per-point value."""
    return np.array([fmap.value(x)._support(q) for q, x in zip(p, rows)], dtype=float)


def _directions(rng, n, dim):
    """Random directions over many scales, a quarter of their entries
    replaced by signed zeros."""
    p = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    zeros = rng.random((n, dim)) < 0.25
    return np.where(zeros, np.where(rng.random((n, dim)) < 0.5, 0.0, -0.0), p)


def _assert_support_rows(fmap, p, rows):
    got = fmap.support_rows(p, rows)
    assert got.shape == (rows.shape[0],)
    assert _bits(got) == _bits(_per_point_supports(fmap, p, rows))


@pytest.mark.parametrize("name", sorted(_maps()))
def test_box_support_rows_equal_per_point_supports(name, rng):
    fmap, _, thresholds = _maps()[name]
    pts = _points(rng, fmap.dim, thresholds)
    _assert_support_rows(fmap, _directions(rng, len(pts), fmap.dim), pts)


_PEGASOS = {
    "1d": dict(lam=1.0, feature_mean=[1.5]),
    "2d": dict(lam=1.0, feature_mean=[1.0, 2.0]),
    "2d_small_lam": dict(lam=0.1, feature_mean=[1.0, 2.0]),
    # entries whose products round, so a matrix-vector product and one dot
    # product per row differ in the last bit on about a third of the rows
    "2d_rounding": dict(lam=0.7, feature_mean=[0.7, 1.3]),
    "3d": dict(lam=0.5, feature_mean=[0.3, -1.1, 0.9]),
    "3d_zero_mean_entry": dict(lam=0.3, feature_mean=[1.0, 0.0, 2.0]),
}


def _on_the_margin(rng, mu, n):
    """Points w whose margin, one dot product w @ mu, is exactly 1 (dyadic
    and random entries, the first nonzero one solved for), and their
    neighbours one ulp either side in each entry."""
    d = mu.shape[0]
    k = int(np.flatnonzero(mu)[0])
    w = np.concatenate([rng.integers(-64, 65, size=(n, d)) / 16.0,
                        rng.uniform(-3.0, 3.0, size=(4 * n, d))])
    w[:, k] = 0.0
    w[:, k] = (1.0 - w @ mu) / mu[k]
    w = w[[float(x @ mu) == 1.0 for x in w]]
    near = [w]
    for direction in (np.inf, -np.inf):
        for i in range(d):
            moved = w.copy()
            moved[:, i] = np.nextafter(w[:, i], direction)
            near.append(moved)
    return w, np.concatenate(near)


@pytest.mark.parametrize("name", sorted(_PEGASOS))
def test_pegasos_support_rows_equal_per_point_supports(name, rng):
    preset = pegasos_preset(**_PEGASOS[name])
    mu = np.asarray(_PEGASOS[name]["feature_mean"], dtype=float)
    hinge, shifted = preset.spec.drift.set_map, preset.stability.shifted_map
    d, shift = mu.shape[0], preset.x_star
    grid = rng.uniform(-3.0, 3.0, size=(500, d))
    exact, near = _on_the_margin(rng, mu, 400)
    assert len(exact) > 100
    # the shifted map's margin is (x + shift) @ mu: keep the rows that hit 1
    shifted_exact = exact - shift
    shifted_exact = shifted_exact[[float((x + shift) @ mu) == 1.0 for x in shifted_exact]]
    assert len(shifted_exact) > 10
    signed = np.array(list(itertools.product((0.0, -0.0, 1.0, -0.5), repeat=d)))
    for fmap, rows in ((hinge, np.concatenate([grid, near, signed])),
                       (shifted, np.concatenate([grid, near - shift, shifted_exact, signed]))):
        _assert_support_rows(fmap, _directions(rng, len(rows), d), rows)
        # along grad |x|^2, as the certifier asks, and along directions whose
        # product with mu is a signed zero, tying the segment's two ends
        _assert_support_rows(fmap, 2.0 * rows, rows)
        for ties in (np.zeros_like(rows) * np.where(rng.random(rows.shape) < 0.5, 1.0, -1.0),
                     _orthogonal(rng, mu, len(rows))):
            _assert_support_rows(fmap, ties, rows)
    # on the margin the value is the segment [0, mu]: its support is mu.mu
    # along mu (the past-margin value gives 0) and 0 along -mu (the inside
    # value gives -mu.mu)
    along = np.broadcast_to(mu, exact.shape)
    assert (hinge.support_rows(along, exact) == np.max(np.stack([0.0 * mu, mu]) @ mu)).all()
    assert (hinge.support_rows(-along, exact) == 0.0).all()


def _orthogonal(rng, mu, n):
    """Directions with p.mu a signed zero: dyadic multiples of
    mu_j e_i - mu_i e_j, or of e_i where mu_i = 0, and of -0.0."""
    d = mu.shape[0]
    basis = [np.where(np.arange(d) == i, mu[j], 0.0) - np.where(np.arange(d) == j, mu[i], 0.0)
             for i in range(d) for j in range(i + 1, d)]
    basis += [np.eye(d)[i] for i in range(d) if mu[i] == 0.0] + [np.full(d, -0.0)]
    pick = rng.integers(0, len(basis), size=n)
    return np.array(basis)[pick] * (rng.integers(-8, 9, size=(n, 1)) / 4.0)


def test_a_rule_map_answers_support_rows_point_by_point(rng):
    from sadi.sets import Polytope

    fmap = SetValuedMap(2, lambda x: minkowski_sum(Ball(x, 0.5), Polytope([[0.0, 1.0], x])),
                        common_bound=10.0)
    rows = rng.uniform(-2.0, 2.0, size=(50, 2))
    _assert_support_rows(fmap, _directions(rng, 50, 2), rows)
    assert fmap.support_rows(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)


# --- the certifier's array pass -------------------------------------------------


def test_lyapunov_scalars_on_rows_round_as_their_per_point_formulas(rng):
    from sadi.presets import _coordinate_sum, _scaled_squared_norm

    for d in (1, 2, 3):
        rows = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-5, 5, size=(2000, 1))
        for c in (1.0, 0.3, 2.5):
            u = _scaled_squared_norm(d, c, "q")
            values, grads = u.rows[0](rows), u.rows[1](rows)
            for x, value, grad in zip(rows, values.tolist(), grads):
                assert value == c * float(x @ x) == u.value(x)
                assert _bits(grad) == _bits(2.0 * c * x) == _bits(u.gradient(x))
        s = _coordinate_sum(d)
        assert _bits(s.rows[0](rows)) == _bits([float(np.sum(x)) for x in rows])
        assert _bits(s.rows[1](rows)) == _bits(np.ones_like(rows))


def _per_point_certificate(v, u_list, fmap, grid_lo, grid_hi, resolution, radius, bound):
    """The certifier before its array pass: each point outside the ball by
    ``u_generalized_derivative`` near a kink and by the support of F(x)
    along grad v(x) elsewhere."""
    pts, res = _grid_points(grid_lo, grid_hi, resolution)
    near = _near_kinks(pts, [v, *u_list])
    kept = np.flatnonzero(_outside_ball(pts, radius))
    derivs, thresholds = [], []
    for i in kept:
        x = pts[i]
        if near[i]:
            derivs.append(u_generalized_derivative(v, u_list, fmap, x))
        else:
            derivs.append(fmap.value(x)._support(v.gradient(x)))
        thresholds.append(-bound.value(x))
    passes = [d == -math.inf or d <= t + 1e-9 for d, t in zip(derivs, thresholds)]
    return StabilityCertificate(grid_lo=tuple(np.atleast_1d(grid_lo).tolist()),
                                grid_hi=tuple(np.atleast_1d(grid_hi).tolist()),
                                resolution=res, exclude_radius=float(radius),
                                points=pts[kept], derivatives=np.array(derivs, dtype=float),
                                bounds=np.array(thresholds, dtype=float),
                                passes=np.array(passes, dtype=bool))


def _point_squared_norm():
    return PiecewiseSmoothScalar(2, [SmoothPiece(None, lambda x: float(x @ x),
                                                 lambda x: 2.0 * x)])


def _bundles():
    rootfind = rootfind_preset().stability
    return {
        "rootfind": rootfind,
        "lasso_1d": lasso_preset(0.7).stability,
        "lasso_2d": _lasso_2d()[0].stability,
        "lasso_3d": lasso_preset(0.4, _LAW_3D).stability,
        "pegasos": pegasos_preset(1.0).stability,
        # a Lyapunov function not written on rows: the per-point path
        "rootfind_point_v": type(rootfind)(**dict(vars(rootfind), v=_point_squared_norm(),
                                                  bound=_point_squared_norm())),
    }


@pytest.mark.parametrize("name", sorted(_bundles()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certifier_array_pass_equals_per_point_path(name, seed):
    b = _bundles()[name]
    rng = np.random.default_rng(100 + seed)
    d = len(b.grid_lo)
    # half-integer ends and odd resolutions put grid points on the kinks at 0 and +-1
    lo = -rng.integers(1, 7, size=d) / 2.0
    hi = rng.integers(1, 7, size=d) / 2.0
    res = [int(r) for r in 2 * rng.integers(2, {1: 200, 2: 30, 3: 8}[d], size=d) + 1]
    args = (b.v, b.u_list, b.shifted_map, lo, hi, res, float(rng.choice([0.0, 0.01, 0.5])),
            b.bound)
    assert certify_stability(*args).to_text() == _per_point_certificate(*args).to_text()


# --- near-kink points decided on rows -------------------------------------------


def _no_lp(*args, **kwargs):
    raise AssertionError("an LP was solved")


def _near_kink_paths(v, u_list, fmap, lo, hi, res, radius, bound):
    """Check the certifier at its near-kink points against the per-point
    oracle: each derivative equals ``u_generalized_derivative``'s bit for
    bit, and each point the row path found empty is one the per-point
    pre-check finds empty with no LP.  Returns how many points the row path
    decided and how many it left to the per-point path."""
    cert = certify_stability(v, u_list, fmap, lo, hi, res, radius, bound)
    near = _near_kinks(cert.points, [v, *u_list])
    pts, derivs = cert.points[near], cert.derivatives[near]
    for x, d in zip(pts, derivs.tolist()):
        assert _bits(d) == _bits(u_generalized_derivative(v, u_list, fmap, x)), x.tolist()
    on_rows = sadi.nonsmooth._empty_on_rows(u_list, fmap, pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sadi.nonsmooth, "linprog", _no_lp)
        for x in pts[on_rows]:
            assert u_generalized_derivative(v, u_list, fmap, x) == -math.inf, x.tolist()
    return int(on_rows.sum()), int((~on_rows).sum())


@pytest.mark.parametrize("name", sorted(_bundles()))
def test_near_kink_rows_equal_the_per_point_derivative(name):
    b = _bundles()[name]
    decided, left = _near_kink_paths(b.v, b.u_list, b.shifted_map, b.grid_lo, b.grid_hi,
                                     b.resolution, b.exclude_radius, b.bound)
    # only rootfind's reduction function has kinks; its 480 near-kink points,
    # the four corners (+-1, +-1) included, are all decided on rows
    assert (decided, left) == ((480, 0) if name.startswith("rootfind") else (0, 0))
    for seed in (0, 1, 2):
        rng = np.random.default_rng(100 + seed)
        d = len(b.grid_lo)
        lo, hi = -rng.integers(1, 7, size=d) / 2.0, rng.integers(1, 7, size=d) / 2.0
        res = [int(r) for r in 2 * rng.integers(2, {1: 200, 2: 30, 3: 8}[d], size=d) + 1]
        _near_kink_paths(b.v, b.u_list, b.shifted_map, lo, hi, res, 0.01, b.bound)


@pytest.mark.parametrize("value, want", [
    # the reduction of [-1, 1] is {0}: not empty, so every point is left
    ("neg_sign", (0, 8)),
    # [0.5, 1] misses the slab of the row 1 - 0, so the points on the kink
    # are decided in one dimension too: -1e-9 and +-5e-10 (linspace puts
    # the grid point near +1e-9 just past the tolerance)
    ("box", (3, 5)),
])
def test_a_reduction_that_is_not_empty_goes_to_the_per_point_path(value, want):
    # at |x| <= 1e-9 relu's Clarke gradient is [0, 1]; the points between
    # 1e-9 and 2e-9 are near but on no kink, so they have no constancy row
    fmap = neg_sign_map() if value == "neg_sign" else SetValuedMap(
        1, lambda x: Box([0.5], [1.0]), common_bound=1.0)
    assert _near_kink_paths(squared_norm(1), [relu_scalar()], fmap, [-2e-9], [2e-9], 9, 0.0,
                            squared_norm(1)) == want


def test_the_slab_edge_is_left_to_the_per_point_path():
    # F(x) = {(a, 0)} + [0, w] x {0}, a moving along x_1 across the edge of
    # the guard band of the constancy row (s, 0): there the row's supports
    # s*a + s*w and the vertex values s*(a + w) round apart, so ulp steps at
    # the edge go to the per-point path, and steps across the slack split
    s, w, a = 5.481887415507686, 2.811710028984528, -2.811739971268807
    u = PiecewiseSmoothScalar(2, [
        SmoothPiece(((1.0, math.inf, "()"), None), lambda x: 0.0, lambda x: np.array([s, 0.0])),
        SmoothPiece(None, lambda x: 0.0, lambda x: np.array([0.0, 0.0]))])
    paths = []
    for step in (4e-16, 1e-9):
        fmap = SetValuedMap(2, lambda x, step=step: minkowski_sum(
            Singleton([a + step * x[1], 0.0]), Box([0.0, 0.0], [w, 0.0])), common_bound=9.0)
        paths.append(_near_kink_paths(_point_squared_norm(), [u], fmap, [1.0, -60.0],
                                      [1.0, 60.0], [1, 121], 0.0, _point_squared_norm()))
    assert paths[0] == (0, 121) and all(paths[1])


# --- the plain-float integrator ------------------------------------------------


def _per_point_integrate(fmap, smooth, x0, dt, horizon, strategy=None, projection=None):
    """``integrate`` before its plain-float loop: numpy vectors, and every
    velocity from ``fmap.value``."""
    strategy = strategy or LeastNorm()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x.shape[0]
    n_steps = int(math.ceil(horizon / dt - 1e-12)) if horizon > 0 else 0
    states, sel = np.empty((n_steps + 1, d)), np.empty((n_steps, d))
    states[0] = x
    events = []
    thresholds, bands = (fmap.thresholds, fmap.bands) if fmap is not None else ((), ())
    for k in range(n_steps):
        sliding = bool(on_thresholds(x, bands))
        h = np.zeros_like(x) if smooth is None else np.atleast_1d(
            np.asarray(smooth(x), dtype=float))
        if fmap is None:
            v, g = h, np.zeros_like(x)
        elif sliding:
            v = least_norm_point(minkowski_sum(Singleton(h), fmap.value(x)))
            g = v - h
        else:
            g = select(fmap, x, strategy)
            v = h + g
        x_new = x + dt * v
        crossed = []
        for i, ts in enumerate(thresholds):
            # the crossed threshold nearest the old state
            for t in (ts if x[i] < x_new[i] else ts[::-1]):
                if (x[i] - t) * (x_new[i] - t) < 0.0:
                    crossed.append((i, t))
                    break
        for (i, t) in crossed:
            x_new[i] = t
            events.append((k, i, t))
        if projection is not None:
            x_new = projection.project_rows(x_new[None, :])[0]
        if not np.all(np.isfinite(x_new)):
            raise SimulationBlowup(k)
        sel[k] = g
        x = x_new
        states[k + 1] = x
    return states, sel, events


def _old_map(fmap, rule):
    return SetValuedMap(fmap.dim, rule, common_bound=fmap.common_bound,
                        thresholds=fmap.thresholds)


def _assert_same_path(fmap, old, smooth, x0, dt, horizon, **kw):
    path = integrate(fmap, smooth, x0, dt, horizon, **kw)
    states, sel, events = _per_point_integrate(old, smooth, x0, dt, horizon, **kw)
    assert path.states.tobytes() == states.tobytes()
    assert path.selector_values.tobytes() == sel.tobytes()
    assert path.events == events
    return path


def test_float_integrator_equals_per_point_loop_on_rootfind(rng):
    fmap = rootfind_preset().spec.drift.set_map
    old = _old_map(fmap, _old_rootfind)
    starts = [*rng.uniform(-20.0, 20.0, size=(4, 2)), [10.0, -20.0],
              # on a threshold, on both, and signed zeros
              [1.0, -3.0], [2.5, 1.0], [1.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]
    for x0 in starts:
        _assert_same_path(fmap, old, None, x0, 1e-2, 6.0)
    path = _assert_same_path(fmap, old, None, [10.0, -20.0], 1e-3, 4.0)
    assert path.events


def test_float_integrator_equals_per_point_loop_while_sliding():
    # -0.9 sign(w) slides at 0 from either side
    fmap = sign_interval_map(1, 0.9)
    old = _old_map(fmap, _old_sign_interval(0.9))
    for x0 in ([0.5], [-0.3], [0.0], [-0.0]):
        path = _assert_same_path(fmap, old, None, x0, 1e-3, 1.0)
        assert abs(path.states[-1, 0]) <= 1e-3
    # lasso with lam above |b|: the smooth mean b - m w is pinned at w = 0
    p = lasso_preset(1.5)
    drift = p.spec.drift
    path = _assert_same_path(drift.set_map, _old_map(drift.set_map, _old_sign_interval(1.5)),
                             drift.mean_field, [2.0], 1e-2, 6.0)
    assert path.states[-1, 0] == 0.0 and path.events


def test_float_integrator_equals_per_point_loop_with_a_smooth_term_in_2d(rng):
    p, _ = _lasso_2d()
    drift = p.spec.drift
    old = _old_map(drift.set_map, _old_sign_interval(0.3))
    for x0 in [*rng.uniform(-3.0, 3.0, size=(3, 2)), [0.0, 2.0], [-0.0, -0.0]]:
        _assert_same_path(drift.set_map, old, drift.mean_field, x0, 1e-2, 5.0)


def test_float_integrator_equals_per_point_loop_on_the_cell_table(rng):
    drift = nonconvergence_preset().spec.drift
    old = _old_map(drift.set_map, _old_cell_value(drift.sample_term.cells))
    # at the origin the creep cell's point is -0.0: the least-norm point keeps its sign
    for x0 in [*rng.uniform(-3.0, 3.0, size=(4, 2)), [1.5, 1.5], [2.0, 2.0], [1.0, -1.0],
               [0.0, 0.0], [-0.0, 0.0]]:
        _assert_same_path(drift.set_map, old, None, x0, 5e-3, 4.0)


def test_float_integrator_equals_per_point_loop_projected_and_under_other_selectors():
    fmap = rootfind_preset().spec.drift.set_map
    old = _old_map(fmap, _old_rootfind)
    for region in (Box([-3.0, -4.0], [2.0, 1.0]), Ball([0.5, -0.5], 2.0)):
        _assert_same_path(fmap, old, None, [10.0, -20.0], 1e-2, 4.0, projection=region)
    _assert_same_path(fmap, old, None, [3.0, -2.0], 1e-2, 4.0,
                      strategy=ExtremeVertex((1.0, -1.0)))
    # a map that is not a box keeps its rule
    p = pegasos_preset(1.0)
    _assert_same_path(p.spec.drift.set_map, p.spec.drift.set_map, p.spec.drift.mean_field,
                      [3.0, 5.0], 1e-2, 3.0)
    _assert_same_path(None, None, lambda x: -x, [1.0, -0.0], 1e-2, 1.0)


def test_chain_diagnostic_on_box_maps_matches_per_point_rules():
    drift = nonconvergence_preset().spec.drift
    old = _old_map(drift.set_map, _old_cell_value(drift.sample_term.cells))
    args = ([[0.5, 0.5], [1.5, -1.5]], 0.3, 0.5, 1e-2, 6)
    new_reports = epsilon_chain_diagnostic(drift.set_map, None, *args)
    old_reports = epsilon_chain_diagnostic(old, None, *args)
    assert [str(r) for r in new_reports] == [str(r) for r in old_reports]

