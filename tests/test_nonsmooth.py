"""Clarke gradients, set-valued derivatives, reductions, generalized decay
derivatives, and the grid certifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadi.nonsmooth import (
    Interval,
    StabilityCertificate,
    certify_stability,
    clarke_gradient,
    set_valued_derivative,
    smooth_scalar,
    u_generalized_derivative,
    u_reduced,
)
from sadi.sets import (
    Box,
    SetValuedMap,
    Singleton,
    hausdorff,
    support,
)
from conftest import abs_scalar, neg_sign_map, relu_scalar, squared_norm
from sadi.presets import _corner_hinge_sum, rootfind_preset


# --- Clarke gradients -------------------------------------------------------


def test_clarke_abs_at_kink():
    # hull of the one-sided slopes -1 and +1
    g = clarke_gradient(abs_scalar(), [0.0])
    assert isinstance(g, Box)
    assert g.lo[0] == -1.0 and g.hi[0] == 1.0


def test_clarke_linear_sum_is_singleton():
    f = smooth_scalar(3, lambda rows: rows.sum(axis=1), np.ones_like)
    for x in ([0, 0, 0], [1.5, -2, 0.25]):
        g = clarke_gradient(f, x)
        assert isinstance(g, Singleton)
        assert np.allclose(g.point, [1, 1, 1])


def test_clarke_relu_at_kink_exact():
    g = clarke_gradient(relu_scalar(), [0.0])
    assert isinstance(g, Box)
    assert g.lo[0] == 0.0 and g.hi[0] == 1.0


def test_clarke_smooth_point():
    g = clarke_gradient(relu_scalar(), [0.7])
    assert isinstance(g, Singleton) and g.point[0] == 1.0


def test_gradient_raises_on_kink():
    with pytest.raises(ValueError):
        relu_scalar().gradient([0.0])


@pytest.mark.parametrize("t", [0.5, -2.0])
@pytest.mark.parametrize("f", [0.0, 0.5, 0.9, 1.1, 2.0])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_threshold_uses_agree_at_the_tolerance_edge(t, f, side):
    """A point f tolerances from a threshold is on it exactly when f <= 1, for
    the Krasovskii hull, the classical gradient, the sliding integrator and
    the certifier's near mask alike."""
    from sadi.inclusions import integrate
    from sadi.nonsmooth import PiecewiseSmoothScalar, SmoothPiece, _near_kinks
    from sadi.sets import ExtremeVertex, FieldPiece, PiecewiseField, krasovskii

    x = t + side * f * 1e-9 * (1.0 + abs(t))
    on = f <= 1.0
    above, below = (t, math.inf, "()"), (-math.inf, t, "()")
    field = PiecewiseField(1, [
        FieldPiece((above,), lambda y: np.array([-1.0])),
        FieldPiece((below,), lambda y: np.array([1.0])),
        FieldPiece(None, lambda y: np.array([0.0])),
    ])
    assert (not isinstance(krasovskii(field, [x]), Singleton)) == on

    u = PiecewiseSmoothScalar(1, [
        SmoothPiece((above,), lambda y: y[0] - t, lambda y: np.array([1.0])),
        SmoothPiece(None, lambda y: t - y[0], lambda y: np.array([-1.0])),
    ])
    try:
        u.gradient([x])
        raised = False
    except ValueError:
        raised = True
    assert raised == on

    # off the threshold the extreme vertex along +1 is +1; sliding takes 0
    fmap = SetValuedMap(1, lambda y: krasovskii(field, y), common_bound=1.0, thresholds=[[t]])
    path = integrate(fmap, None, [x], 1e-3, 1e-3, strategy=ExtremeVertex([1.0]))
    assert (path.selector_values[0, 0] == 0.0) == on

    if on:
        assert _near_kinks(np.array([[x]]), [u])[0]


def test_declared_gradients_match_finite_differences(rng):
    fns = [squared_norm(2), _corner_hinge_sum()]
    h = 1e-6
    for fn in fns:
        checked = 0
        while checked < 100:
            x = rng.uniform(-2.5, 2.5, size=2)
            if any(abs(x[i] - t) <= 1e-3 * (1.0 + abs(t))
                   for i, ts in enumerate(fn.thresholds) for t in ts):
                continue
            grad = fn.piece_at(x).gradient(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (fn.value(x + e) - fn.value(x - e)) / (2 * h)
                assert abs(fd - grad[i]) < 1e-4
            checked += 1


def test_regularity_spot_check(rng):
    """One-sided directional quotients match the generalized directional
    derivative for the declared-regular convex pieces."""
    fn = _corner_hinge_sum()
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        forward = (fn.value(x + h * v) - fn.value(x)) / h
        verts = clarke_gradient(fn, x)
        # for convex functions the directional derivative is the support value
        expected = support(verts, v) if not isinstance(verts, Singleton) else float(
            np.dot(verts.point, v))
        assert abs(forward - expected) < 1e-3


# --- set-valued derivative ---------------------------------------------------


def test_svd_singleton_gradient_gives_support_interval():
    v = squared_norm(1)
    box = Box([-2.0], [5.0])
    m = SetValuedMap(1, lambda x: box, common_bound=5.0)
    out = set_valued_derivative(v, m, [1.0])
    # vertex enumeration oracle: p = 2, q in [-2, 5] -> [-4, 10]
    assert out == Interval(-4.0, 10.0)


def test_svd_singleton_value():
    v = smooth_scalar(2, lambda rows: rows.sum(axis=1), np.ones_like)
    m = SetValuedMap(2, lambda x: Singleton([2.0, 3.0]),
                     common_bound=4.0)
    out = set_valued_derivative(v, m, [0.0, 0.0])
    assert out == Interval(5.0, 5.0)


def test_svd_zero_gradient_collapses():
    v = squared_norm(1)
    out = set_valued_derivative(v, neg_sign_map(), [0.0])
    assert out == Interval(0.0, 0.0)


def test_svd_off_the_value_vertices():
    # v = x1 + max(x0, 0): its Clarke gradient at (0, 0.5) is the hull of
    # (0, 1) and (1, 1), so q0 = 0, which meets the box on a segment whose
    # ends are no vertex of F(x), and <(0, 1), q> = q1 ranges over [1, 3]
    from sadi.nonsmooth import PiecewiseSmoothScalar, SmoothPiece

    v = PiecewiseSmoothScalar(2, [
        SmoothPiece(((0.0, math.inf, "()"), None), lambda x: x[0] + x[1],
                    lambda x: np.array([1.0, 1.0])),
        SmoothPiece(None, lambda x: x[1], lambda x: np.array([0.0, 1.0])),
    ], regular=True)
    m = SetValuedMap(2, lambda x: Box([-1.0, 1.0], [1.0, 3.0]), common_bound=4.0)
    out = set_valued_derivative(v, m, [0.0, 0.5])
    assert out.lo == pytest.approx(1.0, abs=1e-9) and out.hi == pytest.approx(3.0, abs=1e-9)
    # a box that misses q0 = 0 leaves no value
    far = SetValuedMap(2, lambda x: Box([0.5, 1.0], [1.0, 3.0]), common_bound=4.0)
    assert set_valued_derivative(v, far, [0.0, 0.5]) is None


def test_svd_requires_regular():
    v = squared_norm(1)
    v.regular = False
    with pytest.raises(ValueError):
        set_valued_derivative(v, neg_sign_map(), [0.0])


# --- reductions --------------------------------------------------------------


def test_reduced_interval_with_hinge_collapses_to_zero():
    out = u_reduced(neg_sign_map(), [relu_scalar()], [0.0])
    assert out is not None
    assert np.allclose(out.support_point(np.array([1.0])), [0.0])
    assert support(out, [1.0]) == pytest.approx(0.0, abs=1e-9)


def test_reduced_identity_for_singleton_gradients():
    u = smooth_scalar(1, lambda rows: rows.sum(axis=1), np.ones_like)
    m = neg_sign_map()
    for x in ([0.0], [0.5], [-2.0]):
        out = u_reduced(m, [u], x)
        assert hausdorff(out, m.value(x)) <= 1e-9


def test_reduced_empty_at_spiked_corner():
    preset = rootfind_preset()
    u = preset.stability.u_list[0]
    m = preset.spec.drift.set_map
    assert u_reduced(m, [u], [1.0, 1.0]) is None
    assert u_reduced(m, [u], [1.0, 0.5]) is None


def test_reduced_empty_collection_is_identity(rng):
    m = rootfind_preset().spec.drift.set_map
    for _ in range(25):
        x = rng.uniform(-2, 2, size=2)
        out = u_reduced(m, [], x)
        assert hausdorff(out, m.value(x)) <= 1e-9


def test_reduced_segment_exact_in_plane():
    # one effective constraint in the plane: the box collapses to a segment
    from sadi.nonsmooth import PiecewiseSmoothScalar, SmoothPiece

    u = PiecewiseSmoothScalar(2, [
        SmoothPiece((None, (0.0, math.inf, "()")), lambda x: x[0] + x[1],
                    lambda x: np.array([1.0, 1.0])),
        SmoothPiece(None, lambda x: x[0], lambda x: np.array([1.0, 0.0])),
    ], regular=True)
    assert u.thresholds == [[], [0.0]]
    m = SetValuedMap(2, lambda x: Box([-1, -1], [1, 1]),
                     common_bound=2.0)
    red = u_reduced(m, [u], [0.3, 0.0])
    for p, want in (([1, 0], 1.0), ([-1, 0], 1.0), ([0, 1], 0.0), ([0, -1], 0.0)):
        assert support(red, p) == pytest.approx(want, abs=1e-7)


def _lp_hull(value, rows):
    """The reduction as a hull of HiGHS optima over the vertex weights, along
    the null-space axes of ``rows`` and 16 directions mixing them: an inner
    approximation where the null space has dimension 2 or more, and an
    oracle outside sadi, skipped where scipy is missing."""
    from sadi.nonsmooth import _CONSTANCY_TOL
    from sadi.sets import _canonical, _hull_of_points, _sphere_directions

    linprog = pytest.importorskip("scipy.optimize", exc_type=ImportError).linprog
    verts = _canonical(value)[0]
    m, scale = verts.shape[0], 1.0 + float(np.max(np.abs(verts)))
    dv = rows @ verts.T
    lp = dict(A_ub=np.vstack([dv, -dv]), b_ub=np.full(2 * rows.shape[0], _CONSTANCY_TOL * scale),
              A_eq=np.ones((1, m)), b_eq=[1.0], bounds=[(0.0, None)] * m, method="highs")
    null = np.linalg.svd(rows)[2][np.linalg.matrix_rank(rows):].T
    dirs = [sign * axis for axis in null.T for sign in (1.0, -1.0)]
    dirs += [null @ w for w in _sphere_directions(null.shape[1], 16)]
    points = [verts.T @ res.x for res in (linprog(-(verts @ p), **lp) for p in dirs)]
    return _hull_of_points(np.array(points), tol=1e-10 * scale)


def test_reduction_in_3d_holds_the_points_the_lp_hull_missed():
    """One row in 3-D leaves a null space of dimension 2: the reduction is the
    polygon where the value meets the plane q2 = 0.  Its vertices lie in the
    value and in the slab, and its support is never below the LP hull's and
    in some direction above it by more than 0.1."""
    from sadi.nonsmooth import _reduced_polytope
    from sadi.sets import Polytope, _sphere_directions, contains

    value = Polytope([[-1.75, -2.0, 1.25], [0.25, -1.0, 1.0], [-1.0, -0.25, -0.25],
                      [1.75, 1.5, -1.0], [-1.0, -0.25, -2.0], [-0.75, 1.75, 1.25]])
    rows = np.array([[0.0, 0.0, 1.0]])
    exact, lp = _reduced_polytope(value, rows), _lp_hull(value, rows)
    for q in exact.vertices:
        assert contains(value, q)
        # the slab is 1e-9 times one plus the largest |vertex coordinate|,
        # to the solves' allowance
        assert abs(q[2]) <= 1e-9 * 3.0 + 1e-12 * 3.0
    gaps = np.array([support(exact, p) - support(lp, p) for p in _sphere_directions(3, 4000)])
    assert gaps.min() >= -1e-12
    assert gaps.max() > 0.1


def test_reduction_refuses_a_ball_part_and_too_many_systems():
    import itertools

    from sadi.nonsmooth import _reduced_polytope
    from sadi.sets import Ball, Polytope, minkowski_sum

    with pytest.raises(ValueError, match="ball part"):
        _reduced_polytope(minkowski_sum(Box([-1, -1], [1, 1]), Ball([0, 0], 0.5)),
                          np.array([[0.0, 1.0]]))
    # 27 vertices under 3 independent rows: C(27, 4) supports of 4, 8 signs each
    lattice = Polytope(list(itertools.product([-1.0, 0.0, 1.0], repeat=3)))
    with pytest.raises(ValueError, match="vertex systems"):
        _reduced_polytope(lattice, np.eye(3))


def test_reduction_monotone(rng):
    """Adding a function to the collection can only shrink the reduction."""
    m = neg_sign_map()
    u1 = smooth_scalar(1, lambda rows: rows.sum(axis=1), np.ones_like)
    u2 = relu_scalar()
    dirs = [np.array([1.0]), np.array([-1.0])]
    for _ in range(40):
        x = rng.uniform(-1.5, 1.5, size=1)
        small = u_reduced(m, [u1, u2], x)
        big = u_reduced(m, [u1], x)
        if small is None:
            continue
        assert big is not None
        for p in dirs:
            assert support(small, p) <= support(big, p) + 1e-9


# --- generalized derivative ---------------------------------------------------


def test_generalized_derivative_reference_closed_form(rng):
    """-2x above the kink, 0 at it, 2x below, reproduced exactly at 100 points."""
    v = squared_norm(1)
    u = relu_scalar()
    m = neg_sign_map()
    xs = list(rng.uniform(-2, 2, size=99)) + [0.0]
    for x in xs:
        d = u_generalized_derivative(v, [u], m, [x])
        expected = -2.0 * x if x > 0 else (2.0 * x if x < 0 else 0.0)
        assert d == expected


def test_generalized_derivative_empty_is_sentinel():
    preset = rootfind_preset()
    d = u_generalized_derivative(preset.stability.v, preset.stability.u_list,
                                 preset.spec.drift.set_map, [1.0, 0.5])
    assert d == -math.inf


def test_generalized_derivative_smooth_region():
    preset = rootfind_preset()
    for w in ([0.5, -0.3], [2.5, 2.5], [-0.2, 0.8]):
        d = u_generalized_derivative(preset.stability.v, preset.stability.u_list,
                                     preset.spec.drift.set_map, w)
        w = np.asarray(w)
        assert d == pytest.approx(-2.0 * float(w @ w), abs=1e-9)


def test_derivative_dominance_support_value(rng):
    """Empty collection plus a smooth gradient reduces to the support value."""
    v = squared_norm(1)
    m = neg_sign_map()
    for _ in range(30):
        x = rng.uniform(-2, 2, size=1)
        d = u_generalized_derivative(v, [], m, x)
        assert d == support(m.value(x), 2.0 * x)


def test_nonregular_uses_max_max():
    v = squared_norm(1)
    v_nr = smooth_scalar(1, *v.rows, regular=False)
    # fake a two-point gradient hull by wrapping abs
    w = abs_scalar()
    w.regular = False
    m = SetValuedMap(1, lambda x: Box([-3.0], [2.0]),
                     common_bound=3.0)
    d = u_generalized_derivative(w, [], m, [0.0])
    # max over p in [-1, 1] of max over q in [-3, 2]: p=-1 gives 3, p=1 gives 2
    assert d == pytest.approx(3.0)
    d_smooth = u_generalized_derivative(v_nr, [], m, [1.0])
    assert d_smooth == pytest.approx(support(m.value([1.0]), [2.0]))


def _certificate(derivatives, bounds, points=None):
    """A certificate built from its columns, with the certifier's pass rule."""
    derivatives = np.asarray(derivatives, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if points is None:
        points = np.arange(1.0, derivatives.size + 1.0)[:, None]
    return StabilityCertificate((-1.0,), (1.0,), (derivatives.size,), 0.0,
                                points=np.asarray(points, dtype=float), derivatives=derivatives,
                                bounds=bounds,
                                passes=(derivatives == -math.inf) | (derivatives <= bounds + 1e-9))


def test_sentinel_semantics():
    """An empty reduction is -inf: the point passes whatever its bound, is
    left out of the margin, and prints as -inf."""
    cert = _certificate([-math.inf, -2.0, -math.inf], [-1e300, -1.0, 5.0])
    assert cert.passed and cert.passes.tolist() == [True, True, True]
    assert cert.min_margin == 1.0
    assert [r.derivative for r in cert.records] == [-math.inf, -2.0, -math.inf]
    assert [row.split(",")[1] for row in cert.to_text().splitlines()[4:]] == ["-inf", "-2",
                                                                              "-inf"]
    assert _certificate([-math.inf], [0.0]).min_margin == math.inf


def test_min_margin_with_a_nan_derivative_does_not_depend_on_grid_order():
    for derivatives in ([1.0, math.nan], [math.nan, 1.0], [math.nan, -math.inf, 1.0]):
        cert = _certificate(derivatives, [2.0] * len(derivatives))
        assert not cert.passed
        assert math.isnan(cert.min_margin)
        header = cert.to_text().splitlines()[2]
        assert "min_margin=nan passed=False" in header
        assert "min margin nan" in cert.summary() and cert.summary().endswith("1 failures")


def test_min_margin_is_the_first_least_margin_in_grid_order():
    # 0.0 and -0.0 tie: the first in grid order is kept, as a scan keeps it
    assert math.copysign(1.0, _certificate([1.0, 0.0], [1.0, -0.0]).min_margin) == 1.0
    assert math.copysign(1.0, _certificate([0.0, 1.0], [-0.0, 1.0]).min_margin) == -1.0
    assert _certificate([], []).min_margin == math.inf


# --- grid certification --------------------------------------------------------


def test_certify_simple_contraction():
    # scalar map -x with decay bound |x|^2: derivative 2x(-x) = -2x^2
    m = SetValuedMap(1, lambda x: Singleton(-x), common_bound=5.0)
    cert = certify_stability(squared_norm(1), [], m, [-2.0], [2.0], 81, 0.01,
                             squared_norm(1), name="contraction")
    assert cert.passed
    assert cert.min_margin >= 0.0
    assert len(cert.records) == 80  # the origin grid point is excluded


def test_certify_records_failures_not_raises():
    # expanding map +x cannot satisfy the decay bound
    m = SetValuedMap(1, lambda x: Singleton(np.array(x)),
                     common_bound=5.0)
    cert = certify_stability(squared_norm(1), [], m, [-1.0], [1.0], 21, 0.01,
                             squared_norm(1))
    assert not cert.passed
    assert cert.failures


def test_certificate_coordinates_keep_the_sign_of_zero():
    xs = [0.0, -0.0, 0.5, 0.0, -0.0, 0.5]
    cert = _certificate([-1.0] * 6, [0.0] * 6, points=[(x, x) for x in xs])
    rows = cert.to_text().splitlines()[4:]
    assert [row.split(",")[0] for row in rows] == ["0 0", "-0 -0", "0.5 0.5"] * 2


@pytest.mark.parametrize("dim", [1, 3])
def test_certificate_rows_print_as_artifact_cells(dim):
    # 2,500 rows, three blocks, every value repeated across them: each
    # distinct value is printed once, and must print as ``cell`` prints it
    from sadi.artifacts import Artifact, cell

    values = [-math.inf, math.inf, math.nan, -math.nan, -0.0, 0.0, 1e-300, 5e-324,
              -2.5, 1.0 / 3.0, 0.1 + 0.2]
    n = 2_500
    pick = np.array(values)
    derivatives = pick[np.arange(n) % len(values)]
    bounds = pick[(np.arange(n) * 7 // 3) % len(values)]
    points = np.stack([pick[(np.arange(n) // (j + 2) + j) % len(values)]
                       for j in range(dim)], axis=1)
    cert = _certificate(derivatives, bounds, points=points)
    with np.errstate(invalid="ignore"):  # the header's margin of inf - inf
        art, text = cert.artifact(), cert.to_text()
    rows = [[" ".join(map(cell, x)), d, b, int(ok)] for x, d, b, ok in
            zip(points.tolist(), derivatives.tolist(), bounds.tolist(), cert.passes.tolist())]
    by_cells = Artifact(art.columns, rows, comments=art.comments).lines()
    assert text == "".join(by_cells)
    assert cert.passes.any() and not cert.passes.all()


def test_certificate_serialization(tmp_path):
    m = SetValuedMap(1, lambda x: Singleton(-x), common_bound=5.0)
    cert = certify_stability(squared_norm(1), [], m, [-1.0], [1.0], 11, 0.01,
                             squared_norm(1), name="io")
    path = tmp_path / "certificate.txt"
    cert.write(path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# stability certificate")
    assert "x,derivative,bound,pass" in lines[3]
    assert len(lines) == 4 + len(cert.records)


# --- the certifier's kink classification and the emptiness pre-check ----------


def _reference_certificate(v, u_list, fmap, grid_lo, grid_hi, resolution,
                           exclude_radius, bound):
    """Every grid point through u_generalized_derivative, as the certifier
    did before off-kink points took the direct path."""
    from sadi.nonsmooth import _grid_points

    pts, res = _grid_points(grid_lo, grid_hi, resolution)
    points, derivs, thresholds, passes = [], [], [], []
    for x in pts:
        if float(np.linalg.norm(x)) <= exclude_radius:
            continue
        deriv = u_generalized_derivative(v, u_list, fmap, x)
        threshold = -bound.value(x)
        points.append(x)
        derivs.append(deriv)
        thresholds.append(threshold)
        passes.append(deriv == -math.inf or deriv <= threshold + 1e-9)
    return StabilityCertificate(
        grid_lo=tuple(np.atleast_1d(np.asarray(grid_lo, dtype=float)).tolist()),
        grid_hi=tuple(np.atleast_1d(np.asarray(grid_hi, dtype=float)).tolist()),
        resolution=res, exclude_radius=float(exclude_radius),
        points=np.array(points).reshape(-1, pts.shape[1]), derivatives=np.array(derivs),
        bounds=np.array(thresholds), passes=np.array(passes, dtype=bool))


def _bundles():
    from sadi.presets import RegressionLaw, lasso_preset, pegasos_preset

    return {
        "lasso_1d": lasso_preset(0.7).stability,
        "lasso_2d": lasso_preset(0.3, RegressionLaw(theta=[1.0, -0.5],
                                                    features="gaussian")).stability,
        "pegasos": pegasos_preset(1.0).stability,
        "pegasos_small_lam": pegasos_preset(0.1).stability,
        "rootfind": rootfind_preset().stability,
    }


def _both(bundle, grid_lo=None, grid_hi=None, resolution=None, exclude_radius=None):
    args = (bundle.v, bundle.u_list, bundle.shifted_map,
            bundle.grid_lo if grid_lo is None else grid_lo,
            bundle.grid_hi if grid_hi is None else grid_hi,
            bundle.resolution if resolution is None else resolution,
            bundle.exclude_radius if exclude_radius is None else exclude_radius,
            bundle.bound)
    return certify_stability(*args).to_text(), _reference_certificate(*args).to_text()


@pytest.mark.parametrize("name", sorted(_bundles()))
def test_certifier_matches_point_by_point_reference(name):
    fast, reference = _both(_bundles()[name])
    assert fast == reference


def test_certifier_on_and_near_rootfind_kinks():
    bundle = rootfind_preset().stability
    # resolution 13 on [-3, 3] puts points on the lines |w_i| = 1 and on
    # their four intersections
    fast, reference = _both(bundle, resolution=13)
    assert fast == reference
    assert "-inf" in fast
    # single columns just inside, at and beyond the kink tolerance and the
    # classification band around w_0 = +-1
    for kink in (1.0, -1.0):
        for offset in (0.0, 1e-10, 1.9e-9, 2.1e-9, 3.9e-9, 4.1e-9, 1e-6):
            for sign in (1.0, -1.0):
                w0 = kink + sign * offset
                fast, reference = _both(bundle, (w0, -3.0), (w0, 3.0), [1, 13])
                assert fast == reference, w0


def test_certifier_point_exactly_on_the_exclusion_radius():
    from sadi.nonsmooth import _grid_points

    bundles = _bundles()
    lasso = bundles["lasso_1d"]
    pts, _ = _grid_points(lasso.grid_lo, lasso.grid_hi, lasso.resolution)
    radius = float(abs(pts[125, 0]))  # the grid point 0.125
    for r in (radius, np.nextafter(radius, 0.0), np.nextafter(radius, 1.0)):
        fast, reference = _both(lasso, exclude_radius=r)
        assert fast == reference
    peg = bundles["pegasos"]
    pts, _ = _grid_points(peg.grid_lo, peg.grid_hi, 21)
    radius = float(np.linalg.norm(pts[13 * 21 + 12]))  # the norm of (0.6, 0.4)
    for r in (radius, np.nextafter(radius, 0.0), np.nextafter(radius, 1.0)):
        fast, reference = _both(peg, resolution=21, exclude_radius=r)
        assert fast == reference


def test_certifier_bytes_do_not_depend_on_the_precheck(monkeypatch):
    import sadi.nonsmooth

    bundle = rootfind_preset().stability

    def certificate():
        return certify_stability(bundle.v, bundle.u_list, bundle.shifted_map,
                                 bundle.grid_lo, bundle.grid_hi, 25,
                                 bundle.exclude_radius, bundle.bound, name="r").to_text()

    with_check = certificate()
    solves = []
    solve = sadi.nonsmooth._slab_vertices

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sadi.nonsmooth, "_outside_slab", lambda dv, bound: False)
    monkeypatch.setattr(sadi.nonsmooth, "_slab_vertices", counted)
    assert certificate() == with_check
    assert solves  # the on-kink points went through the vertex systems


def test_on_kink_reductions_solve_no_lp(monkeypatch):
    import sadi.nonsmooth

    def no_solve(*args, **kwargs):
        raise AssertionError("a reduction's vertex systems were solved")

    monkeypatch.setattr(sadi.nonsmooth, "_slab_vertices", no_solve)
    cert = rootfind_preset().stability.certify()
    assert sum(r.derivative == -math.inf for r in cert.records) == 480


def test_rootfind_near_kink_points_are_decided_on_rows(monkeypatch):
    import sadi.nonsmooth

    calls = []
    per_point = sadi.nonsmooth.u_generalized_derivative

    def counted(*args, **kwargs):
        calls.append(args[3])
        return per_point(*args, **kwargs)

    monkeypatch.setattr(sadi.nonsmooth, "u_generalized_derivative", counted)
    cert = rootfind_preset().stability.certify()
    # the 480 near-kink points went one at a time through the per-point
    # derivative; the slab test on rows decides all of them, the four
    # corners (+-1, +-1) included
    assert calls == []
    assert np.count_nonzero(cert.derivatives == -math.inf) == 480


_GRID = dict(grid_lo=[-1.0, -1.0], grid_hi=[1.0, 1.0], resolution=5, exclude_radius=0.01)


_BAD_GRIDS = {
    # name: (the change to a good grid, the argument the error names)
    "resolution_0": (dict(resolution=0), "exclude_radius"),
    "radius_covers_the_grid": (dict(exclude_radius=1.5), "exclude_radius"),
    "radius_inf": (dict(exclude_radius=math.inf), "exclude_radius"),
    "resolution_2.7": (dict(resolution=2.7), "resolution"),
    "resolution_negative": (dict(resolution=-1), "resolution"),
    "resolution_3_entries": (dict(resolution=[5, 5, 5]), "resolution"),
    "grid_lo_1_entry": (dict(grid_lo=[-1.0]), "grid_lo"),
    "grid_lo_scalar": (dict(grid_lo=-1.0), "grid_lo"),
    "grid_hi_3_entries": (dict(grid_hi=[1.0, 1.0, 1.0]), "grid_hi"),
    "radius_nan": (dict(exclude_radius=math.nan), "exclude_radius"),
    "radius_negative": (dict(exclude_radius=-0.5), "exclude_radius"),
}


@pytest.mark.parametrize("name", list(_BAD_GRIDS))
def test_certify_refuses_a_malformed_or_empty_grid(name):
    change, arg = _BAD_GRIDS[name]
    b = rootfind_preset().stability
    grid = {**_GRID, **change}
    with pytest.raises(ValueError, match=arg):
        certify_stability(b.v, b.u_list, b.shifted_map, grid["grid_lo"], grid["grid_hi"],
                          grid["resolution"], grid["exclude_radius"], b.bound)
    certify_stability(b.v, b.u_list, b.shifted_map, *_GRID.values(), b.bound)


def _slab_lp_infeasible(dv, bound):
    """The feasibility LP of the slab weights on the same rows, by scipy's
    HiGHS: an oracle outside sadi, skipped where scipy is missing."""
    linprog = pytest.importorskip("scipy.optimize", exc_type=ImportError).linprog
    k, m = dv.shape
    res = linprog(np.zeros(m), A_ub=np.vstack([dv, -dv]), b_ub=np.full(2 * k, bound),
                  A_eq=np.ones((1, m)), b_eq=np.array([1.0]),
                  bounds=[(0.0, None)] * m, method="highs")
    return res.status == 2


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_emptiness_precheck_implies_an_infeasible_lp(data):
    from sadi.nonsmooth import _EMPTY_GUARD, _outside_slab, _slab_vertices

    k = data.draw(st.integers(1, 3), label="rows")
    m = data.draw(st.integers(1, 6), label="vertices")
    dv = np.array(data.draw(st.lists(st.lists(st.floats(-3.0, 3.0, **_finite),
                                              min_size=m, max_size=m),
                                     min_size=k, max_size=k), label="dv"))
    bound = 1e-9 * data.draw(st.floats(1.0, 10.0, **_finite), label="scale")
    # move one row off the slab by a multiple of the guard, near 1 on purpose
    ratio = data.draw(st.one_of(st.sampled_from([0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 1e3]),
                                st.floats(0.0, 5.0, **_finite)), label="ratio")
    row = data.draw(st.integers(0, k - 1), label="row")
    sign = data.draw(st.sampled_from([1.0, -1.0]), label="side")
    spread = np.abs(dv[row]) - np.min(np.abs(dv[row]))
    for _ in range(4):  # the guard scales with the largest |dv|
        guard = _EMPTY_GUARD * (1.0 + float(np.max(np.abs(dv))))
        dv[row] = sign * (bound + ratio * guard + spread)
    guard = _EMPTY_GUARD * (1.0 + float(np.max(np.abs(dv))))
    miss = max(float(np.max(dv.min(axis=1) - bound)), float(np.max(-bound - dv.max(axis=1))))

    empty = _outside_slab(dv, bound)
    if empty:
        assert not _slab_vertices(np.eye(m), dv, bound, k).size
        assert _slab_lp_infeasible(dv, bound)
    assert empty == (miss > guard)
    if miss <= guard:
        # inside the guard band (or on the slab) the vertex systems decide
        assert not empty


@settings(max_examples=40, deadline=None, derandomize=True)
@given(verts=st.lists(st.lists(st.floats(-3.0, 3.0, **_finite), min_size=2, max_size=2),
                      min_size=1, max_size=6),
       row=st.lists(st.floats(-2.0, 2.0, **_finite), min_size=2, max_size=2))
def test_reduction_precheck_matches_the_lp(verts, row):
    """_reduced_polytope returns None by the pre-check only where the vertex
    systems alone also return None, and otherwise the same set."""
    import sadi.nonsmooth
    from sadi.nonsmooth import _reduced_polytope
    from sadi.sets import Polytope

    rows = np.array([row])
    value = Polytope(np.array(verts))
    reduced = _reduced_polytope(value, rows)
    original = sadi.nonsmooth._outside_slab
    sadi.nonsmooth._outside_slab = lambda dv, bound: False
    try:
        solved = _reduced_polytope(value, rows)
    finally:
        sadi.nonsmooth._outside_slab = original
    assert (reduced is None) == (solved is None)
    if reduced is not None:
        assert repr(reduced) == repr(solved)
