"""Clarke gradients, set-valued derivatives, reductions, generalized decay
derivatives, and the grid certifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadi.nonsmooth import (
    NEG_INFINITY,
    Interval,
    NegInfinity,
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
    f = smooth_scalar(3, lambda x: float(np.sum(x)), lambda x: np.ones(3))
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


def test_declared_gradients_match_finite_differences(rng):
    fns = [squared_norm(2), _corner_hinge_sum()]
    h = 1e-6
    for fn in fns:
        checked = 0
        while checked < 100:
            x = rng.uniform(-2.5, 2.5, size=2)
            if fn.active_kinks(x, tol=1e-3):
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
    v = smooth_scalar(2, lambda x: float(np.sum(x)), lambda x: np.ones(2))
    m = SetValuedMap(2, lambda x: Singleton([2.0, 3.0]),
                     common_bound=4.0)
    out = set_valued_derivative(v, m, [0.0, 0.0])
    assert out == Interval(5.0, 5.0)


def test_svd_zero_gradient_collapses():
    v = squared_norm(1)
    out = set_valued_derivative(v, neg_sign_map(), [0.0])
    assert out == Interval(0.0, 0.0)


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
    u = smooth_scalar(1, lambda x: float(np.sum(x)), lambda x: np.ones(1))
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
    from sadi.nonsmooth import KinkSurface, PiecewiseSmoothScalar, SmoothPiece

    u = PiecewiseSmoothScalar(2, [
        SmoothPiece(lambda x: x[1] > 0, lambda x: x[0] + x[1],
                    lambda x: np.array([1.0, 1.0])),
        SmoothPiece(lambda x: True, lambda x: x[0], lambda x: np.array([1.0, 0.0])),
    ], kinks=[KinkSurface.coordinate(1, 0.0, 2)], regular=True)
    m = SetValuedMap(2, lambda x: Box([-1, -1], [1, 1]),
                     common_bound=2.0)
    red = u_reduced(m, [u], [0.3, 0.0])
    for p, want in (([1, 0], 1.0), ([-1, 0], 1.0), ([0, 1], 0.0), ([0, -1], 0.0)):
        assert support(red, p) == pytest.approx(want, abs=1e-7)


def test_reduction_monotone(rng):
    """Adding a function to the collection can only shrink the reduction."""
    m = neg_sign_map()
    u1 = smooth_scalar(1, lambda x: float(np.sum(x)), lambda x: np.ones(1))
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
    assert d is NEG_INFINITY


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
    v_nr = smooth_scalar(1, v.pieces[0].value, v.pieces[0].gradient, regular=False)
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


def test_sentinel_semantics():
    assert NEG_INFINITY <= 0.0
    assert NEG_INFINITY < -1e300
    assert not (NEG_INFINITY > -1e300)
    assert NEG_INFINITY == NegInfinity()
    with pytest.raises(TypeError):
        NEG_INFINITY + 1.0  # noqa: B018  -- arithmetic must not propagate


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
    from sadi.nonsmooth import GridRecord, StabilityCertificate

    cert = StabilityCertificate((-1.0,), (1.0,), (3,), 0.0)
    for x in (0.0, -0.0, 0.5, 0.0, -0.0, 0.5):
        cert.records.append(GridRecord((x, x), -1.0, 0.0, True))
    rows = cert.to_text().splitlines()[4:]
    assert [row.split(",")[0] for row in rows] == ["0 0", "-0 -0", "0.5 0.5"] * 2


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
    from sadi.nonsmooth import GridRecord, StabilityCertificate, _grid_points

    pts, res = _grid_points(grid_lo, grid_hi, resolution)
    cert = StabilityCertificate(
        grid_lo=tuple(np.atleast_1d(np.asarray(grid_lo, dtype=float)).tolist()),
        grid_hi=tuple(np.atleast_1d(np.asarray(grid_hi, dtype=float)).tolist()),
        resolution=res, exclude_radius=float(exclude_radius))
    for x in pts:
        if float(np.linalg.norm(x)) <= exclude_radius:
            continue
        deriv = u_generalized_derivative(v, u_list, fmap, x)
        threshold = -bound.value(x)
        ok = True if isinstance(deriv, NegInfinity) else deriv <= threshold + 1e-9
        cert.records.append(GridRecord(tuple(x.tolist()), deriv, threshold, ok))
    return cert


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
    lps = []
    solve = sadi.nonsmooth.linprog

    def counted(*args, **kwargs):
        lps.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sadi.nonsmooth, "_outside_slab", lambda dv, bound: False)
    monkeypatch.setattr(sadi.nonsmooth, "linprog", counted)
    assert certificate() == with_check
    assert lps  # the on-kink points went through HiGHS


def test_on_kink_reductions_solve_no_lp(monkeypatch):
    import sadi.nonsmooth

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(sadi.nonsmooth, "linprog", no_lp)
    cert = rootfind_preset().stability.certify()
    assert sum(isinstance(r.derivative, NegInfinity) for r in cert.records) == 480


def _slab_lp_infeasible(dv, bound):
    """The feasibility LP of _reduced_polytope on the same rows."""
    from sadi.nonsmooth import linprog

    k, m = dv.shape
    res = linprog(np.zeros(m), A_ub=np.vstack([dv, -dv]), b_ub=np.full(2 * k, bound),
                  A_eq=np.ones((1, m)), b_eq=np.array([1.0]),
                  bounds=[(0.0, None)] * m, method="highs")
    return res.status == 2


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_emptiness_precheck_implies_an_infeasible_lp(data):
    from sadi.nonsmooth import _EMPTY_GUARD, _outside_slab

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
        assert _slab_lp_infeasible(dv, bound)
    assert empty == (miss > guard)
    if miss <= guard:
        # inside the guard band (or on the slab) the LP decides
        assert not empty


@settings(max_examples=40, deadline=None, derandomize=True)
@given(verts=st.lists(st.lists(st.floats(-3.0, 3.0, **_finite), min_size=2, max_size=2),
                      min_size=1, max_size=6),
       row=st.lists(st.floats(-2.0, 2.0, **_finite), min_size=2, max_size=2))
def test_reduction_precheck_matches_the_lp(verts, row):
    """_reduced_polytope returns None by the pre-check only where the LP
    path alone also returns None."""
    import sadi.nonsmooth
    from sadi.nonsmooth import _reduced_polytope
    from sadi.sets import Polytope

    rows = np.array([row])
    value = Polytope(np.array(verts))
    reduced = _reduced_polytope(value, rows)
    original = sadi.nonsmooth._outside_slab
    sadi.nonsmooth._outside_slab = lambda dv, bound: False
    try:
        lp_only = _reduced_polytope(value, rows)
    finally:
        sadi.nonsmooth._outside_slab = original
    assert (reduced is None) == (lp_only is None)
    if reduced is not None:
        assert repr(reduced) == repr(lp_only)
