"""Convex-set machinery: support functions, membership, the set metric,
hull regularization, and selectors, checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadi.sets import (
    Ball,
    Box,
    Cell,
    CellTable,
    CustomSelector,
    ExtremeVertex,
    LeastNorm,
    Midpoint,
    MinkowskiSum,
    PiecewiseField,
    FieldPiece,
    Polytope,
    Scaled,
    SetValuedMap,
    Singleton,
    UniformVertex,
    contains,
    hausdorff,
    krasovskii,
    least_norm_point,
    minkowski_sum,
    nearest_point,
    scale,
    select,
    support,
)
from sadi.sets import _project_simplex_combo, canonical_vertices
from conftest import neg_sign_field, neg_sign_map


# --- oracles ---------------------------------------------------------------


def support_by_vertices(vertices, p):
    return max(float(np.dot(v, p)) for v in vertices)


def ball_support_by_sampling(center, radius, p, n=200_000):
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * radius + np.asarray(center)
    return float(np.max(pts @ np.asarray(p)))


def barycentric_inside(vertices, v):
    # 2-D triangle membership through barycentric coordinates
    a, b, c = (np.asarray(x, dtype=float) for x in vertices)
    m = np.column_stack([b - a, c - a])
    lam = np.linalg.solve(m, np.asarray(v, dtype=float) - a)
    return lam[0] >= -1e-12 and lam[1] >= -1e-12 and lam.sum() <= 1 + 1e-12


# --- support ---------------------------------------------------------------


def test_support_box_matches_vertex_oracle():
    box = Box([-1, -1], [1, 1])
    corners = list(itertools.product((-1, 1), repeat=2))
    assert support(box, [1, 1]) == support_by_vertices(corners, [1, 1]) == 2.0


def test_support_singleton():
    a = np.array([0.3, -2.0, 5.0])
    s = Singleton(a)
    p = np.array([1.0, 2.0, -0.5])
    assert support(s, p) == pytest.approx(float(p @ a), abs=0.0)


def test_support_ball_matches_sampling_oracle():
    got = support(Ball([0, 0], 1.0), [3, 4])
    oracle = ball_support_by_sampling([0, 0], 1.0, [3, 4])
    assert got == pytest.approx(5.0, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_support_dimension_mismatch():
    with pytest.raises(ValueError):
        support(Box([-1], [1]), [1, 0])


def test_support_random_consistency(rng):
    """Sum and scaling laws over 100 random directions, 1e-12 relative."""
    a = Box([-1, 0], [2, 3])
    b = Polytope([[0, 0], [1, 0], [0, 1]])
    c = Ball([0.5, -0.5], 0.7)
    s = minkowski_sum(a, b)
    k = 2.5
    sc = scale(k, c)
    for _ in range(100):
        p = rng.standard_normal(2)
        lhs = support(s, p)
        rhs = support(a, p) + support(b, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert support(sc, p) == pytest.approx(k * support(c, p), rel=1e-12, abs=1e-12)


# --- membership ------------------------------------------------------------


def test_contains_box_interior_and_outside():
    box = Box([-1], [1])
    assert contains(box, [0.0], 0.0)
    assert not contains(box, [1.5], 0.0)


def test_contains_triangle_matches_barycentric_oracle():
    verts = [[0, 0], [1, 0], [0, 1]]
    tri = Polytope(verts)
    assert barycentric_inside(verts, [0.25, 0.25])
    assert contains(tri, [0.25, 0.25], 0.0)
    assert not barycentric_inside(verts, [0.9, 0.9])
    assert not contains(tri, [0.9, 0.9], 0.0)


def test_contains_rejects_negative_tol():
    with pytest.raises(ValueError):
        contains(Box([-1], [1]), [0.0], -1.0)


# --- minkowski sum and scaling ---------------------------------------------


def test_minkowski_interval_oracle():
    s = minkowski_sum(Box([-1], [1]), Singleton([2]))
    # interval arithmetic oracle: [-1,1] + {2} = [1,3]
    assert support(s, [1.0]) == 3.0
    assert support(s, [-1.0]) == -1.0


def test_minkowski_identity():
    a = Polytope([[0, 1], [2, -1], [1, 1]])
    s = minkowski_sum(a, Singleton([0, 0]))
    for p in np.eye(2).tolist() + [[0.3, -0.7], [-1, -1]]:
        assert support(s, p) == pytest.approx(support(a, p), abs=0.0)


def test_minkowski_ball_radii_add():
    s = minkowski_sum(Ball([0, 0], 1.0), Ball([0, 0], 2.0))
    for p in ([1, 0], [0, 1], [0.6, 0.8]):
        assert support(s, p) == pytest.approx(3.0, rel=1e-12)


def test_minkowski_dim_mismatch():
    with pytest.raises(ValueError):
        minkowski_sum(Box([-1], [1]), Box([-1, -1], [1, 1]))


def test_scale_zero_is_origin():
    s = scale(0.0, Ball([3, 3], 2.0))
    for p in ([1, 0], [0, -1], [2, 1]):
        assert support(s, p) == 0.0


def test_scale_interval_oracle():
    s = scale(2.0, Box([-1], [1]))
    assert support(s, [1.0]) == 2.0  # interval oracle: 2*[-1,1] = [-2,2]


def test_scale_identity_and_negative():
    a = Polytope([[1, 2], [-1, 0]])
    one = scale(1.0, a)
    for p in ([1, 0], [0, 1], [-0.2, 0.9]):
        assert support(one, p) == support(a, p)
    with pytest.raises(ValueError):
        scale(-0.5, a)


# --- the sum-of-directed-distances metric ----------------------------------


def test_hausdorff_identity():
    assert hausdorff(Box([-1, 0], [1, 1]), Box([-1, 0], [1, 1])) == 0.0
    with_ball = MinkowskiSum(Box([-1, 0], [1, 1]), Ball([0, 0], 0.5))
    assert hausdorff(with_ball, with_ball) <= 1e-12


def test_hausdorff_point_vs_interval():
    # directed distances are 1 (interval to point) and 0 (point to interval)
    assert hausdorff(Singleton([0.0]), Box([-1], [1])) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_disjoint_intervals():
    # endpoint enumeration: directed distances 2 and 2
    assert hausdorff(Box([0], [1]), Box([2], [3])) == pytest.approx(4.0, abs=1e-12)


def test_hausdorff_requires_enough_directions():
    with pytest.raises(ValueError):
        hausdorff(Box([0], [1]), Box([0], [1]), n_dirs=1)


def test_hausdorff_axioms_sampled(rng):
    sets = [
        Box([-1, -1], [1, 1]),
        Singleton([0.5, 0.5]),
        Ball([0, 0], 1.0),
        Polytope([[0, 0], [2, 0], [0, 2]]),
        minkowski_sum(Box([0, 0], [1, 1]), Singleton([-0.5, 0.25])),
    ]
    for a in sets:
        assert hausdorff(a, a) <= 1e-12
    for a, b in itertools.combinations(sets, 2):
        assert hausdorff(a, b) == pytest.approx(hausdorff(b, a), abs=1e-9)
    for a, b, c in itertools.permutations(sets, 3):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-6


# --- projections -----------------------------------------------------------


def test_nearest_point_box():
    assert np.allclose(nearest_point(Box([-1, -1], [1, 1]), [2.0, 0.5]), [1.0, 0.5])


def test_nearest_point_polytope_matches_edge_oracle(rng):
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    poly = Polytope(verts)
    y = np.array([1.5, 1.5])
    got = nearest_point(poly, y)
    # edge-parametrization oracle: scan the facet from (2,0) to (0,1)
    t = np.linspace(0.0, 1.0, 2_000_001)
    edge = np.array([2.0, 0.0]) + t[:, None] * np.array([-2.0, 1.0])
    best = edge[np.argmin(np.linalg.norm(edge - y, axis=1))]
    assert np.linalg.norm(got - y) <= np.linalg.norm(best - y) + 1e-9
    assert np.allclose(got, best, atol=2e-6)
    assert np.allclose(got, [1.0, 0.5], atol=1e-12)


@pytest.mark.parametrize("k", [1e-300, 1e-310])
@pytest.mark.parametrize("inner, exact", [
    (Singleton([1.0, 2.0]), [1.0, 2.0]),
    (Box([-1.0, -1.0], [1.0, 1.0]), [1.0, 1.0]),
    (Ball([0.0, 0.0], 1.0), [0.5 ** 0.5, 0.5 ** 0.5]),
    (Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]), [1.0, 1.0]),
], ids=["singleton", "box", "ball", "polytope"])
def test_nearest_point_of_a_tiny_scaled_set_is_finite_and_in_the_set(k, inner, exact):
    # k * nearest(inner, y / k) overflows y / k; the scaled set's own point
    # k * exact is no closer to y than the answer, to float precision
    y = np.array([1.0, 1.0])
    s = Scaled(k, inner)
    got = nearest_point(s, y)
    assert np.isfinite(got).all()
    assert contains(s, got, 0.0)
    assert np.linalg.norm(got - y) <= np.linalg.norm(k * np.array(exact) - y)


def test_least_norm_shifted_box():
    s = minkowski_sum(Singleton([2.0]), Box([-1], [1]))
    assert np.allclose(least_norm_point(s), [1.0])


# --- the hull regularization operator --------------------------------------


def test_krasovskii_neg_sign_at_origin():
    k = krasovskii(neg_sign_field(), [0.0])
    assert isinstance(k, Box)
    assert k.lo[0] == -1.0 and k.hi[0] == 1.0


def test_krasovskii_continuous_field_is_singleton():
    field = PiecewiseField(
        2, [FieldPiece(lambda x: True, lambda x: 2.0 * x)], thresholds=[[], []])
    for x in ([0.0, 0.0], [1.5, -0.3]):
        k = krasovskii(field, x)
        assert isinstance(k, Singleton)
        assert np.allclose(k.point, 2.0 * np.asarray(x))


def test_krasovskii_penalized_sign_component():
    k = krasovskii(neg_sign_field(scale=0.7), [0.0])
    assert k.lo[0] == -0.7 and k.hi[0] == 0.7


def test_krasovskii_interior_law(rng):
    field = neg_sign_field()
    for _ in range(50):
        x = rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])
        k = krasovskii(field, [x])
        assert isinstance(k, Singleton)
        assert k.point[0] == (-1.0 if x > 0 else 1.0)


def test_krasovskii_hull_law_two_dims():
    # componentwise -sign in the plane: one-sided limits land in the hull
    def corner(sx, sy):
        return FieldPiece(
            lambda x, sx=sx, sy=sy: sx * x[0] > 0 and sy * x[1] > 0,
            lambda x, sx=sx, sy=sy: np.array([-float(sx), -float(sy)]))

    pieces = [corner(sx, sy) for sx in (1, -1) for sy in (1, -1)]
    pieces.append(FieldPiece(lambda x: True, lambda x: np.zeros(2)))
    field = PiecewiseField(2, pieces, thresholds=[[0.0], [0.0]])
    k = krasovskii(field, [0.0, 0.0])
    for value in ([-1, -1], [-1, 1], [1, -1], [1, 1]):
        assert contains(k, value, 1e-12)
    k_edge = krasovskii(field, [0.0, 0.5])
    for value in ([-1, -1], [1, -1]):
        assert contains(k_edge, value, 1e-12)


def test_krasovskii_multiple_thresholds_per_coordinate():
    field = PiecewiseField(1, [
        FieldPiece(lambda x: x[0] > 1, lambda x: np.array([5.0])),
        FieldPiece(lambda x: x[0] > 0, lambda x: np.array([3.0])),
        FieldPiece(lambda x: True, lambda x: np.array([1.0])),
    ], thresholds=[[0.0, 1.0]])
    k0 = krasovskii(field, [0.0])
    k1 = krasovskii(field, [1.0])
    assert (k0.lo[0], k0.hi[0]) == (1.0, 3.0)
    assert (k1.lo[0], k1.hi[0]) == (3.0, 5.0)
    mid = krasovskii(field, [0.5])
    assert isinstance(mid, Singleton) and mid.point[0] == 3.0


def test_krasovskii_unaligned_locus_errors():
    # diagonal discontinuity with no declared threshold on the probe path
    field = PiecewiseField(
        1,
        [FieldPiece(lambda x: x[0] > 1.0, lambda x: np.array([1.0]))],
        thresholds=[[0.0]],
    )
    with pytest.raises(ValueError):
        krasovskii(field, [0.0])


# --- selectors -------------------------------------------------------------


def _interval_map(lo=-1.0, hi=1.0):
    box = Box([lo], [hi])
    return SetValuedMap(1, lambda x: box, common_bound=max(abs(lo), abs(hi)))


def test_select_singleton_any_strategy(rng):
    target = np.array([1.5, -2.0])
    m = SetValuedMap(2, lambda x: Singleton(target), common_bound=3.0)
    for strategy in (LeastNorm(), ExtremeVertex([1.0, 0.0]), Midpoint(), UniformVertex()):
        assert np.allclose(select(m, [0.0, 0.0], strategy, rng), target)


def test_select_least_norm_at_discontinuity():
    m = neg_sign_map()
    assert select(m, [0.0], LeastNorm())[0] == 0.0


def test_select_hinge_sample_below_margin():
    # per-sample hinge subgradient: value {y*x} when y*w.x < 1
    x = np.array([0.5, -1.0])
    y = 1.0

    def rule(w):
        margin = y * float(w @ x)
        if margin > 1.0:
            return Singleton(np.zeros(2))
        if margin < 1.0:
            return Singleton(y * x)
        return Polytope(np.stack([np.zeros(2), y * x]))

    m = SetValuedMap(2, rule, common_bound=float(np.linalg.norm(x)))
    w = np.array([0.1, 0.1])
    assert y * float(w @ x) < 1.0
    assert np.allclose(select(m, w, LeastNorm()), y * x)


def test_selector_membership_property(rng):
    maps = [neg_sign_map(), _interval_map(-0.7, 0.7)]
    strategies = [LeastNorm(), ExtremeVertex([1.0]), Midpoint(), UniformVertex()]
    for _ in range(1000):
        m = maps[int(rng.integers(len(maps)))]
        strategy = strategies[int(rng.integers(len(strategies)))]
        x = rng.uniform(-2, 2, size=1)
        v = select(m, x, strategy, rng)
        assert contains(m.value(x), v, 1e-9)


def test_uniform_vertex_consumes_one_draw(rng):
    m = _interval_map()
    state = rng.bit_generator.state
    select(m, [0.0], UniformVertex(), rng)
    after_one = rng.bit_generator.state
    rng.bit_generator.state = state
    rng.random()
    assert rng.bit_generator.state == after_one


def test_custom_selector_validated():
    m = _interval_map()
    bad = CustomSelector(lambda value, x, rng: np.array([5.0]))
    with pytest.raises(ValueError):
        select(m, [0.0], bad)
    good = CustomSelector(lambda value, x, rng: np.array([0.25]))
    assert select(m, [0.0], good)[0] == 0.25


def test_boundedness_audit(rng):
    m = neg_sign_map(scale=0.7)
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=1)
        v = select(m, x, LeastNorm())
        assert np.linalg.norm(v) <= m.common_bound + 1e-9


def test_first_match_semantics():
    m = CellTable(1, [
        Cell(lambda x: x[0] >= 0, (1.0,), (1.0,)),
        Cell(lambda x: x[0] >= -1, (2.0,), (2.0,)),
        Cell(None, (3.0,), (3.0,)),
    ])
    assert m.value([0.5]).point[0] == 1.0
    assert m.value([-0.5]).point[0] == 2.0
    assert m.value([-2.0]).point[0] == 3.0


# --- contract properties ------------------------------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False)


def _vectors(d, bound=3.0):
    return st.lists(st.floats(-bound, bound, **_finite), min_size=d, max_size=d)


@st.composite
def _composites(draw, d, budget=8, depth=2, balls=False):
    """A set of dimension d built from points, boxes, polytopes (and balls)
    by Minkowski sums and scalings, with at most ``budget`` canonical
    vertices, since exact projection enumerates their subsets."""
    kinds = ["point", "polytope"] + (["box"] if 2 ** d <= budget else [])
    kinds += (["ball"] if balls else []) + (["sum", "scaled"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "point":
        return Singleton(draw(_vectors(d))), 1
    if kind == "ball":
        return Ball(draw(_vectors(d)), draw(st.floats(0.0, 2.0, **_finite))), 1
    if kind == "box":
        a, b = np.array(draw(_vectors(d))), np.array(draw(_vectors(d)))
        return Box(np.minimum(a, b), np.maximum(a, b)), 2 ** d
    if kind == "polytope":
        k = draw(st.integers(1, min(4, budget)))
        return Polytope(draw(st.lists(_vectors(d), min_size=k, max_size=k))), k
    if kind == "scaled":
        inner, n = draw(_composites(d, budget, depth - 1, balls))
        return Scaled(draw(st.floats(0.0, 2.0, **_finite)), inner), n
    left, n = draw(_composites(d, max(1, budget // 2), depth - 1, balls))
    right, m = draw(_composites(d, budget // n, depth - 1, balls))
    return MinkowskiSum(left, right), n * m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_nearest_point_matches_the_subset_oracle(data):
    d = data.draw(st.integers(1, 3), label="dim")
    s, _ = data.draw(_composites(d), label="set")
    vertices = canonical_vertices(s)
    assert vertices.shape[0] <= 8
    y = np.array(data.draw(_vectors(d, 10.0), label="y"))
    got = nearest_point(s, y)
    oracle = _project_simplex_combo(vertices, y)
    assert contains(s, got, 1e-9)
    assert np.linalg.norm(got - y) <= np.linalg.norm(oracle - y) + 1e-9


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_selection_lies_in_the_value_for_every_strategy(data):
    d = data.draw(st.integers(1, 3), label="dim")
    s, _ = data.draw(_composites(d, balls=True), label="set")
    # the value moves with the state, so the selection is taken at x
    m = SetValuedMap(d, lambda x: minkowski_sum(s, Singleton(0.5 * x)), common_bound=100.0)
    x = np.array(data.draw(_vectors(d), label="x"))
    strategy = data.draw(st.sampled_from([
        LeastNorm(), Midpoint(), UniformVertex(),
        ExtremeVertex(data.draw(_vectors(d), label="direction")),
        CustomSelector(lambda value, x, rng: value.support_point(np.ones(x.shape[0]))),
    ]), label="strategy")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    assert contains(m.value(x), select(m, x, strategy, rng), 1e-9)
