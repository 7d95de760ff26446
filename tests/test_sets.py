"""Convex-set machinery: support functions, membership, the set metric,
hull regularization, and selectors, checked against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sadi.sets import (
    Ball,
    Box,
    Cell,
    CellTable,
    ConvexSet,
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
from sadi.sets import canonical_vertices
import sadi.sets as sets_module
from sadi.nonsmooth import PiecewiseSmoothScalar, SmoothPiece
from conftest import NEGATIVE, POSITIVE, neg_sign_field, neg_sign_map


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


def project_by_subsets(vertices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Projection of y onto hull(vertices), enumerating the KKT systems of
    every vertex subset: each candidate solves the equality-constrained least
    squares on the affine hull of the subset and is kept when its weights are
    feasible.  Exponential in the vertex count."""
    m = vertices.shape[0]
    if m == 1:
        return np.array(vertices[0])
    best = None
    best_dist = math.inf
    # single vertices first: cheap and always feasible
    for i in range(m):
        dist = float(np.dot(vertices[i] - y, vertices[i] - y))
        if dist < best_dist - 1e-18:
            best_dist = dist
            best = vertices[i]
    for size in range(2, m + 1):
        for subset in itertools.combinations(range(m), size):
            vs = vertices[list(subset)]
            # minimize |vs^T lam - y|^2 s.t. sum lam = 1 via KKT
            g = vs @ vs.T
            k = len(subset)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * g
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([2.0 * (vs @ y), [1.0]])
            try:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            except np.linalg.LinAlgError:
                continue
            lam = sol[:k]
            if np.any(lam < -1e-12):
                continue
            lam = np.clip(lam, 0.0, None)
            tot = lam.sum()
            if tot <= 0.0:
                continue
            lam = lam / tot
            pt = vs.T @ lam
            dist = float(np.dot(pt - y, pt - y))
            if dist < best_dist - 1e-18:
                best_dist = dist
                best = pt
    return np.array(best)


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


@pytest.mark.parametrize("s, v", [
    (Ball([0.0, 0.0], 1.0), [0.8, 0.8]),
    (Polytope([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), [0.6, 0.4, 0.0]),
    (Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
     [0.4, 0.4, 0.4]),
], ids=["ball", "segment", "tetrahedron"])
def test_contains_rejects_a_point_outside_every_axis_face(s, v):
    # each point passes the support test along the axes and the vertex
    # differences, but lies more than 0.1 from the set
    assert np.linalg.norm(nearest_point(s, v) - v) > 0.1
    assert not contains(s, v, 1e-9)


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


def _polygon_distance(p, verts):
    """Distance from p to the convex polygon of counterclockwise ``verts``:
    0 inside, else the least distance to an edge segment."""
    edges = list(zip(verts, np.roll(verts, -1, axis=0)))
    if all((b - a)[0] * (p - a)[1] >= (b - a)[1] * (p - a)[0] for a, b in edges):
        return 0.0
    return min(np.linalg.norm(p - (a + np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0, 1)
                                   * (b - a))) for a, b in edges)


def test_hausdorff_of_polytopes_is_exact_between_sampled_directions():
    # B's far vertex is 0.5 from A's corner (1, 0), in a direction half way
    # between two of 64 sampled directions: the support functions there
    # differ by 0.5*cos(2.8125 deg) at most, so a sampled bound falls short
    theta = math.radians(5.625 / 2)
    a_verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b_verts = np.array([[0.3, 0.1], [1.0 + 0.5 * math.cos(theta), 0.5 * math.sin(theta)],
                        [0.2, 0.2]])
    a, b = Polytope(a_verts), Polytope(b_verts)
    b_to_a = max(_polygon_distance(v, a_verts) for v in b_verts)
    brute = max(_polygon_distance(v, b_verts) for v in a_verts) + b_to_a
    dirs = sets_module._sphere_directions(2, 64)
    sampled = max(support(b, u) - support(a, u) for u in dirs)
    assert b_to_a == pytest.approx(0.5, abs=1e-12) and sampled < b_to_a - 5e-4
    got = [hausdorff(a, b, n_dirs=n) for n in (4, 8, 64, 4096)]
    assert got[0] == pytest.approx(brute, abs=1e-12)
    assert got == [got[0]] * 4


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


def test_nearest_point_of_a_tiny_ball_and_of_a_far_query():
    # the squares of these offsets and radii leave the normal range
    tiny = Ball([0.0, 0.0], 1e-300)
    assert np.allclose(nearest_point(tiny, [2e-300, 0.0]), [1e-300, 0.0], rtol=1e-15, atol=0.0)
    assert not contains(tiny, [2e-300, 0.0], 0.0)
    assert np.allclose(nearest_point(Ball([0.0, 0.0], 1e-160), [2e-160, 0.0]), [1e-160, 0.0],
                       rtol=1e-15, atol=0.0)
    assert np.allclose(nearest_point(Ball([0.0, 0.0], 1.0), [1e200, 0.0]), [1.0, 0.0],
                       rtol=1e-15, atol=0.0)
    assert np.allclose(nearest_point(Ball([0.0, 0.0], 1e300), [1e308, 1e308]),
                       [1e300 * 0.5 ** 0.5] * 2, rtol=1e-15, atol=0.0)


def test_ball_projects_an_infinite_row_to_the_limit_along_its_ray():
    ball = Ball([1.0, -2.0], 0.5)
    rows = np.array([[np.inf, 3.0], [-np.inf, np.inf], [5.0, -np.inf],
                     [np.nan, np.inf], [np.nan, 0.0]])
    got = ball.project_rows(rows)
    assert got[0].tolist() == [1.5, -2.0]
    assert np.allclose(got[1], [1.0 - 0.5 ** 1.5, -2.0 + 0.5 ** 1.5], rtol=1e-15, atol=0.0)
    assert got[2].tolist() == [1.0, -2.5]
    # a row with a NaN stays as it is
    assert np.array_equal(got[3:], rows[3:], equal_nan=True)
    # the limit is a point of the ball, which projects to itself
    assert ball.project_rows(got[:3]).tobytes() == got[:3].tobytes()
    assert nearest_point(Ball([0.0], 2.0), [-np.inf]).tolist() == [-2.0]
    assert nearest_point(minkowski_sum(Ball([0.0, 0.0], 1.0), Box([0.0, 0.0], [1.0, 1.0])),
                         [np.inf, 0.5]).tolist() == [2.0, 0.5]


def test_least_norm_shifted_box():
    s = minkowski_sum(Singleton([2.0]), Box([-1], [1]))
    assert np.allclose(least_norm_point(s), [1.0])


def test_nearest_point_on_a_15_gon_is_an_edge_midpoint():
    ang = 2.0 * np.pi * np.arange(15) / 15
    poly = Polytope(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    # the query lies on the normal through the midpoint of the first edge
    y = 3.0 * np.array([np.cos(np.pi / 15), np.sin(np.pi / 15)])
    want = 0.5 * np.array([1.0 + np.cos(ang[1]), np.sin(ang[1])])
    assert np.allclose(nearest_point(poly, y), want, rtol=0.0, atol=1e-14)


def test_nearest_point_of_a_40_vertex_polytope_lies_on_a_cube_face(rng):
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    inner = rng.uniform(0.05, 0.95, size=(32, 3))
    poly = Polytope(np.concatenate([inner[:16], corners, inner[16:]]))
    assert poly.vertices.shape[0] == 40
    assert np.allclose(nearest_point(poly, [3.0, 0.3, 0.6]), [1.0, 0.3, 0.6],
                       rtol=0.0, atol=1e-14)
    assert np.array_equal(least_norm_point(poly), np.zeros(3))


def test_least_norm_of_a_box_plus_hull_is_the_origin():
    # 24 canonical vertices; the origin is -(1/3)(1, 1, 1) + (1/3)(1, 1, 1)
    s = minkowski_sum(Box(-np.ones(3), np.ones(3)), Polytope(np.eye(3)))
    assert canonical_vertices(s).shape[0] == 24
    assert np.array_equal(least_norm_point(s), np.zeros(3))
    assert select(SetValuedMap(3, lambda x: s, common_bound=3.0), np.zeros(3)).tolist() == [0.0] * 3


def _dedupe_loop(pts, tol=0.0):
    # the pairwise scan that _dedupe_points keeps for tol > 0, as the oracle
    # of its one-sort exact pass
    if pts.shape[0] <= 1:
        return pts
    kept = []
    for row in pts:
        if not any(np.max(np.abs(row - k)) <= tol for k in kept):
            kept.append(row)
    return np.asarray(kept)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_dedupe_matches_the_pairwise_scan(data):
    # rows drawn from a few values, ±0.0 among them, so that rows repeat and
    # differ only in the sign of a zero; the bytes show which copy is kept
    d = data.draw(st.integers(1, 4), label="d")
    n = data.draw(st.integers(0, 40), label="n")
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300])
    pts = np.array(data.draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                      min_size=n, max_size=n), label="pts"),
                   dtype=float).reshape(n, d)
    want = _dedupe_loop(pts)
    got = sets_module._dedupe_points(pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_minkowski_sum_of_two_7_cubes_is_refused_by_its_vertex_count():
    # 128 * 128 sums dedupe to the 3**7 = 2187 points of {-2, 0, 2}**7
    cube = Box(-np.ones(7), np.ones(7))
    with pytest.raises(ValueError, match="too many vertices"):
        contains(MinkowskiSum(cube, cube), np.zeros(7))
    assert canonical_vertices(MinkowskiSum(cube, Singleton(np.zeros(7)))).shape[0] == 128


def test_nearest_point_of_box_plus_ball_plus_polytope():
    # the core's right face is x = 1.3, y in [-1.9, 2.1]; the ball adds 0.5
    poly = Polytope([[0.3, 0.1], [-0.2, 0.4], [0.1, -0.35], [-0.25, -0.2]])
    s = minkowski_sum(minkowski_sum(Box([-1.0, -2.0], [1.0, 2.0]), Ball([0.0, 0.0], 0.5)), poly)
    assert canonical_vertices(s).shape[0] == 16
    assert np.allclose(nearest_point(s, [5.0, 0.5]), [1.8, 0.5], rtol=0.0, atol=1e-14)
    assert contains(s, [1.8, 2.1], 1e-12) and not contains(s, [1.8, 2.2], 1e-9)


@pytest.mark.parametrize("k", [1.0, 1e-9])
def test_nearest_point_of_a_flat_set_with_duplicates_matches_the_subset_oracle(rng, k):
    # nine vertices, three of them repeated, on the plane z = x + 2y - 1; the
    # oracle's tolerances are absolute, so it runs on the unscaled set
    xy = np.concatenate([rng.uniform(-1.0, 1.0, size=(5, 2)), [[0.5, 0.5]]])
    xy = np.concatenate([xy, xy[:3]])
    vertices = np.column_stack([xy, xy[:, 0] + 2.0 * xy[:, 1] - 1.0])
    for y in ([2.0, -1.0, 3.0], [0.1, 0.2, -0.5], vertices[2] + [0.0, 0.0, 1e-3]):
        y = np.asarray(y)
        got = nearest_point(Polytope(k * vertices), k * y) / k
        oracle = project_by_subsets(vertices, y)
        assert np.linalg.norm(got - y) <= np.linalg.norm(oracle - y) * (1.0 + 1e-12)
        assert np.allclose(got, oracle, rtol=0.0, atol=1e-9)


# --- the hull regularization operator --------------------------------------


def test_krasovskii_neg_sign_at_origin():
    k = krasovskii(neg_sign_field(), [0.0])
    assert isinstance(k, Box)
    assert k.lo[0] == -1.0 and k.hi[0] == 1.0


def test_krasovskii_continuous_field_is_singleton():
    field = PiecewiseField(2, [FieldPiece(None, lambda x: 2.0 * x)])
    assert field.thresholds == [[], []]
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
    half = {1: POSITIVE, -1: NEGATIVE}

    def corner(sx, sy):
        return FieldPiece(
            (half[sx], half[sy]),
            lambda x, sx=sx, sy=sy: np.array([-float(sx), -float(sy)]))

    pieces = [corner(sx, sy) for sx in (1, -1) for sy in (1, -1)]
    pieces.append(FieldPiece(None, lambda x: np.zeros(2)))
    field = PiecewiseField(2, pieces)
    assert field.thresholds == [[0.0], [0.0]]
    k = krasovskii(field, [0.0, 0.0])
    for value in ([-1, -1], [-1, 1], [1, -1], [1, 1]):
        assert contains(k, value, 1e-12)
    k_edge = krasovskii(field, [0.0, 0.5])
    for value in ([-1, -1], [1, -1]):
        assert contains(k_edge, value, 1e-12)


def test_krasovskii_multiple_thresholds_per_coordinate():
    field = PiecewiseField(1, [
        FieldPiece(((1.0, math.inf, "()"),), lambda x: np.array([5.0])),
        FieldPiece((POSITIVE,), lambda x: np.array([3.0])),
        FieldPiece(None, lambda x: np.array([1.0])),
    ])
    assert field.thresholds == [[0.0, 1.0]]
    k0 = krasovskii(field, [0.0])
    k1 = krasovskii(field, [1.0])
    assert (k0.lo[0], k0.hi[0]) == (1.0, 3.0)
    assert (k1.lo[0], k1.hi[0]) == (3.0, 5.0)
    mid = krasovskii(field, [0.5])
    assert isinstance(mid, Singleton) and mid.point[0] == 3.0


def test_thresholds_are_sorted_floats_one_list_per_coordinate():
    m = SetValuedMap(2, lambda x: Singleton(x), common_bound=1.0, thresholds=[[1, 0.5], ()])
    assert m.thresholds == [[0.5, 1.0], []]
    assert all(type(t) is float for t in m.thresholds[0])
    assert SetValuedMap(2, lambda x: Singleton(x), common_bound=1.0).thresholds == [[], []]


def _threshold_region(thresholds):
    """Each coordinate's threshold list [t] as the interval [t, inf)."""
    return tuple((*ts, math.inf) if isinstance(ts, list) else ts for ts in thresholds)


@pytest.mark.parametrize("build, match", [
    (lambda dim, ts: SetValuedMap(dim, lambda x: Singleton(x), common_bound=1.0, thresholds=ts),
     "thresholds"),
    (lambda dim, ts: PiecewiseField(dim, [FieldPiece(_threshold_region(ts), lambda x: x),
                                          FieldPiece(None, lambda x: x)]),
     "interval"),
    (lambda dim, ts: PiecewiseSmoothScalar(
        dim, [SmoothPiece(_threshold_region(ts), lambda x: 0.0, lambda x: x),
              SmoothPiece(None, lambda x: 0.0, lambda x: x)]),
     "interval"),
], ids=["map", "field", "scalar"])
@pytest.mark.parametrize("dim, thresholds", [
    (2, [[0.0]]),
    (2, [[0.0], [0.0], [0.0]]),
    (1, [["a"]]),
    (1, [[math.inf]]),
    (1, [[True]]),
    (1, [0.0]),
], ids=["short", "long", "string", "infinite", "bool", "flat"])
def test_malformed_thresholds_are_rejected_at_construction(build, match, dim, thresholds):
    """A map's threshold lists, and a field's or a scalar's interval ends
    (each list [t] read as the interval [t, inf)), are checked when built."""
    with pytest.raises(ValueError, match=match):
        build(dim, thresholds)


@pytest.mark.parametrize("build", [
    lambda dim, region: PiecewiseField(dim, [FieldPiece(region, lambda x: x),
                                             FieldPiece(None, lambda x: x)]),
    lambda dim, region: PiecewiseSmoothScalar(
        dim, [SmoothPiece(region, lambda x: 0.0, lambda x: x),
              SmoothPiece(None, lambda x: 0.0, lambda x: x)]),
], ids=["field", "scalar"])
@pytest.mark.parametrize("interval, match", [
    ((0.0, 1.0, "[", "]"), "interval"),
    ((math.nan, 1.0), "interval"),
    ((0.0, 1.0, "(["), "interval"),
    ((1.0, 0.0), "empty"),
    ((1.0, 1.0, "()"), "empty"),
    ((1.0, 1.0, "[)"), "empty"),
    ((math.inf, math.inf), "empty"),
], ids=["four_ends", "nan", "closure", "reversed", "empty_open", "empty_half_open",
        "infinite_point"])
def test_malformed_intervals_are_rejected_at_construction(build, interval, match):
    """The interval cases beyond the threshold lists above."""
    with pytest.raises(ValueError, match=match):
        build(1, (interval,))


def test_krasovskii_unaligned_locus_errors():
    # a field defined only right of 1 leaves (-inf, 1] uncovered: the table
    # is refused when it is built, not when a hull is asked for
    with pytest.raises(ValueError, match="uncovered"):
        PiecewiseField(1, [FieldPiece(((1.0, math.inf, "()"),), lambda x: np.array([1.0]))])


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


# the bounds of the boxes on rows: every signed zero and infinity, less the
# whole line (whose midpoint is NaN) and the boxes at infinity (no point of
# which the custom selector's membership check can place)
_ENDS = (-math.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 3.0, math.inf)
_INTERVALS = [(lo, hi) for lo, hi in itertools.product(_ENDS, repeat=2)
              if lo <= hi and not (math.isinf(lo) and math.isinf(hi))]


def _row_maps(n: int, seed: int):
    """n random boxes, and rows x = (k, y) whose value is the k-th box, under a
    box-valued map and a rule map."""
    gen = np.random.default_rng(seed)
    boxes = [tuple(map(list, zip(*(_INTERVALS[i] for i in gen.integers(len(_INTERVALS), size=2)))))
             for _ in range(n)]
    rows = np.column_stack([np.arange(n, dtype=float), gen.normal(size=n)])
    maps = (SetValuedMap(2, bounds=lambda c: boxes[int(c[0])], common_bound=1.0),
            SetValuedMap(2, lambda x: Box(*boxes[int(x[0])]), common_bound=1.0))
    return rows, maps


_ROW_STRATEGIES = [
    LeastNorm(), Midpoint(), ExtremeVertex([1.0, 0.0]), ExtremeVertex([-1.0, -0.0]),
    UniformVertex(),
    # a caller's rule that reads the state and, when given one, the stream
    CustomSelector(lambda value, x, rng: nearest_point(
        value, x if rng is None else x * rng.random())),
]


@pytest.mark.parametrize("strategy", _ROW_STRATEGIES, ids=repr)
def test_select_on_rows_is_a_loop_of_select_bit_for_bit(strategy):
    rows, maps = _row_maps(300, seed=5)
    draws = not isinstance(strategy, (LeastNorm, Midpoint, ExtremeVertex))
    # per-row uniforms are the numbers one generator gives row by row
    u = np.random.default_rng(9).random(rows.shape[0])
    gen = np.random.default_rng(9)
    assert u.tolist() == [gen.random() for _ in range(rows.shape[0])]
    for m in maps:
        loop_gen = np.random.default_rng(9) if draws else None
        expected = np.array([select(m, x, strategy, loop_gen) for x in rows])
        # a generator drawn in row order, or each row's uniform
        for rng in ([np.random.default_rng(9), u] if draws else [None]):
            got = select(m, rows, strategy, rng)
            assert got.shape == rows.shape and got.tobytes() == expected.tobytes()
    assert select(maps[0], rows[:0], strategy, u[:0]).shape == (0, 2)


def test_boundedness_audit(rng):
    m = neg_sign_map(scale=0.7)
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=1)
        v = select(m, x, LeastNorm())
        assert np.linalg.norm(v) <= m.common_bound + 1e-9


def test_first_match_semantics():
    m = CellTable(1, [
        Cell(((0.0, math.inf),), (1.0,), (1.0,)),
        Cell(((-1.0, math.inf),), (2.0,), (2.0,)),
        Cell(None, (3.0,), (3.0,)),
    ])
    fmap = SetValuedMap(1, bounds=m.bounds, common_bound=3.0)
    assert [fmap.value([x]).lo[0] for x in (0.5, -0.5, -2.0)] == [1.0, 2.0, 3.0]
    lo, hi = fmap.bound_rows(np.array([[0.5], [-0.5], [-2.0]]))
    assert lo[:, 0].tolist() == hi[:, 0].tolist() == [1.0, 2.0, 3.0]


# --- contract properties ------------------------------------------------------------

_finite = dict(allow_nan=False, allow_infinity=False)


def _vectors(d, bound=3.0):
    return st.lists(st.floats(-bound, bound, **_finite), min_size=d, max_size=d)


@st.composite
def _composites(draw, d, budget=8, depth=2, balls=False):
    """A set of dimension d built from points, boxes, polytopes (and balls)
    by Minkowski sums and scalings, with at most ``budget`` canonical
    vertices, since the subset oracle enumerates their subsets."""
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
    oracle = project_by_subsets(vertices, y)
    assert contains(s, got, 1e-9)
    assert np.linalg.norm(got - y) <= np.linalg.norm(oracle - y) + 1e-9


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_nearest_point_with_a_ball_part_is_idempotent_bitwise(data):
    """A radial pull onto a ball ends where a second pull starts: the nearest
    point is its own nearest point, bit for bit, and a ball's nearest point
    passes the test that ends the pull, |p - c|^2 <= r^2."""
    d = data.draw(st.integers(1, 3), label="dim")
    ball = Ball(data.draw(_vectors(d), label="center"),
                data.draw(st.floats(1e-3, 4.0, **_finite), label="radius"))
    shape = data.draw(st.sampled_from(["ball", "scaled", "ball+box", "singleton+ball"]),
                      label="shape")
    s = ball
    if shape == "scaled":
        s = Scaled(data.draw(st.floats(1e-3, 4.0, **_finite), label="k"), ball)
    elif shape == "ball+box":
        a, b = (np.array(data.draw(_vectors(d), label=k)) for k in "ab")
        s = MinkowskiSum(ball, Box(np.minimum(a, b), np.maximum(a, b)))
    elif shape == "singleton+ball":
        s = MinkowskiSum(Singleton(data.draw(_vectors(d), label="point")), ball)
    y = np.array(data.draw(_vectors(d, 20.0), label="y"))
    p = nearest_point(s, y)
    assert np.array_equal(nearest_point(s, p), p)
    if s is ball:
        delta = (p - ball.center)[None, :]
        assert np.einsum("ij,ij->i", delta, delta)[0] <= ball.radius * ball.radius


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


def _affine(s, k, c):
    """k*s + c, with k and c written into the data of the leaves."""
    if isinstance(s, Singleton):
        return Singleton(k * s.point + c)
    if isinstance(s, Box):
        return Box(k * s.lo + c, k * s.hi + c)
    if isinstance(s, Polytope):
        return Polytope(k * s.vertices + c)
    if isinstance(s, Ball):
        return Ball(k * s.center + c, k * s.radius)
    if isinstance(s, MinkowskiSum):
        return MinkowskiSum(_affine(s.left, k, c), _affine(s.right, k, 0.0 * c))
    return MinkowskiSum(Scaled(s.k, _affine(s.inner, k, 0.0 * c)), Singleton(c))


_SCALES = [1e-300, 1e-200, 1e-150, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e150, 1e200, 1e300]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_nearest_point_is_equivariant_under_scaling_and_translation(data):
    """nearest(k*S + c, k*y + c) = k*nearest(S, y) + c, to a tolerance
    relative to k: the projection has no absolute scale."""
    d = data.draw(st.integers(1, 3), label="dim")
    s, _ = data.draw(_composites(d, balls=True), label="set")
    k = data.draw(st.sampled_from(_SCALES), label="k")
    c = k * np.array(data.draw(_vectors(d), label="c"))
    y = np.array(data.draw(_vectors(d, 10.0), label="y"))
    got = nearest_point(_affine(s, k, c), k * y + c)
    want = k * nearest_point(s, y) + c
    assert np.isfinite(got).all()
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * k * (1.0 + np.abs(y).max()))


def _set_types(cls=ConvexSet):
    for sub in cls.__subclasses__():
        yield sub
        yield from _set_types(sub)


def test_every_set_type_answers_every_query():
    """One instance of each ConvexSet subclass: a new type without a branch
    in the nearest-point dispatch fails here, as membership goes through it."""
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    examples = {
        Singleton: Singleton([1.0, 2.0]),
        Box: Box([-1.0, 1.0], [1.0, 3.0]),
        Polytope: tri,
        Ball: Ball([0.0, 3.0], 1.0),
        MinkowskiSum: MinkowskiSum(tri, Box([1.0, 1.0], [2.0, 2.0])),
        Scaled: Scaled(0.5, tri),
    }
    for cls in _set_types():
        assert cls in examples, f"no example of {cls.__name__}"
        s = examples[cls]
        p = least_norm_point(s)
        assert support(s, p) >= float(p @ p) - 1e-12
        q = nearest_point(s, [10.0, -10.0])
        assert contains(s, q, 1e-12) and contains(s, p, 1e-12)
        assert not contains(s, [10.0, -10.0], 1e-9)
