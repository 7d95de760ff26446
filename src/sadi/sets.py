"""Compact convex sets, set-valued maps, and selectors.

Sets are immutable expression trees over four primitive shapes (points,
boxes, polytopes, balls) closed under Minkowski sums and nonnegative
scaling.  Every query reduces to support functions or nearest points, which
are exact for each representable set.  Piecewise vector fields with
per-coordinate hyperplane discontinuities get a convex regularization
operator (``krasovskii``) returning the hull of one-sided limits.
"""

from __future__ import annotations

import itertools
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ConvexSet",
    "Singleton",
    "Box",
    "Polytope",
    "Ball",
    "MinkowskiSum",
    "Scaled",
    "support",
    "contains",
    "minkowski_sum",
    "scale",
    "hausdorff",
    "least_norm_point",
    "nearest_point",
    "SetValuedMap",
    "PiecewiseField",
    "on_thresholds",
    "krasovskii",
    "LeastNorm",
    "ExtremeVertex",
    "UniformVertex",
    "Midpoint",
    "CustomSelector",
    "select",
    "Cell",
    "CellTable",
    "ThresholdCells",
]

MEMBERSHIP_TOL = 1e-9
# a coordinate within this of a declared threshold t, relative to 1 + |t|, is
# on it: the one rule of on_thresholds
THRESHOLD_TOL = 1e-9

# Wolfe's projection: its tolerance relative to the vertex set's extent, the
# number of extents beyond which a query is pulled toward the set, and its
# major cycles per vertex and dimension
_HULL_TOL = 1e-12
_HULL_REACH = 1e150
_HULL_CYCLES = 10
# a ball rescales a row whose larger square, |y - c|^2 or r^2, is below this
# or not finite: the squares of tiny and of far rows leave the normal range
_SQUARE_MIN = 2.0 ** -960
# ball components are polytopized with this many boundary points per 2-D slice
_BALL_FACETS = 32


def _as_vector(v, name="vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_dims(a: int, b: int, what: str) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch in {what}: {a} != {b}")


class ConvexSet:
    """A nonempty, compact, convex subset of R^d."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def support(self, p) -> float:
        """sup of <p, a> over the set."""
        p = _as_vector(p, "direction")
        _check_dims(p.shape[0], self.dim, "support")
        return self._support(p)

    def support_point(self, p) -> np.ndarray:
        """Some maximizer of <p, .> over the set."""
        p = _as_vector(p, "direction")
        _check_dims(p.shape[0], self.dim, "support point")
        return self._support_point(p)

    def _support(self, p: np.ndarray) -> float:
        raise NotImplementedError

    def _support_point(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def midpoint(self) -> np.ndarray:
        raise NotImplementedError


class Singleton(ConvexSet):
    __slots__ = ("point",)

    def __init__(self, point):
        self.point = _as_vector(point, "point")

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def _support(self, p):
        return float(p @ self.point)

    def _support_point(self, p):
        return np.array(self.point)

    def midpoint(self):
        return np.array(self.point)

    def __repr__(self):
        return f"Singleton({self.point.tolist()})"


class Box(ConvexSet):
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = _as_vector(lo, "lo")
        self.hi = _as_vector(hi, "hi")
        _check_dims(self.lo.shape[0], self.hi.shape[0], "Box bounds")
        if (self.lo > self.hi).any():
            raise ValueError("Box requires lo <= hi componentwise")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def _support(self, p):
        return float(np.where(p >= 0.0, p * self.hi, p * self.lo).sum())

    def _support_point(self, p):
        pt = np.where(p > 0.0, self.hi, np.where(p < 0.0, self.lo, 0.5 * (self.lo + self.hi)))
        return np.asarray(pt, dtype=float)

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """The nearest point of the box to each row."""
        return np.clip(rows, self.lo, self.hi)

    def corners(self) -> np.ndarray:
        d = self.dim
        if d > 16:
            raise ValueError("corner enumeration limited to dimension <= 16")
        out = np.empty((2 ** d, d))
        for i, signs in enumerate(itertools.product((0, 1), repeat=d)):
            out[i] = np.where(np.asarray(signs, dtype=bool), self.hi, self.lo)
        return out

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class Polytope(ConvexSet):
    """Convex hull of a finite vertex list (vertices need not be extreme)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        arr = np.asarray(vertices, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("Polytope requires at least one vertex")
        arr = arr.copy()
        arr.setflags(write=False)
        self.vertices = arr

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def _support(self, p):
        return float(np.max(self.vertices @ p))

    def _support_point(self, p):
        return np.array(self.vertices[int(np.argmax(self.vertices @ p))])

    def midpoint(self):
        return self.vertices.mean(axis=0)

    def __repr__(self):
        return f"Polytope({self.vertices.tolist()})"


class Ball(ConvexSet):
    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        self.center = _as_vector(center, "center")
        self.radius = float(radius)
        if self.radius < 0.0:
            raise ValueError("Ball requires radius >= 0")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _support(self, p):
        return float(p @ self.center + self.radius * np.linalg.norm(p))

    def _support_point(self, p):
        norm = np.linalg.norm(p)
        if norm == 0.0:
            return np.array(self.center)
        return self.center + (self.radius / norm) * p

    def midpoint(self):
        return np.array(self.center)

    def _squares(self, delta: np.ndarray):
        """|delta|^2 of each row and the radius, where the larger square of a
        row would leave the normal range both divided by one power of two, so
        that |delta|^2 > r^2 and r/|delta| come out as at ordinary scales."""
        n2 = np.einsum("ij,ij->i", delta, delta)
        big = np.maximum(n2, self.radius * self.radius)
        odd = ~((big >= _SQUARE_MIN) & (big < math.inf))
        r = np.full(n2.shape, self.radius)
        if odd.any():
            _, e = np.frexp(np.maximum(np.abs(delta[odd]).max(axis=1), self.radius))
            scaled = np.ldexp(delta[odd], -e[:, None])
            n2[odd] = np.einsum("ij,ij->i", scaled, scaled)
            r[odd] = np.ldexp(self.radius, -e)
        return n2, r

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """The nearest point of the ball to each row.  A row with an infinite
        coordinate, and no NaN, goes to the limit of the projection along its
        ray: the boundary point in the direction of its infinite coordinates."""
        y = np.array(rows, dtype=float)
        far = np.isinf(y).any(axis=1) & ~np.isnan(y).any(axis=1)
        if far.any() and math.isfinite(self.radius):
            u = np.where(np.isinf(y[far]), np.sign(y[far]), 0.0)
            y[far] = self.center + u * (self.radius / np.sqrt(np.abs(u).sum(axis=1)))[:, None]
        # ten radial steps, then ever larger shrinks against last-ulp rounding;
        # the loop ends on the test a second call starts with, so a projected
        # row projects to itself bit for bit
        for k in itertools.count():
            delta = y - self.center
            n2, r = self._squares(delta)
            mask = n2 > r * r
            if not mask.any():
                return y
            if k < 10:
                scale = (r[mask] / np.sqrt(n2[mask]))[:, None]
            else:
                scale = 1.0 - np.finfo(float).eps * 2.0 ** (k - 10)
            y[mask] = self.center + delta[mask] * scale

    def __repr__(self):
        return f"Ball({self.center.tolist()}, {self.radius})"


class MinkowskiSum(ConvexSet):
    __slots__ = ("left", "right")

    def __init__(self, left: ConvexSet, right: ConvexSet):
        _check_dims(left.dim, right.dim, "Minkowski sum")
        self.left = left
        self.right = right

    @property
    def dim(self) -> int:
        return self.left.dim

    def _support(self, p):
        return self.left._support(p) + self.right._support(p)

    def _support_point(self, p):
        return self.left._support_point(p) + self.right._support_point(p)

    def midpoint(self):
        return self.left.midpoint() + self.right.midpoint()

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


class Scaled(ConvexSet):
    __slots__ = ("k", "inner")

    def __init__(self, k: float, inner: ConvexSet):
        k = float(k)
        if k < 0.0:
            raise ValueError("Scaled requires k >= 0")
        self.k = k
        self.inner = inner

    @property
    def dim(self) -> int:
        return self.inner.dim

    def _support(self, p):
        return self.k * self.inner._support(p)

    def _support_point(self, p):
        return self.k * self.inner._support_point(p)

    def midpoint(self):
        return self.k * self.inner.midpoint()

    def __repr__(self):
        return f"Scaled({self.k}, {self.inner!r})"


def support(s: ConvexSet, p) -> float:
    return s.support(p)


def minkowski_sum(a: ConvexSet, b: ConvexSet) -> ConvexSet:
    return MinkowskiSum(a, b)


def scale(k: float, a: ConvexSet) -> ConvexSet:
    return Scaled(k, a)


# ---------------------------------------------------------------------------
# canonical form: polytopal core + centered ball
# ---------------------------------------------------------------------------


def _canonical(s: ConvexSet) -> tuple[np.ndarray, float]:
    """Rewrite ``s`` as hull(V) + r*unit_ball, returning (V, r).

    Exact for every node type: balls are closed under Minkowski sums and
    scalings, and polytopal parts combine by pairwise vertex sums.
    """
    if isinstance(s, Singleton):
        return s.point.reshape(1, -1), 0.0
    if isinstance(s, Box):
        return s.corners(), 0.0
    if isinstance(s, Polytope):
        return np.asarray(s.vertices), 0.0
    if isinstance(s, Ball):
        return s.center.reshape(1, -1), s.radius
    if isinstance(s, Scaled):
        v, r = _canonical(s.inner)
        if s.k == 0.0:
            return np.zeros((1, s.dim)), 0.0
        return s.k * v, s.k * r
    if isinstance(s, MinkowskiSum):
        va, ra = _canonical(s.left)
        vb, rb = _canonical(s.right)
        v = (va[:, None, :] + vb[None, :, :]).reshape(-1, s.dim)
        v = _dedupe_points(v)
        if v.shape[0] > 512:
            raise ValueError("Minkowski expression expands to too many vertices")
        return v, ra + rb
    raise TypeError(f"unsupported set type {type(s)!r}")


def _dedupe_points(pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
    if pts.shape[0] <= 1:
        return pts
    if tol == 0.0 and np.isfinite(pts).all():
        # each first equal row, in order (stable sort); the scan never merges inf or nan rows
        return pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]
    kept: list[np.ndarray] = []
    for row in pts:
        if not any(np.max(np.abs(row - k)) <= tol for k in kept):
            kept.append(row)
    return np.asarray(kept)


def canonical_vertices(s: ConvexSet) -> np.ndarray:
    """Vertex candidates of the polytopal core; ball parts contribute their center."""
    v, _ = _canonical(s)
    return v


# ---------------------------------------------------------------------------
# projections / least-norm selections
# ---------------------------------------------------------------------------


def _project_hull(vertices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto hull(vertices) by Wolfe's nearest-point
    algorithm (P. Wolfe, Math. Programming 11 (1976) 128-149).

    It runs in a frame that puts the first vertex at the origin and divides by
    the largest absolute coordinate of the vertex offsets, so every tolerance
    is relative to the set's own size.  A query the hull holds to that
    tolerance is returned as it is, so a projected point projects to itself.
    """
    origin = vertices[0]
    p = vertices - origin
    extent = float(np.max(np.abs(p)))
    if extent == 0.0:
        return np.array(origin)
    p = p / extent
    r = y - origin
    far = float(np.max(np.abs(r)))
    if far > _HULL_REACH * extent:
        # pulled toward the set: where on a face the answer lies is then
        # below float precision, and squared distances stay finite
        r = r * (_HULL_REACH * extent / far)
    q = r / extent
    s = np.argmin(np.einsum("ij,ij->i", p - q, p - q), keepdims=True)
    lam = np.ones(1)
    z = p[s[0]]
    dist = float(np.linalg.norm(z - q))
    for _ in range(_HULL_CYCLES * (len(p) + p.shape[1])):
        gaps = (z - p) @ (z - q)
        j = np.argmax(gaps)
        if dist <= _HULL_TOL or not gaps[j] > _HULL_TOL * dist:
            break
        s_new, lam_new = np.append(s, j), np.append(lam, 0.0)
        while True:  # minor cycles: each drops a vertex until the affine minimizer is interior
            mu = np.ones(1)
            if len(s_new) > 1:
                base = p[s_new[0]]
                c = np.linalg.lstsq((p[s_new[1:]] - base).T, q - base, rcond=None)[0]
                mu = np.concatenate([[1.0 - c.sum()], c])
            if (mu > 0.0).all():
                lam_new = mu
                break
            out = np.flatnonzero(mu <= 0.0)
            ratios = lam_new[out] / np.maximum(lam_new[out] - mu[out], np.finfo(float).tiny)
            k = int(np.argmin(ratios))
            lam_new = lam_new + ratios[k] * (mu - lam_new)
            lam_new[out[k]] = 0.0
            keep = lam_new > 0.0
            s_new, lam_new = s_new[keep], lam_new[keep] / lam_new[keep].sum()
        z_new = lam_new @ p[s_new]
        # a major cycle that gains nothing ends the search; the gain
        # |z - q|^2 - |z_new - q|^2 is formed from differences, so it
        # resolves far from the set
        if not (z - z_new) @ (z + z_new - 2.0 * q) > 0.0:
            break
        s, lam, z = s_new, lam_new, z_new
        dist = float(np.linalg.norm(z - q))
    if dist <= _HULL_TOL:
        return np.array(y)
    return lam @ vertices[s]


def nearest_point(s: ConvexSet, y) -> np.ndarray:
    """argmin over the set of the Euclidean distance to ``y`` (exact)."""
    y = _as_vector(y, "point")
    _check_dims(y.shape[0], s.dim, "nearest_point")
    return _nearest(s, y)


def _nearest(s: ConvexSet, y: np.ndarray) -> np.ndarray:
    if isinstance(s, Singleton):
        return np.array(s.point)
    if isinstance(s, Box):
        return np.clip(y, s.lo, s.hi)
    if isinstance(s, Ball):
        return s.project_rows(y[None, :])[0]
    if isinstance(s, Polytope):
        return _project_hull(np.asarray(s.vertices), y)
    if isinstance(s, Scaled):
        return _nearest(_scaled_data(s.k, s.inner), y)
    if isinstance(s, MinkowskiSum):
        left, right = s.left, s.right
        # a ball part first: its base then does not move with y, even beside a singleton
        if isinstance(right, Ball):
            left, right = right, left
        if isinstance(left, Ball):
            base = _nearest(right, y - left.center) + left.center
            return Ball(base, left.radius).project_rows(y[None, :])[0]
        if isinstance(right, Singleton):
            left, right = right, left
        if isinstance(left, Singleton):
            return left.point + _nearest(right, y - left.point)
        # general polytopal fallback via the canonical form
        v, r = _canonical(s)
        base = _project_hull(v, y)
        return Ball(base, r).project_rows(y[None, :])[0] if r > 0.0 else base
    raise TypeError(f"unsupported set type {type(s)!r}")


def _scaled_data(k: float, s: ConvexSet) -> ConvexSet:
    """k*s with k multiplied into the data of every leaf, so that a tiny k
    never divides the query point."""
    if isinstance(s, Singleton):
        return Singleton(k * s.point)
    if isinstance(s, Box):
        return Box(k * s.lo, k * s.hi)
    if isinstance(s, Ball):
        return Ball(k * s.center, k * s.radius)
    if isinstance(s, Polytope):
        return Polytope(k * s.vertices)
    if isinstance(s, Scaled):
        return _scaled_data(k, _scaled_data(s.k, s.inner))
    if isinstance(s, MinkowskiSum):
        return MinkowskiSum(_scaled_data(k, s.left), _scaled_data(k, s.right))
    raise TypeError(f"unsupported set type {type(s)!r}")


def least_norm_point(s: ConvexSet) -> np.ndarray:
    """The unique minimum-Euclidean-norm element."""
    return _nearest(s, np.zeros(s.dim))


def contains(s: ConvexSet, v, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether ``v`` lies within Euclidean distance ``tol`` of the set: the
    distance to its nearest point, exact for every set type."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    v = _as_vector(v, "point")
    _check_dims(v.shape[0], s.dim, "contains")
    return math.hypot(*(_nearest(s, v) - v)) <= tol


# ---------------------------------------------------------------------------
# the sum-of-directed-distances set metric
# ---------------------------------------------------------------------------


def _sphere_directions(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(20210 + d)
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([np.eye(d), -np.eye(d), g], axis=0)


def _extreme_candidates(s: ConvexSet, n_dirs: int) -> np.ndarray:
    v, r = _canonical(s)
    if r == 0.0:
        return v
    dirs = _sphere_directions(s.dim, max(n_dirs, _BALL_FACETS))
    pts = (v[:, None, :] + r * dirs[None, :, :]).reshape(-1, s.dim)
    return pts


def hausdorff(a: ConvexSet, b: ConvexSet, n_dirs: int = 64) -> float:
    """Sum of the two directed separations sup_x dist(x, other).

    Distances to a set are exact (canonical-form projections); suprema over
    a set enumerate its polytopal vertices exactly and sample ball
    boundaries with ``n_dirs`` directions.
    """
    _check_dims(a.dim, b.dim, "hausdorff")
    if n_dirs < 2 * a.dim:
        raise ValueError("n_dirs must be at least 2*dim")

    def directed(src: ConvexSet, dst: ConvexSet) -> float:
        worst = 0.0
        for x in _extreme_candidates(src, n_dirs):
            worst = max(worst, float(np.linalg.norm(_nearest(dst, x) - x)))
        return worst

    return directed(a, b) + directed(b, a)


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------


class LeastNorm:
    """Minimum-norm element (unique by convexity)."""

    def __repr__(self):
        return "LeastNorm()"


@dataclass(frozen=True, eq=False)
class ExtremeVertex:
    """Support point in a fixed direction."""

    direction: tuple

    def __init__(self, direction):
        object.__setattr__(self, "direction", tuple(float(x) for x in np.atleast_1d(direction)))


class UniformVertex:
    """Uniformly random vertex of the polytopal core; consumes one draw."""

    def __repr__(self):
        return "UniformVertex()"


class _OneDraw(float):
    """One pre-drawn uniform as a stream: enough for UniformVertex's one draw."""

    def random(self):
        return float(self)


class Midpoint:
    """Vertex average of the core, ball parts contributing their centers."""

    def __repr__(self):
        return "Midpoint()"


@dataclass(frozen=True, eq=False)
class CustomSelector:
    """Caller-supplied rule ``fn(value_set, x, rng) -> vector``; membership is checked."""

    fn: Callable


# ---------------------------------------------------------------------------
# set-valued maps
# ---------------------------------------------------------------------------


def _thresholds(dim: int, thresholds) -> tuple:
    """Declared discontinuities ``x_i == t`` as one sorted list of finite
    floats per coordinate (None declares none), and their tolerance bands:
    per coordinate the pairs ``(t, THRESHOLD_TOL*(1 + |t|))`` that
    ``on_thresholds`` reads."""
    rows = [[]] * dim if thresholds is None else [
        list(ts) if np.iterable(ts) else [None] for ts in thresholds]
    if len(rows) != dim or not all(
            isinstance(t, numbers.Real) and not isinstance(t, bool) and math.isfinite(t)
            for ts in rows for t in ts):
        raise ValueError(f"thresholds must be {dim} sequences of finite numbers, "
                         "one per coordinate")
    levels = [sorted(float(t) for t in ts) for ts in rows]
    return levels, [[(t, THRESHOLD_TOL * (1.0 + abs(t))) for t in ts] for ts in levels]


def on_thresholds(x, bands) -> list:
    """The declared thresholds ``(i, t)`` that ``x`` lies on, at most the first
    of each coordinate: those with |x_i - t| <= THRESHOLD_TOL*(1 + |t|), read
    from the ``bands`` of a map or a threshold-cell lookup.  The one test of
    sitting on a discontinuity, for the Krasovskii hull, the sliding
    integrator and the classical gradient alike."""
    out = []
    for i, band in enumerate(bands):
        xi = x[i]
        for t, tol in band:
            if abs(xi - t) <= tol:
                out.append((i, t))
                break
    return out


class SetValuedMap:
    """Total, bounded map x -> compact convex set, given by one rule or, when
    every value is a box, by its bounds.

    ``common_bound`` is the radius of a ball containing every value.
    ``thresholds`` optionally declares per-coordinate discontinuity
    thresholds (used by sliding-mode integrators); a map built on a table
    passes the table's derived ``thresholds``.  ``bounds(coords) -> (lo,
    hi)`` gives the d lower and d upper bounds at a list of plain floats
    and, with the same arithmetic and comparisons, at the columns ``rows.T``
    of a row array, each bound then a float or a column.  An ordered,
    first-match piecewise box map is a ``CellTable``, whose ``bounds`` are a
    map's bounds.  A rule map may declare ``support_rows(p, rows)``, the row
    form of its support, which must round as the support of its values does.
    """

    def __init__(self, dim: int, rule: Optional[Callable[[np.ndarray], ConvexSet]] = None, *,
                 common_bound: float, name: str = "",
                 thresholds: Optional[Sequence[Sequence[float]]] = None,
                 bounds: Optional[Callable] = None, support_rows: Optional[Callable] = None):
        if (rule is None) == (bounds is None):
            raise ValueError("a set-valued map takes one rule or box bounds")
        self.dim = int(dim)
        self.rule = rule
        self.bounds = bounds
        self._support_rows = support_rows
        self.common_bound = float(common_bound)
        self.name = name
        self.thresholds, self.bands = _thresholds(self.dim, thresholds)

    def value(self, x) -> ConvexSet:
        x = _as_vector(x, "state")
        _check_dims(x.shape[0], self.dim, f"map {self.name or '<anon>'}")
        if self.bounds is not None:
            return Box(*self.bounds(x.tolist()))
        return self.rule(x)

    def bound_rows(self, rows: np.ndarray):
        """The bounds of a box-valued map at each row of ``rows``, as two
        (n, d) arrays."""
        n = rows.shape[0]
        return tuple(np.stack([np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in side],
                              axis=1)
                     for side in self.bounds(rows.T))

    def support_rows(self, p: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The support of F(x) along each row of ``p`` at the matching row x
        of ``rows``, bit for bit as ``value(x)._support``: for a box,
        sum_i max(p_i lo_i, p_i hi_i), summed as ``Box._support`` sums it;
        else the declared row form, or one point at a time."""
        if self.bounds is not None:
            lo, hi = self.bound_rows(rows)
            return np.where(p >= 0.0, p * hi, p * lo).sum(axis=1)
        if self._support_rows is not None:
            return self._support_rows(p, rows)
        return np.array([self.value(x)._support(q) for q, x in zip(p, rows)], dtype=float)


def select(mapping: SetValuedMap, x, strategy=None, rng=None) -> np.ndarray:
    """Pick one element of ``mapping(x)`` by the strategy; at an (n, d) array
    ``x``, row i as ``select(mapping, x[i], strategy, r_i)``, ``r_i`` being ``rng``
    (a generator, drawn in row order, or None) or a stream of uniform ``rng[i]``."""
    strategy = strategy or LeastNorm()
    if np.ndim(x) == 2:
        streams = map(_OneDraw, rng) if isinstance(rng, np.ndarray) else itertools.repeat(rng)
        picks = [select(mapping, row, strategy, r) for row, r in zip(x, streams)]
        return np.array(picks, dtype=float).reshape(np.shape(x))
    x = _as_vector(x, "state")
    value = mapping.value(x)
    if isinstance(strategy, LeastNorm):
        return least_norm_point(value)
    if isinstance(strategy, ExtremeVertex):
        return value.support_point(np.asarray(strategy.direction, dtype=float))
    if isinstance(strategy, Midpoint):
        return value.midpoint()
    if isinstance(strategy, UniformVertex):
        if rng is None:
            raise ValueError("UniformVertex requires a random stream")
        verts, _ = _canonical(value)
        u = float(rng.random())
        idx = min(int(u * verts.shape[0]), verts.shape[0] - 1)
        return np.array(verts[idx])
    if isinstance(strategy, CustomSelector):
        out = _as_vector(strategy.fn(value, x, rng), "selector output")
        if not contains(value, out, MEMBERSHIP_TOL):
            raise ValueError("custom selector returned a point outside the set value")
        return out
    raise TypeError(f"unknown selector strategy {strategy!r}")


# ---------------------------------------------------------------------------
# threshold cells: every piecewise object declared once, as intervals
# ---------------------------------------------------------------------------

_CLOSURES = ("[]", "[)", "(]", "()")


def _interval(spec) -> Optional[tuple]:
    """None, or an interval ``(lo, hi)`` or ``(lo, hi, closure)`` as (lo, hi,
    lo_in, hi_in); an infinite end holds ±inf, as x > t and x < t do."""
    if spec is None:
        return None
    ends = list(spec) if isinstance(spec, (tuple, list)) else []
    closure = ends.pop() if len(ends) == 3 else "[]"
    if len(ends) != 2 or closure not in _CLOSURES or not all(
            isinstance(e, numbers.Real) and not isinstance(e, bool) and not math.isnan(e)
            for e in ends):
        raise ValueError(f"an interval is (lo, hi) or (lo, hi, closure), lo and hi numbers "
                         f"and closure one of {_CLOSURES}: got {spec!r}")
    lo, hi = float(ends[0]), float(ends[1])
    if not (lo < hi or (lo == hi and closure == "[]" and math.isfinite(lo))):
        raise ValueError(f"the interval {spec!r} is empty")
    return lo, hi, closure[0] == "[" or lo == -math.inf, closure[1] == "]" or hi == math.inf


def _holds(interval, v: float) -> bool:
    if interval is None:
        return True
    lo, hi, lo_in, hi_in = interval
    return (lo < v or (lo_in and lo == v)) and (v < hi or (hi_in and v == hi))


def _piece_points(ts: list) -> list:
    """One point of each elementary piece of a coordinate with thresholds
    ``ts``, in index order: -inf, t_0, a midpoint, t_1, ..., +inf, NaN."""
    mids = [a / 2 + b / 2 for a, b in zip(ts, ts[1:])]
    return [-math.inf, *itertools.chain(*zip(ts, mids + [math.inf])), math.nan]


class ThresholdCells:
    """Ordered regions, the first match winning: the one lookup of every
    piecewise object.  A region is None (everywhere) or one entry per
    coordinate, None or an interval ``(lo, hi)`` or ``(lo, hi, closure)``,
    closure "[]" (the default), "[)", "(]" or "()".

    The finite interval ends are the ``thresholds``.  A coordinate that a
    region constrains has elementary pieces, indexed in order: the gap below
    the first threshold, the threshold, the next gap, ..., the gap above the
    last, and NaN, which no interval holds.  The first match is resolved
    once, at one point of each product of pieces.  A point with no NaN that
    no region holds is refused when the table is built, a NaN point when it
    is looked up.
    """

    def __init__(self, dim: int, regions: Sequence):
        self.dim = int(dim)
        if not all(r is None or (isinstance(r, (tuple, list)) and len(r) == self.dim)
                   for r in regions):
            raise ValueError(f"a region is None or one interval (or None) per coordinate, "
                             f"{self.dim} in all: got {list(regions)!r}")
        regions = [[None] * self.dim if r is None else list(map(_interval, r)) for r in regions]
        self.thresholds, self.bands = _thresholds(self.dim, [
            {e for r in regions if r[i] for e in r[i][:2] if math.isfinite(e)}
            for i in range(self.dim)])
        axes = [i for i in range(self.dim) if any(r[i] for r in regions)]
        reps = [_piece_points(self.thresholds[i]) for i in axes]
        strides = [math.prod(map(len, reps[j + 1:])) for j in range(len(axes))]
        # each indexed coordinate as (coordinate, edges, stride, offset of NaN);
        # a value's piece is the number of edges at or below it, the edges
        # being each threshold t and the next float above it
        self._axes = [(i, [e for t in self.thresholds[i] for e in (t, math.nextafter(t, math.inf))],
                       s, s * (len(r) - 1)) for i, s, r in zip(axes, strides, reps)]
        points = list(itertools.product(*reps))
        self._regions = [next((k for k, r in enumerate(regions)
                               if all(_holds(r[i], v) for i, v in zip(axes, p))), -1)
                         for p in points]
        if any(k < 0 and not any(map(math.isnan, p)) for k, p in zip(self._regions, points)):
            raise ValueError("the regions leave a cell uncovered: every point with no NaN "
                             "coordinate must lie in some region")
        # the same table as an array, for lookups on rows; floats read the list
        self._table = np.array(self._regions)

    def _flat(self, x) -> int:
        k = 0
        for i, edges, stride, nan in self._axes:
            v = x[i]
            k += stride * bisect_right(edges, v) if v == v else nan
        return k

    def _at(self, k: int, x) -> int:
        if self._regions[k] < 0:
            raise ValueError(f"no region matches {np.asarray(x, dtype=float).tolist()}")
        return self._regions[k]

    def index(self, x) -> int:
        """The position of the region holding ``x``, plain floats or a vector."""
        return self._at(self._flat(x), x)

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """``index`` of each row of an (n, d) array, by ``np.searchsorted``;
        -1 where no region holds the row."""
        k = np.zeros(rows.shape[0], dtype=int)
        for i, edges, stride, nan in self._axes:
            col = rows[:, i]
            k += np.where(np.isnan(col), nan, stride * np.searchsorted(edges, col, "right"))
        return np.take(self._table, k)

    def around(self, x, axes: Sequence[int]) -> list:
        """The regions of the elementary cells next to ``x``, which sits
        exactly on a threshold of each coordinate in ``axes``: one per
        choice of the gap below (first) or above on each, the first
        coordinate varying slowest."""
        k, stride = self._flat(x), {i: s for i, _, s, _ in self._axes}
        return [self._at(k + sum(stride[i] * d for i, d in zip(axes, signs)), x)
                for signs in itertools.product((-1, 1), repeat=len(axes))]


# ---------------------------------------------------------------------------
# cell tables: a piecewise set-valued field written once
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False, eq=False)
class Cell:
    region: Optional[Sequence]  # intervals per coordinate; None for the catch-all
    lo: tuple
    hi: tuple
    slope: float = 0.0


class CellTable:
    """Ordered cells, the first match winning and the last the catch-all;
    in a cell's region the value is Box(lo + slope*x, hi + slope*x).

    A region is one interval per coordinate, as ``ThresholdCells`` reads
    it, and the table's ``thresholds`` are their ends.  A sloped cell must
    be a point.  The table yields the bounds of the analysis map
    (``bounds``), region ids (1-based cell positions) and the least-norm
    selection, row-vectorized (``__call__``, a ``Drift.sample_term``) and on
    plain floats (``term_at``).
    """

    def __init__(self, dim: int, cells: Sequence[Cell]):
        self.dim = int(dim)
        self.cells = list(cells)
        if self.cells[-1].region is not None:
            raise ValueError("the last cell must be the catch-all, with region None")
        self.lookup = ThresholdCells(self.dim, [c.region for c in self.cells])
        self.thresholds = self.lookup.thresholds
        # per cell its (offset, slope), the least-norm point being offset +
        # slope*x, and its bounds; a sloped cell's bounds are its offset
        self._terms, lows, highs = [], [], []
        for c in self.cells:
            lo, hi = _as_vector(c.lo, "lo"), _as_vector(c.hi, "hi")
            _check_dims(lo.shape[0], self.dim, "cell bounds")
            point = np.array_equal(lo, hi)
            if c.slope == 0.0:
                value = Singleton(lo) if point else Box(lo, hi)
                self._terms.append((tuple(least_norm_point(value).tolist()), 0.0))
            elif point:
                # -0.0 is the exact additive identity: a zero offset keeps slope*x bit for bit
                lo = hi = np.array([v or -0.0 for v in lo.tolist()])
                self._terms.append((tuple(lo.tolist()), float(c.slope)))
            else:
                raise ValueError("a cell with a nonzero slope must be a point (lo == hi)")
            lows.append(lo)
            highs.append(hi)
        self._lo, self._hi = np.array(lows), np.array(highs)
        self._offsets = np.array([offset for offset, _ in self._terms])
        self._bounds = [(tuple(a), tuple(b)) for a, b in zip(self._lo.tolist(), self._hi.tolist())]

    def term_at(self, coords) -> tuple:
        """``(offset, slope)`` of the cell at ``coords`` (a list of plain
        floats): the least-norm point there is offset + slope*coords."""
        return self._terms[self.lookup.index(coords)]

    def bounds(self, coords):
        """``(lo, hi)`` at ``coords``, a list of plain floats or the columns
        ``rows.T`` of a row array, then each bound a column."""
        if isinstance(coords, np.ndarray):
            ids = self.lookup.index_rows(coords.T)
            return tuple(list(self._per_row(table, ids, coords.T).T)
                         for table in (self._lo, self._hi))
        k = self.lookup.index(coords)
        offset, slope = self._terms[k]
        if not slope:
            return self._bounds[k]
        point = [o + slope * v for o, v in zip(offset, coords)]
        return point, point

    def _per_row(self, table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``table[ids]``, the rows of a sloped cell taking offset + slope*x."""
        out = np.take(table, ids, axis=0)
        for k, (offset, slope) in enumerate(self._terms):
            if slope:
                out = np.where((ids == k)[:, None], np.asarray(offset) + slope * rows, out)
        return out

    def region_ids(self, points) -> np.ndarray:
        return self.lookup.index_rows(np.atleast_2d(np.asarray(points, dtype=float))) + 1

    def __call__(self, x_rows, xi_rows=None) -> np.ndarray:
        """Row-vectorized least-norm term: each row takes its cell's."""
        return self._per_row(self._offsets, self.lookup.index_rows(x_rows), x_rows)


# ---------------------------------------------------------------------------
# piecewise fields and the convex regularization operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False, eq=False)
class FieldPiece:
    region: Optional[Sequence]  # intervals per coordinate; None for everywhere
    formula: Callable[[np.ndarray], np.ndarray]


class PiecewiseField:
    """Vector field defined piecewise on ordered regions, the first match
    winning; its discontinuities lie on the thresholds of ``lookup``, the
    ``ThresholdCells`` of the pieces' regions.

    Each piece formula must be continuous on the closure of its region, so
    one-sided limits at a threshold equal the formula evaluated there.
    """

    def __init__(self, dim: int, pieces: Sequence[FieldPiece]):
        self.dim = int(dim)
        self.pieces = list(pieces)
        self.lookup = ThresholdCells(self.dim, [p.region for p in self.pieces])
        self.thresholds = self.lookup.thresholds

    def piece_at(self, x) -> FieldPiece:
        return self.pieces[self.lookup.index(x)]

    def value(self, x) -> np.ndarray:
        x = _as_vector(x, "state")
        _check_dims(x.shape[0], self.dim, "field")
        return _as_vector(self.piece_at(x).formula(x), "field value")


def _hull_of_points(points: np.ndarray, tol: float = 0.0) -> ConvexSet:
    points = _dedupe_points(points, tol)
    if points.shape[0] == 1:
        return Singleton(points[0])
    if points.shape[1] == 1:
        return Box([float(points.min())], [float(points.max())])
    return Polytope(points)


def krasovskii(f: PiecewiseField, x) -> ConvexSet:
    """Convex hull of the one-sided limit values of ``f`` at ``x``.

    Away from the thresholds this is the singleton ``{f(x)}``; on
    thresholds it is the hull of the formulas of the elementary cells next
    to ``x`` (the gap on either side of each threshold it sits on),
    evaluated at ``x`` snapped onto those thresholds.
    """
    x = _as_vector(x, "state")
    _check_dims(x.shape[0], f.dim, "krasovskii")

    on = on_thresholds(x, f.lookup.bands)
    if not on:
        return Singleton(f.value(x))

    snapped = np.array(x)
    for i, t in on:
        snapped[i] = t
    return _hull_of_points(np.asarray([
        _as_vector(f.pieces[k].formula(snapped), "field value")
        for k in f.lookup.around(snapped, [i for i, _ in on])]))
