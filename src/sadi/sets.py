"""Compact convex sets, set-valued maps, and selectors.

Sets are immutable expression trees over four primitive shapes (points,
boxes, polytopes, balls) closed under Minkowski sums and nonnegative
scaling.  Every query reduces to support-function evaluations, which are
exact for each representable set.  Piecewise vector fields with
per-coordinate hyperplane discontinuities get a convex regularization
operator (``krasovskii``) returning the hull of one-sided limits.
"""

from __future__ import annotations

import itertools
import math
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
    "krasovskii",
    "LeastNorm",
    "ExtremeVertex",
    "UniformVertex",
    "Midpoint",
    "CustomSelector",
    "select",
    "Cell",
    "CellTable",
]

MEMBERSHIP_TOL = 1e-9

# canonical cores with more vertices than this refuse exact projection
_MAX_PROJECTION_VERTICES = 14
# ball components are polytopized with this many boundary points per 2-D slice
_BALL_FACETS = 32
# krasovskii puts a coordinate this close to a declared threshold t, relative
# to 1 + |t|, on it
_SNAP_TOL = 1e-9


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
    _check_dims(a.dim, b.dim, "minkowski_sum")
    return MinkowskiSum(a, b)


def scale(k: float, a: ConvexSet) -> ConvexSet:
    if k < 0.0:
        raise ValueError("scale requires k >= 0")
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
# membership
# ---------------------------------------------------------------------------


def _direction_family(s: ConvexSet) -> np.ndarray:
    """Axis directions plus polytope vertex-difference directions (and their
    in-plane normals in 2-D), unit-normalized."""
    d = s.dim
    dirs = [np.eye(d), -np.eye(d)]

    def walk(node: ConvexSet):
        if isinstance(node, Polytope):
            v = node.vertices
            if v.shape[0] > 1:
                diffs = (v[:, None, :] - v[None, :, :]).reshape(-1, d)
                norms = np.linalg.norm(diffs, axis=1)
                good = diffs[norms > 0] / norms[norms > 0][:, None]
                if good.size:
                    dirs.append(good)
                    dirs.append(-good)
                    if d == 2:
                        perp = np.stack([-good[:, 1], good[:, 0]], axis=1)
                        dirs.append(perp)
                        dirs.append(-perp)
        elif isinstance(node, MinkowskiSum):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Scaled):
            walk(node.inner)

    walk(s)
    return np.concatenate(dirs, axis=0)


def contains(s: ConvexSet, v, tol: float = MEMBERSHIP_TOL) -> bool:
    """Support-function membership test over a fixed finite direction family.

    Exact for boxes and singletons; an outer (never false-negative)
    approximation for curved or obliquely-faceted sets.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    v = _as_vector(v, "point")
    _check_dims(v.shape[0], s.dim, "contains")
    for p in _direction_family(s):
        if float(p @ v) > s._support(p) + tol:
            return False
    return True


# ---------------------------------------------------------------------------
# projections / least-norm selections
# ---------------------------------------------------------------------------


def _project_simplex_combo(vertices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of y onto hull(vertices).

    Enumerates KKT systems over vertex subsets; each candidate solves the
    equality-constrained least squares on the affine hull of the subset and
    is kept when its weights are feasible.  Intended for small vertex sets.
    """
    m = vertices.shape[0]
    if m == 1:
        return np.array(vertices[0])
    if m > _MAX_PROJECTION_VERTICES:
        raise ValueError(
            f"exact projection limited to {_MAX_PROJECTION_VERTICES} vertices, got {m}"
        )
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
        delta = y - s.center
        n2 = float(delta @ delta)
        if n2 <= s.radius * s.radius:
            return np.array(y)
        return s.center + delta * (s.radius / math.sqrt(n2))
    if isinstance(s, Polytope):
        return _project_simplex_combo(np.asarray(s.vertices), y)
    if isinstance(s, Scaled):
        return _nearest(_scaled_data(s.k, s.inner), y)
    if isinstance(s, MinkowskiSum):
        left, right = s.left, s.right
        if isinstance(right, Singleton):
            left, right = right, left
        if isinstance(left, Singleton):
            return left.point + _nearest(right, y - left.point)
        if isinstance(right, Ball):
            left, right = right, left
        if isinstance(left, Ball) and left.radius >= 0.0:
            base = _nearest(right, y - left.center) + left.center
            gap = y - base
            n2 = float(gap @ gap)
            if n2 <= left.radius * left.radius:
                return np.array(y)
            return base + gap * (left.radius / math.sqrt(n2))
        # general polytopal fallback via the canonical form
        v, r = _canonical(s)
        base = _project_simplex_combo(v, y)
        if r > 0.0:
            gap = y - base
            n2 = float(gap @ gap)
            if n2 <= r * r:
                return np.array(y)
            return base + gap * (r / math.sqrt(n2))
        return base
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


@dataclass(frozen=True)
class ExtremeVertex:
    """Support point in a fixed direction."""

    direction: tuple

    def __init__(self, direction):
        object.__setattr__(self, "direction", tuple(float(x) for x in np.atleast_1d(direction)))


class UniformVertex:
    """Uniformly random vertex of the polytopal core; consumes one draw."""

    def __repr__(self):
        return "UniformVertex()"


class Midpoint:
    """Vertex average of the core, ball parts contributing their centers."""

    def __repr__(self):
        return "Midpoint()"


@dataclass(frozen=True)
class CustomSelector:
    """Caller-supplied rule ``fn(value_set, x, rng) -> vector``; membership is checked."""

    fn: Callable


def _select_from(value: ConvexSet, x: np.ndarray, strategy, rng) -> np.ndarray:
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
# set-valued maps
# ---------------------------------------------------------------------------


class SetValuedMap:
    """Total, bounded map x -> compact convex set, given by one rule.

    ``common_bound`` is the radius of a ball containing every value.
    ``thresholds`` optionally declares per-coordinate discontinuity
    thresholds (used by sliding-mode integrators).  An ordered,
    first-match piecewise rule is a ``CellTable``, whose ``value`` is a rule.
    """

    def __init__(self, dim: int, rule: Callable[[np.ndarray], ConvexSet], common_bound: float,
                 name: str = "", thresholds: Optional[Sequence[Sequence[float]]] = None):
        self.dim = int(dim)
        self.rule = rule
        self.common_bound = float(common_bound)
        self.name = name
        self.thresholds = [sorted(t) for t in thresholds] if thresholds is not None else None

    def value(self, x) -> ConvexSet:
        x = _as_vector(x, "state")
        _check_dims(x.shape[0], self.dim, f"map {self.name or '<anon>'}")
        return self.rule(x)


def select(mapping: SetValuedMap, x, strategy=None, rng=None) -> np.ndarray:
    """Pick one element of ``mapping(x)`` according to the strategy."""
    strategy = strategy or LeastNorm()
    x = _as_vector(x, "state")
    value = mapping.value(x)
    return _select_from(value, x, strategy, rng)


# ---------------------------------------------------------------------------
# cell tables: a piecewise set-valued field written once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    predicate: Optional[Callable]  # None for the catch-all
    lo: tuple
    hi: tuple
    slope: float = 0.0


class CellTable:
    """Ordered cells, the first match winning and the last the catch-all;
    where a cell's predicate holds, the value is Box(lo + slope*x, hi + slope*x).

    A predicate joins comparisons of the coordinates ``x[i]`` with ``&``, so
    it answers for plain floats and for the columns ``rows.T`` of a row array
    alike.  A sloped cell must be a point.  The table yields the analysis
    value (``value``), region ids (1-based cell positions) and the least-norm
    selection, row-vectorized (``__call__``, a ``Drift.sample_term``) and on
    plain floats (``term_at``).
    """

    def __init__(self, dim: int, cells: Sequence[Cell]):
        self.dim = int(dim)
        self.cells = list(cells)
        self._preds = [c.predicate for c in self.cells[:-1]]
        if self.cells[-1].predicate is not None or None in self._preds:
            raise ValueError("the last cell, and only it, must be the catch-all")
        self._values = []  # the value of a constant cell, None for a sloped one
        self._terms = []   # (offset, slope): the least-norm point is offset + slope*x
        for c in self.cells:
            lo, hi = _as_vector(c.lo, "lo"), _as_vector(c.hi, "hi")
            _check_dims(lo.shape[0], self.dim, "cell bounds")
            point = np.array_equal(lo, hi)
            if c.slope == 0.0:
                value = Singleton(lo) if point else Box(lo, hi)
                self._values.append(value)
                self._terms.append((tuple(least_norm_point(value).tolist()), 0.0))
            elif point:
                self._values.append(None)
                # -0.0 is the exact additive identity: a zero offset keeps slope*x bit for bit
                self._terms.append((tuple(v or -0.0 for v in lo.tolist()), float(c.slope)))
            else:
                raise ValueError("a cell with a nonzero slope must be a point (lo == hi)")

    def term_at(self, coords) -> tuple:
        """``(offset, slope)`` of the cell at ``coords`` (a list of plain
        floats): the least-norm point there is offset + slope*coords."""
        for pred, term in zip(self._preds, self._terms):
            if pred(coords):
                return term
        return self._terms[-1]

    def value(self, x) -> ConvexSet:
        x = [float(v) for v in x]
        k = next((k for k, pred in enumerate(self._preds) if pred(x)), -1)
        if self._values[k] is not None:
            return self._values[k]
        offset, slope = self._terms[k]
        return Singleton(np.asarray(offset) + slope * np.asarray(x))

    def _masks(self, rows: np.ndarray) -> list:
        return [np.broadcast_to(np.asarray(pred(rows.T), dtype=bool), rows.shape[:1])
                for pred in self._preds]

    def region_ids(self, points) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(points, dtype=float))
        return np.select(self._masks(rows), range(1, len(self.cells)), default=len(self.cells))

    def __call__(self, x_rows, xi_rows=None) -> np.ndarray:
        """Row-vectorized least-norm term, as one ``np.select``."""
        choices = [np.asarray(offset) + slope * x_rows if slope else np.asarray(offset)
                   for offset, slope in self._terms]
        masks = [m[:, None] for m in self._masks(x_rows)]
        return np.select(masks, choices[:-1], default=choices[-1])


# ---------------------------------------------------------------------------
# piecewise fields and the convex regularization operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldPiece:
    predicate: Callable[[np.ndarray], bool]
    formula: Callable[[np.ndarray], np.ndarray]


class PiecewiseField:
    """Vector field defined piecewise, with discontinuities restricted to
    finitely many per-coordinate hyperplanes ``x_i == t``.

    Each piece formula must be continuous on the closure of its region, so
    one-sided limits at a threshold equal the formula evaluated there.
    """

    def __init__(self, dim: int, pieces: Sequence[FieldPiece],
                 thresholds: Sequence[Sequence[float]]):
        self.dim = int(dim)
        self.pieces = list(pieces)
        if len(thresholds) != self.dim:
            raise ValueError("thresholds must list one (possibly empty) sequence per coordinate")
        self.thresholds = [sorted(float(t) for t in ts) for ts in thresholds]

    def piece_at(self, x: np.ndarray) -> FieldPiece:
        for piece in self.pieces:
            if piece.predicate(x):
                return piece
        raise ValueError(f"no field piece matches {x.tolist()}")

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

    Away from the declared thresholds this is the singleton ``{f(x)}``; on a
    threshold it is the hull of the adjacent piece formulas evaluated at
    ``x``.  Points that sit on an undeclared discontinuity (no piece matches
    a probe) raise, since the geometry is outside the supported class.
    """
    x = _as_vector(x, "state")
    _check_dims(x.shape[0], f.dim, "krasovskii")

    on_axes = []
    snapped = np.array(x)
    for i in range(f.dim):
        for t in f.thresholds[i]:
            if abs(x[i] - t) <= _SNAP_TOL * (1.0 + abs(t)):
                on_axes.append(i)
                snapped[i] = t
                break
    if not on_axes:
        return Singleton(f.value(x))

    probes_h = []
    for i in on_axes:
        ts = f.thresholds[i]
        t = snapped[i]
        gaps = [abs(t - u) for u in ts if u != t]
        h = 1e-6 * (1.0 + abs(t))
        if gaps:
            h = min(h, min(gaps) / 2.0)
        probes_h.append(h)

    values = []
    for signs in itertools.product((-1.0, 1.0), repeat=len(on_axes)):
        probe = np.array(snapped)
        for (i, h, s) in zip(on_axes, probes_h, signs):
            probe[i] = snapped[i] + s * h
        try:
            piece = f.piece_at(probe)
        except ValueError as exc:
            raise ValueError(
                "discontinuity locus not aligned with declared thresholds"
            ) from exc
        values.append(_as_vector(piece.formula(snapped), "field value"))
    return _hull_of_points(np.asarray(values))
