"""Nonsmooth analysis: Clarke gradients, set-valued derivatives, reduced
inclusions, generalized decay derivatives and a grid stability certifier.

Scalar functions are piecewise smooth on regions declared as per-coordinate
intervals, with kinks on the interval ends, the thresholds ``x_i == t``.  A
Clarke gradient, the hull of the limits of nearby gradients, is the
Krasovskii hull of the gradient field; the reduction/derivative machinery
works on vertex descriptions, and reduces a polytopal value exactly at any
null-space dimension by solving for the vertices of its feasible weights
with numpy.  The certifier decides on rows the grid points off the
kinks, and the near-kink points whose reduction a slab test per group of
points sharing their adjacent cells finds empty; the others go one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Optional, Sequence

import numpy as np

from .artifacts import Artifact, cell, column_blocks
from .sets import (
    ConvexSet,
    FieldPiece,
    PiecewiseField,
    SetValuedMap,
    Singleton,
    _as_vector,
    _check_dims,
    canonical_vertices,
    krasovskii,
    least_norm_point,  # unused here; perfbench/spans.py traces it in this module
    on_thresholds,
    support,
)
from .sets import _canonical, _hull_of_points

__all__ = [
    "SmoothPiece",
    "PiecewiseSmoothScalar",
    "clarke_gradient",
    "Interval",
    "set_valued_derivative",
    "u_reduced",
    "u_generalized_derivative",
    "StabilityCertificate",
    "certify_stability",
]

_CONSTANCY_TOL = 1e-9
# a constancy row that misses its slab by more than this, times one plus the
# largest |row value| at a vertex, makes the reduction empty without solving
# for its vertices; it is far above the rounding of those row values and of
# the vertex systems' feasibility allowance, so the pre-check never empties a
# reduction that has a feasible point
_EMPTY_GUARD = 1e-5
# the most vertex systems one u-reduction solves before it refuses
_MAX_SYSTEMS = 100_000
# a grid point passes when its derivative is at most the threshold plus this
_PASS_TOL = 1e-9


def linprog(*args, **kwargs):
    """Retired: no path solves a linear program, as the u-reduction is exact.
    The name stays while perfbench/spans.py traces it, because a traced pass
    fails every job on a name it cannot find."""
    raise NotImplementedError("sadi solves no linear program")


@dataclass(frozen=True, repr=False, eq=False)
class SmoothPiece:
    region: Optional[Sequence]  # intervals per coordinate; None for everywhere
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


class PiecewiseSmoothScalar:
    """Locally Lipschitz scalar function, smooth inside each piece's region,
    the first match winning; its gradient is the piecewise field
    ``gradient_field``, and both read one ``ThresholdCells``, ``lookup``,
    whose thresholds are the kinks."""

    def __init__(self, dim: int, pieces: Sequence[SmoothPiece], regular: bool = True,
                 name: str = "", rows: Optional[tuple] = None):
        self.dim = int(dim)
        self.pieces = list(pieces)
        self.gradient_field = PiecewiseField(
            self.dim, [FieldPiece(p.region, p.gradient) for p in self.pieces])
        self.lookup = self.gradient_field.lookup
        self.thresholds = self.lookup.thresholds
        self.regular = bool(regular)
        self.name = name
        # (value_rows, gradient_rows) of a function written on rows, else None
        self.rows = rows

    def piece_at(self, x) -> SmoothPiece:
        return self.pieces[self.lookup.index(x)]

    def value(self, x) -> float:
        x = _as_vector(x, "point")
        _check_dims(x.shape[0], self.dim, "scalar function")
        return float(self.piece_at(x).value(x))

    def gradient(self, x) -> np.ndarray:
        """Classical gradient; raises on a kink surface."""
        x = _as_vector(x, "point")
        if on_thresholds(x, self.lookup.bands):
            raise ValueError("gradient undefined on a kink surface; use clarke_gradient")
        return _as_vector(self.piece_at(x).gradient(x), "gradient")


def smooth_scalar(dim: int, value, gradient, name: str = "",
                  regular: bool = True) -> PiecewiseSmoothScalar:
    """Single-piece everywhere-smooth function, written once on rows:
    ``value`` and ``gradient`` take an (n, d) array and return the n values
    and the (n, d) gradients.  A point is a one-row array, and the certifier
    evaluates a grid in one call."""
    return PiecewiseSmoothScalar(
        dim, [SmoothPiece(None, lambda x: float(value(x[None])[0]),
                          lambda x: gradient(x[None])[0])],
        regular=regular, name=name, rows=(value, gradient))


def clarke_gradient(u: PiecewiseSmoothScalar, x) -> ConvexSet:
    """Hull of the gradient limits at x: the Krasovskii hull of the gradient
    field, which checks x."""
    return krasovskii(u.gradient_field, x)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __contains__(self, a: float) -> bool:
        return self.lo - 1e-12 <= a <= self.hi + 1e-12


def _gradient_vertices(u: PiecewiseSmoothScalar, x: np.ndarray) -> np.ndarray:
    return canonical_vertices(clarke_gradient(u, x))


def set_valued_derivative(v: PiecewiseSmoothScalar, fmap: SetValuedMap, x) -> Optional[Interval]:
    """Values a such that some q in F(x) has <p, q> = a for every Clarke
    gradient element p of v: an interval, the range of <p, q> over the
    reduction of F(x) by v's gradient differences, or None if it is empty.
    Where that gradient has more than one element, a value with a ball part
    raises ValueError.
    """
    if not v.regular:
        raise ValueError("set-valued derivative requires a regular function")
    x = _as_vector(x, "point")
    value = fmap.value(x)
    p_verts = _gradient_vertices(v, x)
    base = p_verts[0]
    if p_verts.shape[0] > 1:
        value = _reduced_polytope(value, p_verts[1:] - base)
        if value is None:
            return None
    return Interval(-support(value, -base), support(value, base))


def _constancy_rows(u_list: Sequence[PiecewiseSmoothScalar], x: np.ndarray) -> np.ndarray:
    rows = []
    for u in u_list:
        verts = _gradient_vertices(u, x)
        if verts.shape[0] <= 1:
            continue
        diffs = verts[1:] - verts[0]
        for row in diffs:
            if float(np.max(np.abs(row))) > _CONSTANCY_TOL:
                rows.append(row)
    if not rows:
        return np.zeros((0, x.shape[0]))
    return np.asarray(rows)


def _outside_slab(dv: np.ndarray, bound):
    """True where some row of ``dv`` (a constancy row's values at the
    vertices; leading axes, matched by ``bound``, hold one test each) misses
    the slab [-bound, bound] by more than the guard: over the vertex hull
    that row takes exactly the values between its least and largest entry."""
    bound = (bound + _EMPTY_GUARD * (1.0 + np.abs(dv).max(axis=(-2, -1), initial=0.0)))[..., None]
    return np.any((dv.min(axis=-1) > bound) | (dv.max(axis=-1) < -bound), axis=-1)


def _empty_on_rows(u_list, fmap: SetValuedMap, pts: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``pts`` whose u-reduction is surely empty, by one
    slab test per group of rows in the same pieces of every u, its bound
    raised by a slack far above the rounding of supports to vertex values."""
    (n, d), fields = pts.shape, []
    for field in (u.gradient_field for u in u_list):
        # a piece is even in a gap and odd on a threshold, the first one within
        # tolerance as on_thresholds finds it, which the row is snapped onto
        snapped, piece = pts.copy(), np.zeros(pts.shape, dtype=int)
        for i, band in enumerate(field.lookup.bands):
            for j, (t, tol) in reversed(list(enumerate(band))):
                piece[:, i] += 2 * (pts[:, i] > t)
                hit = np.abs(pts[:, i] - t) <= tol
                snapped[hit, i], piece[hit, i] = t, 2 * j + 1
        fields.append((field, snapped, piece))
    keys = np.hstack([np.zeros((n, 1), dtype=int)] + [piece for _, _, piece in fields])
    group, empty = np.unique(keys, axis=0, return_inverse=True)[1].ravel(), np.zeros(n, bool)
    for idx in (np.flatnonzero(group == c) for c in range(group.max(initial=-1) + 1)):
        q = [np.broadcast_to(np.eye(d), (idx.size, d, d))]
        for field, snapped, piece in fields:  # off u's kinks, one cell and no row
            cells = field.lookup.around(snapped[idx[0]], np.flatnonzero(piece[idx[0]] % 2))
            g = np.array([[_as_vector(field.pieces[k].formula(x), "field value") for k in cells]
                          for x in snapped[idx]])
            q.append(g[:, 1:] - g[:, :1])
        q = np.concatenate(q, axis=1)
        r = q[:, d:]  # the constancy rows, after the e_i
        r[~(np.abs(r).max(axis=2) > _CONSTANCY_TOL)] = 0.0
        # h(-q) and h(q), h F(x)'s support: the e_i give max|vertex|, a row its range
        ends = fmap.support_rows(np.stack([-q, q], axis=2).reshape(-1, d),
                                 pts[idx].repeat(2 * q.shape[1], 0)).reshape(idx.size, -1, 2)
        scale = 1.0 + np.abs(ends[:, :d]).max(axis=(1, 2))
        slack = 1e-9 * (1.0 + np.abs(r).sum(axis=2).max(axis=1, initial=0.0)) * scale
        empty[idx] = _outside_slab(ends[:, d:] * [-1.0, 1.0], _CONSTANCY_TOL * scale + slack)
    return empty


def _slab_vertices(verts: np.ndarray, dv: np.ndarray, bound: float, rank: int) -> np.ndarray:
    """The points ``lam @ verts`` at the vertices lam of the weights {lam >= 0,
    sum lam = 1, |dv lam| <= bound}, ``dv`` the rows' values at ``verts``.

    For bound > 0 no slab has both sides active, so a vertex has at most
    rank + 1 nonzero weights, and its other active constraints are slab
    sides: each support of s vertices, s - 1 rows and signs is one s x s
    system.  A solution is kept when it is feasible to an absolute
    allowance, far below the slab (the rounding of a solve).
    """
    (k, m), allow = dv.shape, 1e-12 * (1.0 + float(np.abs(dv).max()))
    sizes = range(1, min(rank + 1, m) + 1)
    if sum(math.comb(m, s) * math.comb(k, s - 1) * 2 ** (s - 1) for s in sizes) > _MAX_SYSTEMS:
        raise ValueError(f"u-reduction of {m} vertices under {k} rows needs more than "
                         f"{_MAX_SYSTEMS} vertex systems")
    points = []
    for s in sizes:
        # one right-hand side per sign choice: sum lam = 1, each row at +-bound
        rhs = np.array([(1.0, *signs) for signs in product((-bound, bound), repeat=s - 1)]).T
        for cols in map(list, combinations(range(m), s)):
            for act in map(list, combinations(range(k), s - 1)):
                try:
                    lam = np.linalg.solve(np.vstack([np.ones(s), dv[act][:, cols]]), rhs)
                except np.linalg.LinAlgError:
                    continue
                ok = ((lam.min(axis=0) >= -allow)
                      & (np.abs(dv[:, cols] @ lam).max(axis=0) <= bound + allow))
                points.extend(lam[:, ok].T @ verts[cols])
    return np.asarray(points).reshape(-1, verts.shape[1])


def _reduced_polytope(value: ConvexSet, rows: np.ndarray) -> Optional[ConvexSet]:
    """Intersect ``value`` with the slab |rows q| <= tolerance around the null
    space of ``rows`` (constancy constraints): the hull of the images of the
    vertices of the feasible weights over the vertex hull, which is exact at
    any null-space dimension; a null space of {0} gives the singleton 0.
    None when the reduction is empty.  A value with a ball part raises
    ValueError.
    """
    verts, radius = _canonical(value)
    if radius > 0.0:
        raise ValueError("u-reduction of a value with a ball part is not supported")
    scale = 1.0 + float(np.max(np.abs(verts)))
    dv = rows @ verts.T  # (k, m)
    if _outside_slab(dv, _CONSTANCY_TOL * scale):
        return None
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0])))
    points = _slab_vertices(verts, dv, _CONSTANCY_TOL * scale, rank)
    if not points.size:
        return None
    if rank == rows.shape[1]:
        return Singleton(np.zeros(rows.shape[1]))
    return _hull_of_points(points, tol=1e-10 * scale)


def u_reduced(fmap: SetValuedMap, u_list: Sequence[PiecewiseSmoothScalar], x) -> Optional[ConvexSet]:
    """Subset of F(x) whose inner product is constant over each Clarke
    gradient in the collection; None when the reduction is empty.  An empty
    collection leaves F(x) unchanged.  A value with a ball part raises
    ValueError where some Clarke gradient in the collection has more than
    one element.
    """
    x = _as_vector(x, "point")
    value = fmap.value(x)
    rows = _constancy_rows(u_list, x)
    if rows.shape[0] == 0:
        return value
    return _reduced_polytope(value, rows)


def u_generalized_derivative(v: PiecewiseSmoothScalar,
                             u_list: Sequence[PiecewiseSmoothScalar],
                             fmap: SetValuedMap, x):
    """min (regular v) or max (non-regular v) over Clarke-gradient vertices
    of the support of the reduced set; -inf when the reduction is empty
    (the support of a nonempty compact set is finite).
    """
    x = _as_vector(x, "point")
    reduced = u_reduced(fmap, u_list, x)
    if reduced is None:
        return -math.inf
    p_verts = _gradient_vertices(v, x)
    vals = [support(reduced, p) for p in p_verts]
    return min(vals) if v.regular else max(vals)


# ---------------------------------------------------------------------------
# grid certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False, eq=False)
class GridRecord:
    x: tuple
    derivative: float   # -inf where the reduction is empty
    bound: float        # the decay threshold, i.e. -bound_fn(x)
    passed: bool


def _cells(column: np.ndarray) -> np.ndarray:
    """``cell`` of each row of a float column, as an object array holding
    one string per distinct value, each printed once.  Values are keyed by
    their bits, so 0.0 and -0.0 keep their own strings."""
    keys, index = np.unique(np.asarray(column, dtype=float).view(np.uint64),
                            return_inverse=True)
    return np.array([f"{v:.17g}" for v in keys.view(float).tolist()], dtype=object)[index]


@dataclass(repr=False, eq=False)
class StabilityCertificate:
    """Grid evidence for a decay condition ``derivative <= -bound`` away
    from the equilibrium.  Evidence only: grid parameters are part of the
    statement, nothing is claimed between grid points.

    The evidence is kept as columns, one row per grid point outside the
    excluded ball: ``points`` (n, d), and the n ``derivatives`` (-inf where
    the reduction is empty), decay thresholds ``bounds`` and ``passes``
    flags.  ``records`` builds one ``GridRecord`` per point when read.
    """

    grid_lo: tuple
    grid_hi: tuple
    resolution: tuple
    exclude_radius: float
    points: np.ndarray
    derivatives: np.ndarray
    bounds: np.ndarray
    passes: np.ndarray
    name: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.passes.all())

    @property
    def min_margin(self) -> float:
        """The least bound - derivative over the points whose reduction is
        not empty (the first in grid order among equals); NaN when any of
        those margins is NaN, inf when there are none."""
        margins = (self.bounds - self.derivatives)[self.derivatives != -math.inf]
        return float(margins[margins.argmin()]) if margins.size else math.inf

    @property
    def records(self) -> list:
        return self._records(slice(None))

    @property
    def failures(self) -> list:
        return self._records(~self.passes)

    def _records(self, which) -> list:
        return list(map(GridRecord, map(tuple, self.points[which].tolist()),
                        self.derivatives[which].tolist(), self.bounds[which].tolist(),
                        self.passes[which].tolist()))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"certificate[{self.name}] {status}: {self.passes.size} grid points, "
                f"min margin {self.min_margin:.6g}, "
                f"{self.passes.size - np.count_nonzero(self.passes)} failures")

    def artifact(self) -> Artifact:
        comments = [
            f"stability certificate: {self.name}",
            f"grid lo={list(self.grid_lo)} hi={list(self.grid_hi)} "
            f"resolution={list(self.resolution)} exclude_radius={self.exclude_radius}",
            f"points={self.passes.size} min_margin={cell(self.min_margin)} passed={self.passed}",
        ]
        # the x cell is the coordinates joined by a space; "%d" prints a flag as 1 or 0
        template = " ".join(["%s"] * self.points.shape[1]) + ",%s,%s,%d\n"
        cells = [_cells(c) for c in (*self.points.T, self.derivatives, self.bounds)]
        return Artifact(["x", "derivative", "bound", "pass"], column_blocks(*cells, self.passes),
                        comments=comments, template=template)

    def to_text(self) -> str:
        return "".join(self.artifact().lines())

    def write(self, path) -> None:
        self.artifact().write(path)


def _grid_points(lo, hi, resolution, dim=None):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    res = [resolution] * lo.shape[0] if np.ndim(resolution) == 0 else list(resolution)
    for arg, shape in (("grid_lo", lo.shape), ("grid_hi", hi.shape), ("resolution", (len(res),))):
        if shape != (dim or lo.shape[0],):
            raise ValueError(f"{arg} must give one value per coordinate: got shape {shape}")
    if not all(isinstance(r, (int, np.integer)) and r >= 0 for r in res):
        raise ValueError(f"resolution must be whole numbers >= 0: got {resolution!r}")
    axes = [np.linspace(a, b, r) for a, b, r in zip(lo, hi, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts, tuple(int(r) for r in res)


def _near_kinks(pts: np.ndarray, scalars: Sequence[PiecewiseSmoothScalar]) -> np.ndarray:
    """Mask of the rows of ``pts`` within rounding of a declared threshold
    of any of ``scalars``: twice ``on_thresholds``'s tolerance plus a bound
    on rounding.  Off the mask no threshold is active, so every Clarke
    gradient is a singleton."""
    near = np.zeros(pts.shape[0], dtype=bool)
    for s in scalars:
        for i, band in enumerate(s.lookup.bands):
            for t, tol in band:
                slack = 2.0 * tol + 1e-12 * (np.abs(pts[:, i]) + abs(t))
                near |= np.abs(pts[:, i] - t) <= slack
    return near


def _outside_ball(pts: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the rows with ``not norm(x) <= radius``; rows within rounding
    of the radius are decided by the per-point norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    keep = ~(norms <= radius)
    for i in np.flatnonzero(np.abs(norms - radius) <= 1e-9 * (1.0 + abs(radius))):
        keep[i] = not float(np.linalg.norm(pts[i])) <= radius
    return keep


# a derivative or threshold that overflows fails its point, so numpy's
# warnings about it are not errors
@np.errstate(over="ignore", invalid="ignore")
def certify_stability(v: PiecewiseSmoothScalar,
                      u_list: Sequence[PiecewiseSmoothScalar],
                      fmap: SetValuedMap,
                      grid_lo, grid_hi, resolution,
                      exclude_radius: float,
                      bound: PiecewiseSmoothScalar,
                      name: str = "") -> StabilityCertificate:
    """Evaluate the generalized decay inequality at every grid point outside
    the excluded ball around the origin.  Failures are recorded, not raised;
    a malformed grid, or one with no such point, raises ValueError.

    Points off every kink of ``v`` and of the ``u_list`` have singleton
    Clarke gradients and no constancy rows, so their derivative is the
    support of F(x) along grad v(x): one ``fmap.support_rows`` call takes
    all of them.  Near a kink, points ``_empty_on_rows`` finds empty get -inf
    and the rest go through ``u_generalized_derivative`` one at a time.  A
    ``v`` and a ``bound`` written on rows give every gradient and every decay
    threshold in one call.  The certificate keeps the results as columns.
    """
    if not float(exclude_radius) >= 0.0:
        raise ValueError(f"exclude_radius must be a number >= 0: got {exclude_radius!r}")
    pts, res = _grid_points(grid_lo, grid_hi, resolution, v.dim)
    pts.setflags(write=False)
    near = _near_kinks(pts, [v, *u_list])
    kept = np.flatnonzero(_outside_ball(pts, exclude_radius))
    if not kept.size:
        raise ValueError(f"no grid point lies outside exclude_radius {exclude_radius!r}")
    rows, near = pts[kept], near[kept]
    if bound.rows is not None:
        thresholds = -bound.rows[0](rows)
    else:
        thresholds = np.array([-bound.value(x) for x in rows], dtype=float)
    off = rows[~near]
    if v.rows is not None:
        grads = v.rows[1](off)
    else:
        grads = np.array([v.gradient(x) for x in off], dtype=float).reshape(off.shape)
    derivs = np.empty(rows.shape[0])
    derivs[~near] = fmap.support_rows(grads, off)
    near = np.flatnonzero(near)
    derivs[near] = -math.inf
    for j in near[~_empty_on_rows(u_list, fmap, rows[near])].tolist():
        derivs[j] = u_generalized_derivative(v, u_list, fmap, rows[j])
    # -inf is an empty reduction only near a kink; elsewhere, and for a
    # threshold, a non-finite value is an overflow, which certifies nothing
    empty = np.zeros(rows.shape[0], dtype=bool)
    empty[near] = derivs[near] == -math.inf
    passes = empty | (np.isfinite(derivs) & np.isfinite(thresholds)
                      & (derivs <= thresholds + _PASS_TOL))
    return StabilityCertificate(
        grid_lo=tuple(np.atleast_1d(np.asarray(grid_lo, dtype=float)).tolist()),
        grid_hi=tuple(np.atleast_1d(np.asarray(grid_hi, dtype=float)).tolist()),
        resolution=res, exclude_radius=float(exclude_radius), points=rows,
        derivatives=derivs, bounds=thresholds, passes=passes, name=name)
