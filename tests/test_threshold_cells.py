"""Interval regions against the predicate tables they replaced.

Every piecewise object is declared as ordered regions of per-coordinate
intervals and looked up through one ``ThresholdCells``.  The old predicate
declarations (``predicate_tables``) are the reference: nonconv's cell
table, the rootfind corner hinge and the noiseless sign filter must pick the
same region at every elementary-cell representative, at 200k random points,
at every threshold and one ulp to either side of it, and at -0.0, ±inf and
NaN, and give the same values, bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

from predicate_tables import (
    CORNER_HINGE_THRESHOLDS,
    NONCONV,
    NONCONV_THRESHOLDS,
    corner_hinge,
    first_match,
    nonconv_region,
    nonconv_region_rows,
    old_krasovskii,
    sign_filter,
)
from sadi.nonsmooth import _grid_points, _near_kinks, clarke_gradient, smooth_scalar
from sadi.presets import (
    SignFilterLaw,
    _corner_hinge_sum,
    _sign_field,
    nonconvergence_preset,
    rootfind_preset,
)
from sadi.sets import (
    THRESHOLD_TOL,
    Cell,
    CellTable,
    FieldPiece,
    PiecewiseField,
    ThresholdCells,
    _thresholds,
    canonical_vertices,
    krasovskii,
    on_thresholds,
)

_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]
_N_RANDOM = 200_000


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _levels(ts: list) -> list:
    """One coordinate's test values: a point inside every gap, each
    threshold and its neighbours one ulp away, and the special values."""
    ends = [ts[0] - 1.0, *ts, ts[-1] + 1.0]
    gaps = [(a + b) / 2.0 for a, b in zip(ends, ends[1:])]
    ulps = [np.nextafter(t, s) for t in ts for s in (-math.inf, math.inf)]
    return [*gaps, *ts, *map(float, ulps), *_SPECIALS]


def _points(thresholds: list, rng) -> np.ndarray:
    """Every combination of the per-coordinate levels, then random points
    whose coordinates are uniform, a threshold, a threshold one ulp off or
    a special value."""
    grid = np.array(list(itertools.product(*[_levels(ts) for ts in thresholds])))
    cols = []
    for ts in thresholds:
        on = np.array(ts)[rng.integers(len(ts), size=_N_RANDOM)]
        off = np.nextafter(on, np.where(rng.random(_N_RANDOM) < 0.5, -np.inf, np.inf))
        kind = rng.random(_N_RANDOM)
        col = np.where(kind < 0.5, rng.uniform(-3.0, 3.0, _N_RANDOM),
                       np.where(kind < 0.75, on, off))
        special = kind > 0.99
        col[special] = np.array(_SPECIALS)[rng.integers(len(_SPECIALS), size=special.sum())]
        cols.append(col)
    return np.concatenate([grid, np.stack(cols, axis=1)])


@pytest.fixture(scope="module")
def nonconv_points():
    return _points(NONCONV_THRESHOLDS, np.random.default_rng(1701))


# --- nonconv: the cell table ------------------------------------------------------


def test_nonconv_regions_match_the_predicates(nonconv_points):
    table = nonconvergence_preset().spec.drift.sample_term
    assert table.thresholds == NONCONV_THRESHOLDS
    old = nonconv_region_rows(nonconv_points)
    assert table.region_ids(nonconv_points).tolist() == old.tolist()
    rows = nonconv_points.tolist()
    assert [table.lookup.index(x) + 1 for x in rows] == [nonconv_region(x) for x in rows]
    assert nonconv_region([math.nan, 0.0]) == nonconv_region([0.0, math.nan]) == 6


def _old_cell_bounds(cell, coords):
    """A cell's bounds as the predicate table gave them: the declared lo and
    hi, or for a sloped point offset + slope*x, a zero offset as -0.0."""
    if not cell.slope:
        return cell.lo, cell.hi
    point = [(o or -0.0) + cell.slope * v for o, v in zip(cell.lo, coords)]
    return point, point


def test_nonconv_terms_and_bounds_match_the_predicates(nonconv_points):
    p = nonconvergence_preset()
    table, fmap = p.spec.drift.sample_term, p.spec.drift.set_map
    assert fmap.thresholds == NONCONV_THRESHOLDS
    old = nonconv_region_rows(nonconv_points) - 1
    for x, k in zip(nonconv_points.tolist(), old.tolist()):
        assert table.term_at(x) == table._terms[k]
        lo, hi = fmap.bounds(x)
        want_lo, want_hi = _old_cell_bounds(table.cells[k], x)
        assert _bits(lo) == _bits(want_lo) and _bits(hi) == _bits(want_hi)

    # the row forms, as np.select over the old predicate masks
    masks = [np.broadcast_to(np.asarray(pred(nonconv_points.T), dtype=bool),
                             nonconv_points.shape[:1]) for pred in NONCONV]
    per_cell = [_old_cell_bounds(c, nonconv_points.T) for c in table.cells]
    lo_rows, hi_rows = fmap.bound_rows(nonconv_points)
    for side, got in ((0, lo_rows), (1, hi_rows)):
        want = np.stack([np.select(masks, [b[side][i] for b in per_cell[:-1]],
                                   default=per_cell[-1][side][i]) for i in range(2)], axis=1)
        assert _bits(got) == _bits(want)
    choices = [np.asarray(o) + s * nonconv_points if s else np.asarray(o)
               for o, s in table._terms]
    want = np.select([m[:, None] for m in masks], choices[:-1], default=choices[-1])
    assert _bits(table(nonconv_points)) == _bits(want)


# --- the corner hinge: values, gradients and Clarke gradients --------------------


def _old_gradient(u, preds, x):
    if on_thresholds(x, _thresholds(2, CORNER_HINGE_THRESHOLDS)[1]):
        raise ValueError("on a kink")
    return u.pieces[first_match(preds, x)].gradient(x)


def _outcome(fn, *args):
    """The call's value as bytes, or the error it raised."""
    try:
        return _bits(fn(*args))
    except ValueError:
        return "raised"


def test_corner_hinge_pieces_match_the_predicates():
    u = _corner_hinge_sum()
    preds = corner_hinge()
    assert u.thresholds == CORNER_HINGE_THRESHOLDS
    pts = _points(CORNER_HINGE_THRESHOLDS, np.random.default_rng(1702)).tolist()
    assert ([_outcome(u.lookup.index, x) for x in pts]
            == [_outcome(first_match, preds, x) for x in pts])
    # the level grid and the first random points through the public calls
    for x in pts[:20_000]:
        assert _outcome(u.value, x) == _outcome(
            lambda y: u.pieces[first_match(preds, y)].value(np.array(y)), x)
        assert _outcome(u.gradient, x) == _outcome(_old_gradient, u, preds, np.array(x))
    # a NaN coordinate is constrained by every piece, so no piece holds it
    for x in ([math.nan, 0.0], [0.0, math.nan]):
        with pytest.raises(ValueError):
            u.value(x)


def _on_kink_points(rng) -> np.ndarray:
    """The rootfind certificate's near-kink grid points, the level grid's
    points on a kink, and random points on a kink, some a fraction of the
    tolerance off it."""
    stability = rootfind_preset().stability
    pts, _ = _grid_points(stability.grid_lo, stability.grid_hi, stability.resolution)
    u = stability.u_list[0]
    cert = pts[_near_kinks(pts, [stability.v, u])]
    grid = np.array(list(itertools.product(*[_levels(ts) for ts in CORNER_HINGE_THRESHOLDS])))
    grid = grid[np.isfinite(grid).all(axis=1)]
    rand = rng.uniform(-3.0, 3.0, size=(2_000, 2))
    axis = rng.integers(2, size=2_000)
    rand[np.arange(2_000), axis] = rng.choice([-1.0, 1.0], size=2_000) * (
        1.0 + rng.uniform(-1.0, 1.0, size=2_000) * 2.0 * THRESHOLD_TOL)
    return np.concatenate([cert, grid, rand])


def test_corner_hinge_clarke_gradients_match_the_probes():
    u = _corner_hinge_sum()
    preds = corner_hinge()
    gradients = [p.gradient for p in u.pieces]
    pts = _on_kink_points(np.random.default_rng(1703))
    assert len(pts) > 480
    on = 0
    for x in pts:
        got = canonical_vertices(clarke_gradient(u, x))
        want = canonical_vertices(old_krasovskii(preds, gradients, CORNER_HINGE_THRESHOLDS, x))
        assert got.shape == want.shape and _bits(got) == _bits(want)
        on += got.shape[0] > 1
    assert on >= 480


# --- the noiseless sign filter: field values and hulls -----------------------------


@pytest.mark.parametrize("t_star", [1.0, -0.0])
def test_sign_filter_field_and_hull_match_the_predicates(t_star):
    field = _sign_field(SignFilterLaw(theta_true=[t_star], scale=0.0))
    preds = sign_filter(t_star)
    formulas = [p.formula for p in field.pieces]
    assert field.thresholds == [[t_star]]
    rng = np.random.default_rng(1704)
    # points within and beyond the threshold's tolerance, then the levels and
    # the random points
    tol = THRESHOLD_TOL * (1.0 + abs(t_star))
    pts = np.concatenate([t_star + rng.uniform(-3.0, 3.0, size=(2_000, 1)) * tol,
                          _points([[t_star]], rng)])
    for x in pts:
        assert _bits(field.value(x)) == _bits(formulas[first_match(preds, x)](x))
    for x in pts[:12_000]:
        got = krasovskii(field, x)
        want = old_krasovskii(preds, formulas, [[t_star]], x)
        assert type(got) is type(want)
        assert _bits(canonical_vertices(got)) == _bits(canonical_vertices(want))


# --- the lookup itself -------------------------------------------------------------


def test_unconstrained_coordinates_get_no_index():
    u = smooth_scalar(5, lambda rows: rows.sum(axis=1), np.ones_like)
    assert u.thresholds == [[]] * 5
    assert u.lookup._table.size == 1
    assert u.lookup.index([math.nan] * 5) == 0
    field = PiecewiseField(3, [FieldPiece((None, (0.0, math.inf, "()"), None), lambda x: x),
                               FieldPiece(None, lambda x: -x)])
    # only coordinate 1 is indexed: the gap below 0, 0, the gap above, NaN
    assert field.lookup._table.size == 4
    assert field.lookup.index([math.nan, 1.0, -5.0]) == 0
    assert field.lookup.index([5.0, math.nan, 1.0]) == 1


def test_lookup_on_floats_and_columns_agree():
    cells = ThresholdCells(2, [((0.0, 1.0, "[)"), None), (None, (-1.0, -1.0)),
                               ((-math.inf, 0.0, "()"), (-2.0, 3.0, "(]")), None])
    assert cells.thresholds == [[0.0, 1.0], [-2.0, -1.0, 3.0]]
    pts = _points(cells.thresholds, np.random.default_rng(1705))[:5_000]
    assert cells.index_rows(pts).tolist() == [cells.index(x) for x in pts.tolist()]


def test_hull_reads_the_cells_next_to_a_point_on_thresholds():
    field = PiecewiseField(2, [
        FieldPiece(((0.0, math.inf, "()"), (0.0, math.inf, "()")), lambda x: np.array([1.0, 0.0])),
        FieldPiece(((0.0, math.inf, "()"), None), lambda x: np.array([0.0, 1.0])),
        FieldPiece(None, lambda x: np.array([-1.0, -1.0])),
    ])
    assert field.lookup.around([0.0, 0.0], [0, 1]) == [2, 2, 1, 0]
    assert field.lookup.around([0.0, 5.0], [0]) == [2, 0]
    hull = krasovskii(field, [0.0, 0.0])
    assert sorted(map(tuple, canonical_vertices(hull).tolist())) == [
        (-1.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_a_cell_table_ends_with_its_catch_all():
    with pytest.raises(ValueError, match="catch-all"):
        CellTable(1, [Cell(None, (0.0,), (0.0,)), Cell(((0.0, 1.0),), (1.0,), (1.0,))])
