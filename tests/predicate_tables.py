"""The predicate declarations that interval regions replaced, kept as the
reference the region tables are checked against.

Each table is an ordered list of predicates, the first that holds winning.
The nonconv predicates join comparisons with ``&``, so they answer for plain
floats and for the columns of a row array alike.  ``old_krasovskii`` is the
hull operator that probed each side of a threshold with these predicates.
"""

import itertools

import numpy as np

from sadi.sets import Singleton, _as_vector, _hull_of_points, on_thresholds
from sadi.sets import _thresholds

# the five nonconv cells before the catch-all, region ids 1..5 (6 is the catch-all)
NONCONV = [
    lambda x: (x[0] == 2.0) & (x[1] == 2.0),
    lambda x: (1.0 <= x[0]) & (x[0] <= 2.0) & (-1.0 < x[1]) & (x[1] <= 2.0),
    lambda x: (-1.0 < x[0]) & (x[0] <= 2.0) & (-2.0 < x[1]) & (x[1] <= -1.0),
    lambda x: (-2.0 < x[0]) & (x[0] <= -1.0) & (-2.0 <= x[1]) & (x[1] < -1.0),
    lambda x: (-2.0 <= x[0]) & (x[0] < 1.0) & (1.0 <= x[1]) & (x[1] <= 2.0),
]
NONCONV_THRESHOLDS = [[-2.0, -1.0, 1.0, 2.0], [-2.0, -1.0, 1.0, 2.0]]


def nonconv_region(x) -> int:
    """1-based id of the first nonconv cell holding ``x``, floats."""
    return next((k + 1 for k, pred in enumerate(NONCONV) if pred(x)), len(NONCONV) + 1)


def nonconv_region_rows(rows: np.ndarray) -> np.ndarray:
    masks = [np.broadcast_to(np.asarray(pred(rows.T), dtype=bool), rows.shape[:1])
             for pred in NONCONV]
    return np.select(masks, range(1, len(NONCONV) + 1), default=len(NONCONV) + 1)


def corner_hinge() -> list:
    """The nine corner-hinge predicates, in the order of the pieces."""

    def region_pred(sig1: int, sig2: int):
        def pred(w) -> bool:
            ok1 = (w[0] >= 1.0 if sig1 > 0 else (w[0] <= -1.0 if sig1 < 0 else -1.0 <= w[0] <= 1.0))
            ok2 = (w[1] >= 1.0 if sig2 > 0 else (w[1] <= -1.0 if sig2 < 0 else -1.0 <= w[1] <= 1.0))
            return ok1 and ok2

        return pred

    return [region_pred(s1, s2) for s1, s2 in itertools.product((1, 0, -1), repeat=2)]


CORNER_HINGE_THRESHOLDS = [[-1.0, 1.0]] * 2


def sign_filter(t_star: float) -> list:
    """The sign filter's three pieces at its median ``t_star``."""
    return [lambda t: t[0] > t_star, lambda t: t[0] < t_star, lambda t: True]


def first_match(preds: list, x) -> int:
    """Position of the first predicate holding at ``x``; raises as the old
    ``piece_at`` did when none holds."""
    for k, pred in enumerate(preds):
        if pred(x):
            return k
    raise ValueError(f"no piece matches {list(x)}")


def old_krasovskii(preds: list, formulas: list, thresholds, x):
    """The hull of the pieces' formulas at ``x`` snapped onto the thresholds
    it sits on, each piece found by probing a small step to either side."""
    x = _as_vector(x, "state")
    thresholds, bands = _thresholds(x.shape[0], thresholds)
    on = on_thresholds(x, bands)
    if not on:
        return Singleton(_as_vector(formulas[first_match(preds, x)](x)))
    snapped = np.array(x)
    probes_h = []
    for i, t in on:
        snapped[i] = t
        gaps = [abs(t - u) for u in thresholds[i] if u != t]
        h = 1e-6 * (1.0 + abs(t))
        if gaps:
            h = min(h, min(gaps) / 2.0)
        probes_h.append(h)
    values = []
    for signs in itertools.product((-1.0, 1.0), repeat=len(on)):
        probe = np.array(snapped)
        for ((i, _), h, s) in zip(on, probes_h, signs):
            probe[i] = snapped[i] + s * h
        values.append(_as_vector(formulas[first_match(preds, probe)](snapped)))
    return _hull_of_points(np.asarray(values))
