import math

import numpy as np
import pytest

from sadi.nonsmooth import PiecewiseSmoothScalar, SmoothPiece, smooth_scalar
from sadi.sets import FieldPiece, PiecewiseField, SetValuedMap, krasovskii


POSITIVE = (0.0, math.inf, "()")
NEGATIVE = (-math.inf, 0.0, "()")


def neg_sign_field(scale: float = 1.0) -> PiecewiseField:
    """One-dimensional field -scale*sign(y)."""
    return PiecewiseField(1, [
        FieldPiece((POSITIVE,), lambda y: np.array([-scale])),
        FieldPiece((NEGATIVE,), lambda y: np.array([scale])),
        FieldPiece(None, lambda y: np.array([0.0])),
    ])


def neg_sign_map(scale: float = 1.0) -> SetValuedMap:
    field = neg_sign_field(scale)
    return SetValuedMap(
        1,
        lambda x: krasovskii(field, x),
        common_bound=scale,
        name="neg_sign",
        thresholds=field.thresholds,
    )


def relu_scalar() -> PiecewiseSmoothScalar:
    """max(x, 0) with its kink at the origin."""
    return PiecewiseSmoothScalar(1, [
        SmoothPiece((POSITIVE,), lambda x: float(x[0]), lambda x: np.array([1.0])),
        SmoothPiece(None, lambda x: 0.0, lambda x: np.array([0.0])),
    ], regular=True, name="relu")


def abs_scalar() -> PiecewiseSmoothScalar:
    return PiecewiseSmoothScalar(1, [
        SmoothPiece((POSITIVE,), lambda x: float(x[0]), lambda x: np.array([1.0])),
        SmoothPiece((NEGATIVE,), lambda x: float(-x[0]), lambda x: np.array([-1.0])),
        SmoothPiece(None, lambda x: abs(float(x[0])), lambda x: np.array([0.0])),
    ], regular=True, name="abs")


def squared_norm(dim: int) -> PiecewiseSmoothScalar:
    return smooth_scalar(dim, lambda rows: (rows[:, None, :] @ rows[:, :, None])[:, 0, 0],
                         lambda rows: 2.0 * rows, name="sqnorm")


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def tightness_arrays(series, n_checkpoints):
    """A list of NormalizedSeries as the (indices, values) arrays of
    ``tightness_diagnostic``."""
    from sadi.rates import tightness_indices

    idx = tightness_indices(series[0].start, series[0].last_index, n_checkpoints)
    return idx, np.stack([[s.value(int(n)) for n in idx] for s in series])


def sdi_arrays(series, t_eval):
    """A list of NormalizedSeries as the (u_start, u_eval) arrays of
    ``compare_to_sdi``."""
    return (np.stack([s.value(s.start) for s in series]),
            np.stack([s.interpolate(t_eval) for s in series]))
