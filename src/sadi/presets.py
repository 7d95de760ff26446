"""Ready-made experiment presets with analytic ground truths.

Each preset is one ``RunSpec`` of the recursion (drift with its analysis
map, default start, schedule, noises, bias, projection) plus its limit
analysis: the known equilibrium or roots when they exist, and a Lyapunov
bundle for grid certification.
Fast vectorized sample terms mirror the declarative maps exactly on
generic states; the agreement is covered by tests.
"""

from __future__ import annotations

import inspect
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .engine import (
    Drift,
    GaussianNoise,
    NoiseModel,
    RunSpec,
    ShrinkingGaussianBias,
    StepSchedule,
)
from .nonsmooth import (
    KinkSurface,
    PiecewiseSmoothScalar,
    SmoothPiece,
    StabilityCertificate,
    certify_stability,
    smooth_scalar,
)
from .sets import (
    MEMBERSHIP_TOL,
    Box,
    Cell,
    CellTable,
    ConvexSet,
    FieldPiece,
    LeastNorm,
    PiecewiseField,
    Polytope,
    SetValuedMap,
    Singleton,
    contains,
    krasovskii,
    minkowski_sum,
)

__all__ = [
    "RegressionLaw",
    "SignFilterLaw",
    "StabilityBundle",
    "Preset",
    "lasso_preset",
    "pegasos_preset",
    "rootfind_preset",
    "sign_error_filter_preset",
    "nonconvergence_preset",
    "preset_by_name",
]

# coordinate descent stops after this many sweeps, or at a sweep moving no coordinate further
_DESCENT_SWEEPS = 10_000
_DESCENT_TOL = 1e-14


# ---------------------------------------------------------------------------
# data laws
# ---------------------------------------------------------------------------


@dataclass
class RegressionLaw:
    """(feature, response) law y = theta^T x + noise for regression drifts.

    ``features="ones"`` fixes x to the all-ones vector (the scalar-probe
    family); ``features="gaussian"`` draws x ~ N(mean, cov).
    """

    theta: np.ndarray
    features: str = "ones"
    noise_std: float = 1.0
    feature_mean: Optional[np.ndarray] = None
    feature_cov: Optional[np.ndarray] = None

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if self.features not in ("ones", "gaussian"):
            raise ValueError("features must be 'ones' or 'gaussian'")
        if self.features == "gaussian":
            if self.feature_mean is None:
                self.feature_mean = np.zeros(self.dim)
            self.feature_mean = np.atleast_1d(np.asarray(self.feature_mean, dtype=float))
            if self.feature_cov is None:
                self.feature_cov = np.eye(self.dim)
            self.feature_cov = np.atleast_2d(np.asarray(self.feature_cov, dtype=float))

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    def second_moment(self) -> np.ndarray:
        if self.features == "ones":
            return np.ones((self.dim, self.dim))
        return self.feature_cov + np.outer(self.feature_mean, self.feature_mean)

    def cross_moment(self) -> np.ndarray:
        return self.second_moment() @ self.theta

    def noise_model(self) -> NoiseModel:
        """Samples feeding the smooth regression term.

        ones: a single response-noise component.  gaussian: the feature
        vector followed by the response-noise component.
        """
        if self.features == "ones":
            return GaussianNoise([0.0], [[self.noise_std ** 2]])
        d = self.dim
        mean = np.concatenate([self.feature_mean, [0.0]])
        cov = np.zeros((d + 1, d + 1))
        cov[:d, :d] = self.feature_cov
        cov[d, d] = self.noise_std ** 2
        return GaussianNoise(mean, cov)

    def smooth_term(self) -> Callable:
        """Rowwise (y - w.x) x with (x, y) decoded from the noise sample."""
        theta = self.theta
        if self.features == "ones":
            theta_sum = float(np.sum(theta))

            def term(w_rows, z_rows):
                resid = theta_sum + z_rows[:, 0] - np.sum(w_rows, axis=1)
                return np.repeat(resid[:, None], w_rows.shape[1], axis=1)

            return term

        d = self.dim

        def term(w_rows, z_rows):
            x = z_rows[:, :d]
            y = x @ theta + z_rows[:, d]
            resid = y - np.einsum("ij,ij->i", w_rows, x)
            return resid[:, None] * x

        return term


@dataclass
class SignFilterLaw:
    """Stationary (y, phi) law with phi = all-ones: y = phi^T theta + noise."""

    theta_true: np.ndarray
    noise: str = "laplace"
    scale: float = 1.0

    def __post_init__(self):
        self.theta_true = np.atleast_1d(np.asarray(self.theta_true, dtype=float))
        if self.noise not in ("laplace", "gaussian"):
            raise ValueError("noise must be 'laplace' or 'gaussian'")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.scale == 0 and self.dim != 1:
            raise ValueError("noiseless sign filter supported in one dimension only")

    @property
    def dim(self) -> int:
        return self.theta_true.shape[0]

    def noise_cdf(self, t: float) -> float:
        if self.scale == 0:
            return 0.0 if t < 0 else 1.0
        if self.noise == "laplace":
            if t < 0:
                return 0.5 * math.exp(t / self.scale)
            return 1.0 - 0.5 * math.exp(-t / self.scale)
        return 0.5 * (1.0 + math.erf(t / (self.scale * math.sqrt(2.0))))

    def mean_sign_drift(self, theta) -> np.ndarray:
        """E[phi sign(y - phi^T theta)] = (1 - 2 F(shift)) * ones."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        shift = float(np.sum(theta) - np.sum(self.theta_true))
        return (1.0 - 2.0 * self.noise_cdf(shift)) * np.ones(self.dim)

    def noise_model(self) -> NoiseModel:
        if self.noise == "gaussian":
            return GaussianNoise([0.0], [[self.scale ** 2]])
        b = self.scale

        def sampler_block(gen, n):
            u = gen.random((n, 1)) - 0.5
            return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))

        class _Laplace(NoiseModel):
            dim = 1

            def sample_block(self, gen, n, n0=0):
                return sampler_block(gen, n)

        return _Laplace()


# ---------------------------------------------------------------------------
# preset containers
# ---------------------------------------------------------------------------


@dataclass
class StabilityBundle:
    """Everything the grid certifier needs: the shifted map (equilibrium at
    the origin), the Lyapunov function, the reduction collection, the decay
    bound, and the documented grid."""

    v: PiecewiseSmoothScalar
    u_list: list
    shifted_map: SetValuedMap
    bound: PiecewiseSmoothScalar
    grid_lo: tuple
    grid_hi: tuple
    resolution: int
    exclude_radius: float

    def certify(self, name: str = "") -> StabilityCertificate:
        return certify_stability(self.v, self.u_list, self.shifted_map,
                                 self.grid_lo, self.grid_hi, self.resolution,
                                 self.exclude_radius, self.bound, name=name)


def default_schedule() -> StepSchedule:
    """a_n = (n + 1)^(-1/2): every preset's step size, and an inline drift's
    when its config has no schedule block."""
    return StepSchedule.power_law(1.0, 0.5)


def _recursion(name: str, drift: Drift, x0, **pieces) -> RunSpec:
    """A preset's recursion: its default start, the default schedule and
    1000 steps, with ``pieces`` (noises, bias) in place of the defaults."""
    return RunSpec(drift=drift, schedule=default_schedule(), x0=x0, n_steps=1000, name=name,
                   **pieces)


@dataclass
class Preset:
    """One application: ``spec`` is its recursion (``spec.name`` names the
    preset), the rest its limit analysis."""

    spec: RunSpec
    x_star: Optional[np.ndarray] = None
    roots: Optional[list] = None
    stability: Optional[StabilityBundle] = None

    def limit_value(self, x) -> ConvexSet:
        """Mean limit dynamics at x: smooth mean plus the analysis map."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        drift, parts = self.spec.drift, []
        if drift.smooth_mean is not None:
            parts.append(Singleton(drift.mean_field(x)))
        if drift.set_map is not None:
            parts.append(drift.set_map.value(x))
        if not parts:
            raise ValueError("preset has no limit dynamics")
        out = parts[0]
        for p in parts[1:]:
            out = minkowski_sum(out, p)
        return out

    def check_root(self, point=None) -> bool:
        pts = [point] if point is not None else (
            [self.x_star] if self.x_star is not None else (self.roots or []))
        if not pts:
            raise ValueError("no declared root to check")
        zero = np.zeros(self.spec.drift.dim)
        return all(contains(self.limit_value(p), zero, MEMBERSHIP_TOL) for p in pts)


# ---------------------------------------------------------------------------
# shared Lyapunov ingredients
# ---------------------------------------------------------------------------


def _coordinate_sum(dim: int) -> PiecewiseSmoothScalar:
    ones = np.ones(dim)
    return smooth_scalar(dim, lambda x: float(np.sum(x)), lambda x: np.array(ones),
                         name="coordinate_sum")


def _scaled_squared_norm(dim: int, c: float, name: str) -> PiecewiseSmoothScalar:
    return smooth_scalar(dim, lambda x: c * float(x @ x), lambda x: 2.0 * c * x, name=name)


# ---------------------------------------------------------------------------
# the soft-threshold interval map and the lasso preset
# ---------------------------------------------------------------------------


def _sign_interval_bounds(w: np.ndarray, lam: float):
    lo = np.where(w > 0.0, -lam, np.where(w < 0.0, lam, -lam))
    hi = np.where(w > 0.0, -lam, np.where(w < 0.0, lam, lam))
    return lo, hi


def sign_interval_map(dim: int, lam: float) -> SetValuedMap:
    """Product of per-coordinate intervals: {-lam} for positive entries,
    {+lam} for negative ones, [-lam, lam] at zero."""
    if lam <= 0:
        raise ValueError("lam must be positive")

    def rule(w: np.ndarray) -> ConvexSet:
        lo, hi = _sign_interval_bounds(w, lam)
        return Box(lo, hi)

    return SetValuedMap(dim, rule, common_bound=lam * math.sqrt(dim), name="subgradient_box",
                        thresholds=[[0.0]] * dim)


def sign_term(lam: float) -> Callable:
    """Rowwise -lam*sign(w), the least-norm selection of ``sign_interval_map``."""

    def sample_term(w_rows, xi_rows):
        return -lam * np.sign(w_rows)

    return sample_term


def soft_threshold_solution(m: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Minimizer of 0.5 w'Mw - b'w + lam*|w|_1 by cyclic coordinate descent."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    d = b.shape[0]
    w = np.zeros(d)
    for _ in range(_DESCENT_SWEEPS):
        delta = 0.0
        for i in range(d):
            r = b[i] - m[i] @ w + m[i, i] * w[i]
            new = math.copysign(max(abs(r) - lam, 0.0), r) / m[i, i]
            delta = max(delta, abs(new - w[i]))
            w[i] = new
        if delta < _DESCENT_TOL:
            break
    return w


def lasso_preset(lam: float, data: Optional[RegressionLaw] = None, dim: int = 1) -> Preset:
    """Online L1-penalized regression: smooth residual term plus the
    per-coordinate sign interval map scaled by the penalty."""
    if data is None:
        data = RegressionLaw(theta=np.ones(dim), features="ones")
    dim = data.dim
    m = data.second_moment()
    b = data.cross_moment()
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    pd = bool(eigs[0] > 1e-12)
    if not pd:
        warnings.warn("feature second moment is not positive definite; "
                      "no unique minimizer is declared", stacklevel=2)

    gmap = sign_interval_map(dim, lam)

    def smooth_mean(w):
        return b - m @ w

    drift = Drift(dim=dim, smooth=data.smooth_term(), smooth_mean=smooth_mean,
                  set_map=gmap, selector=LeastNorm(), sample_term=sign_term(lam))

    x_star = soft_threshold_solution(m, b, lam) if pd else None

    stability = None
    if pd and x_star is not None:
        shift = np.array(x_star)

        def shifted_rule(w: np.ndarray) -> ConvexSet:
            lo, hi = _sign_interval_bounds(w + shift, lam)
            return Box(lo + (b - m @ (w + shift)), hi + (b - m @ (w + shift)))

        span = 3.0 if dim == 1 else 2.0
        bound_norm = float(np.linalg.norm(b)) + float(np.linalg.norm(m)) * (
            span * math.sqrt(dim) + float(np.linalg.norm(shift))) + lam * math.sqrt(dim)
        shifted = SetValuedMap(dim, shifted_rule, common_bound=bound_norm + 1.0,
                               name="lasso_shifted")
        c1 = float(eigs[0])
        stability = StabilityBundle(
            v=_scaled_squared_norm(dim, 1.0, "squared_norm"), u_list=[_coordinate_sum(dim)],
            shifted_map=shifted, bound=_scaled_squared_norm(dim, c1, "decay_bound"),
            grid_lo=tuple([-span] * dim), grid_hi=tuple([span] * dim),
            resolution=241 if dim == 1 else 41, exclude_radius=0.01)

    return Preset(_recursion("lasso", drift, np.full(dim, 5.0), noise_zeta=data.noise_model()),
                  x_star=x_star, stability=stability)


# ---------------------------------------------------------------------------
# pegasos (hinge-loss SVM) preset
# ---------------------------------------------------------------------------


def pegasos_preset(lam: float, feature_mean=(1.0, 2.0), feature_cov=None,
                   ridge_coeff: float = 2.0) -> Preset:
    """Ridge term plus per-sample hinge subgradient.

    The smooth part is -ridge_coeff*lam*w; ridge_coeff=2 matches the
    squared-norm penalty lam*|w|^2 (gradient 2*lam*w), ridge_coeff=1 the
    half-penalty convention.  The analysis map applies the margin condition
    to the mean feature vector.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    mu = np.atleast_1d(np.asarray(feature_mean, dtype=float))
    dim = mu.shape[0]
    cov = np.eye(dim) if feature_cov is None else np.atleast_2d(np.asarray(feature_cov, dtype=float))
    kappa = float(ridge_coeff) * lam

    # the hinge's mean subgradient: none past the margin, mu inside it, the segment on it
    past, inside = Singleton(np.zeros(dim)), Singleton(mu)
    segment = Polytope(np.stack([np.zeros(dim), mu]))

    def hinge_rule(w: np.ndarray) -> ConvexSet:
        margin = float(w @ mu)
        if margin > 1.0:
            return past
        if margin < 1.0:
            return inside
        return segment

    gmap = SetValuedMap(dim, hinge_rule, common_bound=float(np.linalg.norm(mu)) + 1e-12,
                        name="hinge_mean")

    def smooth(w_rows, z_rows):
        return -kappa * w_rows

    def smooth_mean(w):
        return -kappa * np.asarray(w, dtype=float)

    def sample_term(w_rows, xi_rows):
        active = np.einsum("ij,ij->i", w_rows, xi_rows) < 1.0
        return xi_rows * active[:, None]

    drift = Drift(dim=dim, smooth=smooth, smooth_mean=smooth_mean,
                  set_map=gmap, selector=LeastNorm(), sample_term=sample_term)

    mu2 = float(mu @ mu)
    if mu2 == 0.0:
        x_star = np.zeros(dim)
    elif kappa <= mu2:
        x_star = mu / mu2          # margin boundary equilibrium
    else:
        x_star = mu / kappa        # interior active-hinge equilibrium

    shift = np.array(x_star)

    def shifted_rule(w: np.ndarray) -> ConvexSet:
        return minkowski_sum(Singleton(-kappa * (w + shift)), gmap.value(w + shift))

    shifted = SetValuedMap(dim, shifted_rule,
                           common_bound=kappa * (2.0 * math.sqrt(dim) +
                                                 float(np.linalg.norm(shift))) +
                           float(np.linalg.norm(mu)) + 1.0,
                           name="hinge_mean_shifted")
    stability = StabilityBundle(
        v=_scaled_squared_norm(dim, 1.0, "squared_norm"), u_list=[_coordinate_sum(dim)],
        shifted_map=shifted, bound=_scaled_squared_norm(dim, lam, "decay_bound"),
        grid_lo=tuple([-2.0] * dim), grid_hi=tuple([2.0] * dim),
        resolution=81, exclude_radius=0.01)

    x0 = np.array([3.0, 5.0]) if dim == 2 else np.zeros(dim)
    return Preset(_recursion("pegasos", drift, x0, noise_xi=GaussianNoise(mu, cov)),
                  x_star=x_star, stability=stability)


# ---------------------------------------------------------------------------
# two-dimensional root finding preset
# ---------------------------------------------------------------------------


def _unit_spike_bounds(v: float):
    # the auxiliary interval: [-1, 1] exactly at v == 1, {0} elsewhere
    if v == 1.0:
        return -1.0, 1.0
    return 0.0, 0.0


def rootfind_preset() -> Preset:
    """Zero finding for the planar map whose components swap coordinates
    with a sign flip and carry a unit interval spike on the lines w_i = 1."""
    dim = 2

    def rule(w: np.ndarray) -> ConvexSet:
        base = np.array([-w[0] + w[1], -w[0] - w[1]])
        lo2, hi2 = _unit_spike_bounds(w[1])
        lo1, hi1 = _unit_spike_bounds(w[0])
        return Box(base + np.array([lo2, lo1]), base + np.array([hi2, hi1]))

    gmap = SetValuedMap(dim, rule, common_bound=10.0, name="rootfind",
                        thresholds=[[1.0], [1.0]])

    def sample_term(w_rows, xi_rows):
        return np.stack([-w_rows[:, 0] + w_rows[:, 1],
                         -w_rows[:, 0] - w_rows[:, 1]], axis=1)

    drift = Drift(dim=dim, smooth=None, smooth_mean=None, set_map=gmap,
                  selector=LeastNorm(), sample_term=sample_term)

    # the reduction collection: per-coordinate hinge sums with kinks at +-1
    u_fn = _corner_hinge_sum()

    stability = StabilityBundle(
        v=_scaled_squared_norm(dim, 1.0, "squared_norm"), u_list=[u_fn], shifted_map=gmap,
        bound=_scaled_squared_norm(dim, 1.0, "decay_bound"),
        grid_lo=(-3.0, -3.0), grid_hi=(3.0, 3.0), resolution=121,
        exclude_radius=0.01)

    return Preset(_recursion("rootfind", drift, np.array([1.0, 1.0]),
                             bias=ShrinkingGaussianBias(dim, c=1.0, gamma=0.0)),
                  x_star=np.zeros(dim), stability=stability)


def _corner_hinge_sum() -> PiecewiseSmoothScalar:
    """max(v-1,0) - min(v+1,0) summed over both coordinates; slopes are 0 in
    the middle band and +-1 outside, with kinks on |v_i| = 1."""

    def slope(v: float) -> float:
        if v > 1.0:
            return 1.0
        if v < -1.0:
            return -1.0
        return 0.0

    def hinge(v: float) -> float:
        return max(v - 1.0, 0.0) - min(v + 1.0, 0.0)

    def region_pred(sig1: int, sig2: int):
        def pred(w: np.ndarray) -> bool:
            ok1 = (w[0] >= 1.0 if sig1 > 0 else (w[0] <= -1.0 if sig1 < 0 else -1.0 <= w[0] <= 1.0))
            ok2 = (w[1] >= 1.0 if sig2 > 0 else (w[1] <= -1.0 if sig2 < 0 else -1.0 <= w[1] <= 1.0))
            return ok1 and ok2

        return pred

    pieces = []
    for sig1, sig2 in itertools.product((1, 0, -1), repeat=2):
        grad = np.array([float(sig1), float(sig2)])
        pieces.append(SmoothPiece(
            region_pred(sig1, sig2),
            lambda w: hinge(w[0]) + hinge(w[1]),
            lambda w, g=grad: np.array(g),
        ))
    kinks = [KinkSurface.coordinate(i, t, 2) for i in (0, 1) for t in (1.0, -1.0)]
    return PiecewiseSmoothScalar(2, pieces, kinks=kinks, regular=True,
                                 name="corner_hinge_sum")


# ---------------------------------------------------------------------------
# sign-error adaptive filter preset
# ---------------------------------------------------------------------------


def sign_error_filter_preset(law: Optional[SignFilterLaw] = None) -> Preset:
    """Median-seeking filter: each step moves along phi times the sign of
    the prediction residual."""
    if law is None:
        law = SignFilterLaw(theta_true=np.zeros(1))
    dim = law.dim

    if law.scale > 0:
        field = PiecewiseField(
            dim,
            [FieldPiece(lambda t: True, law.mean_sign_drift)],
            thresholds=[[]] * dim,
        )
    else:
        t_star = float(law.theta_true[0])
        field = PiecewiseField(
            1,
            [
                FieldPiece(lambda t: t[0] > t_star, lambda t: np.array([-1.0])),
                FieldPiece(lambda t: t[0] < t_star, lambda t: np.array([1.0])),
                FieldPiece(lambda t: True, lambda t: np.array([0.0])),
            ],
            thresholds=[[t_star]],
        )

    gmap = SetValuedMap(dim, lambda t: krasovskii(field, t),
                        common_bound=math.sqrt(dim) + 1e-9, name="sign_filter_mean",
                        thresholds=[[float(law.theta_true[0])]] if law.scale == 0 else None)

    theta_sum = float(np.sum(law.theta_true))

    def sample_term(t_rows, xi_rows):
        resid = theta_sum + xi_rows[:, 0] - np.sum(t_rows, axis=1)
        return np.repeat(np.sign(resid)[:, None], t_rows.shape[1], axis=1)

    # the mean dynamics live entirely in the analysis map, so no smooth mean
    drift = Drift(dim=dim, smooth=None, smooth_mean=None,
                  set_map=gmap, selector=LeastNorm(), sample_term=sample_term)

    return Preset(_recursion("sign_filter", drift, np.zeros(dim), noise_xi=law.noise_model()),
                  x_star=np.array(law.theta_true))


# ---------------------------------------------------------------------------
# non-convergence showcase preset
# ---------------------------------------------------------------------------

_NONCONV_THRESHOLDS = [[-2.0, -1.0, 1.0, 2.0], [-2.0, -1.0, 1.0, 2.0]]

# region ids 1..6: the double-root cell, the four annular corridors, and the
# inward creep everywhere else
_NONCONV_CELLS = CellTable(2, [
    Cell(lambda x: (x[0] == 2.0) & (x[1] == 2.0), (0.0, -2.0), (1.0, 1.0)),
    Cell(lambda x: (1.0 <= x[0]) & (x[0] <= 2.0) & (-1.0 < x[1]) & (x[1] <= 2.0),
         (0.0, -2.0), (0.0, -1.0)),
    Cell(lambda x: (-1.0 < x[0]) & (x[0] <= 2.0) & (-2.0 < x[1]) & (x[1] <= -1.0),
         (-2.0, 0.0), (-1.0, 0.0)),
    Cell(lambda x: (-2.0 < x[0]) & (x[0] <= -1.0) & (-2.0 <= x[1]) & (x[1] < -1.0),
         (0.0, 1.0), (0.0, 2.0)),
    Cell(lambda x: (-2.0 <= x[0]) & (x[0] < 1.0) & (1.0 <= x[1]) & (x[1] <= 2.0),
         (1.0, 0.0), (2.0, 0.0)),
    Cell(None, (0.0, 0.0), (0.0, 0.0), slope=-0.005),
])


def nonconvergence_preset() -> Preset:
    """The cycling field whose roots repel: corridor branches push the state
    around an annulus, so checkpoints rarely sit near either root."""
    dim = 2
    gmap = SetValuedMap(dim, _NONCONV_CELLS.value, common_bound=4.0, name="nonconv",
                        thresholds=_NONCONV_THRESHOLDS)
    drift = Drift(dim=dim, smooth=None, smooth_mean=None, set_map=gmap,
                  selector=LeastNorm(), sample_term=_NONCONV_CELLS)

    return Preset(_recursion("nonconv", drift, np.array([2.0, 2.0]),
                             bias=ShrinkingGaussianBias(dim, c=1.0, gamma=0.0)),
                  roots=[np.zeros(2), np.array([2.0, 2.0])])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


_PRESETS = {"lasso": lasso_preset, "pegasos": pegasos_preset, "rootfind": rootfind_preset,
            "sign_filter": sign_error_filter_preset, "nonconv": nonconvergence_preset}
PRESET_NAMES = tuple(_PRESETS)


def preset_by_name(name: str, params: Optional[dict] = None) -> Preset:
    """A preset from its function's keyword names, ``data``/``law`` given as
    ``RegressionLaw``/``SignFilterLaw`` fields."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    params = dict(params or {})
    unknown = sorted(set(params) - set(inspect.signature(_PRESETS[name]).parameters))
    if unknown:
        raise ValueError(f"preset {name!r} has no parameter " + ", ".join(map(repr, unknown)))
    for key, law in (("data", RegressionLaw), ("law", SignFilterLaw)):
        if key in params:
            params[key] = law(**params[key]) if params[key] else None
    if name in ("lasso", "pegasos"):
        params.setdefault("lam", 0.7 if name == "lasso" else 1.0)
    return _PRESETS[name](**params)
