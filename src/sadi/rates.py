"""Rate-of-convergence diagnostics: normalized iterate series, a
stochastic-differential-inclusion simulator for the limit law, empirical
tightness checks, outer set-derivative verification, and marginal
distribution comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .artifacts import Artifact
from .engine import (SimulationBlowup, StepSchedule, as_matrix, block_steps, psd_root,
                     step_count, tightness_indices)
from .sets import (
    Polytope,
    SetValuedMap,
    _canonical,
    _nearest,
    hausdorff,
    minkowski_sum,
    scale,
    select,
)

__all__ = [
    "NormalizedSeries",
    "normalize",
    "shifted_index",
    "SDIModel",
    "simulate_sdi",
    "TightnessReport",
    "tightness_indices",
    "tightness_diagnostic",
    "OuterDerivativeReport",
    "outer_t_check",
    "ks_distance",
    "KSReport",
    "compare_to_sdi",
]

# the homogeneity check compares t_map(k x) with k t_map(x) at these k, to this distance
_HOMOGENEITY_SCALES = (0.5, 2.0, 3.0)
_HOMOGENEITY_TOL = 1e-6
# spawn key of the SDI selections' generator; compare_to_sdi's picks use (7,)
_SELECTION_KEY = (8,)


@dataclass(repr=False, eq=False)
class NormalizedSeries:
    """Iterate deviations from a limit point, scaled by 1/sqrt(step size)."""

    schedule: StepSchedule
    values: np.ndarray  # (M, d); row j is the normalized iterate at start+j
    start: int
    x_star: np.ndarray

    @property
    def last_index(self) -> int:
        return self.start + self.values.shape[0] - 1

    def value(self, n: int) -> np.ndarray:
        if n < self.start or n > self.last_index:
            raise ValueError(f"index {n} outside [{self.start}, {self.last_index}]")
        return np.array(self.values[n - self.start])

    def interpolate(self, t: float) -> np.ndarray:
        """Piecewise-constant value at time t after the series start."""
        return self.value(shifted_index(self.schedule, self.start, t, self.last_index))

    @classmethod
    def from_iterates(cls, iterates: np.ndarray, schedule: StepSchedule,
                      x_star, start: int = 0) -> "NormalizedSeries":
        """(X_n - x*) / sqrt(a_n) for n >= start."""
        iterates = np.asarray(iterates, dtype=float)
        x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
        if start < 0 or start >= iterates.shape[0]:
            raise ValueError("start index outside the recorded range")
        last = iterates.shape[0] - 1
        vals = normalize(iterates[start:], np.arange(start, last + 1), schedule, x_star)
        return cls(schedule=schedule, values=vals, start=start, x_star=x_star)


def normalize(states, indices, schedule: StepSchedule, x_star) -> np.ndarray:
    """(X_k - x*)/sqrt(a_k) of the states at the mesh indices k along their
    second-to-last axis, a_k read from the step sizes over the indices' span."""
    k = np.asarray(indices)
    a = schedule.step_sizes(k.min(), k.max() + 1)[k - k.min()]
    return (states - np.atleast_1d(x_star)) / np.sqrt(a)[:, None]


def shifted_index(schedule: StepSchedule, start: int, t: float, last: int) -> int:
    """The mesh index that a piecewise-constant series over [start, last]
    reads at time t after its start."""
    n = schedule.mesh_index(t + schedule.time_at(start))
    return max(start, min(n, last))


@dataclass(repr=False, eq=False)
class SDIModel:
    """Linear-plus-set-valued drift with additive Brownian noise.

    The drift is (A + I/2 if half_identity) u + selection from t_map(u);
    ``sigma`` is the Brownian covariance.  ``t_map`` None means {0}.
    """

    A: np.ndarray
    sigma: np.ndarray
    t_map: Optional[SetValuedMap] = None
    half_identity: bool = False

    def __post_init__(self):
        self.A = as_matrix(self.A, mismatch="A must be square")
        sigma, self.sigma_root = psd_root(self.sigma, self.dim, "sigma", "sigma must match A")
        self.sigma = 0.5 * (sigma + sigma.T)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def drift_matrix(self) -> np.ndarray:
        if self.half_identity:
            return self.A + 0.5 * np.eye(self.dim)
        return self.A

    def check_homogeneity(self, probes: Sequence) -> bool:
        """Spot-check positive homogeneity of the set-valued part."""
        if self.t_map is None:
            return True
        for x in probes:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            for k in _HOMOGENEITY_SCALES:
                lhs = self.t_map.value(k * x)
                rhs = scale(k, self.t_map.value(x))
                if hausdorff(lhs, rhs) > _HOMOGENEITY_TOL:
                    return False
        return True


# a blow-up overflows on its way to the non-finite state that raises it
@np.errstate(over="ignore", invalid="ignore")
def simulate_sdi(model: SDIModel, u0, dt: float, horizon: float,
                 strategy=None, seed: int = 0, n_reps: int = 1):
    """Euler-Maruyama paths of the limit inclusion, one selector value per
    step; reproducible given the seed.

    ``u0`` may be a single vector (shared start) or an (n_reps, d) array of
    per-replication starts.  Returns the (n_reps, d) states at ``horizon``;
    no path is kept.

    The Brownian increments of k steps are drawn in one call, into a
    (k, n_reps, d) buffer of standard normals; numpy fills it in C order, so
    the numbers are those of k per-step draws.  Each step's (n_reps, d)
    slice is mapped by ``sigma_root`` with the product a single step would
    use, into a second (k, n_reps, d) buffer that is then scaled by
    sqrt(dt).  The two buffers are allocated once per call and reused by
    every block, k set by the engine's block rule (``block_steps``), so
    their memory does not grow with the horizon.  A step updates the state
    in place, through one reused (n_reps, d) buffer for the drift, and
    adds dt times the drift and then the increment, the order of
    ``u + dt * drift + dw``, so the sums round as that expression does.  A
    selection strategy that draws reads its own generator, spawned from
    the seed, so the normals never depend on the selections.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    d = model.dim
    u0 = np.asarray(u0, dtype=float)
    if u0.ndim <= 1:
        u = np.tile(np.atleast_1d(u0), (n_reps, 1))
    else:
        if u0.shape != (n_reps, d):
            raise ValueError("u0 must be a vector or an (n_reps, dim) array")
        u = np.array(u0)
    n_steps = step_count(horizon, dt)
    gen = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    picks = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                         spawn_key=_SELECTION_KEY))
    sqdt = math.sqrt(dt)
    drift_t = model.drift_matrix().T
    root_t = model.sigma_root.T
    block = block_steps(n_steps, 2 * n_reps * d)
    normals, increments = np.empty((block, n_reps, d)), np.empty((block, n_reps, d))
    linear, finite = np.empty((n_reps, d)), np.empty((n_reps, d), dtype=bool)
    for k0 in range(0, n_steps, block):
        m = min(block, n_steps - k0)
        gen.standard_normal(out=normals[:m])
        # one (n_reps, d) product per step, stacked
        noise = np.matmul(normals[:m], root_t, out=increments[:m])
        noise *= sqdt
        for k, dw in enumerate(noise, k0):
            np.matmul(u, drift_t, out=linear)
            if model.t_map is not None:
                linear += select(model.t_map, u, strategy, picks)
            linear *= dt
            u += linear
            u += dw
            # one reduction, and the exact test only when the sum is not finite
            if (not math.isfinite(np.add.reduce(u, axis=None))
                    and not np.isfinite(u, out=finite).all()):
                # the first replication that blew up
                raise SimulationBlowup(k, u[np.argmin(finite.all(axis=1))])
    return u


@dataclass(repr=False, eq=False)
class TightnessReport:
    checkpoints: np.ndarray
    quantiles: np.ndarray
    kappa: float
    flag: str

    def __str__(self):
        rows = ", ".join(f"n={int(n)}: {q:.4g}" for n, q in zip(self.checkpoints, self.quantiles))
        return f"tightness[{self.flag}] kappa={self.kappa}: {rows}"

    def artifact(self, provenance=()) -> Artifact:
        return Artifact(["checkpoint", "quantile"],
                        zip(self.checkpoints.tolist(), self.quantiles.tolist()),
                        comments=[f"tightness diagnostic kappa={self.kappa} flag={self.flag}"],
                        provenance=provenance)

    def to_text(self) -> str:
        return "".join(self.artifact().lines())


def tightness_diagnostic(indices, values, kappa: float) -> TightnessReport:
    """Empirical (1-kappa)-quantiles of the normalized magnitudes across the
    ensemble at spread-out checkpoints.

    ``values`` is an (R, k, d) array: the normalized iterates
    (X_n - x*)/sqrt(a_n) of R replications at the k increasing mesh
    indices ``indices``, such as those of ``tightness_indices``.

    The sequence is called tight-consistent when the late-checkpoint maximum
    stays within twice the first checkpoint's quantile, and diverging
    otherwise; with slowly growing normalizations this comparison against
    the initial level is what actually separates the two behaviours at
    finite horizons.
    """
    indices = np.asarray(indices, dtype=int)
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != indices.shape[0]:
        raise ValueError("values must have shape (replications, len(indices), dim)")
    if values.shape[0] < 100:
        raise ValueError("tightness diagnostic needs at least 100 replications")
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    # one dot product per vector rounds as np.linalg.norm of each vector
    # does; an axis-wise norm sums in another order and rounds differently
    mags = np.sqrt((values[..., None, :] @ values[..., :, None])[..., 0, 0])
    quant = np.quantile(mags, 1.0 - kappa, axis=0)
    late = quant[indices.shape[0] // 2:]
    base = quant[0]
    flag = "tight-consistent" if float(np.max(late)) <= 2.0 * float(base) else "diverging"
    return TightnessReport(checkpoints=indices, quantiles=quant, kappa=kappa, flag=flag)


@dataclass(repr=False, eq=False)
class OuterDerivativeReport:
    x_star: tuple
    delta: float
    n_probes: int
    failures: list  # (probe, its value's vertex farthest out, the distance beyond the envelope)
    worst_violation: float
    undecided: list = field(default_factory=list)  # probes whose value has the larger ball part

    @property
    def passed(self) -> bool:
        return not self.failures and not self.undecided

    def __str__(self):
        tag = ", ".join(f"{word} at {len(probes)} probes" for word, probes in
                        (("fails", self.failures), ("undecided", self.undecided)) if probes)
        return (f"outer derivative check at {list(self.x_star)} (delta={self.delta}): "
                f"{tag or 'holds'}; worst violation {self.worst_violation:.3g}")


def outer_t_check(gmap: SetValuedMap, x_star, t_map: SetValuedMap, delta: float,
                  probes: Sequence, tol: float = 1e-9) -> OuterDerivativeReport:
    """Verify the one-sided expansion: each probe value P + rho*ball must be
    contained in the envelope value(x*) + t_map(probe - x*) +
    delta*|probe - x*|*ball, in canonical form E + r*ball.  For rho <= r that
    holds exactly when every vertex of P is within r - rho of E, a distance
    to the nearest point of E; a value with rho > r is undecided, never
    passed.  Failures are data, not errors.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    base = gmap.value(x_star)
    probes = [np.atleast_1d(np.asarray(probe, dtype=float)) for probe in probes]
    failures, undecided, worst = [], [], 0.0
    for x in probes:
        offset = x - x_star
        hull, r = _canonical(minkowski_sum(base, t_map.value(offset)))
        r += delta * float(np.linalg.norm(offset))
        verts, rho = _canonical(gmap.value(x))
        if rho > r:
            undecided.append(tuple(x.tolist()))
            continue
        envelope = Polytope(hull)
        excess = [float(np.linalg.norm(_nearest(envelope, v) - v)) - (r - rho) for v in verts]
        j = int(np.argmax(excess))
        if excess[j] > tol:
            failures.append((tuple(x.tolist()), tuple(verts[j].tolist()), excess[j]))
            worst = max(worst, excess[j])
    return OuterDerivativeReport(tuple(x_star.tolist()), float(delta), len(probes),
                                 failures, worst, undecided)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.shape[0]
    fb = np.searchsorted(b, pooled, side="right") / b.shape[0]
    return float(np.max(np.abs(fa - fb)))


@dataclass(repr=False, eq=False)
class KSReport:
    t_eval: float
    distances: np.ndarray  # per coordinate
    n_series: int
    n_sdi: int

    def __str__(self):
        ds = ", ".join(f"{d:.4g}" for d in self.distances)
        return (f"marginal comparison at t={self.t_eval}: KS per coordinate [{ds}] "
                f"({self.n_series} vs {self.n_sdi} samples)")


def compare_to_sdi(u_start, u_eval, model: SDIModel, t_eval: float, n_sdi_reps: int,
                   seed: int = 0, dt: float = 1e-3) -> KSReport:
    """Kolmogorov-Smirnov distance per coordinate between the normalized
    ensemble at shifted time t_eval and simulated limit paths started from
    the ensemble's own initial values.

    ``u_start`` and ``u_eval`` are (R, d) arrays of each replication's
    normalized iterate at the start index and at shifted time t_eval, as
    ``NormalizedSeries.value(start)`` and ``interpolate(t_eval)`` read them.

    Descriptive only: weak convergence holds toward a solution set, so no
    single-law acceptance threshold is attached.
    """
    starts = np.asarray(u_start, dtype=float)
    sa_vals = np.asarray(u_eval, dtype=float)
    if starts.ndim != 2 or starts.shape != sa_vals.shape:
        raise ValueError("u_start and u_eval must be (replications, dim) arrays of one shape")
    if starts.shape[0] < 200:
        raise ValueError("marginal comparison needs at least 200 replications")
    if n_sdi_reps < 200:
        raise ValueError("marginal comparison needs at least 200 simulated paths")
    gen = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(7,)))
    pick = gen.integers(0, starts.shape[0], size=n_sdi_reps)
    u0 = starts[pick]
    finals = simulate_sdi(model, u0, dt=dt, horizon=t_eval, seed=seed, n_reps=n_sdi_reps)
    dists = np.array([ks_distance(sa_vals[:, j], finals[:, j])
                      for j in range(sa_vals.shape[1])])
    return KSReport(t_eval=float(t_eval), distances=dists,
                    n_series=starts.shape[0], n_sdi=int(n_sdi_reps))
