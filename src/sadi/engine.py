"""The stochastic approximation engine.

One recursion step adds, scaled by the step size, a set-valued selection, a
smooth noisy term, a pure-noise term, and a bias term, then optionally
projects onto a box or a ball.  Randomness is split into per-role
substreams keyed by (seed, replication, role), so adding or editing one
role never perturbs another role's draws, and every replication's draws are
fixed by its own index alone.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .artifacts import Artifact, column_blocks
from .sets import (ConvexSet, CellTable, CustomSelector, LeastNorm, SetValuedMap,
                   UniformVertex, select)

__all__ = [
    "StepSchedule",
    "NoiseModel",
    "NoNoise",
    "GaussianNoise",
    "UniformNoise",
    "BoundedNoise",
    "BiasModel",
    "ZeroBias",
    "ShrinkingGaussianBias",
    "ConstantBias",
    "CustomBias",
    "Drift",
    "Trajectory",
    "RunSpec",
    "run",
    "run_ensemble",
    "EnsembleResult",
    "SimulationBlowup",
]

# substream role tags
ROLE_XI = 0
ROLE_ZETA = 1
ROLE_ZETATILDE = 2
ROLE_BIAS = 3
ROLE_SELECTOR = 4
ROLE_PERTURB = 5


class SimulationBlowup(RuntimeError):
    """A non-finite iterate at step ``step_index``; ``state`` is that
    iterate, when the simulator that raised it knows it."""

    def __init__(self, step_index: int, state=None):
        self.step_index = step_index
        self.state = None if state is None else np.asarray(state, dtype=float).tolist()
        at = "" if self.state is None else f": state {self.state}"
        super().__init__(f"non-finite iterate at step {step_index}{at}")


def step_count(span: float, dt: float) -> int:
    """Steps of length ``dt`` that cover ``span``: span/dt rounded up, except
    that a ratio within a few ulps of an integer is that integer.  A span
    meant as n*dt rounds to a float whose ratio lands on either side of n, and
    past n of about 8,192 an absolute slack is smaller than one ulp.  More
    than MAX_STEPS steps are refused."""
    if not span > 0:
        return 0
    ratio = span / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"{span:g} in steps of {dt:g} is more than 2**53 steps")
    n = round(ratio)
    return n if abs(ratio - n) <= 4 * math.ulp(n) else math.ceil(ratio)


def tightness_indices(start: int, last: int, n_checkpoints: int = 10) -> np.ndarray:
    """The mesh indices the tightness diagnostic reads: ``n_checkpoints``
    spread evenly over [start, last], repeats removed."""
    return np.unique(np.linspace(start, last, max(2, n_checkpoints)).astype(int))


# ---------------------------------------------------------------------------
# step-size schedules and the interpolation time mesh
# ---------------------------------------------------------------------------


# the time mesh holds at most this many times; mesh_index raises beyond it
_MESH_LIMIT = 100_000_000


class StepSchedule:
    """Positive step sizes a_n with a_n -> 0 and divergent partial sums.

    Built-in families use (n+1) in denominators so that a_0 is finite; the
    asymptotics are unchanged.
    """

    def __init__(self, kind: str, fn: Callable[[np.ndarray], np.ndarray], params: dict):
        self.kind = kind
        self._fn = fn
        self.params = dict(params)
        self._times = np.zeros(1)  # t_0 = 0
        probe = self.step_sizes(0, 4)
        if np.any(probe <= 0.0):
            raise ValueError("step sizes must be positive")

    @classmethod
    def harmonic(cls, c: float = 1.0) -> "StepSchedule":
        c = float(c)
        if c <= 0:
            raise ValueError("c must be positive")
        return cls("harmonic", lambda n: c / (n + 1.0), {"c": c})

    @classmethod
    def power_law(cls, c: float = 1.0, alpha: float = 0.5) -> "StepSchedule":
        c, alpha = float(c), float(alpha)
        if c <= 0:
            raise ValueError("c must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        return cls("power_law", lambda n: c * (n + 1.0) ** (-alpha), {"c": c, "alpha": alpha})

    @classmethod
    def custom(cls, fn: Callable[[int], float]) -> "StepSchedule":
        def vec(n: np.ndarray) -> np.ndarray:
            return np.asarray([float(fn(int(i))) for i in np.atleast_1d(n)])

        return cls("custom", vec, {})

    def step_sizes(self, n0: int, n1: int) -> np.ndarray:
        return np.asarray(self._fn(np.arange(n0, n1, dtype=float)), dtype=float)

    def _ensure_times(self, n: int) -> None:
        have = self._times.shape[0] - 1
        if n <= have:
            return
        # one sequential sum continued from the last time, so t_n has the same
        # bits however the mesh was grown
        extra = np.cumsum(np.concatenate([self._times[-1:], self.step_sizes(have, n)]))
        self._times = np.concatenate([self._times, extra[1:]])

    def time_at(self, n: int) -> float:
        """t_n, the cumulative sum of the first n step sizes (t_0 = 0)."""
        if n < 0:
            raise ValueError("mesh index must be nonnegative")
        self._ensure_times(n)
        return float(self._times[n])

    def _beyond_mesh_limit(self, t: float) -> bool:
        """True when t provably exceeds t_N at N = _MESH_LIMIT.  For
        a_n = c*(n+1)^-alpha, t_N <= c*(1 + int_1^N s^-alpha ds); the factor
        1 + 1e-6 covers the rounding of the cumulative sum.  Custom
        schedules have no such bound."""
        if self.kind not in ("harmonic", "power_law"):
            return False
        c, alpha, n = self.params["c"], self.params.get("alpha", 1.0), float(_MESH_LIMIT)
        integral = math.log(n) if alpha == 1.0 else (n ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
        return t > c * (1.0 + integral) * (1.0 + 1e-6)

    def mesh_index(self, t: float) -> int:
        """Largest n with t_n <= t; zero for negative t."""
        if t < 0.0:
            return 0
        if self._beyond_mesh_limit(t):
            raise ValueError("time beyond any representable mesh horizon")
        block = max(64, self._times.shape[0])
        while self._times[-1] <= t:
            if self._times.shape[0] + block > _MESH_LIMIT:
                raise ValueError("time beyond any representable mesh horizon")
            self._ensure_times(self._times.shape[0] - 1 + block)
            block *= 2
        return int(np.searchsorted(self._times, t, side="right")) - 1


# ---------------------------------------------------------------------------
# noise and bias families
# ---------------------------------------------------------------------------


class _Sampler:
    """The draws of one role.  ``sample_block(gen, n, n0)`` returns the next
    n steps of one replication's stream as an (n, dim) array, the first of
    them step n0 of the run: noise is i.i.d. and ignores n0, a bias may
    depend on it."""

    dim: int = 0
    # False for a model that consumes no randomness: the engine gives it no
    # substream and reads its single-step value, built once as dense rows
    draws: bool = True

    def sample_block(self, gen: np.random.Generator, n: int, n0: int = 0) -> np.ndarray:
        raise NotImplementedError

    def fill_block(self, gens: Sequence, n0: int, out: np.ndarray) -> None:
        """Steps n0 .. n0+K-1 of every generator's stream, K = ``out.shape[0]``,
        into the step-major ``out`` of shape (K, R, dim): ``out[:, i]`` holds
        what ``sample_block(gens[i], K, n0)`` returns."""
        k = out.shape[0]
        for i, gen in enumerate(gens):
            out[:, i, :] = self.sample_block(gen, k, n0)


# raw normals drawn at a time before they are mapped into a block, in doubles
_NORMALS_CHUNK = 1 << 16


def _normal_chunks(gens: Sequence, shape: tuple):
    """Each generator's next standard normals for a step-major block of
    ``shape`` (K, R, dim), a few replications at a time: yields (slice of
    replications, their (C, K, dim) normals).  Generator i fills row i of the
    chunk, a contiguous replication-major buffer reused for every chunk, so
    the raw normals never take a second block's worth of memory and a map
    applied to them reads memory in order."""
    k, n_reps, dim = shape
    step = max(1, _NORMALS_CHUNK // max(1, k * dim))
    buf = np.empty((min(step, n_reps), k, dim))
    for r0 in range(0, n_reps, step):
        z = buf[:min(step, n_reps - r0)]
        for gen, row in zip(gens[r0:r0 + step], z):
            gen.standard_normal(out=row)
        yield slice(r0, r0 + z.shape[0]), z


def _row_items(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` of shape (..., dim) without its last axis, each item
    a row of dim doubles (a double itself at dim = 1), so a transposing copy
    moves each row as one opaque item."""
    dim = a.shape[-1]
    return a.view(np.dtype((np.void, a.itemsize * dim)) if dim > 1 else a.dtype)[..., 0]


class NoiseModel(_Sampler):
    """Noise of one role, i.i.d. across steps."""


class NoNoise(NoiseModel):
    draws = False

    def __init__(self, dim: int = 0):
        self.dim = int(dim)

    def sample_block(self, gen, n, n0=0):
        return np.zeros((n, self.dim))


def as_matrix(m, d: Optional[int] = None, mismatch: str = "must be a square matrix"):
    """``m`` as a (d, d) matrix: a number is m*I, a vector the diagonal, rows
    stay rows.  ``d`` None is the size ``m`` gives (1 for a number); any
    other shape raises ValueError(mismatch)."""
    m = np.asarray(m, dtype=float)
    d = (m.shape or (1,))[0] if d is None else d
    if m.ndim == 0:
        m = np.eye(d) * float(m)
    elif m.ndim == 1:
        m = np.diag(m)
    if m.shape != (d, d):
        raise ValueError(mismatch)
    return m


def psd_root(m, d: int, what: str, mismatch: str):
    """``as_matrix(m, d, mismatch)`` and the root of its PSD symmetric part;
    ``what`` names ``m`` in the errors."""
    m = as_matrix(m, d, mismatch)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (m + m.T)
    if not np.isfinite(sym).all():
        raise ValueError(f"{what} + its transpose must be finite")
    w, v = np.linalg.eigh(sym)
    if np.any(w < -1e-10):
        raise ValueError(f"{what} must be positive semidefinite")
    return m, v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


class GaussianNoise(NoiseModel):
    """i.i.d. Gaussian draws with the given mean and covariance."""

    def __init__(self, mean, cov):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        self.dim = self.mean.shape[0]
        self.cov, self._root = psd_root(cov, self.dim, "covariance",
                                        "covariance shape does not match the mean")
        # per output column, the (index, root entry) pairs that ``_affine`` sums
        self._terms = [[(j, r) for j, r in enumerate(row.tolist())
                        if r != 0.0 or (m == 0.0 and math.copysign(1.0, m) < 0)]
                       for row, m in zip(self._root, self.mean.tolist())]

    def sample_block(self, gen, n, n0=0):
        z, out = gen.standard_normal((n, self.dim)), np.empty((n, self.dim))
        self._affine(self._columns(z, out))
        return out

    def fill_block(self, gens, n0, out):
        # the affine map runs over the contiguous normals of many replications,
        # and one transposing copy of row items puts the chunk into the
        # step-major block.  Every chunk but a shorter last one maps through
        # the same views, built once
        block = _row_items(out)
        mapped = views = None
        for rows, z in _normal_chunks(gens, out.shape):
            if views is None or views[0] != z.shape[0]:
                mapped = np.empty_like(z) if mapped is None else mapped[:z.shape[0]]
                views = z.shape[0], _row_items(mapped).T, self._columns(z, mapped)
            self._affine(views[2])
            block[:, rows] = views[1]

    def _columns(self, z: np.ndarray, out: np.ndarray) -> list:
        """The column views ``_affine`` reads and writes, for normals ``z``
        mapped into ``out``: per output column, that column and the normal
        columns of its terms."""
        return [(out[..., c], [(z[..., j], r) for j, r in terms], m)
                for c, (terms, m) in enumerate(zip(self._terms, self.mean.tolist()))]

    def _affine(self, columns: list) -> None:
        """``mean + z @ root.T`` over the last axis, summed column by column in
        a fixed order, through the views of ``_columns``.  BLAS rounds a
        one-row product (gemv) differently from a many-row one (gemm) when
        the root has off-diagonal entries, so a matrix product would tie each
        draw to the block length.  A root entry that is exactly 0 adds a
        signed zero, which can change only the sign of a zero sum, and adding
        the mean settles that sign unless the mean entry is -0.0: only such a
        column keeps its zero terms.  A root entry that is exactly 1 is a
        copy or an add, as z * 1.0 is z, and a column whose one term it is
        adds the mean to z in one pass."""
        for col, terms, m in columns:
            if terms:
                (zj, r), *rest = terms
                if r == 1.0 and not rest:
                    np.add(zj, m, out=col)
                    continue
                if r == 1.0:
                    np.copyto(col, zj)
                else:
                    np.multiply(zj, r, out=col)
                for zj, r in rest:
                    col += zj if r == 1.0 else zj * r
            else:
                col.fill(0.0)
            # the mean is added per column: a broadcast over a short last
            # axis runs one tiny inner loop per row
            col += m


class UniformNoise(NoiseModel):
    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("uniform noise requires lo <= hi componentwise")
        self.dim = self.lo.shape[0]

    def sample_block(self, gen, n, n0=0):
        return self.lo + gen.random((n, self.dim)) * (self.hi - self.lo)


class BoundedNoise(NoiseModel):
    """Custom sampler with a declared hard bound on the Euclidean norm."""

    def __init__(self, sampler: Callable[[np.random.Generator], np.ndarray], bound: float, dim: int):
        self.sampler = sampler
        self.bound = float(bound)
        self.dim = int(dim)

    def sample_block(self, gen, n, n0=0):
        out = np.empty((n, self.dim))
        for i in range(n):
            v = np.atleast_1d(np.asarray(self.sampler(gen), dtype=float))
            if np.linalg.norm(v) > self.bound + 1e-12:
                raise ValueError("bounded noise sampler exceeded its declared bound")
            out[i] = v
        return out


class BiasModel(_Sampler):
    """The bias term, with a declared asymptotic bound on its norm."""

    declared_eta: float = 0.0


class ZeroBias(BiasModel):
    draws = False

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.declared_eta = 0.0

    def sample_block(self, gen, n, n0=0):
        return np.zeros((n, self.dim))


class ShrinkingGaussianBias(BiasModel):
    """Gaussian bias whose variance at step n is c*(n+1)**(-gamma).

    gamma > 0 vanishes almost surely; gamma = 0 is a constant-variance bias.
    """

    def __init__(self, dim: int, c: float = 1.0, gamma: float = 1.0):
        self.dim = int(dim)
        self.c = float(c)
        self.gamma = float(gamma)
        if self.c < 0:
            raise ValueError("variance scale must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        self.declared_eta = 0.0 if self.gamma > 0 or self.c == 0 else math.inf

    def variance_at(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.c * (n + 1.0) ** (-self.gamma)

    def _sd(self, n0: int, n: int) -> np.ndarray:
        return np.sqrt(self.variance_at(np.arange(n0, n0 + n)))

    def sample_block(self, gen, n, n0=0):
        return gen.standard_normal((n, self.dim)) * self._sd(n0, n)[:, None]

    def fill_block(self, gens, n0, out):
        # each step's sd scales the contiguous normals in place, one inner
        # loop of K*dim per replication, before a transposing copy: a
        # product written through the transpose costs about twice as much
        k, _, dim = out.shape
        sd = np.repeat(self._sd(n0, k), dim)
        for rows, z in _normal_chunks(gens, out.shape):
            flat = z.reshape(z.shape[0], k * dim)
            np.multiply(flat, sd, out=flat)
            out[:, rows] = z.transpose(1, 0, 2)


class ConstantBias(BiasModel):
    draws = False

    def __init__(self, vector):
        self.vector = np.atleast_1d(np.asarray(vector, dtype=float))
        self.dim = self.vector.shape[0]
        self.declared_eta = float(np.linalg.norm(self.vector))

    def sample_block(self, gen, n, n0=0):
        return np.tile(self.vector, (n, 1))


class CustomBias(BiasModel):
    """Caller-supplied rule ``fn(gen, n) -> vector`` at step n, with a
    declared asymptotic bound on its norm."""

    def __init__(self, fn: Callable[[np.random.Generator, int], np.ndarray],
                 dim: int, declared_eta: float = 0.0):
        self.fn = fn
        self.dim = int(dim)
        self.declared_eta = float(declared_eta)

    def sample_block(self, gen, n, n0=0):
        out = np.empty((n, self.dim))
        for i in range(n):
            out[i] = np.atleast_1d(np.asarray(self.fn(gen, n0 + i), dtype=float))
        return out


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


@dataclass(repr=False, eq=False)
class Drift:
    """One step's deterministic structure.

    ``smooth(x_rows, zeta_rows)`` is the noisy continuous term; its mean
    ``smooth_mean`` (when known) feeds root checks and limit dynamics.  The
    set-valued term is either ``sample_term(x_rows, xi_rows)`` (vectorized,
    possibly sample-dependent) or one ``select`` of ``selector`` on
    ``set_map`` at all rows.  ``m_rule(x_rows, xi_rows)`` returns one radius
    per row (a scalar is every row's) and inflates each row's selection by a
    random point of the closed ball of that radius, made from the row's d + 2
    perturbation normals (``pert_rows``).

    The engine hands each step that step's draws as dense (R, dim) rows,
    read in time blocks of a fixed number of doubles, so they do not grow
    with the horizon N, and it never writes into an array a term returns.
    Only a random selection on ``set_map`` reads selector draws (``u_rows``,
    one uniform per row, each row's stream in ``select``), so a sample term
    never sees them; a cell-table term without ``m_rule`` gets ``xi_rows=None``.
    """

    dim: int
    smooth: Optional[Callable] = None
    smooth_mean: Optional[Callable] = None
    set_map: Optional[SetValuedMap] = None
    selector: object = field(default_factory=LeastNorm)
    sample_term: Optional[Callable] = None
    m_rule: Optional[Callable] = None

    def set_term_rows(self, x_rows: np.ndarray, xi_rows: Optional[np.ndarray],
                      u_rows: Optional[np.ndarray],
                      pert_rows: Optional[np.ndarray]) -> np.ndarray:
        if self.sample_term is not None:
            b = np.asarray(self.sample_term(x_rows, xi_rows), dtype=float)
        elif self.set_map is not None:
            b = select(self.set_map, x_rows, self.selector, u_rows)
        else:
            return np.zeros_like(x_rows)
        if self.m_rule is not None:
            if pert_rows is None:
                raise ValueError("perturbation draws missing for m_rule")
            # the first d of d + 2 standard normals over the norm of all d + 2
            # are uniform in the unit ball (Voelker, Gosmann and Stewart 2017)
            radii = np.broadcast_to(np.asarray(self.m_rule(x_rows, xi_rows), dtype=float),
                                    x_rows.shape[:1])
            norms = np.linalg.norm(pert_rows, axis=1)
            b = b + radii[:, None] * pert_rows[:, :self.dim] / norms[:, None]
        return b

    def mean_field(self, x: np.ndarray) -> np.ndarray:
        if self.smooth_mean is None:
            raise ValueError("drift has no declared smooth mean")
        return np.atleast_1d(np.asarray(self.smooth_mean(np.asarray(x, dtype=float)), dtype=float))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(repr=False, eq=False)
class Trajectory:
    """A recorded run: N+1 iterates plus the per-step summands that rebuild
    each transition exactly."""

    schedule: StepSchedule
    iterates: np.ndarray          # (N+1, d)
    step_sizes_used: np.ndarray   # (N,)
    set_terms: np.ndarray         # (N, d)
    smooth_terms: np.ndarray      # (N, d)
    noise_terms: np.ndarray       # (N, d)
    bias_terms: np.ndarray        # (N, d)
    projection_active: np.ndarray  # (N,) bool
    seed: int
    fingerprint: str = ""
    name: str = ""

    @property
    def n_steps(self) -> int:
        return self.iterates.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]

    def interpolate(self, t: float, mode: str = "linear", shift: int = 0) -> np.ndarray:
        """Piecewise-constant or piecewise-linear interpolation of the iterate
        path, optionally shifted by t_n; times at or before the shifted origin
        return the initial iterate, times beyond the recorded horizon raise.
        """
        mode = {"PiecewiseConstant": "constant", "PiecewiseLinear": "linear"}.get(mode, mode)
        if mode not in ("constant", "linear"):
            raise ValueError("mode must be 'constant' or 'linear'")
        sched = self.schedule
        t_shift = sched.time_at(shift)
        if t <= -t_shift:
            return np.array(self.iterates[0])
        s = t + t_shift
        n_steps = self.n_steps
        t_end = sched.time_at(n_steps)
        if s > t_end:
            if s <= t_end * (1.0 + 1e-12) + 1e-12:
                return np.array(self.iterates[n_steps])
            raise ValueError(f"time {t} is beyond the recorded horizon")
        n = sched.mesh_index(s)
        if n >= n_steps:
            return np.array(self.iterates[n_steps])
        if mode == "constant":
            return np.array(self.iterates[n])
        t_n = sched.time_at(n)
        w = (s - t_n) / self.step_sizes_used[n]
        return (1.0 - w) * self.iterates[n] + w * self.iterates[n + 1]

    def to_csv(self, path) -> None:
        cols = ["n", "t", "a", *(f"{part}{i}" for part in ("x", "set", "smooth", "noise", "bias")
                                 for i in range(self.dim)), "projected"]
        meta = {"seed": self.seed, "fingerprint": self.fingerprint or "-",
                "name": self.name or "-"}
        n = self.n_steps
        self.schedule._ensure_times(n)
        floats = np.column_stack([self.schedule._times[:n], self.step_sizes_used,
                                  self.iterates[:-1], self.set_terms, self.smooth_terms,
                                  self.noise_terms, self.bias_terms])
        rows = column_blocks(range(n), *floats.T, self.projection_active.astype(int))
        Artifact(cols, rows, provenance=meta.items(),
                 template=",".join(["%d", *["%.17g"] * floats.shape[1], "%d"]) + "\n").write(path)


# ---------------------------------------------------------------------------
# run descriptions and the loop
# ---------------------------------------------------------------------------


@dataclass(repr=False, eq=False)
class RunSpec:
    drift: Drift
    schedule: StepSchedule
    x0: np.ndarray
    n_steps: int
    noise_xi: NoiseModel = field(default_factory=NoNoise)
    noise_zeta: NoiseModel = field(default_factory=NoNoise)
    noise_zetatilde: NoiseModel = field(default_factory=NoNoise)
    bias: Optional[BiasModel] = None
    projection: Optional[ConvexSet] = None  # a sets.Box or sets.Ball; None projects nothing
    name: str = "run"
    fingerprint: str = ""

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.shape[0] != self.drift.dim:
            raise ValueError("x0 dimension does not match the drift")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.bias is None:
            self.bias = ZeroBias(self.drift.dim)
        if self.noise_zetatilde.dim not in (0, self.drift.dim):
            raise ValueError("additive noise term must match the state dimension")
        if self.bias.dim != self.drift.dim:
            raise ValueError("bias dimension does not match the state")
        if self.projection is not None and self.projection.dim != self.drift.dim:
            raise ValueError("projection dimension does not match the state")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    splits its entropy (zero is one word)."""
    if value < 0:
        raise ValueError("seed must be nonnegative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_state(seed: int, rep, role: int) -> list:
    """The four uint64 words ``SeedSequence(entropy=seed, spawn_key=(rep,
    role)).generate_state(4, np.uint64)``.

    Words are Python ints or uint64 arrays holding 32-bit values; ``rep``
    may be an array of replication indices below 2**32, and every word that
    depends on it is then an array.  A product of two 32-bit values fits in
    64 bits, so masking after each product or difference gives the hash's
    uint32 arithmetic for both kinds.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    run_words = _uint32_words(int(seed))
    # a spawn key pads short run entropy with zeros up to the pool size
    run_words += [0] * (_POOL_SIZE - len(run_words))
    entropy = run_words + [rep, int(role)]
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    # uint32 pairs read as little-endian uint64
    return [state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)]


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence that hands PCG64 the state words ``_seed_state``
    computed, so PCG64 runs its own seeding exactly as it does from a
    SeedSequence.  It is defined at the first draw, so that importing the
    engine does not load ``numpy.random``: a verb that never draws never
    loads it.  A true subclass, not a registered one, makes PCG64's
    isinstance check cheap.

    PCG64 reads the words once, while it is built, and keeps the object as
    its ``seed_seq``.  ``_role_generators`` seeds all the generators of one
    call through one such object and sets ``words`` to None afterwards, so
    an engine generator's ``seed_seq`` holds no words, costs no memory per
    generator and cannot spawn."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: Optional[np.ndarray] = None):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes the type itself, which skips building a dtype
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("only PCG64's four uint64 seed words are precomputed")
            return self.words

    return SeedWords


# a replication index is one 32-bit word of its substream key
MAX_REPLICATIONS = 1 << 32
# step indices up to here are exact in the float arange of the step sizes
MAX_STEPS = 1 << 53
_REPS_ERROR = "replication indices must lie in [0, 2**32)"


def _role_generators(seed: int, reps: Sequence[int], role: int) -> list:
    """One generator per replication for ``role``: the generator
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(rep, role)))``,
    with the SeedSequence hash run once for all replications (on plain
    ints for a single one), and every PCG64 seeded through one shared
    ``_seed_words_type()`` object."""
    reps = np.asarray(reps, dtype=np.int64)
    if reps.size and (reps.min() < 0 or reps.max() >= MAX_REPLICATIONS):
        raise ValueError(_REPS_ERROR)
    key = int(reps[0]) if reps.size == 1 else reps.astype(np.uint64)
    state = np.array(_seed_state(seed, key, role), dtype=np.uint64).reshape(4, -1)
    from numpy.random import Generator, PCG64

    seeds, gens = _seed_words_type()(), []
    for row in np.ascontiguousarray(state.T):
        seeds.words = row
        gens.append(Generator(PCG64(seeds)))
    seeds.words = None
    return gens


@dataclass(repr=False, eq=False)
class EnsembleResult:
    finals: np.ndarray               # (R, d)
    fail_steps: np.ndarray           # (R,) first non-finite step, -1 if clean
    checkpoint_indices: np.ndarray   # (K,)
    checkpoint_states: Optional[np.ndarray]  # (R, K, d), None when K = 0

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.fail_steps >= 0))


# a time block of draws holds at most _BLOCK_STEPS steps and at most
# _DRAW_BUDGET doubles, summed over the buffers it fills.  One generator
# call of k normals costs, per normal, about 14.6 ns at k = 500, 15.8 at
# 250, 18.7 at 128 and 24.1 at 64 (a 2-vCPU x86_64 host): past 256 steps a
# longer block draws little faster, it only holds more memory
_BLOCK_STEPS = 256
_DRAW_BUDGET = 1 << 21


def block_steps(n_steps: int, per_step: int) -> int:
    """Steps in each time block of draws over a run of ``n_steps`` steps,
    when one step fills ``per_step`` doubles.  The block rule above bounds
    K, and the bound sets the number of blocks; K is the shortest length
    that covers the run in that many blocks, so the blocks are balanced
    (N = 1,000 under the 256-step cap runs as 4 blocks of 250 steps, not
    256, 256, 256 and 232) and the buffers hold no steps the run never
    draws.  At least one step."""
    bound = max(1, min(n_steps, _BLOCK_STEPS, _DRAW_BUDGET // max(1, per_step)))
    count = -(-n_steps // bound)
    return -(-n_steps // count) if count else 1


# replications that run together, as one tile: a tile builds its own
# generators and reuses the draw and step buffers of the one before it
_TILE_REPS = 4096


def _tiles(n_reps: int):
    """``(r0, r1)`` of each tile: the fewest tiles of at most ``_TILE_REPS``
    replications, balanced, so the first is the largest."""
    count = -(-n_reps // _TILE_REPS)
    size, extra = divmod(n_reps, count)
    for i in range(count):
        r0 = i * size + min(i, extra)
        yield r0, r0 + size + (i < extra)


def _mapped(n: int) -> np.ndarray:
    """n doubles in a private anonymous mapping of their own, unmapped when
    the array is dropped, so the memory a later block reuses never depends
    on where malloc put it, and a forked child's writes never reach it."""
    return np.frombuffer(mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE), dtype=float)


class _Draws:
    """Every role's draws for one tile of replications, one time block at a
    time.

    ``tile(r0, r1)`` drops the previous tile's generators and builds those
    of replications r0 .. r1-1, each keyed by its absolute index, so a
    replication's draws never depend on the tile it runs in.  A stream read
    K steps at a time yields the same numbers as one whole-horizon draw, so
    the block length never changes a result either.  A block is step-major,
    (K, R, dim) for the R replications of the tile: the rows of one step are
    one contiguous slice.  The buffers hold up to ``max_reps`` replications
    and are reused by every block of every tile.  Every role is one
    ``_Sampler`` read through one generator per replication.  A role no step
    reads gives None; a draw-free model takes no substream, and its block
    repeats one step's dense rows along K only.
    """

    def __init__(self, spec: RunSpec, seed: int, max_reps: int):
        drift, d = spec.drift, spec.drift.dim
        term = drift.sample_term
        reads_xi = drift.m_rule is not None or (term is not None
                                                and not isinstance(term, CellTable))
        # a random selection on the set-valued map; a caller's rule gets the
        # draw as its generator
        reads_u = (term is None and drift.set_map is not None
                   and isinstance(drift.selector, (UniformVertex, CustomSelector)))
        roles = (
            (ROLE_XI, spec.noise_xi, reads_xi),
            (ROLE_ZETA, spec.noise_zeta, drift.smooth is not None),
            # the additive term is added at every step, as zeros when absent
            (ROLE_ZETATILDE, spec.noise_zetatilde if spec.noise_zetatilde.dim else NoNoise(d),
             True),
            (ROLE_BIAS, spec.bias, True),
            # one uniform per step: 0 + u*(1 - 0) is u itself
            (ROLE_SELECTOR, UniformNoise([0.0], [1.0]), reads_u),
            # a ball point per step from d + 2 normals, see ``Drift``
            (ROLE_PERTURB, GaussianNoise(np.zeros(d + 2), 1.0), drift.m_rule is not None),
        )
        self._seed = seed
        self.max_reps, self.n_reps = max_reps, 0
        self.width = 0  # doubles drawn per replication and step
        # indexed by role number: (model, generators of the tile) where a step
        # reads the role, the generators None for a model that draws nothing
        self._roles = []
        for _, model, read in roles:
            draws = read and model.draws and model.dim
            if draws:
                self.width += model.dim
            self._roles.append((model, [] if draws else None) if read else None)
        self._bufs = [None] * len(roles)

    def tile(self, r0: int, r1: int) -> None:
        """Build the generators of replications r0 .. r1-1 in place of the
        previous tile's, which are dropped first."""
        drawing = [role for role, entry in enumerate(self._roles)
                   if entry is not None and entry[1] is not None]
        for role in drawing:
            self._roles[role] = (self._roles[role][0], [])
        for role in drawing:
            self._roles[role] = (self._roles[role][0],
                                 _role_generators(self._seed, range(r0, r1), role))
        self.n_reps = r1 - r0

    def zeros(self, role: int) -> bool:
        """Whether ``role``, which every step reads, is draw-free rows of
        +0.0, whose bits are all zero."""
        model, gens = self._roles[role]
        return gens is None and not any(model.sample_block(None, 1).tobytes())

    def block(self, n0: int, k: int) -> list:
        """Steps n0 .. n0+k-1 of every role for the tile, in role order; a
        buffer is reused by the next block."""
        out = []
        m = self.n_reps
        for i, entry in enumerate(self._roles):
            if entry is None:
                out.append(None)
                continue
            model, gens = entry
            if gens is None:  # one step's dense rows: a stride-0 row broadcasts every add
                if self._bufs[i] is None:
                    self._bufs[i] = np.repeat(model.sample_block(None, 1), self.max_reps, axis=0)
                out.append(np.broadcast_to(self._bufs[i][:m], (k, m, model.dim)))
                continue
            if self._bufs[i] is None or self._bufs[i].size < k * self.max_reps * model.dim:
                self._bufs[i] = _mapped(k * self.max_reps * model.dim)
            # the leading doubles, so that a smaller tile's block is contiguous too
            blk = self._bufs[i][:k * m * model.dim].reshape(k, m, model.dim)
            model.fill_block(gens, n0, blk)
            out.append(blk)
        return out


# a blow-up overflows and makes NaNs on its way; the loop records it as a
# failed replication, so numpy's warnings about it are not errors
@np.errstate(over="ignore", invalid="ignore")
def _simulate_reps(spec: RunSpec, seed: int, n_reps: int,
                   checkpoints: Optional[Sequence[int]], logs: Optional[dict] = None):
    """The replications, tile by tile, with their states at the mesh indices
    ``checkpoints`` (any int sequence, range or array, in any order, with
    repeats).  ``logs``, for one-replication runs, holds the (N, d) arrays
    "set", "smooth", "noise" and "bias" and the (N,) bool array "projected",
    into which replication 0's terms are written."""
    drift = spec.drift
    d = drift.dim
    n_steps = spec.n_steps
    # sorted and distinct, as int64: no Python object per index.  np.unique hashes
    # integers (numpy 2.4), about 20 times slower than a sort at 200,001 indices
    ck = np.sort(np.asarray([] if checkpoints is None else checkpoints, dtype=np.int64))
    ck = ck[np.diff(ck, prepend=ck[:1] - 1) != 0]
    if ck.size and not 0 <= ck[0] <= ck[-1] <= n_steps:
        raise ValueError("checkpoints must lie in [0, n_steps]")
    finals = np.empty((n_reps, d))
    fail = np.full(n_reps, -1, dtype=int)
    ck_states = np.empty((n_reps, ck.size, d)) if ck.size else None
    result = EnsembleResult(finals, fail, ck, ck_states)
    if (n_reps == 1 and isinstance(drift.sample_term, CellTable) and drift.smooth is None
            and drift.m_rule is None and spec.projection is None):
        draws = _Draws(spec, seed, 1)
        draws.tile(0, 1)
        _simulate_float(spec, draws, result, logs)
        return result

    tile_reps = next(_tiles(n_reps))[1]
    draws = _Draws(spec, seed, tile_reps)

    # the step is summed into the loop's own buffers: never a term's output,
    # x0 or a projection; every tile uses their leading rows
    rows = np.empty((3, tile_reps, d))
    zeros, finite_rows = np.zeros((tile_reps, d)), np.empty((tile_reps, d), dtype=bool)
    block = block_steps(n_steps, tile_reps * max(1, draws.width))
    # the first add of +0.0 rows (b + h without a smooth part, or a zero
    # role) turns -0.0 into +0.0, and a later zero role changes no bit
    zero_zt, zero_beta = draws.zeros(ROLE_ZETATILDE), draws.zeros(ROLE_BIAS)
    add_zt = not (zero_zt and drift.smooth is None)
    add_beta = not (zero_beta and (zero_zt or drift.smooth is None))
    for r0, r1 in _tiles(n_reps):
        m = r1 - r0
        draws.tile(r0, r1)
        total, own, finite = rows[2, :m], (rows[0, :m], rows[1, :m]), finite_rows[:m]
        x, fail_tile = own[0], fail[r0:r1]
        x[:] = spec.x0
        # the cursor: the slot of the next checkpoint and its index, -1 past the
        # last; the state at index n is read before step n, and N's after the loop
        marks = enumerate(map(int, ck))
        slot, due = next(marks, (0, -1))
        for n0 in range(0, n_steps, block):
            k = min(block, n_steps - n0)
            a = spec.schedule.step_sizes(n0, n0 + k)
            xi, zeta, zt, beta, usel, pert = draws.block(n0, k)
            for j in range(k):
                n = n0 + j
                if n == due:
                    ck_states[r0:r1, slot] = x
                    slot, due = next(marks, (0, -1))
                b = drift.set_term_rows(x, None if xi is None else xi[j],
                                        None if usel is None else usel[j, :, 0],
                                        None if pert is None else pert[j])
                h = drift.smooth(x, zeta[j]) if drift.smooth is not None else zeros[:m]
                np.add(b, h, out=total)
                if add_zt:
                    total += zt[j]
                if add_beta:
                    total += beta[j]
                total *= a[j]
                x_new = np.add(x, total, out=own[x is own[0]])  # the buffer x is not
                if spec.projection is not None:
                    proj_new = spec.projection.project_rows(x_new)
                    if logs is not None:
                        logs["projected"][n] = np.any(proj_new[0] != x_new[0])
                    x_new = proj_new
                # a non-finite entry makes the sum non-finite, so one reduction
                # finds every blow-up; an overflowing sum only asks for the
                # exact test
                if (not math.isfinite(np.add.reduce(x_new, axis=None))
                        and not np.isfinite(x_new, out=finite).all()):
                    newly = ~finite.all(axis=1) & (fail_tile < 0)
                    fail_tile[newly] = n
                x = x_new
                if logs is not None:
                    logs["set"][n] = b[0]
                    logs["smooth"][n] = h[0]
                    logs["noise"][n] = zt[j, 0]
                    logs["bias"][n] = beta[j, 0]
        if due == n_steps:
            ck_states[r0:r1, slot] = x
        finals[r0:r1] = x
    return result


def _simulate_float(spec: RunSpec, draws: _Draws, result: EnsembleResult, logs):
    """One replication of a ``CellTable``-only drift on plain floats, written
    into row 0 of ``result`` and into ``logs`` (None for none).  It reads
    the additive-noise and bias draws as the row loop does (a table reads no
    other role) and sums in the same order, x + a*(((b + h) + h0) + beta)
    with h = 0, so every output is bit-identical.  Only a block's states are
    held as an array, so memory does not grow with N."""
    n_steps, ck = spec.n_steps, result.checkpoint_indices
    term_at = spec.drift.sample_term.term_at
    x = spec.x0.tolist()
    slot = 0  # the cursor: the first checkpoint not yet written
    # a block of draws is also the steps turned into Python floats at a time
    block = block_steps(n_steps, draws.width)
    for n0 in range(0, n_steps, block):
        n1 = min(n0 + block, n_steps)
        _, _, h0, beta, _, _ = draws.block(n0, n1 - n0)
        h0, beta = h0[:, 0], beta[:, 0]
        xs = [x]
        for an, h0_n, beta_n in zip(spec.schedule.step_sizes(n0, n1).tolist(),
                                    h0.tolist(), beta.tolist()):
            offset, slope = term_at(x)
            x = [v + an * ((((o + slope * v if slope else o) + 0.0) + z) + e)
                 for v, o, z, e in zip(x, offset, h0_n, beta_n)]
            xs.append(x)
        states = np.array(xs)  # indices n0 .. n1
        # the state at index n is read before step n, and N's after the loop
        end = int(np.searchsorted(ck, n1))
        if end > slot:
            result.checkpoint_states[0, slot:end] = states[ck[slot:end] - n0]
            slot = end
        # a non-finite coordinate stays non-finite, so the first bad row is the failure
        if result.fail_steps[0] < 0 and not np.isfinite(states[1:]).all():
            result.fail_steps[0] = n0 + np.argmin(np.isfinite(states[1:]).all(axis=1))
        if logs is not None:
            # the row term picks the same cell at every state, so it rebuilds b exactly
            logs["set"][n0:n1] = spec.drift.sample_term(states[:-1])
            logs["noise"][n0:n1] = h0
            logs["bias"][n0:n1] = beta
    if slot < ck.size:
        result.checkpoint_states[0, slot] = x
    result.finals[0] = x


def run(spec: RunSpec, seed: int) -> Trajectory:
    """One fully-logged replication, its state at every mesh index and the
    term logs it allocates; raises on the first non-finite iterate."""
    n, d = spec.n_steps, spec.drift.dim
    logs = {k: np.zeros((n, d)) for k in ("set", "smooth", "noise", "bias")}
    logs["projected"] = np.zeros(n, dtype=bool)
    # a range, so that the caller holds no second array of the indices
    result = _simulate_reps(spec, seed, 1, range(spec.n_steps + 1), logs)
    iterates = result.checkpoint_states[0]
    if result.fail_steps[0] >= 0:
        step = int(result.fail_steps[0])
        raise SimulationBlowup(step, iterates[step + 1])
    return Trajectory(
        schedule=spec.schedule,
        iterates=iterates,
        step_sizes_used=spec.schedule.step_sizes(0, spec.n_steps),
        set_terms=logs["set"],
        smooth_terms=logs["smooth"],
        noise_terms=logs["noise"],
        bias_terms=logs["bias"],
        projection_active=logs["projected"],
        seed=int(seed),
        fingerprint=spec.fingerprint,
        name=spec.name,
    )


def run_ensemble(spec: RunSpec, seed: int, n_reps: int,
                 checkpoints: Optional[Sequence[int]] = None,
                 threads: int = 1) -> EnsembleResult:
    """Independent replications with per-replication substreams, with the
    state of each at the mesh indices ``checkpoints``: any int sequence,
    range or array, read sorted and without repeats.

    The replications run in tiles of at most ``_TILE_REPS``, each tile
    through all N steps before the next starts, so the generators and draw
    buffers held at once do not grow with ``n_reps``; the outputs are
    written by absolute replication index and do not depend on the tiles.
    ``threads`` is accepted and has no effect: every replication's draws
    are keyed by its absolute index, so results never depended on it.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if n_reps > MAX_REPLICATIONS:
        raise ValueError(_REPS_ERROR)
    return _simulate_reps(spec, seed, n_reps, checkpoints)
