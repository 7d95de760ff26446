"""The stochastic approximation engine.

One recursion step adds, scaled by the step size, a set-valued selection, a
smooth noisy term, a pure-noise term, and a bias term, then optionally
projects onto a box or a ball.  Randomness is split into per-role
substreams keyed by (seed, replication, role), so adding or editing one
role never perturbs another role's draws, and every replication's draws are
fixed by its own index alone.
"""

from __future__ import annotations

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
    past n of about 8,192 an absolute slack is smaller than one ulp."""
    if not span > 0:
        return 0
    ratio = span / dt
    n = round(ratio)
    return n if abs(ratio - n) <= 4 * math.ulp(n) else math.ceil(ratio)


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
    ``what`` names ``m`` in the PSD error."""
    m = as_matrix(m, d, mismatch)
    w, v = np.linalg.eigh(0.5 * (m + m.T))
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
        return self._affine(gen.standard_normal((n, self.dim)), np.empty((n, self.dim)))

    def fill_block(self, gens, n0, out):
        # the affine map runs over the contiguous normals of many replications,
        # and one transposing copy puts the chunk into the step-major block;
        # the copy moves each row of dim doubles as one opaque item
        row = np.dtype((np.void, out.itemsize * self.dim))
        block = out.view(row)[..., 0]
        mapped = None
        for rows, z in _normal_chunks(gens, out.shape):
            if mapped is None:
                mapped = np.empty_like(z)
            chunk = self._affine(z, mapped[:z.shape[0]])
            block[:, rows] = chunk.view(row)[..., 0].T

    def _affine(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``mean + z @ root.T`` over the last axis, into ``out``, summed column
        by column in a fixed order.  BLAS rounds a one-row product (gemv)
        differently from a many-row one (gemm) when the root has off-diagonal
        entries, so a matrix product would tie each draw to the block length.
        A root entry that is exactly 0 adds a signed zero, which can change
        only the sign of a zero sum, and adding the mean settles that sign
        unless the mean entry is -0.0: only such a column keeps its zero
        terms."""
        for col, terms, m in zip(np.moveaxis(out, -1, 0), self._terms, self.mean.tolist()):
            if terms:
                (j, r), *rest = terms
                np.multiply(z[..., j], r, out=col)
                for j, r in rest:
                    col += z[..., j] * r
            else:
                col.fill(0.0)
            # the mean is added per column: a broadcast over a short last
            # axis runs one tiny inner loop per row
            col += m
        return out


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
        self._sd_block = (None, np.zeros(0))  # ((n0, n), per-step sd) of the last block

    def variance_at(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return self.c * (n + 1.0) ** (-self.gamma)

    def _sd(self, n0: int, n: int) -> np.ndarray:
        if self._sd_block[0] != (n0, n):
            self._sd_block = ((n0, n), np.sqrt(self.variance_at(np.arange(n0, n0 + n))))
        return self._sd_block[1]

    def sample_block(self, gen, n, n0=0):
        return gen.standard_normal((n, self.dim)) * self._sd(n0, n)[:, None]

    def fill_block(self, gens, n0, out):
        sd = self._sd(n0, out.shape[0])[:, None, None]
        for rows, z in _normal_chunks(gens, out.shape):
            np.multiply(z.transpose(1, 0, 2), sd, out=out[:, rows])


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


@dataclass
class Drift:
    """One step's deterministic structure.

    ``smooth(x_rows, zeta_rows)`` is the noisy continuous term; its mean
    ``smooth_mean`` (when known) feeds root checks and limit dynamics.  The
    set-valued term is either ``sample_term(x_rows, xi_rows)`` (vectorized,
    possibly sample-dependent) or a selector applied to ``set_map`` row by
    row.  ``m_rule(x_rows, xi_rows)`` returns one radius per row (a scalar
    is every row's) and inflates each row's selection by a random point of
    the closed ball of that radius, made from the row's d + 2 perturbation
    normals (``pert_rows``).

    The engine hands each step that step's draws as dense (R, dim) rows,
    read in time blocks of a fixed number of doubles, so they do not grow
    with the horizon N, and it never writes into an array a term returns.
    Only a random selection on ``set_map`` reads selector draws
    (``u_rows``), so a sample term never sees them; a cell-table term
    without ``m_rule`` gets ``xi_rows=None``.
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
            b = np.empty_like(x_rows)
            for i in range(x_rows.shape[0]):
                rng = None if u_rows is None else _PrimedGenerator(u_rows[i])
                b[i] = select(self.set_map, x_rows[i], self.selector, rng)
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


class _PrimedGenerator:
    """Feeds one pre-drawn uniform, then defers to nothing; enough for the
    single-draw contract of UniformVertex inside the engine loop."""

    __slots__ = ("u",)

    def __init__(self, u: float):
        self.u = float(u)

    def random(self):
        return self.u


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
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


@dataclass
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


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the state words that ``_seed_state`` computed, so PCG64
    runs its own seeding exactly as it does from a SeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 seed words are precomputed")
        return self.words


# a replication index is one 32-bit word of its substream key
MAX_REPLICATIONS = 1 << 32
_REPS_ERROR = "replication indices must lie in [0, 2**32)"


def _role_generators(seed: int, reps: Sequence[int], role: int) -> list:
    """One generator per replication for ``role``: the generator
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(rep, role)))``,
    with the SeedSequence hash run once for all replications (on plain
    ints for a single one)."""
    reps = np.asarray(reps, dtype=np.int64)
    if reps.size and (reps.min() < 0 or reps.max() >= MAX_REPLICATIONS):
        raise ValueError(_REPS_ERROR)
    key = int(reps[0]) if reps.size == 1 else reps.astype(np.uint64)
    state = np.array(_seed_state(seed, key, role), dtype=np.uint64).reshape(4, -1)
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    return [Generator(PCG64(_SeedWords(row))) for row in np.ascontiguousarray(state.T)]


@dataclass
class EnsembleResult:
    finals: np.ndarray               # (R, d)
    fail_steps: np.ndarray           # (R,) first non-finite step, -1 if clean
    checkpoint_indices: np.ndarray   # (K,)
    checkpoint_states: Optional[np.ndarray]  # (R, K, d)
    paths: Optional[np.ndarray]      # (R, N+1, d)

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.fail_steps >= 0))


# a time block of draws holds at most _BLOCK_STEPS steps and at most
# _DRAW_BUDGET doubles, summed over the buffers it fills; past a few hundred
# steps a longer block draws no faster, it only holds more memory
_BLOCK_STEPS = 512
_DRAW_BUDGET = 1 << 21


def block_steps(n_steps: int, per_step: int) -> int:
    """Steps in each time block of draws over a run of ``n_steps`` steps,
    when one step fills ``per_step`` doubles: the block rule above, and at
    least one step."""
    return max(1, min(n_steps, _BLOCK_STEPS, _DRAW_BUDGET // max(1, per_step)))


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


def _simulate_reps(spec: RunSpec, seed: int, n_reps: int,
                   checkpoints: Optional[Sequence[int]], record_paths: bool,
                   record_logs: bool):
    """The replications, tile by tile.  ``record_logs`` logs replication 0,
    for one-replication runs."""
    drift = spec.drift
    d = drift.dim
    n_steps = spec.n_steps
    ck = sorted(set(int(c) for c in checkpoints)) if checkpoints else []
    if ck and not 0 <= ck[0] <= ck[-1] <= n_steps:
        raise ValueError("checkpoints must lie in [0, n_steps]")
    if (n_reps == 1 and isinstance(drift.sample_term, CellTable) and drift.smooth is None
            and drift.m_rule is None and spec.projection is None):
        draws = _Draws(spec, seed, 1)
        draws.tile(0, 1)
        return _simulate_float(spec, draws, ck, record_paths, record_logs)

    tile_reps = next(_tiles(n_reps))[1]
    draws = _Draws(spec, seed, tile_reps)
    finals = np.empty((n_reps, d))
    fail = np.full(n_reps, -1, dtype=int)
    ck_states = np.empty((n_reps, len(ck), d)) if ck else None
    ck_pos = {c: i for i, c in enumerate(ck)}
    paths = np.empty((n_reps, n_steps + 1, d)) if record_paths else None
    logs = None
    if record_logs:
        logs = {k: np.zeros((n_steps, d)) for k in ("set", "smooth", "noise", "bias")}
        logs["projected"] = np.zeros(n_steps, dtype=bool)

    # the step is summed into the loop's own buffers: never a term's output,
    # x0 or a projection; every tile uses their leading rows
    rows = np.empty((3, tile_reps, d))
    zeros, finite_rows = np.zeros((tile_reps, d)), np.empty((tile_reps, d), dtype=bool)
    block = block_steps(n_steps, tile_reps * max(1, draws.width))
    for r0, r1 in _tiles(n_reps):
        m = r1 - r0
        draws.tile(r0, r1)
        total, own, finite = rows[2, :m], (rows[0, :m], rows[1, :m]), finite_rows[:m]
        x, fail_tile = own[0], fail[r0:r1]
        x[:] = spec.x0
        if record_paths:
            paths[r0:r1, 0, :] = x
        if 0 in ck_pos:
            ck_states[r0:r1, ck_pos[0], :] = x
        for n0 in range(0, n_steps, block):
            k = min(block, n_steps - n0)
            a = spec.schedule.step_sizes(n0, n0 + k)
            xi, zeta, zt, beta, usel, pert = draws.block(n0, k)
            for j in range(k):
                n = n0 + j
                b = drift.set_term_rows(x, None if xi is None else xi[j],
                                        None if usel is None else usel[j, :, 0],
                                        None if pert is None else pert[j])
                h = drift.smooth(x, zeta[j]) if drift.smooth is not None else zeros[:m]
                np.add(b, h, out=total)  # zero roles too: (b + h) + 0.0 turns -0.0 into +0.0
                total += zt[j]
                total += beta[j]
                total *= a[j]
                x_new = np.add(x, total, out=own[x is own[0]])  # the buffer x is not
                if spec.projection is not None:
                    proj_new = spec.projection.project_rows(x_new)
                    if record_logs:
                        logs["projected"][n] = np.any(proj_new[0] != x_new[0])
                    x_new = proj_new
                np.isfinite(x_new, out=finite)
                if not finite.all():
                    newly = ~finite.all(axis=1) & (fail_tile < 0)
                    fail_tile[newly] = n
                x = x_new
                if record_paths:
                    paths[r0:r1, n + 1, :] = x
                if (n + 1) in ck_pos:
                    ck_states[r0:r1, ck_pos[n + 1], :] = x
                if record_logs:
                    logs["set"][n] = b[0]
                    logs["smooth"][n] = h[0]
                    logs["noise"][n] = zt[j, 0]
                    logs["bias"][n] = beta[j, 0]
        finals[r0:r1] = x

    result = EnsembleResult(
        finals=finals,
        fail_steps=fail,
        checkpoint_indices=np.asarray(ck, dtype=int),
        checkpoint_states=ck_states,
        paths=paths,
    )
    return result, logs


def _simulate_float(spec: RunSpec, draws: _Draws, ck: list,
                    record_paths: bool, record_logs: bool):
    """One replication of a ``CellTable``-only drift on plain floats.  It reads
    the additive-noise and bias draws as the row loop does (a table reads no
    other role) and sums in the same order, x + a*(((b + h) + h0) + beta)
    with h = 0, so every output is bit-identical."""
    d, n_steps = spec.drift.dim, spec.n_steps
    term_at = spec.drift.sample_term.term_at
    path = np.empty((n_steps + 1, d))
    path[0] = x = spec.x0.tolist()
    logs = None
    if record_logs:
        logs = {k: np.zeros((n_steps, d)) for k in ("smooth", "noise", "bias")}
    # a block of draws is also the steps turned into Python floats at a time
    block = block_steps(n_steps, draws.width)
    for n0 in range(0, n_steps, block):
        n1 = min(n0 + block, n_steps)
        _, _, h0, beta, _, _ = draws.block(n0, n1 - n0)
        h0, beta = h0[:, 0], beta[:, 0]
        if record_logs:
            logs["noise"][n0:n1] = h0
            logs["bias"][n0:n1] = beta
        xs = []
        for an, h0_n, beta_n in zip(spec.schedule.step_sizes(n0, n1).tolist(),
                                    h0.tolist(), beta.tolist()):
            offset, slope = term_at(x)
            x = [v + an * ((((o + slope * v if slope else o) + 0.0) + z) + e)
                 for v, o, z, e in zip(x, offset, h0_n, beta_n)]
            xs.append(x)
        path[n0 + 1:n1 + 1] = xs

    # a non-finite coordinate stays non-finite, so the first bad row is the failure
    bad = ~np.isfinite(path[1:]).all(axis=1)
    if record_logs:
        # the row term picks the same cell at every state, so it rebuilds b exactly
        logs["set"] = spec.drift.sample_term(path[:-1])
        logs["projected"] = np.zeros(n_steps, dtype=bool)
    result = EnsembleResult(path[-1:].copy(), np.array([np.argmax(bad) if bad.any() else -1]),
                            np.asarray(ck, dtype=int), path[ck][None] if ck else None,
                            path[None] if record_paths else None)
    return result, logs


def run(spec: RunSpec, seed: int) -> Trajectory:
    """One fully-logged replication; raises on the first non-finite iterate."""
    result, logs = _simulate_reps(spec, seed, 1, None, record_paths=True, record_logs=True)
    if result.fail_steps[0] >= 0:
        step = int(result.fail_steps[0])
        raise SimulationBlowup(step, result.paths[0, step + 1])
    return Trajectory(
        schedule=spec.schedule,
        iterates=result.paths[0],
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
                 record_paths: bool = False, threads: int = 1) -> EnsembleResult:
    """Independent replications with per-replication substreams.

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
    result, _ = _simulate_reps(spec, seed, n_reps, checkpoints, record_paths, False)
    return result
