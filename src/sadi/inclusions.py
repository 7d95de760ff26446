"""Explicit-Euler integration of differential inclusions via selectors,
with a chattering damper that recovers sliding modes on declared
per-coordinate discontinuity surfaces, plus a budgeted epsilon-chain
return diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .artifacts import Artifact, column_blocks
from .engine import SimulationBlowup, step_count
from .sets import (
    ConvexSet,
    LeastNorm,
    SetValuedMap,
    Singleton,
    least_norm_point,
    minkowski_sum,
    on_thresholds,
    select,
)

__all__ = [
    "InclusionPath",
    "integrate",
    "ChainProbeReport",
    "epsilon_chain_diagnostic",
]

# starts the chain search keeps from one generation to the next
_BEAM_WIDTH = 6
# steps the integrator keeps as Python lists before copying them into its arrays
_BLOCK = 1024


@dataclass(repr=False, eq=False)
class InclusionPath:
    dt: float
    horizon: float
    states: np.ndarray           # (K+1, d)
    selector_values: np.ndarray  # (K, d)
    events: list = field(default_factory=list)  # (step, coordinate, threshold)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.states.shape[0])

    def to_csv(self, path, provenance=()) -> None:
        d = self.states.shape[1]
        cols = ["n", "t", "a"] + [f"x{i}" for i in range(d)] + [f"set{i}" for i in range(d)]
        meta = [("dt", self.dt), ("horizon", self.horizon), *provenance]
        n = self.selector_values.shape[0]
        rows = column_blocks(range(n), np.arange(n) * self.dt,
                             *self.states[:n].T, *self.selector_values.T)
        # the constant ``a`` column is printed once, into the row template
        a = ("%.17g" % self.dt).replace("%", "%%")
        Artifact(cols, rows, provenance=meta,
                 template=",".join(["%d", "%.17g", a, *["%.17g"] * (2 * d)]) + "\n").write(path)


def _crossings(x_old: list, x_new: list, thresholds):
    """Per coordinate, the threshold strictly between the old and the new
    value that lies nearest the old one: the first the step meets."""
    out = []
    for i, ts in enumerate(thresholds):
        a, b = x_old[i], x_new[i]
        for t in (ts if a < b else reversed(ts)):
            if (a - t) * (b - t) < 0.0:
                out.append((i, t))
                break
    return out


def _velocity(fmap: SetValuedMap, h: np.ndarray, x: np.ndarray, strategy, sliding: bool):
    """Selected velocity and selection from the map's value; on a declared
    surface the damper takes the least-norm element of the combined value so
    a sliding mode stays put."""
    if sliding:
        total = minkowski_sum(Singleton(h), fmap.value(x))
        v = least_norm_point(total)
        return v, v - h
    g = select(fmap, x, strategy)
    return h + g, g


def _box_velocity(lo, hi, h: list, sliding: bool):
    """``_velocity`` for the box value [lo, hi], in closed form on plain
    floats.  Each coordinate clips as ``np.clip`` does, signed zeros
    included: the least-norm point is min(hi, max(lo, 0)), and a sliding
    velocity is h plus the point of the box nearest to 0 - h."""
    if sliding:
        v = [a + min(u, max(l, 0.0 - a)) for a, l, u in zip(h, lo, hi)]
        return v, [b - a for a, b in zip(h, v)]
    g = [min(u, max(l, 0.0)) for l, u in zip(lo, hi)]
    return [a + b for a, b in zip(h, g)], g


# a blow-up overflows on its way to the non-finite state that raises it
@np.errstate(over="ignore", invalid="ignore")
def integrate(fmap: Optional[SetValuedMap], smooth: Optional[Callable],
              x0, dt: float, horizon: float, strategy=None,
              projection: Optional[ConvexSet] = None) -> InclusionPath:
    """Euler path x_{k+1} = x_k + dt*(smooth(x_k) + selection from fmap(x_k)).

    When consecutive states cross a threshold declared on ``fmap``, the
    state is first snapped onto the surface; while the state sits on a
    surface, the selection is the least-norm element of the combined
    velocity hull, which reproduces sliding modes instead of chattering.
    ``projection``, a Box or a Ball, takes each new state to its nearest point.

    The loop runs on plain floats: the surface test, the crossing snap and
    the Euler update.  A map that declares box bounds gets its least-norm
    and sliding velocities in closed form from them; any other map, or a
    box map under another selector off the surfaces, is evaluated through
    ``fmap.value`` at each step.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).tolist()
    d = len(x)
    n_steps = step_count(horizon, dt)
    states, sel = np.empty((n_steps + 1, d)), np.empty((n_steps, d))
    states[0] = x
    events = []
    thresholds, bands = (fmap.thresholds, fmap.bands) if fmap is not None else ((), ())
    bounds = fmap.bounds if fmap is not None else None
    least_norm = strategy is None or isinstance(strategy, LeastNorm)  # select's default
    zeros = [0.0] * d

    for k0 in range(0, n_steps, _BLOCK):
        xs, gs = [], []
        for k in range(k0, min(k0 + _BLOCK, n_steps)):
            sliding = bool(on_thresholds(x, bands))
            h = zeros if smooth is None else np.atleast_1d(
                np.asarray(smooth(np.array(x)), dtype=float)).tolist()
            if fmap is None:
                v, g = h, zeros
            elif bounds is not None and (sliding or least_norm):
                v, g = _box_velocity(*bounds(x), h, sliding)
            else:
                v, g = (a.tolist() for a in _velocity(fmap, np.array(h), np.array(x),
                                                      strategy, sliding))
            x_new = [a + dt * b for a, b in zip(x, v)]
            for (i, t) in _crossings(x, x_new, thresholds):
                x_new[i] = t
                events.append((k, i, t))
            if projection is not None:
                x_new = projection.project_rows(np.array([x_new]))[0].tolist()
            if not all(map(math.isfinite, x_new)):
                raise SimulationBlowup(k, x_new)
            gs.append(g)
            x = x_new
            xs.append(x)
        states[k0 + 1:k0 + 1 + len(xs)] = xs
        sel[k0:k0 + len(gs)] = gs
    return InclusionPath(dt=dt, horizon=horizon, states=states, selector_values=sel,
                         events=events)


@dataclass(repr=False, eq=False)
class ChainProbeReport:
    probe: tuple
    found: bool
    n_segments: int
    total_time: float
    return_distance: float

    def __str__(self):
        tag = "chain found" if self.found else "exhausted"
        return (f"probe {list(self.probe)}: {tag} after {self.n_segments} segment(s), "
                f"t={self.total_time:.4g}, nearest return {self.return_distance:.4g}")


def _jump_candidates(end: np.ndarray, theta: np.ndarray, eps: float) -> list[np.ndarray]:
    d = end.shape[0]
    out = [np.array(end)]
    gap = theta - end
    norm = float(np.linalg.norm(gap))
    if norm > 0.0:
        out.append(end + (eps * gap / norm if norm > eps else gap))
    for i in range(d):
        for s in (1.0, -1.0):
            e = np.zeros(d)
            e[i] = s * eps
            out.append(end + e)
    return out


def epsilon_chain_diagnostic(fmap: Optional[SetValuedMap], smooth: Optional[Callable],
                             probes: Sequence, eps: float, t_min: float, dt: float,
                             budget: int = 16,
                             projection: Optional[ConvexSet] = None) -> list[ChainProbeReport]:
    """Search for an epsilon-chain of integrated segments that returns to
    within ``eps`` of each probe.

    Segments last 2*t_min and a return only counts after t_min.  Between
    segments the start may jump up to ``eps`` (toward the probe or along
    coordinate axes); a breadth-limited beam with a visited filter spends at
    most ``budget`` integrations per probe.  A hit is constructive evidence
    of chain recurrence; exhaustion claims nothing.  Under ``projection``, a
    Box or a Ball, each segment is projected, and each jump lands in it.
    """
    if eps <= 0 or t_min <= 0:
        raise ValueError("eps and t_min must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    reports = []
    min_index = step_count(t_min, dt)
    duration = 2.0 * t_min
    for probe in probes:
        theta = np.atleast_1d(np.asarray(probe, dtype=float))
        frontier = [np.array(theta)]
        visited: list[np.ndarray] = []
        found = False
        best = math.inf
        segments = 0
        total_time = 0.0
        while frontier and segments < budget and not found:
            children: list[np.ndarray] = []
            for start in frontier:
                if segments >= budget:
                    break
                visited.append(start)
                path = integrate(fmap, smooth, start, dt, duration, projection=projection)
                segments += 1
                total_time += path.n_steps * dt
                dists = np.linalg.norm(path.states[min_index:] - theta, axis=1)
                hit = float(np.min(dists))
                best = min(best, hit)
                if hit <= eps:
                    found = True
                    break
                jumps = _jump_candidates(path.states[-1], theta, eps)
                children.extend(jumps if projection is None else projection.project_rows(jumps))
            if found:
                break
            fresh = []
            for c in children:
                if any(np.linalg.norm(c - v) < 0.5 * eps for v in visited):
                    continue
                if any(np.linalg.norm(c - f) < 0.5 * eps for f in fresh):
                    continue
                fresh.append(c)
            fresh.sort(key=lambda c: float(np.linalg.norm(c - theta)))
            frontier = fresh[:_BEAM_WIDTH]
        reports.append(ChainProbeReport(tuple(theta.tolist()), found, segments,
                                        total_time, best))
    return reports
