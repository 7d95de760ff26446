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

from .artifacts import Artifact
from .engine import NoProjection, ProjectionRegion
from .sets import (
    LeastNorm,
    SetValuedMap,
    Singleton,
    least_norm_point,
    minkowski_sum,
    select,
)

__all__ = [
    "InclusionPath",
    "integrate",
    "ChainProbeReport",
    "epsilon_chain_diagnostic",
]

# a state this close to a declared threshold, relative to 1 + |t|, is on its surface
_SURFACE_TOL = 1e-9
# starts the chain search keeps from one generation to the next
_BEAM_WIDTH = 6


@dataclass
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
        rows = ([k, k * self.dt, self.dt, *x.tolist(), *s.tolist()]
                for k, (x, s) in enumerate(zip(self.states, self.selector_values)))
        Artifact(cols, rows, provenance=meta).write(path)


def _on_surface(x: np.ndarray, thresholds, tol: float):
    out = []
    if thresholds is None:
        return out
    for i, ts in enumerate(thresholds):
        for t in ts:
            if abs(x[i] - t) <= tol * (1.0 + abs(t)):
                out.append((i, t))
                break
    return out


def _crossings(x_old: np.ndarray, x_new: np.ndarray, thresholds):
    out = []
    if thresholds is None:
        return out
    for i, ts in enumerate(thresholds):
        for t in ts:
            if (x_old[i] - t) * (x_new[i] - t) < 0.0:
                out.append((i, t))
                break
    return out


def _velocity(fmap: SetValuedMap, smooth, x: np.ndarray, strategy, sliding: bool):
    """Selected velocity; on a declared surface the damper takes the
    least-norm element of the combined value so a sliding mode stays put."""
    h = np.zeros_like(x) if smooth is None else np.atleast_1d(np.asarray(smooth(x), dtype=float))
    if fmap is None:
        return h, np.zeros_like(x)
    if sliding:
        total = minkowski_sum(Singleton(h), fmap.value(x))
        v = least_norm_point(total)
        return v, v - h
    g = select(fmap, x, strategy)
    return h + g, g


def integrate(fmap: Optional[SetValuedMap], smooth: Optional[Callable],
              x0, dt: float, horizon: float, strategy=None,
              projection: Optional[ProjectionRegion] = None) -> InclusionPath:
    """Euler path x_{k+1} = x_k + dt*(smooth(x_k) + selection from fmap(x_k)).

    When consecutive states cross a threshold declared on ``fmap``, the
    state is first snapped onto the surface; while the state sits on a
    surface, the selection is the least-norm element of the combined
    velocity hull, which reproduces sliding modes instead of chattering.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    strategy = strategy or LeastNorm()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x.shape[0]
    n_steps = int(math.ceil(horizon / dt - 1e-12)) if horizon > 0 else 0
    states = np.empty((n_steps + 1, d))
    sel = np.empty((n_steps, d))
    states[0] = x
    events = []
    thresholds = fmap.thresholds if fmap is not None else None
    project = None
    if projection is not None and not isinstance(projection, NoProjection):
        project = projection.project_rows

    for k in range(n_steps):
        sliding = bool(_on_surface(x, thresholds, _SURFACE_TOL))
        v, g = _velocity(fmap, smooth, x, strategy, sliding)
        x_new = x + dt * v
        crossed = _crossings(x, x_new, thresholds)
        for (i, t) in crossed:
            x_new[i] = t
            events.append((k, i, t))
        if project is not None:
            x_new = project(x_new[None, :])[0]
        if not np.all(np.isfinite(x_new)):
            from .engine import SimulationBlowup

            raise SimulationBlowup(k)
        sel[k] = g
        x = x_new
        states[k + 1] = x
    return InclusionPath(dt=dt, horizon=horizon, states=states, selector_values=sel,
                         events=events)


@dataclass
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
                             budget: int = 16) -> list[ChainProbeReport]:
    """Search for an epsilon-chain of integrated segments that returns to
    within ``eps`` of each probe.

    Segments last 2*t_min and a return only counts after t_min.  Between
    segments the start may jump up to ``eps`` (toward the probe or along
    coordinate axes); a breadth-limited beam with a visited filter spends at
    most ``budget`` integrations per probe.  A hit is constructive evidence
    of chain recurrence; exhaustion claims nothing.
    """
    if eps <= 0 or t_min <= 0:
        raise ValueError("eps and t_min must be positive")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    reports = []
    min_index = int(math.ceil(t_min / dt - 1e-12))
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
                path = integrate(fmap, smooth, start, dt, duration)
                segments += 1
                total_time += path.n_steps * dt
                dists = np.linalg.norm(path.states[min_index:] - theta, axis=1)
                hit = float(np.min(dists))
                best = min(best, hit)
                if hit <= eps:
                    found = True
                    break
                children.extend(_jump_candidates(path.states[-1], theta, eps))
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
