"""The per-step Euler-Maruyama loop that block draws replaced in
``sadi.rates.simulate_sdi``, kept as the reference the block simulator is
checked against bit for bit.

Each step draws its own (n_reps, d) normals and maps them by ``sigma_root``.
``picks`` is the generator a drawing selection strategy reads; None is the
normals' own generator, as the loop had it.
"""

import math

import numpy as np

from sadi.engine import SimulationBlowup, step_count
from sadi.sets import LeastNorm, select


def simulate_sdi(model, u0, dt, horizon, strategy=None, seed=0, n_reps=1, picks=None):
    strategy = strategy or LeastNorm()
    d = model.dim
    u0 = np.asarray(u0, dtype=float)
    u = np.tile(np.atleast_1d(u0), (n_reps, 1)) if u0.ndim <= 1 else np.array(u0)
    n_steps = step_count(horizon, dt)
    gen = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    picks = gen if picks is None else picks
    sqdt = math.sqrt(dt)
    drift_matrix = model.drift_matrix()
    for k in range(n_steps):
        linear = u @ drift_matrix.T
        if model.t_map is not None:
            sel = np.empty_like(u)
            for i in range(n_reps):
                sel[i] = select(model.t_map, u[i], strategy, picks)
            linear = linear + sel
        noise = gen.standard_normal((n_reps, d)) @ model.sigma_root.T
        u = u + dt * linear + sqdt * noise
        if not np.all(np.isfinite(u)):
            raise SimulationBlowup(k)
    return u
