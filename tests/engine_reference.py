"""The allocating row loop that dense draw-free rows and the in-place step
replaced in ``sadi.engine._simulate_reps``, kept as the reference the
engine is checked against bit for bit.

A draw-free role (``NoNoise``, ``ZeroBias``, ``ConstantBias``) reads as a
stride-0 view of its single-step value, every step allocates
``b + h + h0 + bb`` and ``x + a*total``, and a box clips with its (d,)
bounds in one call.  It runs the row loop for every replication count,
with no plain-float path, and runs every replication as one tile.
"""

import numpy as np

from sadi import engine
from sadi.engine import EnsembleResult
from sadi.sets import Box


def _block(draws, n0, k):
    out = draws.block(n0, k)
    for i, entry in enumerate(draws._roles):
        if entry is not None and entry[1] is None:
            model = entry[0]
            out[i] = np.broadcast_to(model.sample_block(None, 1), (k, draws.n_reps, model.dim))
    return out


def _project(projection, rows):
    if isinstance(projection, Box):
        return np.clip(rows, projection.lo, projection.hi)
    return projection.project_rows(rows)


def run_ensemble(spec, seed, n_reps, checkpoints=None):
    drift = spec.drift
    d = drift.dim
    n_steps = spec.n_steps
    ck = sorted(set(int(c) for c in checkpoints)) if checkpoints else []
    draws = engine._Draws(spec, seed, n_reps)
    draws.tile(0, n_reps)

    x = np.tile(spec.x0, (n_reps, 1))
    fail = np.full(n_reps, -1, dtype=int)
    ck_states = np.empty((n_reps, len(ck), d)) if ck else None
    ck_pos = {c: i for i, c in enumerate(ck)}
    if 0 in ck_pos:
        ck_states[:, ck_pos[0], :] = x

    zeros = np.zeros((n_reps, d))
    block = engine.block_steps(n_steps, n_reps * max(1, draws.width))
    for n0 in range(0, n_steps, block):
        k = min(block, n_steps - n0)
        a = spec.schedule.step_sizes(n0, n0 + k)
        xi, zeta, zt, beta, usel, pert = _block(draws, n0, k)
        for j in range(k):
            n = n0 + j
            b = drift.set_term_rows(x, None if xi is None else xi[j],
                                    None if usel is None else usel[j, :, 0],
                                    None if pert is None else pert[j])
            h = drift.smooth(x, zeta[j]) if drift.smooth is not None else zeros
            total = b + h + zt[j] + beta[j]
            x_new = x + a[j] * total
            if spec.projection is not None:
                x_new = _project(spec.projection, x_new)
            finite = np.isfinite(x_new)
            if not finite.all():
                newly = ~finite.all(axis=1) & (fail < 0)
                fail[newly] = n
            x = x_new
            if (n + 1) in ck_pos:
                ck_states[:, ck_pos[n + 1], :] = x

    return EnsembleResult(finals=x, fail_steps=fail, checkpoint_indices=np.asarray(ck, dtype=int),
                          checkpoint_states=ck_states)
