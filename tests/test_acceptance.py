"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte-Carlo criteria run the shipped configs (fixed seeds, no wall-clock
randomness); exact criteria carry zero tolerance.  Bands follow the pinned
tolerances, widened from single-run printed values only where the criterion
says so.
"""

import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import sadi.engine as engine
from sadi.config import parse_config
from sadi.engine import run_ensemble
from sadi.inclusions import integrate
from sadi.nonsmooth import clarke_gradient, u_generalized_derivative
from sadi.presets import (
    RegressionLaw,
    lasso_preset,
    pegasos_preset,
    nonconvergence_preset,
    rootfind_preset,
)
from sadi.rates import NormalizedSeries, SDIModel, compare_to_sdi, tightness_diagnostic
from sadi.runner import run_experiment, sweep
from sadi.sets import Box, krasovskii
from conftest import (neg_sign_field, neg_sign_map, relu_scalar, sdi_arrays, squared_norm,
                      tightness_arrays)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# -- 1 -------------------------------------------------------------------------


def test_c01_replicated_table_reproduction():
    errs = {}
    for name in ("ex1", "ex2", "ex4", "ex5"):
        cfg = parse_config(CONFIGS / f"{name}.json")
        report = run_experiment(cfg)
        errs[name] = report.starts[0].err_mean_final()
    ok = (errs["ex1"] <= 5e-3 and errs["ex2"] <= 5e-3 and errs["ex4"] <= 3e-2
          and 0.1 <= errs["ex5"] <= 0.8
          and errs["ex1"] <= errs["ex4"] <= errs["ex5"])
    detail = ", ".join(f"{k}={v:.5f}" for k, v in errs.items())
    assert _report("1 table reproduction", ok, detail)


# -- 2 -------------------------------------------------------------------------


def test_c02_hinge_classifier_mean():
    cfg = parse_config(CONFIGS / "svm_plane.json")
    report = run_experiment(cfg)
    mean = report.starts[0].mean_final
    off = np.abs(mean - np.array([0.2, 0.4]))
    ok = bool(np.all(off <= 0.05))
    assert _report("2 hinge classifier", ok,
                   f"mean=({mean[0]:.4f}, {mean[1]:.4f}) offsets=({off[0]:.4f}, {off[1]:.4f})")


# -- 3 -------------------------------------------------------------------------


def test_c03_root_finding_both_starts():
    cfg = parse_config(CONFIGS / "rootfind_two_starts.json")
    report = run_experiment(cfg)
    details = []
    ok = True
    for i, agg in enumerate(report.starts):
        off = np.abs(agg.mean_final)
        ok = ok and bool(np.all(off <= 0.05))
        details.append(f"start{i}=({agg.mean_final[0]:.4f}, {agg.mean_final[1]:.4f})")
    assert _report("3 root finding", ok, "; ".join(details))


# -- 4 -------------------------------------------------------------------------


def test_c04_nonconvergent_cycling():
    preset = nonconvergence_preset()
    spec = replace(preset.spec, x0=[2.0, 2.0], n_steps=1_000_000)
    path = run_ensemble(spec, 3, 1, checkpoints=range(1_000_001)).checkpoint_states[0]
    ck = path[100_000::100_000]
    near = np.minimum(np.linalg.norm(ck, axis=1),
                      np.linalg.norm(ck - 2.0, axis=1)) <= 0.1
    frac = float(np.mean(near))
    visited = set(preset.spec.drift.sample_term.region_ids(path[:-1]).tolist())
    corridors = visited & {2, 3, 4, 5}
    ok = frac <= 0.3 and len(corridors) >= 3
    assert _report("4 non-convergence", ok,
                   f"near-root fraction={frac:.2f}, corridors visited={sorted(corridors)}")


# -- 5 -------------------------------------------------------------------------


def test_c05_nonsmooth_oracles_exact():
    hull = krasovskii(neg_sign_field(), [0.0])
    ok_hull = isinstance(hull, Box) and hull.lo[0] == -1.0 and hull.hi[0] == 1.0

    grad = clarke_gradient(relu_scalar(), [0.0])
    ok_grad = isinstance(grad, Box) and grad.lo[0] == 0.0 and grad.hi[0] == 1.0

    v = squared_norm(1)
    u = relu_scalar()
    m = neg_sign_map()
    rng = np.random.default_rng(1)
    xs = list(rng.uniform(-2, 2, size=99)) + [0.0]
    ok_deriv = True
    for x in xs:
        d = u_generalized_derivative(v, [u], m, [x])
        expected = -2.0 * x if x > 0 else (2.0 * x if x < 0 else 0.0)
        if d != expected:
            ok_deriv = False
            break
    ok = ok_hull and ok_grad and ok_deriv
    assert _report("5 nonsmooth oracles", ok,
                   f"hull={ok_hull}, gradient={ok_grad}, derivative@100pts={ok_deriv}")


# -- 6 -------------------------------------------------------------------------


def test_c06_stability_certificates():
    presets = {
        "penalized regression": lasso_preset(0.7, RegressionLaw(theta=[1.0], features="ones")),
        "hinge classifier": pegasos_preset(1.0),
        "root finding": rootfind_preset(),
    }
    ok = True
    details = []
    for tag, preset in presets.items():
        cert = preset.stability.certify(name=tag)
        good = cert.passed and cert.min_margin >= -1e-9
        ok = ok and good
        details.append(f"{tag}: margin={cert.min_margin:.4g} pts={len(cert.records)}")
    assert _report("6 stability certificates", ok, "; ".join(details))


# -- 7 -------------------------------------------------------------------------


def test_c07_inclusion_integrator():
    path = integrate(None, lambda x: -x, [1.0], 1e-3, 5.0)
    err = abs(path.states[-1][0] - math.exp(-5.0))
    ok_decay = err <= 5e-3

    slide = integrate(neg_sign_map(), None, [1.0], 1e-3, 2.0)
    ts = slide.times()
    window = np.abs(slide.states[(ts >= 1.1) & (ts <= 2.0), 0])
    ok_slide = bool(np.all(window <= 1e-3))

    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        p = integrate(None, lambda x: -x, [1.0], dt, 3.0)
        errs.append(abs(p.states[-1][0] - math.exp(-3.0)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok_order = 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5

    ok = ok_decay and ok_slide and ok_order
    assert _report("7 inclusion integrator", ok,
                   f"decay err={err:.2g}, slide max={window.max():.2g}, ratios=({r1:.2f},{r2:.2f})")


# -- 8 -------------------------------------------------------------------------


def test_c08_rate_diagnostics():
    cfg = parse_config(CONFIGS / "ou_rates.json")
    _, specs, x_star = cfg.resolve()
    spec = specs[0]
    res = run_ensemble(spec, cfg.seed, cfg.replications, checkpoints=range(spec.n_steps + 1))
    sched = spec.schedule
    sdi = cfg.raw["sdi"]
    start = int(sdi["start_index"])
    series = [NormalizedSeries.from_iterates(res.checkpoint_states[r], sched, x_star,
                                             start=start)
              for r in range(cfg.replications)]
    model = SDIModel(A=np.asarray(sdi["A"]), sigma=np.asarray(sdi["sigma"]),
                     half_identity=sdi["half_identity"])
    ks = compare_to_sdi(*sdi_arrays(series, sdi["t_eval"]), model,
                        t_eval=sdi["t_eval"],
                        n_sdi_reps=sdi["n_reps"], seed=cfg.seed,
                        dt=sdi["dt"])
    ok_ks = float(ks.distances[0]) <= 0.15

    ex1 = parse_config(CONFIGS / "ex1.json")
    _, ex1_specs, ex1_star = ex1.resolve()
    ex1_res = run_ensemble(ex1_specs[0], ex1.seed, ex1.replications,
                           checkpoints=range(ex1.iterations + 1))
    ex1_series = [NormalizedSeries.from_iterates(ex1_res.checkpoint_states[r],
                                                 ex1_specs[0].schedule,
                                                 ex1_star, start=0)
                  for r in range(ex1.replications)]
    tight = tightness_diagnostic(*tightness_arrays(ex1_series, 20), kappa=0.05)
    ok_tight = tight.flag == "tight-consistent"

    offset = np.full((1001, 1), 0.8)
    fake = [NormalizedSeries.from_iterates(offset, ex1_specs[0].schedule, [0.3])
            for _ in range(150)]
    div = tightness_diagnostic(*tightness_arrays(fake, 20), kappa=0.05)
    ok_div = div.flag == "diverging"

    ok = ok_ks and ok_tight and ok_div
    assert _report("8 rate diagnostics", ok,
                   f"KS={float(ks.distances[0]):.3f}, replicated flag={tight.flag}, "
                   f"offset flag={div.flag}")


# -- 9 -------------------------------------------------------------------------


def test_c09_bias_robustness_trend():
    cfg = parse_config(CONFIGS / "eta_sweep.json")
    etas = [0.0, 0.05, 0.1, 0.2, 0.4]
    reports = sweep(cfg, "bias.vector.0", etas)
    errs = [rep.starts[0].err_mean_final() for _, rep in reports]
    mc_sd = max(rep.starts[0].std_final.max() for _, rep in reports) / math.sqrt(
        cfg.replications)
    monotone = all(b >= a - 2 * mc_sd for a, b in zip(errs, errs[1:]))
    ok = errs[0] <= 5e-3 and monotone
    assert _report("9 bias robustness", ok,
                   "errs=" + ", ".join(f"{e:.4f}" for e in errs))


# -- 10 ------------------------------------------------------------------------


def test_c10_thread_determinism(tmp_path):
    cfg = parse_config(CONFIGS / "ex1.json")
    a, b = tmp_path / "t1", tmp_path / "t8"
    run_experiment(cfg, out_dir=a, threads=1)
    run_experiment(cfg, out_dir=b, threads=8)
    same = ((a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
            and (a / "finals.csv").read_bytes() == (b / "finals.csv").read_bytes())
    assert _report("10 determinism", bool(same),
                   "report.csv and finals.csv byte-identical at 1 and 8 threads")


def test_c10_thread_determinism_with_forked_workers(tmp_path, monkeypatch):
    # ex1's 1,000 replications in tiles of at most 64, on 8 CPUs: 3 workers
    # run 334, 333 and 333 of them in tiles of 55 or 56, 8 workers 125 each
    # in tiles of 62 or 63, where one process runs them as one tile
    cfg = parse_config(CONFIGS / "ex1.json")
    a = tmp_path / "t1"
    run_experiment(cfg, out_dir=a, threads=1)
    monkeypatch.setattr(engine, "_TILE_REPS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    same = True
    for threads in (3, 8):
        b = tmp_path / f"t{threads}"
        run_experiment(cfg, out_dir=b, threads=threads)
        same &= ((a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
                 and (a / "finals.csv").read_bytes() == (b / "finals.csv").read_bytes())
    assert _report("10 determinism, forked workers", bool(same),
                   "report.csv and finals.csv byte-identical in 1, 3 and 8 processes")
