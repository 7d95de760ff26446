"""Config parsing with strict keys and exhaustive error lists, fingerprints,
experiment orchestration, provenance headers, aggregation, and sweeps."""

import json

import numpy as np
import pytest

import sadi
from sadi.config import ConfigError, parse_config, validate_config
from sadi.runner import run_experiment, set_by_path, sweep


def _minimal(**overrides):
    raw = {
        "name": "mini",
        "preset": "lasso",
        "preset_params": {"lam": 0.7, "data": {"theta": [1.0], "features": "ones"}},
        "x0": [5.0],
        "iterations": 10,
        "replications": 1,
        "seed": 1,
    }
    raw.update(overrides)
    return raw


def _write(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


# --- parsing ------------------------------------------------------------------


def test_minimal_config_parses(tmp_path):
    cfg = parse_config(_write(tmp_path, _minimal()))
    assert cfg.name == "mini"
    assert cfg.iterations == 10 and cfg.replications == 1


def test_reference_table_config_fingerprints_deterministically(tmp_path):
    raw = _minimal(name="ex1", iterations=1000, replications=1000,
                   schedule={"kind": "power_law", "c": 1.0, "alpha": 0.5},
                   bias={"kind": "gaussian_shrinking", "c": 1.0, "gamma": 1.0})
    c1 = parse_config(_write(tmp_path, raw, "a.json"))
    c2 = parse_config(_write(tmp_path, raw, "b.json"))
    assert c1.fingerprint == c2.fingerprint
    raw2 = dict(raw, seed=2)
    c3 = validate_config(raw2)
    assert c3.fingerprint != c1.fingerprint


def test_zero_iterations_rejected_with_field_name(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, _minimal(iterations=0)))
    assert any("iterations" in e for e in err.value.errors)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config(_minimal(mystery=1))
    assert any("mystery" in e for e in err.value.errors)


def test_all_errors_reported_at_once():
    bad = _minimal(iterations=0, replications=0, mystery=1)
    del bad["seed"]
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    text = "\n".join(err.value.errors)
    for needle in ("iterations", "replications", "mystery", "seed"):
        assert needle in text
    assert len(err.value.errors) >= 4


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_inline_drift_requires_dim():
    raw = _minimal()
    del raw["preset"], raw["preset_params"]
    raw["drift"] = {"smooth": {"kind": "linear"}}
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any("dim" in e for e in err.value.errors)


def test_inline_drift_parts_must_be_objects():
    raw = _minimal()
    del raw["preset"], raw["preset_params"]
    raw.update(dim=1, drift={"smooth": [[-1.0]], "set_part": "none"})
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert {"drift.smooth: must be an object", "drift.set_part: must be an object"} <= set(
        err.value.errors)


def test_seed_required():
    raw = _minimal()
    del raw["seed"]
    with pytest.raises(ConfigError):
        validate_config(raw)


def test_multiple_starts_accepted():
    cfg = validate_config(_minimal(preset="rootfind", preset_params={},
                                   x0=[[1.0, 1.0], [10.0, -20.0]]))
    assert len(cfg.specs) == 2



@pytest.mark.parametrize("name, x0", [
    ("lasso", [5.0]), ("pegasos", [3.0, 5.0]), ("rootfind", [1.0, 1.0]),
    ("sign_filter", [0.0]), ("nonconv", [2.0, 2.0]),
])
def test_preset_default_start(name, x0):
    # without x0 a preset config runs, and integrates, from the preset's own start
    raw = _minimal(preset=name, preset_params={})
    del raw["x0"]
    cfg = validate_config(raw)
    assert len(cfg.specs) == 1
    assert np.array_equal(cfg.specs[0].x0, x0)
    assert np.array_equal(cfg.di["x0"], x0)


# --- experiments ---------------------------------------------------------------


def test_run_experiment_aggregation_matches_reference_reduction(tmp_path):
    cfg = validate_config(_minimal(iterations=50, replications=40,
                                   outputs=["report", "finals"]))
    report = run_experiment(cfg, out_dir=tmp_path)
    agg = report.starts[0]
    finals = agg.clean
    assert np.allclose(agg.mean_final, finals.mean(axis=0), atol=1e-12)
    assert np.allclose(agg.std_final, finals.std(axis=0, ddof=1), atol=1e-12)
    assert agg.err_mean_final() == pytest.approx(
        float(np.linalg.norm(finals.mean(axis=0) - 0.3)), abs=1e-12)


def test_checkpoint_means_exclude_blown_up_replications():
    # x' = 11x + zeta with zeta of sd 1e100 overflows in some replications only
    cfg = validate_config({
        "name": "partial_blowup",
        "drift": {"smooth": {"kind": "linear", "matrix": [[11.0]], "noise": "add"},
                  "set_part": {"kind": "none"}},
        "dim": 1, "x0": [0.0], "iterations": 1000, "replications": 200, "seed": 3,
        "noise": {"zeta": {"kind": "gaussian", "mean": [0.0], "cov": [[1e200]]}},
    })
    with np.errstate(over="ignore", invalid="ignore"):
        agg = run_experiment(cfg).starts[0]
    assert 0 < agg.n_failed < 200
    assert np.isfinite(agg.checkpoint_mean).all()
    # the last checkpoint is the final iterate, averaged over the same rows
    assert agg.checkpoint_mean[-1] == pytest.approx(agg.mean_final, rel=1e-12)


def test_outputs_carry_provenance(tmp_path):
    cfg = validate_config(_minimal(outputs=["report", "finals", "trajectory",
                                            "checkpoints"]))
    run_experiment(cfg, out_dir=tmp_path)
    for name in ("report.csv", "finals.csv", "trajectory_start0.csv", "checkpoints.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first.startswith("#")
        assert f"seed={cfg.seed}" in first
        assert cfg.fingerprint in first


def test_thread_count_does_not_change_bytes(tmp_path):
    cfg = validate_config(_minimal(iterations=100, replications=64,
                                   outputs=["report", "finals"]))
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a, threads=1)
    run_experiment(cfg, out_dir=b, threads=8)
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "finals.csv").read_bytes() == (b / "finals.csv").read_bytes()


def test_certificate_artifact(tmp_path):
    cfg = validate_config(_minimal(outputs=["report", "certificate"]))
    run_experiment(cfg, out_dir=tmp_path)
    text = (tmp_path / "certificate.txt").read_text()
    assert "passed=True" in text


def test_seed_override_changes_fingerprint_and_results(tmp_path):
    raw = _minimal(iterations=200, replications=16)
    c1 = validate_config(raw)
    c2 = validate_config(dict(raw, seed=99))
    r1 = run_experiment(c1)
    r2 = run_experiment(c2)
    assert not np.array_equal(r1.starts[0].finals, r2.starts[0].finals)


# --- sweeps ----------------------------------------------------------------------


def test_sweep_single_value_equals_run(tmp_path):
    raw = _minimal(iterations=100, replications=32,
                   bias={"kind": "gaussian_shrinking", "c": 1.0, "gamma": 1.0})
    cfg = validate_config(raw)
    base = run_experiment(cfg)
    swept = sweep(cfg, "bias.gamma", [1.0], out_dir=tmp_path)
    assert len(swept) == 1
    assert np.array_equal(swept[0][1].starts[0].finals, base.starts[0].finals)
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert "param=bias.gamma" in header


def test_sweep_rejects_non_scalar_paths():
    cfg = validate_config(_minimal(bias={"kind": "gaussian_shrinking"}))
    with pytest.raises(ConfigError):
        sweep(cfg, "bias", [1.0])
    with pytest.raises(ConfigError):
        sweep(cfg, "bias.unknown", [1.0])


def test_set_by_path_list_indices():
    raw = {"bias": {"vector": [0.0, 1.0]}}
    set_by_path(raw, "bias.vector.1", 5.0)
    assert raw["bias"]["vector"][1] == 5.0


def test_bias_exponent_sweep_trend():
    """Faster-vanishing bias cannot hurt: the error trend is nonincreasing."""
    raw = _minimal(iterations=1000, replications=300,
                   bias={"kind": "gaussian_shrinking", "c": 1.0, "gamma": 0.25})
    cfg = validate_config(raw)
    reports = sweep(cfg, "bias.gamma", [0.25, 0.5, 0.75, 1.0])
    errs = [rep.starts[0].err_mean_final() for _, rep in reports]
    mc_sd = max(r.starts[0].std_final.max() for _, r in reports) / np.sqrt(300)
    assert errs[-1] <= errs[0]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 2 * mc_sd


def test_inline_drift_round_trip(tmp_path):
    raw = {
        "name": "inline",
        "drift": {"smooth": {"kind": "linear", "matrix": [[-1.0]], "offset": [0.3],
                             "noise": "add"},
                  "set_part": {"kind": "none"}},
        "dim": 1,
        "x0": [1.3],
        "iterations": 400,
        "replications": 64,
        "seed": 4,
        "noise": {"zeta": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}},
        "x_star": [0.3],
    }
    cfg = parse_config(_write(tmp_path, raw))
    report = run_experiment(cfg)
    assert abs(report.starts[0].mean_final[0] - 0.3) < 0.1


# --- rate outputs -----------------------------------------------------------------


def _planar_rates(**overrides):
    """A 2-dim linear drift with correlated noise, so that the normalized
    magnitudes are sums of two squares."""
    raw = {
        "name": "planar_rates",
        "drift": {"smooth": {"kind": "linear", "matrix": [[-1.0, 0.3], [0.2, -0.8]],
                             "offset": [0.3, -0.2], "noise": "add"},
                  "set_part": {"kind": "none"}},
        "dim": 2, "x0": [[1.3, -0.7], [0.4, 0.9]], "iterations": 300,
        "replications": 200, "seed": 8, "checkpoints": 7,
        "noise": {"zeta": {"kind": "gaussian", "mean": [0.0, 0.0],
                           "cov": [[1.0, 0.3], [0.3, 0.5]]}},
        "x_star": [0.3, -0.2],
        "outputs": ["report", "checkpoints", "finals", "normalized", "sdi_compare"],
        "sdi": {"A": [[-1.0, 0.3], [0.2, -0.8]], "sigma": [[1.0, 0.3], [0.3, 0.5]],
                "t_eval": 2.0, "dt": 0.01, "n_reps": 250, "start_index": 123},
    }
    raw.update(overrides)
    return validate_config(raw)


@pytest.mark.parametrize("t_eval", [2.0, 50.0], ids=["inside", "past_the_horizon"])
def test_rate_outputs_equal_the_per_series_computation(tmp_path, t_eval):
    from sadi.engine import run_ensemble
    from sadi.rates import (KSReport, NormalizedSeries, TightnessReport, ks_distance,
                            simulate_sdi)

    sdi = dict(_planar_rates().raw["sdi"], t_eval=t_eval)
    cfg = _planar_rates(sdi=sdi)
    run_experiment(cfg, out_dir=tmp_path)
    _, specs, x_star = cfg.resolve()
    sched = specs[0].schedule
    paths = run_ensemble(specs[0], cfg.seed, cfg.replications, record_paths=True).paths
    header = (f"# name={cfg.name} fingerprint={cfg.fingerprint} seed={cfg.seed} "
              f"version={sadi.__version__}\n")

    # tightness: every replication's series from index 0, one norm per vector
    series = [NormalizedSeries.from_iterates(p, sched, x_star) for p in paths]
    idx = np.unique(np.linspace(0, cfg.iterations, cfg.checkpoints).astype(int))
    mags = np.array([[float(np.linalg.norm(s.value(int(n)))) for n in idx] for s in series])
    quant = np.quantile(mags, 0.95, axis=0)
    flag = ("tight-consistent" if np.max(quant[idx.shape[0] // 2:]) <= 2.0 * quant[0]
            else "diverging")
    expected = header + TightnessReport(idx, quant, 0.05, flag).to_text()
    assert (tmp_path / "tightness.txt").read_text(encoding="utf-8") == expected

    # sdi_compare: series from start_index, read at the last mesh index up to
    # shifted time t_eval, clipped to the horizon
    start = sdi["start_index"]
    series = [NormalizedSeries.from_iterates(p, sched, x_star, start=start) for p in paths]
    n_eval = min(sched.mesh_index(t_eval + sched.time_at(start)), cfg.iterations)
    assert (n_eval == cfg.iterations) == (t_eval > 20.0)
    starts = np.stack([s.value(start) for s in series])
    at_t = np.stack([s.value(n_eval) for s in series])
    gen = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(7,)))
    u0 = starts[gen.integers(0, starts.shape[0], size=sdi["n_reps"])]
    finals = simulate_sdi(cfg.sdi["model"], u0, dt=sdi["dt"], horizon=sdi["t_eval"],
                          seed=cfg.seed, n_reps=sdi["n_reps"], record_paths=False)
    dists = np.array([ks_distance(at_t[:, j], finals[:, j]) for j in range(2)])
    expected = header + str(KSReport(sdi["t_eval"], dists, len(series), sdi["n_reps"])) + "\n"
    assert (tmp_path / "sdi_compare.txt").read_text(encoding="utf-8") == expected


def test_rate_indices_stay_out_of_the_other_artifacts(tmp_path, monkeypatch):
    import sadi.runner

    asked = []
    real = sadi.runner.run_ensemble

    def no_paths(spec, seed, n_reps, checkpoints=None, record_paths=False, threads=1):
        assert not record_paths
        asked.append(list(checkpoints))
        return real(spec, seed, n_reps, checkpoints=checkpoints, threads=threads)

    monkeypatch.setattr(sadi.runner, "run_ensemble", no_paths)
    plain, rates = tmp_path / "plain", tmp_path / "rates"
    run_experiment(_planar_rates(outputs=["report", "checkpoints", "finals"]), out_dir=plain)
    run_experiment(_planar_rates(), out_dir=rates)
    # two starts each; the rate run also reads the sdi start and t_eval indices
    assert len(asked) == 4 and asked[0] == asked[1] and asked[2] == asked[3]
    assert set(asked[0]) < set(asked[2])
    for name in ("report.csv", "checkpoints.csv", "finals.csv"):
        # the header line carries the fingerprint, which covers the outputs list
        body = [(d / name).read_bytes().split(b"\n", 1)[1] for d in (plain, rates)]
        assert body[0] == body[1]
