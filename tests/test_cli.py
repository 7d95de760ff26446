"""The command-line verbs, exercised end to end on small configs."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sadi
from sadi.cli import EXIT_BLOWUP, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _small_config(tmp_path, **overrides):
    raw = {
        "name": "cli_smoke",
        "preset": "lasso",
        "preset_params": {"lam": 0.7, "data": {"theta": [1.0], "features": "ones"}},
        "x0": [5.0],
        "iterations": 50,
        "replications": 8,
        "seed": 2,
        "outputs": ["report"],
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


_NO_SCIPY = """
import math, sys
import numpy as np
import sadi.cli, sadi.nonsmooth
from sadi.nonsmooth import PiecewiseSmoothScalar, SmoothPiece, u_reduced
from sadi.presets import rootfind_preset
from sadi.sets import Box, SetValuedMap

u = PiecewiseSmoothScalar(2, [
    SmoothPiece((None, (0.0, math.inf, "()")), lambda x: x[0] + x[1],
                lambda x: np.array([1.0, 1.0])),
    SmoothPiece(None, lambda x: x[0], lambda x: np.array([1.0, 0.0])),
])
assert u_reduced(SetValuedMap(2, lambda x: Box([-1, -1], [1, 1]), common_bound=2.0),
                 [u], [0.3, 0.0]) is not None
# every near-kink point of rootfind through the u-reduction's vertex systems
sadi.nonsmooth._outside_slab = lambda dv, bound: False
cert = rootfind_preset().stability.certify()
assert np.count_nonzero(cert.derivatives == -math.inf) == 480
assert 'scipy' not in sys.modules
"""


def _python(*argv, **kwargs):
    """A fresh interpreter that imports this checkout's sadi."""
    src = str(Path(sadi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env, timeout=60, **kwargs)


def test_cli_import_loads_no_scipy():
    # sadi never imports scipy: not on import, nor in a u-reduction
    _python("-c", _NO_SCIPY, check=True)


def test_run_verb(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert "mean_final" in capsys.readouterr().out


def test_run_verb_seed_override(tmp_path):
    cfg = _small_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["run", str(cfg), "--seed", "77", "--out-dir", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()


def test_run_all_replications_blow_up(tmp_path, capsys):
    raw = json.loads((CONFIGS / "ex1.json").read_text(encoding="utf-8"))
    raw.update(x0=[math.nan], replications=5, iterations=50)
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "failed=5/5" in capsys.readouterr().out
    lines = (tmp_path / "out" / "report.csv").read_text(encoding="utf-8").splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["n_failed"] == "5"
    for col in ("mean_final0", "err_mean_final", "mean_abs_err", "std0",
                "err_q10", "err_q50", "err_q90"):
        assert row[col] == "nan", col


def test_sweep_verb(tmp_path, capsys):
    cfg = _small_config(tmp_path, bias={"kind": "constant", "vector": [0.0]})
    code = main(["sweep", str(cfg), "--param", "bias.vector.0",
                 "--values", "0.0,0.2", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    sweep_csv = (tmp_path / "out" / "sweep.csv").read_text()
    assert sweep_csv.splitlines()[1].startswith("value,")
    assert "bias.vector.0" in sweep_csv.splitlines()[0]


def test_certify_verb(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    code = main(["certify", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "out" / "certificate.txt").exists()


def test_simulate_di_verb(tmp_path, capsys):
    cfg = _small_config(tmp_path, di={"dt": 0.01, "horizon": 2.0, "x0": [1.0]})
    code = main(["simulate-di", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "inclusion_path.csv").exists()


def test_simulate_di_with_chain(tmp_path, capsys):
    cfg = _small_config(
        tmp_path,
        di={"dt": 0.01, "horizon": 1.0, "x0": [1.0]},
        chain={"probes": [[0.3]], "eps": 0.2, "t_min": 0.5, "budget": 8},
    )
    code = main(["simulate-di", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "chain_report.txt").read_text()
    assert "chain found" in report


def test_simulate_di_starts_at_the_origin_without_a_preset_start(tmp_path, capsys):
    # sign_filter declares no start, so di.x0 defaults to the origin, as a run's x0 does
    cfg = tmp_path / "sign_filter.json"
    cfg.write_text(json.dumps({"preset": "sign_filter", "iterations": 10, "replications": 2,
                               "seed": 1, "di": {"horizon": 0.1}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate-di", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "inclusion_path.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[3] == "x0" and lines[2].split(",")[3] == "0"


def test_simulate_sdi_verb(tmp_path, capsys):
    cfg = _small_config(tmp_path, sdi={"A": [[-1.0]], "sigma": [[1.0]],
                                       "t_eval": 1.0, "dt": 0.01, "n_reps": 50})
    code = main(["simulate-sdi", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "sdi_finals.csv").read_text().splitlines()
    assert len(lines) == 2 + 50


@pytest.mark.parametrize("verb,changes", [
    ("simulate-di", {"di": {"dt": 0.01, "horizon": 1.0, "x0": [math.nan]}}),
    # a NaN drift matrix: the first step's linear term is NaN
    ("simulate-sdi", {"sdi": {"A": [[math.nan]], "sigma": [[1.0]], "t_eval": 1.0,
                              "dt": 0.01, "n_reps": 3}}),
    # the ensemble records the blow-up; the logged trajectory cannot
    ("run", {"x0": [math.nan], "outputs": ["report", "trajectory"]}),
])
def test_a_simulator_blowup_exits_3_with_its_step_and_state(tmp_path, verb, changes):
    cfg = _small_config(tmp_path, **changes)
    proc = _python("-m", "sadi", verb, str(cfg), "--out-dir", str(tmp_path / "out"),
                   capture_output=True, text=True)
    assert proc.returncode == EXIT_BLOWUP == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"sadi {verb}: non-finite iterate at step 0: state [nan]\n"


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize("name", ["ex1", "svm_plane"])
def test_projected_run_end_to_end(tmp_path, capsys, name, kind):
    # each region leaves out the preset's equilibrium, so the pull binds to the end
    raw = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    d = len(raw["x0"])
    region = ({"kind": "box", "lo": [-0.5] * d, "hi": [0.25] * d} if kind == "box"
              else {"kind": "ball", "center": [0.1] * d, "radius": 0.15})
    raw.update(iterations=200, replications=40, outputs=["finals"], projection=region)
    cfg = tmp_path / "projected.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    finals = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main(["run", str(cfg), "--out-dir", str(out), "--threads", threads]) == 0
        finals.append((out / "finals.csv").read_bytes())
    assert finals[0] == finals[1]
    rows = np.array([[float(v) for v in line.split(",")[2:2 + d]]
                     for line in finals[0].decode().splitlines()[2:]])
    assert rows.shape == (40, d)
    if kind == "box":
        assert np.all((region["lo"] <= rows) & (rows <= np.array(region["hi"])))
        assert np.any(rows == region["hi"])
    else:
        # the test that ends the engine's radial pull
        delta = rows - region["center"]
        n2 = np.einsum("ij,ij->i", delta, delta)
        assert np.all(n2 <= region["radius"] * region["radius"])
        assert np.any(n2 > (0.99 * region["radius"]) ** 2)


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "iterations": 0}), encoding="utf-8")
    code = main(["run", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "iterations" in err and "seed" in err


def _ex1_copy(tmp_path, **changes):
    raw = json.loads((CONFIGS / "ex1.json").read_text(encoding="utf-8"))
    raw.update(iterations=5, replications=3)
    raw.update(changes)
    path = tmp_path / "ex1_copy.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


# each with a bad seed too, so that a bound that is not checked stops before
# the run: the values would not fit in memory
_BOUND_ERRORS = [
    ("replications", {"replications": 2**32 + 1},
     "replications: must be an integer in [1, 4294967296]"),
    ("checkpoints", {"checkpoints": 10**400}, "checkpoints: must be at most iterations + 1 = 6"),
    ("iterations", {"iterations": 2**53 + 1}, "iterations: must be an integer in [1, 2**53]"),
]


@pytest.mark.parametrize("changes,needle", [case[1:] for case in _BOUND_ERRORS],
                         ids=[case[0] for case in _BOUND_ERRORS])
def test_size_bounds_exit_2_with_every_other_error(tmp_path, capsys, changes, needle):
    cfg = _ex1_copy(tmp_path, seed=-1, **changes)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert needle in err and "seed: must be a nonnegative integer" in err


def test_tolerances_key_rejected(tmp_path, capsys):
    cfg = _ex1_copy(tmp_path, tolerances={"membership": 1e-9})
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "'tolerances'" in capsys.readouterr().err


_SEMANTIC_ERRORS = [
    ("negative_lam", {"preset_params": {"lam": -0.7, "data": {"theta": [1.0]}}},
     "lam must be positive"),
    ("unknown_param", {"preset_params": {"lam": 0.7, "penalty": 2.0}}, "'penalty'"),
    ("box_missing_lo", {"projection": {"kind": "box", "hi": [10.0]}}, "projection.lo"),
    ("bias_dim", {"bias": {"kind": "constant", "vector": [0.1, 0.2]}}, "bias.vector"),
    ("x0_dim", {"x0": [5.0, 1.0]}, "x0"),
    ("feature_mean_dim", {"x0": [5.0, 1.0], "preset_params": {"lam": 0.7, "data": {
        "theta": [1.0, 2.0], "features": "gaussian", "feature_mean": [0.0, 0.0, 0.0]}}},
     "preset_params: feature_mean must match theta"),
]


@pytest.mark.parametrize("changes,needle", [case[1:] for case in _SEMANTIC_ERRORS],
                         ids=[case[0] for case in _SEMANTIC_ERRORS])
def test_semantic_config_errors_exit_2(tmp_path, capsys, changes, needle):
    cfg = _ex1_copy(tmp_path, **changes)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid experiment config" in err and needle in err


def test_semantic_config_errors_reported_together(tmp_path, capsys):
    # dimensions are checked against a preset that builds, so the preset
    # parameter cases are left out here
    cases = [case for case in _SEMANTIC_ERRORS if "preset_params" not in case[1]]
    changes = {}
    for _, change, _ in cases:
        changes.update(change)
    cfg = _ex1_copy(tmp_path, **changes)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for _, _, needle in cases:
        assert needle in err


def test_seed_override_validates_once(tmp_path, monkeypatch):
    import sadi.config

    counts = {"validate": 0, "build": 0}
    validate, build = sadi.config.validate_config, sadi.config.preset_by_name

    def counting_validate(raw):
        counts["validate"] += 1
        return validate(raw)

    def counting_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(sadi.config, "validate_config", counting_validate)
    monkeypatch.setattr(sadi.config, "preset_by_name", counting_build)
    cfg = _ex1_copy(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--seed", "5", "--out-dir", str(out)]) == 0
    assert counts == {"validate": 1, "build": 1}
    assert "seed=5" in (out / "report.csv").read_text(encoding="utf-8").splitlines()[0]


def test_seed_override_keeps_config_errors_exit_2(tmp_path, capsys):
    syntax = tmp_path / "syntax.json"
    syntax.write_text('{"name": "x",', encoding="utf-8")
    assert main(["run", str(syntax), "--seed", "5"]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    assert main(["run", str(not_object), "--seed", "5"]) == 2
    assert "JSON object" in capsys.readouterr().err
    semantic = _ex1_copy(tmp_path, x0=[5.0, 1.0])
    assert main(["run", str(semantic), "--seed", "5", "--out-dir", str(tmp_path / "out")]) == 2
    assert "x0" in capsys.readouterr().err


def test_shipped_configs_parse():
    from sadi.config import parse_config

    for path in sorted(CONFIGS.glob("*.json")):
        cfg = parse_config(path)
        assert cfg.seed >= 0


def _ou_rates_copy(tmp_path, drop=(), **changes):
    raw = json.loads((CONFIGS / "ou_rates.json").read_text(encoding="utf-8"))
    for key in drop:
        del raw[key]
    raw.update(changes)
    path = tmp_path / "ou_rates_copy.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


_SDI = json.loads((CONFIGS / "ou_rates.json").read_text(encoding="utf-8"))["sdi"]
_OUTPUT_ERRORS = [
    ("sdi_compare_replications", (), {"replications": 150},
     "replications: sdi_compare needs at least 200"),
    ("normalized_replications", (), {"replications": 50, "outputs": ["normalized"]},
     "replications: normalized needs at least 100"),
    ("sdi_n_reps", (), {"sdi": dict(_SDI, n_reps=150)}, "sdi.n_reps"),
    ("start_index", (), {"sdi": dict(_SDI, start_index=5000)}, "sdi.start_index"),
    ("sdi_dt", (), {"sdi": dict(_SDI, dt=0.0)}, "sdi.dt"),
    ("sdi_missing_A", (), {"sdi": {k: v for k, v in _SDI.items() if k != "A"}}, "sdi.A"),
    ("sdi_dim", (), {"sdi": dict(_SDI, A=[[-1.0, 0.0], [0.0, -1.0]], sigma=[1.0, 1.0])},
     "sdi.A: has dimension 2, the state has 1"),
    ("no_sdi_block", ("sdi",), {}, "sdi: sdi_compare needs an sdi block"),
    ("sdi_compare_no_x_star", ("x_star",), {"outputs": ["sdi_compare"]},
     "outputs: sdi_compare needs a known x_star"),
    ("normalized_no_x_star", ("x_star",), {"outputs": ["normalized"]},
     "outputs: normalized needs a known x_star"),
    ("certificate_no_preset", (), {"outputs": ["certificate"]},
     "outputs: certificate needs a preset that declares a stability bundle"),
    ("t_eval_past_the_mesh", (), {"iterations": 200,
                                  "sdi": dict(_SDI, start_index=100, t_eval=1e12)},
     "sdi.t_eval: time beyond any representable mesh horizon"),
    ("start_index_fraction", (), {"sdi": dict(_SDI, start_index=1782.9)}, "sdi.start_index"),
    ("chain_output", (), {"outputs": ["report", "chain"]}, "outputs: unknown artifact 'chain'"),
]


@pytest.mark.parametrize("drop,changes,needle", [case[1:] for case in _OUTPUT_ERRORS],
                         ids=[case[0] for case in _OUTPUT_ERRORS])
def test_output_errors_exit_2_before_running(tmp_path, capsys, monkeypatch,
                                             drop, changes, needle):
    import sadi.runner

    def never(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sadi.runner, "run_ensemble", never)
    cfg = _ou_rates_copy(tmp_path, drop, **changes)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid experiment config" in err and needle in err
    assert not out.exists()


_SDI_BLOCK_ERRORS = [
    ("missing_A", {k: v for k, v in _SDI.items() if k != "A"}, "sdi.A: required\n"),
    ("dt", dict(_SDI, dt=0), "sdi.dt: must be > 0"),
    ("n_reps", dict(_SDI, n_reps="x"), "sdi.n_reps: must be at least 1"),
    ("t_eval", dict(_SDI, t_eval="x"), "sdi.t_eval: must be a finite number"),
    ("n_reps_fraction", dict(_SDI, n_reps=250.7), "sdi.n_reps: must be at least 1"),
]


@pytest.mark.parametrize("sdi,needle", [case[1:] for case in _SDI_BLOCK_ERRORS],
                         ids=[case[0] for case in _SDI_BLOCK_ERRORS])
def test_simulate_sdi_bad_block_exits_2(tmp_path, capsys, monkeypatch, sdi, needle):
    import sadi.cli

    def never(*args, **kwargs):
        raise AssertionError("the simulator ran")

    monkeypatch.setattr(sadi.cli, "simulate_sdi", never)
    # the block is checked although no output reads it
    cfg = _ou_rates_copy(tmp_path, outputs=["report"], sdi=sdi)
    out = tmp_path / "out"
    assert main(["simulate-sdi", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid experiment config" in err and needle in err
    # the sdi block has no kind to require its keys
    assert "by its kind" not in err
    assert not out.exists()


_CHAIN = {"probes": [[1.0, 1.0]], "eps": 0.5, "t_min": 1.0, "budget": 4}
_DI_BLOCK_ERRORS = [
    ("di_dt", {"di": {"dt": 0}}, "di.dt: must be > 0"),
    ("di_horizon", {"di": {"horizon": -1}}, "di.horizon: must be >= 0"),
    ("di_x0_dim", {"di": {"x0": [1.0]}}, "di.x0: has dimension 1, the state has 2"),
    ("chain_no_probes", {"chain": {"eps": 0.5}}, "chain.probes: required"),
    ("chain_dt", {"chain": dict(_CHAIN, dt=0.5)}, "unknown key 'dt' in chain"),
    ("chain_budget", {"chain": dict(_CHAIN, budget=0)}, "chain.budget: must be an integer >= 1"),
    ("chain_probe_dim", {"chain": dict(_CHAIN, probes=[[1.0, 1.0], [1.0]])},
     "chain.probes[1]: has dimension 1, the state has 2"),
]


@pytest.mark.parametrize("changes,needle", [case[1:] for case in _DI_BLOCK_ERRORS],
                         ids=[case[0] for case in _DI_BLOCK_ERRORS])
def test_simulate_di_bad_block_exits_2(tmp_path, capsys, monkeypatch, changes, needle):
    import sadi.cli

    def never(*args, **kwargs):
        raise AssertionError("the integrator ran")

    monkeypatch.setattr(sadi.cli, "integrate", never)
    raw = json.loads((CONFIGS / "rootfind_two_starts.json").read_text(encoding="utf-8"))
    raw.update(changes)
    cfg = tmp_path / "rootfind_copy.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate-di", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid experiment config" in err and needle in err
    assert not out.exists()


def test_run_builds_each_block_once(tmp_path, monkeypatch):
    from sadi.engine import StepSchedule
    from sadi.rates import SDIModel

    counts = {"sdi_model": 0, "schedule": 0}
    post_init, power_law = SDIModel.__post_init__, StepSchedule.power_law

    def counting_post_init(self):
        counts["sdi_model"] += 1
        post_init(self)

    def counting_power_law(cls, *args, **kwargs):
        counts["schedule"] += 1
        return power_law(*args, **kwargs)

    monkeypatch.setattr(SDIModel, "__post_init__", counting_post_init)
    monkeypatch.setattr(StepSchedule, "power_law", classmethod(counting_power_law))
    cfg = _ou_rates_copy(tmp_path, iterations=300, replications=200, outputs=["sdi_compare"],
                         sdi=dict(_SDI, start_index=100, n_reps=200))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "sdi_compare.txt").exists()
    assert counts == {"sdi_model": 1, "schedule": 1}


# an input validation must reject: (config, changes, the key the error names); first a
# JSON boolean where a number is required
_BOOLEAN_NUMBERS = [
    ("iterations", "ex1", {"iterations": True}, "iterations"),
    ("replications", "ex1", {"replications": True}, "replications"),
    ("seed", "ex1", {"seed": True}, "seed"),
    ("dim", "ex1", {"dim": True}, "dim"),
    ("checkpoints", "ex1", {"checkpoints": True}, "checkpoints"),
    ("x0_entry", "ex1", {"x0": [True]}, "x0"),
    ("x0_vector_entry", "ex1", {"x0": [[5.0], [True]]}, "x0"),
    ("x_star_entry", "ex1", {"x_star": [True]}, "x_star"),
    ("schedule_c", "ex1", {"schedule": {"kind": "power_law", "c": True}}, "schedule.c"),
    ("schedule_alpha", "ex1", {"schedule": {"kind": "power_law", "alpha": True}},
     "schedule.alpha"),
    ("bias_c", "ex1", {"bias": {"kind": "gaussian_shrinking", "c": True}}, "bias.c"),
    ("bias_gamma", "ex1", {"bias": {"kind": "gaussian_shrinking", "gamma": True}},
     "bias.gamma"),
    ("sdi_n_reps", "ou_rates", {"sdi": dict(_SDI, n_reps=True)}, "sdi.n_reps"),
    ("sdi_dt", "ou_rates", {"sdi": dict(_SDI, dt=True)}, "sdi.dt"),
    ("sdi_t_eval", "ou_rates", {"sdi": dict(_SDI, t_eval=True)}, "sdi.t_eval"),
    ("sdi_start_index", "ou_rates", {"sdi": dict(_SDI, start_index=True)}, "sdi.start_index"),
]

# inputs that validation once accepted and the run then misread; the key
# named can carry the rest of the message
_SMOOTH = {"kind": "linear", "matrix": [[-1.0]], "offset": [0.3], "noise": "add"}
_SDI_EX1 = {"A": [[-1.0]], "sigma": [[1.0]]}
_BOOLEAN_NUMBERS += [
    ("bias_vector_entry", "ex1", {"bias": {"kind": "constant", "vector": [True]}}, "bias.vector"),
    ("projection_lo_entry", "ex1", {"projection": {"kind": "box", "lo": [True], "hi": [10.0]}},
     "projection.lo"),
    ("projection_radius", "ex1", {"projection": {"kind": "ball", "center": [0.0], "radius": True}},
     "projection.radius"),
    ("zetatilde_mean_entry", "ex1",
     {"noise": {"zetatilde": {"kind": "gaussian", "mean": [True], "cov": [[1.0]]}}},
     "noise.zetatilde.mean"),
    ("zetatilde_dim", "ex1", {"noise": {"zetatilde": {"kind": "none", "dim": True}}},
     "noise.zetatilde.dim"),
    ("lasso_lam", "ex1", {"preset_params": {"lam": True, "data": {"theta": [1.0]}}},
     "preset_params.lam"),
    ("lasso_lam_string", "ex1", {"preset_params": {"lam": "0.7", "data": {"theta": [1.0]}}},
     "preset_params.lam: must be a number"),
    ("pegasos_lam", "svm_plane", {"preset_params": {"lam": True}}, "preset_params.lam"),
    ("data_theta_entry", "ex1", {"preset_params": {"data": {"theta": [True]}}},
     "preset_params.data.theta"),
    ("data_noise_std", "ex1", {"preset_params": {"data": {"theta": [1.0], "noise_std": True}}},
     "preset_params.data.noise_std"),
    ("pegasos_feature_mean_entry", "svm_plane", {"preset_params": {"feature_mean": [True, 2.0]}},
     "preset_params.feature_mean"),
    ("pegasos_ridge_coeff", "svm_plane", {"preset_params": {"ridge_coeff": True}},
     "preset_params.ridge_coeff"),
    ("sdi_A_entry", "ex1", {"sdi": dict(_SDI_EX1, A=[[True]])}, "sdi.A"),
    ("sdi_start_index_unread", "ex1", {"sdi": dict(_SDI_EX1, start_index=True)},
     "sdi.start_index"),
    ("sdi_half_identity", "ex1", {"sdi": dict(_SDI_EX1, half_identity="no")},
     "sdi.half_identity"),
    ("smooth_matrix_entry", "ou_rates", {"drift": {"smooth": dict(_SMOOTH, matrix=[[True]])}},
     "drift.smooth.matrix"),
    ("smooth_offset_entry", "ou_rates", {"drift": {"smooth": dict(_SMOOTH, offset=[True])}},
     "drift.smooth.offset"),
    ("smooth_noise", "ou_rates", {"drift": {"smooth": dict(_SMOOTH, noise="maybe")}},
     "drift.smooth.noise"),
    ("smooth_kind", "ou_rates", {"drift": {"smooth": dict(_SMOOTH, kind="bogus")}},
     "drift.smooth.kind"),
    ("constant_set_lo_entry", "ou_rates",
     {"drift": {"smooth": _SMOOTH,
                "set_part": {"kind": "constant_set", "lo": [True], "hi": [1.0]}}},
     "drift.set_part.lo"),
    ("sign_box_lam_string", "ou_rates",
     {"drift": {"smooth": _SMOOTH, "set_part": {"kind": "sign_box", "lam": "0.5"}}},
     "drift.set_part.lam"),
    # keys that the block's kind does not read
    ("projection_none_lo", "ex1", {"projection": {"kind": "none", "lo": [1.0]}},
     "projection.lo: not read by kind 'none'"),
    ("bias_zero_vector", "ex1", {"bias": {"kind": "zero", "vector": [1.0]}},
     "bias.vector: not read by kind 'zero'"),
]


def _schema_cases() -> list:
    """One case per key of the config schema: a boolean, a string, for a
    bounded key a value out of its bound, for a number key 1e400 and 10**400,
    and for a vector or matrix key an entry 10**400, each in a block that
    reads the key."""
    from sadi import config as c

    samples = {c.NUMBER: 1.0, c.VECTOR: [1.0], c.MATRIX: [[1.0]], c.VECTORS: [[1.0]]}

    def within(block, key, value):
        # the block at the first kind that reads key, with what that kind requires
        leaf = block.keys[key]
        kind = leaf.kinds[0] if leaf.kinds else None
        out = {} if kind is None else {block.kind: kind}
        out.update((k, samples[other.type]) for k, other in block.keys.items()
                   if other.default is c.REQUIRED and k not in (key, block.kind)
                   and (not other.kinds or kind in other.kinds))
        out[key] = value
        return out

    def cases(path, leaf, name, wrap, tag):
        bad = {"bool": True, "string": "not a value"}
        for label, valid in (("bool", c.BOOL), ("string", c.STRING)):
            if leaf.type is valid:
                del bad[label]
        if leaf.bound is not None:
            bad["bound"] = next(v for v in (-1, 0, math.inf) if not leaf.bound(v))
        if leaf.type is c.NUMBER:
            # numbers no float holds: JSON reads 1e400 as inf, which json.dumps
            # writes as Infinity, and float() of a 401-digit integer overflows
            bad.update({"1e400": float("1e400"), "10**400": 10 ** 400})
        if leaf.type in (c.VECTOR, c.POINTS, c.MATRIX, c.VECTORS):
            # an entry no float holds; a non-finite float entry stays accepted
            bad["10**400-entry"] = [[10 ** 400]] if leaf.type is c.VECTORS else [10 ** 400]
        return [(f"{tag}{path}-{label}", name, wrap(v), path) for label, v in bad.items()]

    def walk(block, where, name, wrap, tag=""):
        out = []
        for key, leaf in block.keys.items():
            inner = (lambda v, key=key: wrap(within(block, key, v)))
            out += cases(where + key, leaf, name, inner, tag)
            if isinstance(leaf.type, c.Block):
                out += walk(leaf.type, f"{where}{key}.", name, inner, tag)
        return out

    out = []
    for key, leaf in c._CONFIG.keys.items():
        name = "ou_rates" if key == "drift" else "ex1"
        out += cases(key, leaf, name, lambda v, key=key: {key: v}, "")
        if isinstance(leaf.type, c.Block):
            out += walk(leaf.type, key + ".", name, lambda v, key=key: {key: v})
    for preset, block in c._PRESET_PARAMS.items():
        name = "svm_plane" if preset == "pegasos" else "ex1"
        out += walk(block, "preset_params.", name,
                    lambda v, preset=preset: {"preset": preset, "preset_params": v}, f"{preset}:")
    return out


_BOOLEAN_NUMBERS += _schema_cases()


@pytest.mark.parametrize("name,changes,key", [case[1:] for case in _BOOLEAN_NUMBERS],
                         ids=[case[0] for case in _BOOLEAN_NUMBERS])
def test_json_booleans_are_not_numbers(tmp_path, capsys, name, changes, key):
    raw = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    raw.update(iterations=5, replications=3, outputs=["report"])
    if name == "ou_rates":
        # sdi_compare reads every sdi key, so the block needs its 200 replications
        raw.update(iterations=2000, replications=200, outputs=["sdi_compare"])
    raw.update(changes)
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid experiment config" in err and f"  - {key}" in err
    assert not out.exists()


def test_output_errors_reported_with_the_others(tmp_path, capsys):
    cfg = _ou_rates_copy(tmp_path, ("x_star",), replications=150, x0=[1.3, 0.0],
                         sdi=dict(_SDI, start_index=5000))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for needle in ("outputs: normalized needs a known x_star",
                   "outputs: sdi_compare needs a known x_star",
                   "replications: sdi_compare needs at least 200",
                   "sdi.start_index", "x0[0]: has dimension 2"):
        assert needle in err


def test_preset_x_star_serves_the_rate_outputs(tmp_path, capsys):
    from sadi.config import parse_config

    ok = parse_config(_ex1_copy(tmp_path, replications=100, outputs=["normalized"]))
    assert ok.outputs == ["normalized"]
    # the cycling preset has no equilibrium, so no x*
    raw = json.loads((CONFIGS / "nonconv_long.json").read_text(encoding="utf-8"))
    raw.update(replications=100, outputs=["normalized"])
    path = tmp_path / "nonconv.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "outputs: normalized needs a known x_star" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["xi", "zeta", "zetatilde"])
def test_preset_noise_block(tmp_path, capsys, role):
    # xi and zeta carry the preset's data law, in the layout its drift
    # decodes; the additive zetatilde is the config's to set
    loud = {"kind": "gaussian", "mean": [100.0], "cov": [[1e6]]}
    quiet, noisy = tmp_path / "quiet", tmp_path / "noisy"
    assert main(["run", str(_ex1_copy(tmp_path, iterations=50, replications=20)),
                 "--out-dir", str(quiet)]) == 0
    cfg = _ex1_copy(tmp_path, iterations=50, replications=20, noise={role: loud})
    code = main(["run", str(cfg), "--out-dir", str(noisy)])
    if role != "zetatilde":
        assert code == 2
        assert f"noise.{role}: set by the preset's data law" in capsys.readouterr().err
        assert not noisy.exists()
        return
    assert code == 0
    # the first line is the provenance header, which differs by fingerprint alone
    body = [(out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
            for out in (quiet, noisy)]
    assert body[0] != body[1]
