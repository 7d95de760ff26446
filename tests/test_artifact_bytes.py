"""Golden bytes: every artifact the CLI writes, from small runs, against
sha256 values recorded before the artifact writers were merged into one
module; the rootfind and sign-filter digests before a Clarke gradient became
the Krasovskii hull of the gradient field; the rootfind path and the
two-dimensional lasso certificate before box-valued maps declared their
bounds; the pegasos certificate before every certified map answered its
support on rows; the pegasos ensemble's finals before draw-free roles read
as dense rows and the step was summed in place; the nonconv and boxed
rootfind trajectories before checkpoint indices replaced recorded paths.  A changed digest means a
changed output byte; re-record one only for a change to the artifact layout
that is meant and documented."""

import hashlib
import json
from pathlib import Path

import pytest

from sadi.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_LASSO = {
    "name": "golden_lasso",
    "preset": "lasso",
    "preset_params": {"lam": 0.7, "data": {"theta": [1.0], "features": "ones"}},
    "x0": [[5.0], [-3.0]],
    "iterations": 60,
    "replications": 12,
    "seed": 3,
    "schedule": {"kind": "power_law", "c": 1.0, "alpha": 0.5},
    "bias": {"kind": "constant", "vector": [0.0]},
    "checkpoints": 4,
    "outputs": ["report", "checkpoints", "finals", "trajectory", "certificate"],
}
_NONCONV_DI = {
    "name": "golden_nonconv",
    "preset": "nonconv",
    "x0": [2.0, 2.0],
    "iterations": 40,
    "replications": 1,
    "seed": 3,
    "outputs": ["report"],
    "di": {"dt": 0.01, "horizon": 1.5, "x0": [1.5, 1.5]},
    "chain": {"probes": [[0.5, 0.5], [1.5, -1.5]], "eps": 0.3, "t_min": 0.5, "budget": 6},
}

# the kink paths: rootfind's certificate decides its 480 near-kink grid points
# by the slab test on rows, and the noiseless sign filter crosses t* = 0.5 near
# t = 1.5 and then slides on it
_ROOTFIND = {
    "name": "golden_rootfind",
    "preset": "rootfind",
    "x0": [1.0, 1.0],
    "iterations": 10,
    "replications": 1,
    "seed": 3,
    "outputs": ["report"],
}
_SIGN_FILTER_DI = {
    "name": "golden_sign_filter",
    "preset": "sign_filter",
    "preset_params": {"law": {"theta_true": [0.5], "scale": 0.0}},
    "x0": [0.0],
    "iterations": 10,
    "replications": 1,
    "seed": 3,
    "outputs": ["report"],
    "di": {"dt": 0.01, "horizon": 3.0, "x0": [2.0]},
}
# rootfind's box-valued map from (10, -20): the path crosses w_0 = 1 at step 39
_ROOTFIND_DI = dict(_ROOTFIND, name="golden_rootfind_di",
                    di={"dt": 0.01, "horizon": 3.0, "x0": [10.0, -20.0]})
# a two-dimensional lasso: its shifted bounds take a 2x2 matrix-vector product
_LASSO_2D = {
    "name": "golden_lasso_2d",
    "preset": "lasso",
    "preset_params": {"lam": 0.3, "data": {"theta": [1.0, -0.5], "features": "gaussian",
                                           "feature_mean": [0.3, -0.2],
                                           "feature_cov": [[1.0, 0.4], [0.4, 2.0]]}},
    "x0": [1.0, 1.0],
    "iterations": 10,
    "replications": 1,
    "seed": 3,
    "outputs": ["report"],
}

# pegasos: the one certified map that is not a box; its hinge support takes
# the margin w.mu on every off-kink grid point
_SVM_PLANE = {
    "name": "golden_svm_plane",
    "preset": "pegasos",
    "preset_params": {"lam": 1.0, "feature_mean": [1.0, 2.0]},
    "x0": [3.0, 5.0],
    "iterations": 10,
    "replications": 1,
    "seed": 3,
    "outputs": ["report"],
}

# pegasos over twelve replications: the finals of a two-dimensional ensemble,
# where the draw-free roles' rows meet the noise rows of many replications
_SVM_ENSEMBLE = dict(_SVM_PLANE, name="golden_svm_ensemble", replications=12,
                     outputs=["finals"])

# the two loops of a one-replication run: nonconv's cell table takes the
# plain-float loop, and rootfind's box-valued map from (10, -20) takes the row
# loop, whose box projection is active at the first step and wherever the
# bias pushes the path out, so its projected column holds 1s
_NONCONV_RUN = {
    "name": "golden_nonconv_run",
    "preset": "nonconv",
    "x0": [2.0, 2.0],
    "iterations": 60,
    "replications": 1,
    "seed": 3,
    "outputs": ["trajectory"],
}
_ROOTFIND_BOX = {
    "name": "golden_rootfind_box",
    "preset": "rootfind",
    "x0": [10.0, -20.0],
    "iterations": 60,
    "replications": 1,
    "seed": 3,
    "projection": {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
    "bias": {"kind": "gaussian_shrinking", "c": 10.0, "gamma": 0.0},
    "outputs": ["trajectory"],
}


def _ou_rates():
    raw = json.loads((CONFIGS / "ou_rates.json").read_text(encoding="utf-8"))
    raw.update(name="golden_ou", iterations=300, replications=200)
    raw["sdi"].update(t_eval=0.5, dt=0.01, n_reps=200, start_index=150)
    return raw


# (label, verb, config, extra argv) for every job; each writes into out/<label>
_JOBS = [
    ("lasso", "run", _LASSO, []),
    ("sweep", "sweep", dict(_LASSO, outputs=["report"]),
     ["--param", "bias.vector.0", "--values", "0.0,0.25"]),
    ("rates", "run", _ou_rates(), []),
    ("sdi", "simulate-sdi", _ou_rates(), []),
    ("di", "simulate-di", _NONCONV_DI, []),
    ("rootfind", "certify", _ROOTFIND, []),
    ("sign_filter", "simulate-di", _SIGN_FILTER_DI, []),
    ("rootfind_di", "simulate-di", _ROOTFIND_DI, []),
    ("lasso_2d", "certify", _LASSO_2D, []),
    ("svm_plane", "certify", _SVM_PLANE, []),
    ("svm_ensemble", "run", _SVM_ENSEMBLE, []),
    ("nonconv_run", "run", _NONCONV_RUN, []),
    ("rootfind_box", "run", _ROOTFIND_BOX, []),
]

GOLDEN = {
    "lasso/report.csv":
        "d73adb64be4bd6f809dcd5a4b302020f1285d34c74c2869367d3c241c679f2fe",
    "lasso/checkpoints.csv":
        "037bf4d1b7e47bb8d3702a604cf2a224b7a7c17f56ee923e8b169b5b097b0392",
    "lasso/finals.csv":
        "ed9158287936376783d1e5ae9894c9feb7fe9bef6524aed83d074ae4f6ddc992",
    "lasso/trajectory_start0.csv":
        "a6f21136f9305b45f62ee271dbf370174ca76718f29dd26ce20f82246a5251db",
    "lasso/trajectory_start1.csv":
        "40954da24249b99896009dea669b9ec186ad1474b5fd158d8ac65b1db6a15da5",
    "lasso/certificate.txt":
        "39d310613bcc9903f39ac9d4f5f1630de639936251919dd2209bd2573a60c429",
    "sweep/sweep.csv":
        "1e8df1251e6e7bd824853f04db90bf943b16f67d61ad4ba755bb78e85f505f45",
    "rates/report.csv":
        "280dd59516d39e9ff6a0d65ef4af53dc97a219c03cbeef6c27b52d121ed2bd60",
    "rates/tightness.txt":
        "e2e7818c937bd217131948d56516cf6daf7b26192751be7cfc5536611e481109",
    "rates/sdi_compare.txt":
        "c80e60b9b96822c0c71fd6965c3c5ba94074ec024ec1d54e64d160ee98ae91ac",
    "sdi/sdi_finals.csv":
        "53d374a4a132193bbdfb5a7c0d9c0fc7999280940e7bc363644e0626c55ab400",
    "di/inclusion_path.csv":
        "89fb6181fc401e42398bfae35423bb8e8c0a7999e5e1da1f2fcd27386e111fac",
    "di/chain_report.txt":
        "de5da64e2b43bd85413b5253582afab4548089c7953d8743fb523fa74c811e16",
    "rootfind/certificate.txt":
        "d3c0e5625bc7cae41609279f64fce352b52094325d9c1cb6d2e785e6aeb939c7",
    "sign_filter/inclusion_path.csv":
        "a935709ef55e197f868d90f122bc258605558dbe4e8103a8b3db594b2c7f4e00",
    "rootfind_di/inclusion_path.csv":
        "c62e18dd89a495a9cf88cf9912da69898a378e1bdd5bb9270b06071c9d837965",
    "lasso_2d/certificate.txt":
        "b236e42f6038bf23a69574b8fa75dc64763409a11388d847b609dfa5f6df1ae0",
    "svm_plane/certificate.txt":
        "d543b8fd7927afe3b9e25f3aa51c81964f21accb3e7e946329b5a4ecb81055d3",
    "svm_ensemble/finals.csv":
        "7d8679f790e0d8cdd5bbd2bd6ceed6c3fdeba411252b841e6c24b47a075dd14c",
    "nonconv_run/trajectory_start0.csv":
        "192666fc4a5c175df1ef75080441a09b480670e8ff05b568b8f4930de1e8811f",
    "rootfind_box/trajectory_start0.csv":
        "c9af8156fb20baaf2c3d7bb6630b21d075e486807812c4ae8c90b5c5aac9761e",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for label, verb, raw, extra in _JOBS:
        cfg = root / f"{label}.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main([verb, str(cfg), "--out-dir", str(root / "out" / label)] + extra) == 0
    return root / "out"


def test_every_artifact_is_covered(artifacts):
    written = {p.relative_to(artifacts).as_posix() for p in artifacts.rglob("*") if p.is_file()}
    assert written == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes(artifacts, name):
    assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() == GOLDEN[name]
