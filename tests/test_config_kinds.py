"""One small ``sadi run`` per config kind that no other test builds: the
inline ``sign_box`` and ``constant_set`` set parts, the harmonic schedule,
the zero bias, the uniform and none noises and an explicit ``projection:
none``, each pinned by the sha256 of its report.csv and finals.csv as
recorded before set-valued selections were made on rows; and the box
projection's ``lo >= hi`` error."""

import copy
import hashlib
import json

import pytest

from sadi.cli import main

_BASE = {
    "name": "kinds",
    "drift": {"smooth": {"kind": "linear", "matrix": [[-1.0, 0.2], [0.0, -1.0]],
                         "offset": [0.3, -0.1], "noise": "add"}},
    "dim": 2,
    "x0": [1.3, -0.7],
    "iterations": 120,
    "replications": 24,
    "seed": 5,
    "schedule": {"kind": "power_law", "c": 1.0, "alpha": 0.5},
    "noise": {"zeta": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
    "outputs": ["report", "finals"],
}

# (kind, changes to _BASE); "drift.set_part" and "noise.<role>" set one entry
_KINDS = [
    ("sign_box", {"drift.set_part": {"kind": "sign_box", "lam": 0.4}}),
    # the least-norm selection is (0.1, -0.0): the set is off the origin, and
    # one bound is a signed zero
    ("constant_set", {"drift.set_part": {"kind": "constant_set", "lo": [0.1, -0.3],
                                         "hi": [0.2, -0.0]}}),
    ("harmonic", {"schedule": {"kind": "harmonic", "c": 0.8}}),
    ("zero_bias", {"bias": {"kind": "zero"}}),
    ("uniform_noise", {"noise.zetatilde": {"kind": "uniform", "lo": [-0.5, -0.2],
                                           "hi": [0.5, 0.3]}}),
    ("none_noise", {"noise.zeta": {"kind": "none", "dim": 2}}),
    ("projection_none", {"projection": {"kind": "none"}}),
]

GOLDEN = {
    "sign_box/report.csv":
        "42fc1f0dd705330122778b9b36d64ca9a0d61f313cf3db66ad35cf41f87bb5f5",
    "sign_box/finals.csv":
        "66de459f0a76772aed5e5d02b37ffbc17bb4d21e1fd0dfa7a0d825915d1e539c",
    "constant_set/report.csv":
        "c1b3f5ba009684dd963b7d55e0a86acbf8e656fb0ff0f6a6fccb4cac79a51faf",
    "constant_set/finals.csv":
        "d3a1d2d1f09644a94610d0203377c6598dc38a2581381dbff9b952c6d23d3a3b",
    "harmonic/report.csv":
        "4b111940075304a771d1751acce4b3e37c300ab540f928d364f2b6abfbc15b87",
    "harmonic/finals.csv":
        "d06c8a71c58b77ef62a29cb7f13a0fe7d11c64715d28a70d7dbcde8f61c38462",
    "zero_bias/report.csv":
        "6c16be7919c4c9989a102d3177480d92dbc0bb530b822535a577cbbf544546bf",
    "zero_bias/finals.csv":
        "db6686c60b4ee78eaec232b6c3e43bc86f6ba2e64fa12f047e00f4747cc7b41c",
    "uniform_noise/report.csv":
        "59c6c98a9791f38c731caa97d04cf81c6f5d83a018c6e42cd4dfca568ef01122",
    "uniform_noise/finals.csv":
        "629d6b1128af8c5557b2075137f52a22b7f407d6541ba3bece9631cc859adab4",
    "none_noise/report.csv":
        "06ab42b400ff2d0395f8015767c246bfedb713b243743362ce313f87375fd12f",
    "none_noise/finals.csv":
        "f54b806da5fe07e71cefd6ecae8290ce78092a0cf695c2f251db16f8cc90e517",
    "projection_none/report.csv":
        "b6603c4a04b67e939ece6e14b8f85a3dac062010394ac1723ba924d5a3e84b22",
    "projection_none/finals.csv":
        "584969686706cf689d73ed3bde5694669c4916ca2b48081b5b0ba80a903c9f0d",
}


def _config(tmp_path, label, changes):
    raw = copy.deepcopy(_BASE)
    for key, value in changes.items():
        block, _, entry = key.partition(".")
        if entry:
            raw[block][entry] = value
        else:
            raw[key] = value
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(dict(raw, name=label)), encoding="utf-8")
    return path


@pytest.mark.parametrize("label,changes", _KINDS, ids=[k[0] for k in _KINDS])
def test_config_kind_bytes(tmp_path, label, changes):
    out = tmp_path / "out"
    assert main(["run", str(_config(tmp_path, label, changes)), "--out-dir", str(out)]) == 0
    for name in ("report.csv", "finals.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == GOLDEN[f"{label}/{name}"], name


def test_box_projection_with_lo_not_below_hi_exits_2(tmp_path, capsys):
    box = {"kind": "box", "lo": [-1.0, 2.0], "hi": [1.0, 2.0]}
    out = tmp_path / "out"
    assert main(["run", str(_config(tmp_path, "bad_box", {"projection": box})),
                 "--out-dir", str(out)]) == 2
    assert "projection: box region requires lo < hi componentwise" in capsys.readouterr().err
    assert not out.exists()
