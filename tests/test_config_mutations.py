"""The config contract under mutation.  Every shipped config, with its sizes
capped, is run by every verb through ``sadi.cli.main`` and exits 0, or 2 with
a config error that names what the config lacks for the verb (a stability
bundle, an ``sdi`` block).  A config the verb runs, with one or two leaves
set to a value that validation refuses, exits 2 before anything runs.  No
case writes a traceback or outlives its time limit.  The mutations of each
config and verb are drawn from a fixed seed."""

import copy
import json
import math
import random
import signal
from pathlib import Path

import pytest

from sadi.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))
VERBS = {"run": [], "sweep": ["--param", "schedule.c", "--values", "0.5,1"], "certify": [],
         "simulate-di": [], "simulate-sdi": []}
CAPS = {"iterations": 200, "replications": 200, "sdi.n_reps": 200}
CASE_SECONDS = 20
# what a shipped config lacks for a verb, as its config error says it
LACKS = {(name, "certify"): "certify: needs a preset that declares a stability bundle"
         for name in ("nonconv_long", "ou_rates")}
LACKS.update({(name, "simulate-sdi"): "sdi: simulate-sdi needs an sdi block"
              for name in NAMES if name != "ou_rates"})


def _probe(d):
    return [0.5] * d


# every span a verb integrates, past 2**53 steps of its dt
SPANS = [
    ("di.horizon", 1e308), ("di.horizon", math.inf), ("di.dt", 1e-300),
    ("chain", lambda d: {"probes": [_probe(d)], "t_min": 1e308}),
    ("chain", lambda d: {"probes": [_probe(d)], "t_min": 6e12}),  # its 2*t_min segments
    ("sdi.t_eval", 1e308), ("sdi.dt", 1e-300),
]
# (path, value, or a function of the state dimension giving the value)
REFUSED = SPANS + [
    ("iterations", 0), ("iterations", 2**53 + 1), ("iterations", 10**400), ("iterations", 1.5),
    ("replications", 0), ("replications", 2**40), ("replications", True),
    ("checkpoints", 1), ("checkpoints", 10**400),
    ("seed", -1), ("seed", "3"), ("name", 7), ("outputs", ["report", "plot"]),
    ("schedule.kind", "cosine"), ("schedule.c", 0.0), ("schedule.c", math.nan),
    ("schedule.alpha", 2.0),
    ("bias", {"kind": "gaussian_shrinking", "gamma": -1.0}), ("bias", {"kind": "drift"}),
    ("projection", lambda d: {"kind": "box", "lo": [1.0] * d, "hi": [1.0] * d}),
    ("projection", lambda d: {"kind": "ball", "center": [0.0] * d, "radius": 0.0}),
    ("noise.zetatilde", {"kind": "uniform", "lo": [0.0]}),
    ("x0", "origin"), ("x0", lambda d: [[0.0] * (d + 1)]),
    ("x_star", lambda d: [math.inf] * d), ("x_star", lambda d: [0.0] * (d + 2)),
    ("di.x0", lambda d: [0.0] * (d + 1)), ("di.budget", 4),
    ("chain", lambda d: {"probes": [_probe(d)], "budget": 0}),
    ("preset_params.data.noise_std", 1e308),
    ("sdi.n_reps", 0), ("sdi.start_index", -1), ("sdi.A", [[1.0, 2.0]]), ("sdi.t_eval", -1.0),
    ("tolerances", {"membership": 1e-9}),
]


def _dim(raw) -> int:
    if "dim" in raw:
        return raw["dim"]
    x0 = raw["x0"]
    return len(x0[0] if isinstance(x0[0], list) else x0)


def _set(raw, path, value):
    *parents, leaf = path.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value(_dim(raw)) if callable(value) else value


def _capped(name):
    """The shipped config with its sizes capped, and an sdi series that still
    starts inside the run."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    for path, cap in CAPS.items():
        block, _, key = path.rpartition(".")
        node = raw.get(block) if block else raw
        if node is not None and key in node:
            node[key] = min(node[key], cap)
    if "start_index" in raw.get("sdi", {}):
        raw["sdi"]["start_index"] = min(raw["sdi"]["start_index"], raw["iterations"])
    return raw


def _cases(name, verb):
    """The capped config, then mutations of it: every span, eight more single
    leaves and four pairs, drawn from a seed of the config and verb."""
    draw = random.Random(f"{name}/{verb}")
    others = REFUSED[len(SPANS):]
    mutations = ([[m] for m in SPANS] + [[m] for m in draw.sample(others, 8)]
                 + [draw.sample(REFUSED, 2) for _ in range(4)])
    base = _capped(name)
    yield [], base
    for mutation in mutations:
        raw = copy.deepcopy(base)
        for path, value in mutation:
            _set(raw, path, value)
        yield mutation, raw


class _TimeLimit(Exception):
    pass


def _main_within(argv, seconds):
    def expire(signum, frame):
        raise _TimeLimit(f"{argv[0]} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("name", NAMES)
def test_every_config_and_mutation_exits_with_a_documented_code(tmp_path, capsys, name, verb):
    for i, (mutation, raw) in enumerate(_cases(name, verb)):
        cfg = tmp_path / f"case{i}.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        code = _main_within([verb, str(cfg), "--out-dir", str(tmp_path / f"out{i}")]
                            + VERBS[verb], CASE_SECONDS)
        err = capsys.readouterr().err
        assert "Traceback" not in err, (mutation, err)
        if mutation:
            assert code == 2 and err.startswith("invalid experiment config"), (mutation, err)
            assert not (tmp_path / f"out{i}").exists()
        elif (name, verb) in LACKS:
            assert code == 2, err
            assert err == f"invalid experiment config:\n  - {LACKS[name, verb]}\n"
            assert not (tmp_path / f"out{i}").exists()
            return  # a verb that cannot run the config has nothing to refuse
        else:
            assert code == 0, err
