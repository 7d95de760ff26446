"""Declarative experiment configuration: strict JSON parsing, one schema
table that validation walks to report every problem at once, deterministic
fingerprints, and the resolution of a config into runnable engine objects.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import (
    MAX_REPLICATIONS,
    ConstantBias,
    Drift,
    GaussianNoise,
    NoNoise,
    RunSpec,
    ShrinkingGaussianBias,
    StepSchedule,
    UniformNoise,
    ZeroBias,
    as_matrix,
)
from .rates import SDIModel, shifted_index
from .presets import Preset, default_schedule, preset_by_name, sign_interval_map, sign_term
from .sets import Ball, Box, LeastNorm, SetValuedMap

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "config_fingerprint"]


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid experiment config:\n" + "\n".join(f"  - {e}" for e in self.errors))


# ---------------------------------------------------------------------------
# the schema: value types, keys and blocks
# ---------------------------------------------------------------------------


def _number(v, kinds=(int, float)) -> bool:
    """A JSON number of ``kinds``: JSON's true and false load as bools, which are ints."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def _entry(v) -> bool:
    """A number a float holds: float() of a longer integer overflows.  A
    non-finite float stays, so that a NaN start can blow up as documented."""
    return _number(v) and (isinstance(v, float) or abs(v) <= sys.float_info.max)


def _vector(v, of=_entry) -> bool:
    """A non-empty list of ``of``: of entries, or with ``of=_vector`` of vectors."""
    return isinstance(v, list) and len(v) > 0 and all(map(of, v))


def _is(noun: str, test: Callable) -> Callable:
    """A value type: what is wrong with a value, or None when ``test`` accepts it."""
    return lambda v: None if test(v) else f"must be {noun}"


def _one_of(*names) -> Callable:
    return _is("one of " + ", ".join(map(repr, names)), lambda v: v in names)


# one a float holds: JSON reads 1e400 as inf, and float() of a longer integer overflows
NUMBER = _is("a number", lambda v: _number(v) and abs(v) <= sys.float_info.max)
INT = _is("an integer", lambda v: _number(v, int))
BOOL = _is("true or false", lambda v: isinstance(v, bool))
STRING = _is("a string", lambda v: isinstance(v, str))
VECTOR = _is("a vector", _vector)
VECTORS = _is("a non-empty list of vectors", lambda v: _vector(v, _vector))
POINTS = _is("a vector or a list of vectors",
             lambda v: _entry(v) or _vector(v) or _vector(v, _vector))
# a number (times the identity), a vector (the diagonal) or equal-length rows
MATRIX = _is("a number, a vector or a list of equal-length vectors",
             lambda v: POINTS(v) is None and (_entry(v) or len(set(map(np.size, v))) == 1))
OUTPUT_NAMES = ("report", "finals", "trajectory", "checkpoints", "normalized", "certificate",
                "sdi_compare")


def OUTPUTS(v):  # a value type that names the unknown artifact
    if not isinstance(v, list):
        return "must be a list of artifact names"
    return next((f"unknown artifact {o!r}" for o in v if o not in OUTPUT_NAMES), None)


REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class Leaf:
    """One key of a block.  ``type`` is a value type, a Block, or a dict of
    Blocks by kind.  ``default`` is what an absent key takes: REQUIRED, None
    (it stays absent) or a value ({} walks an empty block).  ``bound`` is a
    test the value must pass as well, ``must`` what an error says the value
    must be, and ``kinds`` the kinds of the block that read the key (every
    kind when empty)."""

    type: object
    default: object = None
    bound: Optional[Callable] = None
    must: str = ""
    kinds: tuple = ()


@dataclass(frozen=True)
class Block:
    """A JSON object: its keys, and the key (if any) whose value, the kind,
    decides which of the others are read."""

    keys: dict
    kind: Optional[str] = None


_AT_LEAST_1 = dict(bound=lambda v: v >= 1, must="an integer >= 1")
_POSITIVE = dict(bound=lambda v: v > 0, must="> 0")
_NONNEGATIVE = dict(bound=lambda v: v >= 0, must=">= 0")
# step indices up to here are exact in the float arange of the step sizes
_MAX_ITERATIONS = 1 << 53

_SCHEDULE = Block({
    "kind": Leaf(_one_of("harmonic", "power_law"), "power_law"),
    "c": Leaf(NUMBER, 1.0, **_POSITIVE),
    "alpha": Leaf(NUMBER, 0.5, lambda v: 0 < v <= 1, "in (0, 1]", ("power_law",))}, "kind")
_BIAS = Block({
    "kind": Leaf(_one_of("zero", "gaussian_shrinking", "constant"), REQUIRED),
    "c": Leaf(NUMBER, 1.0, **_NONNEGATIVE, kinds=("gaussian_shrinking",)),
    "gamma": Leaf(NUMBER, 1.0, **_NONNEGATIVE, kinds=("gaussian_shrinking",)),
    "vector": Leaf(VECTOR, REQUIRED, kinds=("constant",))}, "kind")
_PROJECTION = Block({
    "kind": Leaf(_one_of("none", "box", "ball"), "none"),
    "lo": Leaf(VECTOR, REQUIRED, kinds=("box",)), "hi": Leaf(VECTOR, REQUIRED, kinds=("box",)),
    "center": Leaf(VECTOR, REQUIRED, kinds=("ball",)),
    "radius": Leaf(NUMBER, REQUIRED, **_POSITIVE, kinds=("ball",))}, "kind")
_NOISE = Block({
    "kind": Leaf(_one_of("none", "gaussian", "uniform"), "none"),
    "dim": Leaf(INT, 0, lambda v: v >= 0, "an integer >= 0", ("none",)),
    "mean": Leaf(VECTOR, REQUIRED, kinds=("gaussian",)),
    "cov": Leaf(MATRIX, REQUIRED, kinds=("gaussian",)),
    "lo": Leaf(VECTOR, REQUIRED, kinds=("uniform",)),
    "hi": Leaf(VECTOR, REQUIRED, kinds=("uniform",))}, "kind")
_DRIFT = Block({
    # the matrix is -I and the offset 0 when absent; "none" adds no noise sample
    "smooth": Leaf(Block({"kind": Leaf(_one_of("linear"), "linear"), "matrix": Leaf(MATRIX),
                          "offset": Leaf(VECTOR), "noise": Leaf(_one_of("add", "none"), "add")},
                         "kind")),
    "set_part": Leaf(Block({
        "kind": Leaf(_one_of("none", "sign_box", "constant_set"), "none"),
        "lam": Leaf(NUMBER, REQUIRED, **_POSITIVE, kinds=("sign_box",)),
        "lo": Leaf(VECTOR, REQUIRED, kinds=("constant_set",)),
        "hi": Leaf(VECTOR, REQUIRED, kinds=("constant_set",))}, "kind")),
})
# preset_params by preset: the preset function's keyword arguments, with
# lasso's data a RegressionLaw and sign_filter's law a SignFilterLaw
_PRESET_PARAMS = {
    "lasso": Block({
        "lam": Leaf(NUMBER, 0.7),
        # features "gaussian" draws x ~ N(feature_mean, feature_cov), 0 and I when absent
        "data": Leaf(Block({
            "theta": Leaf(VECTOR, REQUIRED),
            "features": Leaf(_one_of("ones", "gaussian"), "ones"),
            "noise_std": Leaf(NUMBER, 1.0, **_NONNEGATIVE),
            "feature_mean": Leaf(VECTOR, kinds=("gaussian",)),
            "feature_cov": Leaf(MATRIX, kinds=("gaussian",))}, "features")),
        "dim": Leaf(INT, None, **_AT_LEAST_1),  # of the all-ones law, so not with data
    }),
    "pegasos": Block({"lam": Leaf(NUMBER, 1.0), "feature_mean": Leaf(VECTOR, (1.0, 2.0)),
                      "feature_cov": Leaf(MATRIX), "ridge_coeff": Leaf(NUMBER, 2.0)}),
    "rootfind": Block({}),
    "sign_filter": Block({"law": Leaf(Block({
        "theta_true": Leaf(VECTOR, REQUIRED),
        "noise": Leaf(_one_of("laplace", "gaussian"), "laplace"),
        "scale": Leaf(NUMBER, 1.0, **_NONNEGATIVE)}))}),
    "nonconv": Block({}),
}
_SDI = Block({
    "A": Leaf(MATRIX, REQUIRED), "sigma": Leaf(MATRIX, REQUIRED),
    "half_identity": Leaf(BOOL, False),
    "t_eval": Leaf(NUMBER, 1.0, math.isfinite, "a finite number"),
    "dt": Leaf(NUMBER, 1e-3, **_POSITIVE),
    "n_reps": Leaf(INT, None, lambda v: v >= 1, "at least 1"),  # absent: each verb picks
    "start_index": Leaf(INT, 0, lambda v: v >= 0, "an integer >= 0"),
})
_DI = Block({"dt": Leaf(NUMBER, 1e-3, **_POSITIVE), "horizon": Leaf(NUMBER, 10.0, **_NONNEGATIVE),
             "x0": Leaf(VECTOR)})  # x0 absent: the preset's start, or the origin
_CHAIN = Block({"probes": Leaf(VECTORS, REQUIRED), "eps": Leaf(NUMBER, 0.5, **_POSITIVE),
                "t_min": Leaf(NUMBER, 1.0, **_POSITIVE), "budget": Leaf(INT, 16, **_AT_LEAST_1)})
# the preset is the config's kind; without one the drift is inline
_CONFIG = Block({
    "name": Leaf(STRING, "experiment"), "preset": Leaf(_one_of(*_PRESET_PARAMS)),
    "preset_params": Leaf(_PRESET_PARAMS, {}, kinds=tuple(_PRESET_PARAMS)),
    "drift": Leaf(_DRIFT, kinds=(None,)), "dim": Leaf(INT, None, **_AT_LEAST_1),
    "x0": Leaf(POINTS),
    "iterations": Leaf(INT, REQUIRED, lambda v: 1 <= v <= _MAX_ITERATIONS,
                       "an integer in [1, 2**53]"),
    "replications": Leaf(INT, REQUIRED, lambda v: 1 <= v <= MAX_REPLICATIONS,
                         f"an integer in [1, {MAX_REPLICATIONS}]"),
    "seed": Leaf(INT, REQUIRED, lambda v: v >= 0, "a nonnegative integer"),
    "schedule": Leaf(_SCHEDULE), "bias": Leaf(_BIAS), "projection": Leaf(_PROJECTION),
    "noise": Leaf(Block({role: Leaf(_NOISE) for role in ("xi", "zeta", "zetatilde")}), {}),
    "x_star": Leaf(VECTOR), "outputs": Leaf(OUTPUTS, ("report",)),
    "checkpoints": Leaf(INT, 10, lambda v: v >= 2, "an integer >= 2"),
    "sdi": Leaf(_SDI), "di": Leaf(_DI, {}), "chain": Leaf(_CHAIN)}, "preset")


def _walk(spec: dict, block: Block, where: str, errors: list) -> dict:
    """``spec`` checked against ``block``, every problem reported: the keys
    its kind reads, as given or defaulted (a number as a float), with None
    at a key in error.  A JSON null is an absent key."""
    errors.extend(f"unknown key {k!r} in {where or 'config'}" for k in spec if k not in block.keys)
    out: dict = {}
    for key in sorted(block.keys, key=lambda k: k != block.kind):  # the kind first
        leaf, value, path = block.keys[key], spec.get(key), f"{where}.{key}".lstrip(".")
        if leaf.kinds and block.kind in out and out[block.kind] is None:
            continue  # the kind is in error, so what it reads is unknown
        kind = out.get(block.kind)
        if leaf.kinds and kind not in leaf.kinds:
            if value is not None:
                errors.append(f"{path}: not read by {block.kind} {kind!r}")
            continue
        if value is None and isinstance(leaf.default, dict):
            value = {}  # walked, so that its keys take their defaults
        elif value is None:
            if leaf.default is REQUIRED:
                by = f" by {block.kind} {kind!r}" if leaf.kinds else ""
                errors.append(f"{path}: required{by}")
                out[key] = None
            elif leaf.default is not None:
                out[key] = leaf.default
            continue
        n, sub = len(errors), leaf.type.get(kind) if isinstance(leaf.type, dict) else leaf.type
        if isinstance(sub, Block) and isinstance(value, dict):
            value = _walk(value, sub, path, errors)
        elif isinstance(sub, Block):
            errors.append(f"{path}: must be an object")
        elif sub(value) is not None or leaf.bound is not None and not leaf.bound(value):
            # a bound comes with the words for it
            errors.append(f"{path}: " + (f"must be {leaf.must}" if leaf.must else sub(value)))
        elif sub is NUMBER:
            value = float(value)
        out[key] = None if len(errors) > n else value
    return out


@dataclass
class ExperimentConfig:
    """Validated description of one replicated experiment family, with every
    block built once by ``validate_config``.  ``sdi``, ``di`` and ``chain``
    are their blocks with the defaults applied (``sdi`` and ``chain`` are
    None when absent); ``sdi["model"]`` is the built SDIModel.
    ``sdi["n_reps"]`` stays None when absent, so that each verb picks its
    count; ``sdi["eval_index"]``, the mesh index a series from
    ``start_index`` reads at ``t_eval``, is set only for sdi_compare."""

    raw: dict
    name: str
    seed: int
    iterations: int
    replications: int
    outputs: Sequence[str]
    checkpoints: int
    preset: Optional[Preset]   # None for an inline drift
    specs: list                # one RunSpec per start
    x_star: Optional[np.ndarray]
    sdi: Optional[dict]        # the block's keys, model and eval_index
    di: dict                   # dt horizon x0
    chain: Optional[dict]      # probes eps t_min budget

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.raw)

    def resolve(self):
        """Returns (preset or None, list of RunSpec (one per start), x_star)."""
        return self.preset, self.specs, self.x_star


def config_fingerprint(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _schedule(spec: dict) -> StepSchedule:
    if spec["kind"] == "harmonic":
        return StepSchedule.harmonic(spec["c"])
    return StepSchedule.power_law(spec["c"], spec["alpha"])


def _bias(spec: dict, dim: int):
    if spec["kind"] == "zero":
        return ZeroBias(dim)
    if spec["kind"] == "gaussian_shrinking":
        return ShrinkingGaussianBias(dim, c=spec["c"], gamma=spec["gamma"])
    return ConstantBias(spec["vector"])


def _projection(spec: dict):
    if spec["kind"] == "box":
        if any(lo >= hi for lo, hi in zip(spec["lo"], spec["hi"])):
            raise ValueError("box region requires lo < hi componentwise")
        return Box(spec["lo"], spec["hi"])
    if spec["kind"] == "ball":
        return Ball(spec["center"], spec["radius"])
    return None


def _noise(spec: dict):
    if spec["kind"] == "gaussian":
        return GaussianNoise(spec["mean"], spec["cov"])
    if spec["kind"] == "uniform":
        return UniformNoise(spec["lo"], spec["hi"])
    return NoNoise(spec["dim"])


def _inline_drift(spec: dict, dim: int) -> Drift:
    smooth = smooth_mean = set_map = sample_term = None
    part = spec.get("smooth")
    if part is not None:
        a = as_matrix(part.get("matrix", -1.0), dim)
        b = np.asarray(part.get("offset", np.zeros(dim)), dtype=float)
        add_noise = part["noise"] == "add"

        def smooth(x_rows, z_rows):
            out = x_rows @ a.T + b
            if add_noise and z_rows.shape[1]:
                out = out + z_rows
            return out

        def smooth_mean(x):
            return a @ np.asarray(x, dtype=float) + b

    part = spec.get("set_part")
    if part is not None and part["kind"] == "sign_box":
        set_map, sample_term = sign_interval_map(dim, part["lam"]), sign_term(part["lam"])
    elif part is not None and part["kind"] == "constant_set":
        box = Box(part["lo"], part["hi"])
        set_map = SetValuedMap(dim, lambda x: box,
                               common_bound=float(np.max(np.abs(np.stack([box.lo, box.hi])))) *
                               np.sqrt(dim) + 1e-9, name="constant_set")
    return Drift(dim=dim, smooth=smooth, smooth_mean=smooth_mean,
                 set_map=set_map, selector=LeastNorm(), sample_term=sample_term)


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    errors: list[str] = []
    cfg = _walk(raw, _CONFIG, "", errors)
    needs = [] if "preset" in cfg else [k for k in ("drift", "dim", "x0") if k not in cfg]
    errors += [f"{key}: required without a preset" for key in needs]
    # a given count of checkpoints; the default reads every index of a shorter run
    n, ck = cfg["iterations"], cfg["checkpoints"]
    if raw.get("checkpoints") is not None and None not in (n, ck) and ck > n + 1:
        errors.append(f"checkpoints: must be at most iterations + 1 = {n + 1}")
    if "preset" in cfg:
        # the preset's drift decodes these samples in its data law's layout
        errors += [f"noise.{key}: set by the preset's data law"
                   for key in ("xi", "zeta") if key in (cfg["noise"] or {})]
        # lasso's dim sizes the all-ones law, and data brings its own
        if {"dim", "data"} <= set(cfg.get("preset_params") or {}):
            errors.append("preset_params.dim: not read with data, whose theta sets the dimension")
    # a block in error is left out of the resolution; any other error stops it
    if needs or any(value is None and not isinstance(_CONFIG.keys[key].type, (Block, dict))
                    for key, value in cfg.items()):
        raise ConfigError(errors)
    fields = ("name", "seed", "iterations", "replications", "outputs", "checkpoints")
    return ExperimentConfig(raw=raw, **{k: cfg[k] for k in fields}, **_resolve(raw, cfg, errors))


def _resolve(raw: dict, cfg: dict, errors: list) -> dict:
    """Build every block of the walked config ``cfg`` once, into the resolved
    fields of its ExperimentConfig; a block in error (None) is skipped.
    Raises ConfigError listing the problems, with those that show only now;
    dimensions are checked once the preset builds."""
    n, outputs, x0 = cfg["iterations"], cfg["outputs"], cfg.get("x0")
    starts = [] if x0 is None else [[x0]] if _number(x0) else [x0] if _vector(x0) else x0
    sizes = [(f"x0[{i}]", len(start)) for i, start in enumerate(starts)]  # (where, dimension)

    def attempt(where: str, build):
        try:
            return build()
        except (ValueError, TypeError) as exc:  # a ConfigError carries its own list
            errors.extend(getattr(exc, "errors", [f"{where}: {exc}"]))

    def fit(where: str, block: dict, keys) -> bool:
        """Each axis of the vectors and matrices at ``keys`` of ``block`` into
        the sizes (a number fits any); True when all are the state's."""
        found = [(f"{where}.{key}", got) for key in keys if key in block
                 for got in dict.fromkeys(np.shape(block[key]))]
        sizes.extend(found)
        return all(got == dim for _, got in found)

    preset = drift = template = None
    dim, named = cfg.get("dim"), "preset" in cfg
    if named:
        if cfg["preset_params"] is not None:
            preset = attempt("preset_params",
                             lambda: preset_by_name(cfg["preset"], cfg["preset_params"]))
        template = getattr(preset, "spec", None)
        if template is not None and dim is not None:
            sizes.append(("dim", dim))
        dim = None if template is None else template.drift.dim
    elif cfg["drift"] is not None:
        smooth, part = (cfg["drift"].get(key) or {} for key in ("smooth", "set_part"))
        # a drift is built only on arrays of the state's dimension
        if all([fit("drift.smooth", smooth, ("matrix", "offset")),
                fit("drift.set_part", part, ("lo", "hi"))]):
            drift = attempt("drift", lambda: _inline_drift(cfg["drift"], dim))
    # a preset that does not build has its own error, so nothing is said about it here
    failed = named and preset is None
    # the blocks the config gives, in place of the template's pieces
    noise = cfg["noise"] or {}
    given = [("schedule", cfg.get("schedule"), _schedule),
             # zero and shrinking biases take the state dimension, so only a vector can differ
             ("bias", cfg.get("bias"), lambda spec: _bias(spec, dim or 1)),
             ("projection", cfg.get("projection"), _projection)]
    given += [(f"noise.{key}", noise[key], _noise) for key in noise]
    overrides = {where.replace(".", "_"): attempt(where, lambda: build(spec))
                 for where, spec, build in given if spec is not None}
    if drift is not None:  # starts are required without a preset, so x0 is a placeholder
        template = RunSpec(drift=drift, schedule=overrides.get("schedule") or default_schedule(),
                           x0=np.zeros(dim), n_steps=n)
    schedule = overrides.get("schedule", getattr(template, "schedule", None))
    bias, region, additive = map(overrides.get, ("bias", "projection", "noise_zetatilde"))
    if bias is not None:
        sizes.append(("bias.vector", bias.dim))
    if region is not None:
        sizes.append(("projection", region.dim))
    if getattr(additive, "dim", 0):
        sizes.append(("noise.zetatilde", additive.dim))

    x_star = cfg.get("x_star")
    if x_star is not None:
        sizes.append(("x_star", len(x_star)))
    x_star = getattr(preset, "x_star", None) if x_star is None else x_star
    if "certificate" in outputs and not failed and getattr(preset, "stability", None) is None:
        errors.append("outputs: certificate needs a preset that declares a stability bundle")
    # the rate outputs are checked here so that none fails after the run
    for output, least in (("normalized", 100), ("sdi_compare", 200)):
        if output in outputs and x_star is None and not failed:
            errors.append(f"outputs: {output} needs a known x_star")
        if output in outputs and cfg["replications"] < least:
            errors.append(f"replications: {output} needs at least {least}")

    sdi, compare = cfg.get("sdi"), "sdi_compare" in outputs
    if compare and "sdi" not in cfg:
        errors.append("sdi: sdi_compare needs an sdi block")
    elif sdi is not None:
        # simulate-sdi reads the block whatever the outputs, so it is checked when present
        if compare and sdi.get("n_reps", 200) < 200:
            errors.append("sdi.n_reps: must be at least 200")
        model = None
        if fit("sdi", sdi, ("A", "sigma")):
            model = attempt("sdi", lambda: SDIModel(
                A=as_matrix(sdi["A"], dim), sigma=sdi["sigma"], half_identity=sdi["half_identity"]))
        sdi = dict(sdi, model=model, n_reps=sdi.get("n_reps"), eval_index=None)
        if compare and sdi["start_index"] > n:
            errors.append(f"sdi.start_index: must lie in [0, {n}]")
        elif compare and schedule is not None:
            sdi["eval_index"] = attempt("sdi.t_eval", lambda: shifted_index(
                schedule, sdi["start_index"], sdi["t_eval"], n))

    di, chain = cfg["di"], cfg.get("chain")
    if di is not None and "x0" in di:
        sizes.append(("di.x0", len(di["x0"])))
    if chain is not None:
        sizes.extend((f"chain.probes[{i}]", len(p)) for i, p in enumerate(chain["probes"]))

    if dim is not None:
        errors += [f"{where}: has dimension {got}, the state has {dim}"
                   for where, got in sizes if got != dim]
    if errors:
        raise ConfigError(errors)
    fingerprint = config_fingerprint(raw)
    specs = [replace(template, x0=np.asarray(x0, dtype=float), n_steps=n,
                     name=f"{cfg['name']}[start{i}]", fingerprint=fingerprint, **overrides)
             for i, x0 in enumerate(starts or [template.x0])]
    di["x0"] = np.asarray(di["x0"], dtype=float) if "x0" in di else template.x0
    return {"preset": preset, "specs": specs, "di": di, "chain": chain, "sdi": sdi,
            "x_star": None if x_star is None else np.asarray(x_star, dtype=float)}


def parse_config(path, seed: Optional[int] = None) -> ExperimentConfig:
    """Load and validate a JSON experiment file, with ``seed`` (when given)
    in place of the file's seed; raises ConfigError listing every problem
    found."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file {path} does not exist"])
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = int(seed)
    return validate_config(raw)
