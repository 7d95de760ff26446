"""Declarative experiment configuration: strict JSON parsing, validation
that reports every problem at once, deterministic fingerprints, and the
resolution of a config into runnable engine objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .engine import (
    BallRegion,
    BoxRegion,
    ConstantBias,
    Drift,
    GaussianNoise,
    NoNoise,
    NoProjection,
    RunSpec,
    ShrinkingGaussianBias,
    StepSchedule,
    UniformNoise,
    ZeroBias,
)
from .rates import SDIModel, shifted_index
from .presets import PRESET_NAMES, Preset, preset_by_name, sign_interval_map, sign_term
from .sets import Box, LeastNorm, SetValuedMap

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "config_fingerprint"]


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid experiment config:\n" + "\n".join(f"  - {e}" for e in self.errors))


_TOP_KEYS = {
    "name", "preset", "preset_params", "drift", "dim", "x0", "iterations",
    "replications", "seed", "schedule", "bias", "noise", "projection",
    "x_star", "outputs", "checkpoints", "sdi", "di", "chain",
}
_SCHEDULE_KEYS = {"kind", "c", "alpha"}
_BIAS_KEYS = {"kind", "c", "gamma", "vector"}
_NOISE_KEYS = {"kind", "mean", "cov", "lo", "hi", "dim"}
_PROJECTION_KEYS = {"kind", "lo", "hi", "center", "radius"}
_DRIFT_KEYS = {"smooth", "set_part"}
_SMOOTH_KEYS = {"kind", "matrix", "offset", "noise"}
_SET_PART_KEYS = {"kind", "lam", "lo", "hi"}
_SDI_KEYS = {"A", "sigma", "half_identity", "t_eval", "dt", "n_reps", "start_index"}
_DI_KEYS = {"dt", "horizon", "x0"}
_CHAIN_KEYS = {"probes", "eps", "t_min", "dt", "budget"}
_OUTPUT_NAMES = {"report", "finals", "trajectory", "checkpoints", "normalized",
                 "certificate", "sdi_compare", "chain"}


@dataclass
class ExperimentConfig:
    """Validated description of one replicated experiment family."""

    raw: dict
    name: str
    seed: int
    iterations: int
    replications: int
    starts: list            # list of start vectors
    preset_name: Optional[str]
    preset_params: dict
    drift_spec: Optional[dict]
    dim: Optional[int]
    schedule_spec: Optional[dict]
    bias_spec: Optional[dict]
    noise_spec: dict
    projection_spec: Optional[dict]
    x_star_override: Optional[list]
    outputs: list
    checkpoints: int
    sdi_spec: Optional[dict]
    di_spec: Optional[dict]
    chain_spec: Optional[dict]
    preset: Optional[Preset] = field(default=None, init=False, repr=False)  # built once

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.raw)

    # -- resolution into engine objects -------------------------------------

    def build_preset(self) -> Optional[Preset]:
        if self.preset is None and self.preset_name is not None:
            self.preset = preset_by_name(self.preset_name, self.preset_params)
        return self.preset

    def build_schedule(self, default: Optional[StepSchedule] = None) -> StepSchedule:
        spec = self.schedule_spec
        if spec is None:
            return default or StepSchedule.power_law(1.0, 0.5)
        kind = spec.get("kind", "power_law")
        if kind == "harmonic":
            return StepSchedule.harmonic(spec.get("c", 1.0))
        return StepSchedule.power_law(spec.get("c", 1.0), spec.get("alpha", 0.5))

    def build_bias(self, dim: int):
        spec = self.bias_spec
        if spec is None:
            return None
        kind = spec["kind"]
        if kind == "zero":
            return ZeroBias(dim)
        if kind == "gaussian_shrinking":
            return ShrinkingGaussianBias(dim, c=spec.get("c", 1.0), gamma=spec.get("gamma", 1.0))
        if kind == "constant":
            return ConstantBias(spec["vector"])
        raise ConfigError([f"unknown bias kind {kind!r}"])

    def build_projection(self):
        spec = self.projection_spec
        if spec is None or spec.get("kind", "none") == "none":
            return NoProjection()
        if spec["kind"] == "box":
            return BoxRegion(spec["lo"], spec["hi"])
        return BallRegion(spec["center"], spec["radius"])

    def build_noise(self, key: str, dim: int):
        spec = self.noise_spec.get(key)
        if spec is None:
            return None
        kind = spec.get("kind", "none")
        if kind == "none":
            return NoNoise(int(spec.get("dim", 0)))
        if kind == "gaussian":
            return GaussianNoise(spec["mean"], spec["cov"])
        if kind == "uniform":
            return UniformNoise(spec["lo"], spec["hi"])
        raise ConfigError([f"unknown noise kind {kind!r} for {key}"])

    def build_inline_drift(self) -> Drift:
        spec = self.drift_spec or {}
        dim = int(self.dim)
        smooth_spec = spec.get("smooth")
        smooth = None
        smooth_mean = None
        if smooth_spec is not None:
            a = np.atleast_2d(np.asarray(smooth_spec.get("matrix", (-np.eye(dim)).tolist()), dtype=float))
            b = np.atleast_1d(np.asarray(smooth_spec.get("offset", [0.0] * dim), dtype=float))
            add_noise = smooth_spec.get("noise", "add") == "add"

            def smooth(x_rows, z_rows, _a=a, _b=b, _noise=add_noise):
                out = x_rows @ _a.T + _b
                if _noise and z_rows.shape[1]:
                    out = out + z_rows
                return out

            def smooth_mean(x, _a=a, _b=b):
                return _a @ np.asarray(x, dtype=float) + _b

        set_spec = spec.get("set_part")
        set_map = None
        sample_term = None
        if set_spec is not None and set_spec.get("kind", "none") != "none":
            kind = set_spec["kind"]
            if kind == "sign_box":
                lam = float(set_spec["lam"])
                set_map = sign_interval_map(dim, lam)
                sample_term = sign_term(lam)
            elif kind == "constant_set":
                lo = np.asarray(set_spec["lo"], dtype=float)
                hi = np.asarray(set_spec["hi"], dtype=float)
                box = Box(lo, hi)
                set_map = SetValuedMap(dim, lambda x: box,
                                       common_bound=float(np.max(np.abs(np.stack([lo, hi])))) *
                                       np.sqrt(dim) + 1e-9, name="constant_set")
            else:
                raise ConfigError([f"unknown set_part kind {kind!r}"])
        return Drift(dim=dim, smooth=smooth, smooth_mean=smooth_mean,
                     set_map=set_map, selector=LeastNorm(), sample_term=sample_term)

    def build_sdi_model(self) -> SDIModel:
        sdi = self.sdi_spec
        return SDIModel(A=sdi["A"], sigma=sdi["sigma"],
                        half_identity=bool(sdi.get("half_identity", False)))

    def resolve(self):
        """Returns (preset or None, list of RunSpec (one per start), x_star)."""
        preset = self.build_preset()
        if preset is not None:
            dim = preset.dim
            schedule = self.build_schedule(preset.schedule)
            bias = self.build_bias(dim)
            projection = self.build_projection() if self.projection_spec else preset.projection
            specs = []
            for i, x0 in enumerate(self.starts or [preset.default_x0]):
                specs.append(preset.run_spec(
                    x0=x0, n_steps=self.iterations, schedule=schedule,
                    bias=bias, projection=projection,
                    name=f"{self.name}[start{i}]", fingerprint=self.fingerprint))
            x_star = (np.asarray(self.x_star_override, dtype=float)
                      if self.x_star_override is not None else preset.x_star)
            return preset, specs, x_star

        dim = int(self.dim)
        drift = self.build_inline_drift()
        schedule = self.build_schedule()
        bias = self.build_bias(dim)
        projection = self.build_projection()
        zeta = self.build_noise("zeta", dim) or NoNoise(0)
        xi = self.build_noise("xi", dim) or NoNoise(0)
        zt = self.build_noise("zetatilde", dim) or NoNoise(0)
        specs = []
        for i, x0 in enumerate(self.starts):
            specs.append(RunSpec(
                drift=drift, schedule=schedule, x0=np.asarray(x0, dtype=float),
                n_steps=self.iterations, noise_xi=xi, noise_zeta=zeta,
                noise_zetatilde=zt, bias=bias, projection=projection,
                name=f"{self.name}[start{i}]", fingerprint=self.fingerprint))
        x_star = (np.asarray(self.x_star_override, dtype=float)
                  if self.x_star_override is not None else None)
        return None, specs, x_star


def config_fingerprint(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _check_keys(block: dict, allowed: set, where: str, errors: list) -> None:
    for k in block:
        if k not in allowed:
            errors.append(f"unknown key {k!r} in {where}")


def _number(v, kinds=(int, float)) -> bool:
    """A JSON number of ``kinds``: JSON's true and false load as bools, which are ints."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def _expect(cond: bool, msg: str, errors: list) -> bool:
    if not cond:
        errors.append(msg)
    return cond


def _object(parent: dict, key: str, keys: set, errors: list, prefix: str = "") -> Optional[dict]:
    """parent[key] with its unknown keys reported, or None when it is absent
    or, reported as such, not an object."""
    block = parent.get(key)
    if block is not None and not isinstance(block, dict):
        errors.append(f"{prefix}{key}: must be an object")
        return None
    if block is not None:
        _check_keys(block, keys, prefix + key, errors)
    return block


def validate_config(raw: dict) -> ExperimentConfig:
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    _check_keys(raw, _TOP_KEYS, "config", errors)

    name = raw.get("name", "experiment")
    _expect(isinstance(name, str), "name: must be a string", errors)

    seed = raw.get("seed")
    _expect(_number(seed, int) and seed >= 0,
            "seed: required nonnegative integer (wall-clock seeding is not supported)", errors)

    iterations = raw.get("iterations")
    _expect(_number(iterations, int) and iterations >= 1,
            "iterations: required integer >= 1", errors)
    replications = raw.get("replications")
    _expect(_number(replications, int) and replications >= 1,
            "replications: required integer >= 1", errors)

    preset_name = raw.get("preset")
    drift_spec = raw.get("drift")
    if preset_name is None and drift_spec is None:
        errors.append("either preset or drift must be given")
    if preset_name is not None:
        _expect(preset_name in PRESET_NAMES, f"preset: unknown name {preset_name!r}", errors)
    if drift_spec is not None:
        drift = _object(raw, "drift", _DRIFT_KEYS, errors) or {}
        _object(drift, "smooth", _SMOOTH_KEYS, errors, "drift.")
        _object(drift, "set_part", _SET_PART_KEYS, errors, "drift.")
        if raw.get("dim") is None:
            errors.append("dim: required with an inline drift")

    dim = raw.get("dim")
    if dim is not None:
        _expect(_number(dim, int) and dim >= 1, "dim: must be an integer >= 1", errors)

    x0 = raw.get("x0")
    starts: list = []
    if x0 is None:
        if preset_name is None:
            errors.append("x0: required without a preset")
    else:
        if _number(x0):
            starts = [[float(x0)]]
        elif isinstance(x0, list) and x0 and all(_number(v) for v in x0):
            starts = [[float(v) for v in x0]]
        elif isinstance(x0, list) and x0 and all(
                isinstance(v, list) and all(_number(c) for c in v) for v in x0):
            starts = [[float(c) for c in v] for v in x0]
        else:
            errors.append("x0: must be a vector or a list of vectors")

    schedule_spec = _object(raw, "schedule", _SCHEDULE_KEYS, errors)
    if schedule_spec is not None:
        kind = schedule_spec.get("kind", "power_law")
        _expect(kind in ("harmonic", "power_law"), f"schedule.kind: unknown {kind!r}", errors)
        c = schedule_spec.get("c", 1.0)
        _expect(_number(c) and c > 0, "schedule.c: must be > 0", errors)
        alpha = schedule_spec.get("alpha", 0.5)
        _expect(_number(alpha) and 0 < alpha <= 1,
                "schedule.alpha: must lie in (0, 1]", errors)

    bias_spec = _object(raw, "bias", _BIAS_KEYS, errors)
    if bias_spec is not None:
        kind = bias_spec.get("kind")
        _expect(kind in ("zero", "gaussian_shrinking", "constant"),
                f"bias.kind: unknown {kind!r}", errors)
        if kind == "constant":
            _expect(isinstance(bias_spec.get("vector"), list),
                    "bias.vector: required vector for constant bias", errors)
        if kind == "gaussian_shrinking":
            c = bias_spec.get("c", 1.0)
            gamma = bias_spec.get("gamma", 1.0)
            _expect(_number(c) and c >= 0, "bias.c: must be >= 0", errors)
            _expect(_number(gamma) and gamma >= 0,
                    "bias.gamma: must be >= 0", errors)

    noise_spec = raw.get("noise", {})
    if noise_spec is not None and not isinstance(noise_spec, dict):
        errors.append("noise: must be an object keyed by role")
        noise_spec = {}
    for key in noise_spec or {}:
        if key not in ("xi", "zeta", "zetatilde"):
            errors.append(f"noise: unknown role {key!r}")
        else:
            _object(noise_spec, key, _NOISE_KEYS, errors, "noise.")

    projection_spec = _object(raw, "projection", _PROJECTION_KEYS, errors)
    if projection_spec is not None:
        kind = projection_spec.get("kind", "none")
        _expect(kind in ("none", "box", "ball"), f"projection.kind: unknown {kind!r}", errors)

    outputs = raw.get("outputs", ["report"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        errors.append("outputs: must be a list of names")
        outputs = ["report"]
    else:
        for o in outputs:
            _expect(o in _OUTPUT_NAMES, f"outputs: unknown artifact {o!r}", errors)

    checkpoints = raw.get("checkpoints", 10)
    _expect(_number(checkpoints, int) and checkpoints >= 2,
            "checkpoints: must be an integer >= 2", errors)

    for block_name, keys in (("sdi", _SDI_KEYS), ("di", _DI_KEYS), ("chain", _CHAIN_KEYS)):
        _object(raw, block_name, keys, errors)

    preset_params = raw.get("preset_params", {})
    if not isinstance(preset_params, dict):
        errors.append("preset_params: must be an object")
        preset_params = {}

    x_star_override = raw.get("x_star")
    if x_star_override is not None and not (
            isinstance(x_star_override, list)
            and all(_number(v) for v in x_star_override)):
        errors.append("x_star: must be a vector")

    if errors:
        raise ConfigError(errors)

    config = ExperimentConfig(
        raw=raw, name=name, seed=seed, iterations=iterations, replications=replications,
        starts=starts, preset_name=preset_name, preset_params=preset_params,
        drift_spec=drift_spec, dim=dim, schedule_spec=schedule_spec,
        bias_spec=bias_spec, noise_spec=noise_spec or {},
        projection_spec=projection_spec, x_star_override=x_star_override,
        outputs=outputs, checkpoints=checkpoints,
        sdi_spec=raw.get("sdi"), di_spec=raw.get("di"), chain_spec=raw.get("chain"),
    )
    errors = _resolution_errors(config)
    if errors:
        raise ConfigError(errors)
    return config


def _resolution_errors(config: ExperimentConfig) -> list:
    """Problems that show only when a well-formed config is turned into
    engine objects; dimensions are checked once the preset builds."""
    errors, dim, model = [], config.dim, None

    def attempt(where: str, build, kinded: bool = False):
        # kinded: the block's kind decides which keys it needs
        try:
            return build()
        except KeyError as exc:
            errors.append(f"{where}.{exc.args[0]}: required" + (" by its kind" if kinded else ""))
        except (ValueError, TypeError) as exc:  # a ConfigError carries its own list
            errors.extend(getattr(exc, "errors", [f"{where}: {exc}"]))

    x_star_known, has_bundle = config.x_star_override is not None, False
    if config.preset_name is not None:
        preset = attempt("preset_params", config.build_preset)
        dim = preset.dim if preset is not None else None
        # a preset that does not build has its own error, so nothing is said about it here
        x_star_known = x_star_known or preset is None or preset.x_star is not None
        has_bundle = preset is None or preset.stability is not None
        schedule = config.build_schedule(preset.schedule) if preset is not None else None
    else:
        attempt("drift.set_part", config.build_inline_drift, kinded=True)
        schedule = config.build_schedule()
    _expect("certificate" not in config.outputs or has_bundle,
            "outputs: certificate needs a preset that declares a stability bundle", errors)
    # the rate outputs are checked here so that none fails after the run
    for name, least in (("normalized", 100), ("sdi_compare", 200)):
        if name in config.outputs:
            _expect(x_star_known, f"outputs: {name} needs a known x_star", errors)
            _expect(config.replications >= least,
                    f"replications: {name} needs at least {least}", errors)
    sdi, compare = config.sdi_spec, "sdi_compare" in config.outputs
    if compare and sdi is None:
        errors.append("sdi: sdi_compare needs an sdi block")
    elif sdi is not None:
        # simulate-sdi reads the block whatever the outputs, so it is checked when present
        least, start = (200 if compare else 1), sdi.get("start_index", 0)
        n_reps, dt, t_eval = sdi.get("n_reps", least), sdi.get("dt", 1e-3), sdi.get("t_eval", 1.0)
        _expect(_number(n_reps) and n_reps >= least,
                f"sdi.n_reps: must be at least {least}", errors)
        _expect(_number(dt) and dt > 0, "sdi.dt: must be > 0", errors)
        timed = _expect(_number(t_eval) and math.isfinite(t_eval),
                        "sdi.t_eval: must be a finite number", errors)
        model = attempt("sdi", config.build_sdi_model)
        if compare and _expect(_number(start) and 0 <= start <= config.iterations,
                               f"sdi.start_index: must lie in [0, {config.iterations}]", errors):
            if timed and schedule is not None:
                attempt("sdi.t_eval", lambda: shifted_index(schedule, int(start), float(t_eval),
                                                            config.iterations))
    # zero and shrinking biases take the state dimension, so only a vector can differ
    bias = attempt("bias", lambda: config.build_bias(dim or 1), kinded=True)
    region = attempt("projection", config.build_projection, kinded=True)
    noises = {key: attempt(f"noise.{key}", lambda key=key: config.build_noise(key, dim),
                           kinded=True)
              for key in config.noise_spec}
    if dim is None:
        return errors
    sizes = [(f"x0[{i}]", len(x0)) for i, x0 in enumerate(config.starts)]
    if config.x_star_override is not None:
        sizes.append(("x_star", len(config.x_star_override)))
    if bias is not None:
        sizes.append(("bias.vector", bias.dim))
    if region is not None and not isinstance(region, NoProjection):
        sizes.append(("projection", region.as_convex_set().dim))
    if noises.get("zetatilde") is not None and noises["zetatilde"].dim:
        sizes.append(("noise.zetatilde", noises["zetatilde"].dim))
    if model is not None:
        sizes.append(("sdi.A", model.dim))
    return errors + [f"{where}: has dimension {got}, the state has {dim}"
                     for where, got in sizes if got != dim]


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
