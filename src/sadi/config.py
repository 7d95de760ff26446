"""Declarative experiment configuration: strict JSON parsing, validation
that reports every problem at once, deterministic fingerprints, and the
resolution of a config into runnable engine objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
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
from .presets import (PRESET_NAMES, Preset, default_schedule, preset_by_name, sign_interval_map,
                      sign_term)
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
_CHAIN_KEYS = {"probes", "eps", "t_min", "budget"}
_OUTPUT_NAMES = {"report", "finals", "trajectory", "checkpoints", "normalized",
                 "certificate", "sdi_compare"}


@dataclass
class ExperimentConfig:
    """Validated description of one replicated experiment family, with every
    block built once by ``validate_config``.  ``sdi``, ``di`` and ``chain``
    are their blocks with the defaults applied (``sdi`` and ``chain`` are
    None when absent).  ``sdi["n_reps"]`` stays None when absent, so that
    each verb picks its count; ``sdi["eval_index"]``, the mesh index a series
    from ``start_index`` reads at ``t_eval``, is set only for sdi_compare."""

    raw: dict
    name: str
    seed: int
    iterations: int
    replications: int
    outputs: list
    checkpoints: int
    preset: Optional[Preset]   # None for an inline drift
    specs: list                # one RunSpec per start
    x_star: Optional[np.ndarray]
    sdi: Optional[dict]        # model dt t_eval n_reps start_index eval_index
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


def _vector(v) -> bool:
    return isinstance(v, list) and all(_number(c) for c in v)


def _positive(v) -> bool:
    return v > 0


def _float(block: dict, key: str, default, ok, msg: str, errors: list) -> Optional[float]:
    """block[key], or ``default``, as a float; None, with ``msg`` reported,
    unless it is a number that ``ok`` accepts."""
    v = block.get(key, default)
    return float(v) if _expect(_number(v) and ok(v), msg, errors) else None


def _schedule(spec: dict) -> StepSchedule:
    if spec.get("kind", "power_law") == "harmonic":
        return StepSchedule.harmonic(spec.get("c", 1.0))
    return StepSchedule.power_law(spec.get("c", 1.0), spec.get("alpha", 0.5))


def _bias(spec: dict, dim: int):
    kind = spec["kind"]
    if kind == "zero":
        return ZeroBias(dim)
    if kind == "gaussian_shrinking":
        return ShrinkingGaussianBias(dim, c=spec.get("c", 1.0), gamma=spec.get("gamma", 1.0))
    return ConstantBias(spec["vector"])


def _projection(spec: dict):
    kind = spec.get("kind", "none")
    if kind == "none":
        return NoProjection()
    if kind == "box":
        return BoxRegion(spec["lo"], spec["hi"])
    return BallRegion(spec["center"], spec["radius"])


def _noise(spec: dict, key: str):
    kind = spec.get("kind", "none")
    if kind == "none":
        return NoNoise(int(spec.get("dim", 0)))
    if kind == "gaussian":
        return GaussianNoise(spec["mean"], spec["cov"])
    if kind == "uniform":
        return UniformNoise(spec["lo"], spec["hi"])
    raise ConfigError([f"unknown noise kind {kind!r} for {key}"])


def _inline_drift(spec: dict, dim: int) -> Drift:
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
    if preset_name is None and raw.get("drift") is None:
        errors.append("either preset or drift must be given")
    if preset_name is not None:
        _expect(preset_name in PRESET_NAMES, f"preset: unknown name {preset_name!r}", errors)
    if raw.get("drift") is not None:
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
        elif isinstance(x0, list) and x0 and _vector(x0):
            starts = [[float(v) for v in x0]]
        elif isinstance(x0, list) and x0 and all(_vector(v) for v in x0):
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
        elif key != "zetatilde" and preset_name is not None and noise_spec[key] is not None:
            # the preset's drift decodes these samples in its data law's layout
            errors.append(f"noise.{key}: set by the preset's data law")
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

    _expect(isinstance(raw.get("preset_params", {}), dict),
            "preset_params: must be an object", errors)
    x_star = raw.get("x_star")
    _expect(x_star is None or _vector(x_star), "x_star: must be a vector", errors)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        raw=raw, name=name, seed=seed, iterations=iterations, replications=replications,
        outputs=outputs, checkpoints=checkpoints, **_resolve(raw, name, starts, outputs))


def _resolve(raw: dict, name: str, starts: list, outputs: list) -> dict:
    """Build every block of a well-formed config once, into the resolved
    fields of its ExperimentConfig.  Raises ConfigError listing the problems
    that show only now; dimensions are checked once the preset builds."""
    errors, n = [], raw["iterations"]
    sizes = [(f"x0[{i}]", len(x0)) for i, x0 in enumerate(starts)]  # (where, dimension)

    def attempt(where: str, build, kinded: bool = False):
        # kinded: the block's kind decides which keys it needs
        try:
            return build()
        except KeyError as exc:
            errors.append(f"{where}.{exc.args[0]}: required" + (" by its kind" if kinded else ""))
        except (ValueError, TypeError) as exc:  # a ConfigError carries its own list
            errors.extend(getattr(exc, "errors", [f"{where}: {exc}"]))

    preset = drift = template = None
    dim, named = raw.get("dim"), raw.get("preset") is not None
    if named:
        preset = attempt("preset_params", lambda: preset_by_name(raw["preset"],
                                                                 raw.get("preset_params", {})))
        template = getattr(preset, "spec", None)
        dim = None if template is None else template.drift.dim
    else:
        drift = attempt("drift.set_part", lambda: _inline_drift(raw["drift"], dim), kinded=True)
    # a preset that does not build has its own error, so nothing is said about it here
    failed = named and preset is None
    # the blocks the config gives, in place of the template's pieces
    noise = raw.get("noise") or {}
    blocks = [("schedule", raw.get("schedule"), _schedule),
              # zero and shrinking biases take the state dimension, so only a vector can differ
              ("bias", raw.get("bias"), lambda spec: _bias(spec, dim or 1)),
              ("projection", raw.get("projection"), _projection)]
    blocks += [(f"noise.{key}", noise[key], lambda spec, key=key: _noise(spec, key))
               for key in noise]
    overrides = {where.replace(".", "_"): attempt(where, lambda: build(spec), kinded=True)
                 for where, spec, build in blocks if spec is not None}
    if drift is not None:  # starts are required without a preset, so x0 is a placeholder
        template = RunSpec(drift=drift, schedule=overrides.get("schedule") or default_schedule(),
                           x0=np.zeros(dim), n_steps=n)
    schedule = overrides.get("schedule", getattr(template, "schedule", None))
    bias, region, additive = map(overrides.get, ("bias", "projection", "noise_zetatilde"))
    if bias is not None:
        sizes.append(("bias.vector", bias.dim))
    if region is not None and not isinstance(region, NoProjection):
        sizes.append(("projection", region.as_convex_set().dim))
    if getattr(additive, "dim", 0):
        sizes.append(("noise.zetatilde", additive.dim))

    x_star = raw.get("x_star")
    if x_star is not None:
        sizes.append(("x_star", len(x_star)))
    x_star = getattr(preset, "x_star", None) if x_star is None else x_star
    bundle = failed or getattr(preset, "stability", None) is not None
    _expect("certificate" not in outputs or bundle,
            "outputs: certificate needs a preset that declares a stability bundle", errors)
    # the rate outputs are checked here so that none fails after the run
    for output, least in (("normalized", 100), ("sdi_compare", 200)):
        if output in outputs:
            _expect(x_star is not None or failed, f"outputs: {output} needs a known x_star",
                    errors)
            _expect(raw["replications"] >= least,
                    f"replications: {output} needs at least {least}", errors)

    sdi, compare = raw.get("sdi"), "sdi_compare" in outputs
    if compare and sdi is None:
        errors.append("sdi: sdi_compare needs an sdi block")
    elif sdi is not None:
        # simulate-sdi reads the block whatever the outputs, so it is checked when present
        least, start = (200 if compare else 1), sdi.get("start_index", 0)
        n_reps = sdi.get("n_reps")  # None: each verb chooses its own count
        _expect(n_reps is None or _number(n_reps, int) and n_reps >= least,
                f"sdi.n_reps: must be at least {least}", errors)
        t_eval = _float(sdi, "t_eval", 1.0, math.isfinite, "sdi.t_eval: must be a finite number",
                        errors)
        model = attempt("sdi", lambda: SDIModel(
            A=sdi["A"], sigma=sdi["sigma"], half_identity=bool(sdi.get("half_identity", False))))
        if model is not None:
            sizes.append(("sdi.A", model.dim))
        sdi = {"model": model, "t_eval": t_eval, "n_reps": n_reps, "start_index": start,
               "dt": _float(sdi, "dt", 1e-3, _positive, "sdi.dt: must be > 0", errors),
               "eval_index": None}
        if compare and _expect(_number(start, int) and 0 <= start <= n,
                               f"sdi.start_index: must lie in [0, {n}]", errors):
            if t_eval is not None and schedule is not None:
                sdi["eval_index"] = attempt("sdi.t_eval",
                                            lambda: shifted_index(schedule, start, t_eval, n))

    di = raw.get("di") or {}
    if "x0" in di and _expect(_vector(di["x0"]), "di.x0: must be a vector", errors):
        sizes.append(("di.x0", len(di["x0"])))
    di = {"dt": _float(di, "dt", 1e-3, _positive, "di.dt: must be > 0", errors),
          "horizon": _float(di, "horizon", 10.0, lambda v: v >= 0,
                            "di.horizon: must be >= 0", errors),
          "x0": di.get("x0")}

    chain = raw.get("chain")
    if chain is not None:
        probes, budget = chain.get("probes"), chain.get("budget", 16)
        if _expect(isinstance(probes, list) and len(probes) > 0 and all(map(_vector, probes)),
                   "chain.probes: required, a non-empty list of vectors", errors):
            sizes.extend((f"chain.probes[{i}]", len(p)) for i, p in enumerate(probes))
        _expect(_number(budget, int) and budget >= 1,
                "chain.budget: must be an integer >= 1", errors)
        chain = {"probes": probes, "budget": budget,
                 "eps": _float(chain, "eps", 0.5, _positive, "chain.eps: must be > 0", errors),
                 "t_min": _float(chain, "t_min", 1.0, _positive, "chain.t_min: must be > 0",
                                 errors)}

    if dim is not None:
        errors += [f"{where}: has dimension {got}, the state has {dim}"
                   for where, got in sizes if got != dim]
    if errors:
        raise ConfigError(errors)
    fingerprint = config_fingerprint(raw)
    specs = [replace(template, x0=np.asarray(x0, dtype=float), n_steps=n, name=f"{name}[start{i}]",
                     fingerprint=fingerprint, **overrides)
             for i, x0 in enumerate(starts or [template.x0])]
    di["x0"] = template.x0 if di["x0"] is None else np.asarray(di["x0"], dtype=float)
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
