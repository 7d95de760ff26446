"""Every public name a module of the package exports resolves, so a stale
``__all__`` entry shows here rather than to users; and the names that
``sadi`` and its entry points resolve at first access resolve to the
objects they stand for."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sadi

MODULES = sorted(m.name for m in pkgutil.iter_modules(sadi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    module = importlib.import_module(f"sadi.{name}")
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from sadi.{name} import *", namespace)
    if exported is not None:
        assert set(namespace) - {"__builtins__"} == set(exported)


@pytest.mark.parametrize("name, module", [
    ("ThresholdCells", "sets"),
    ("PiecewiseField", "sets"),
    ("PiecewiseSmoothScalar", "nonsmooth"),
    ("SmoothPiece", "nonsmooth"),
])
def test_the_package_exports_the_piecewise_declarations(name, module):
    assert getattr(sadi, name) is getattr(importlib.import_module(f"sadi.{module}"), name)


# every name the package re-exports, with the module it comes from, as it was
# when ``sadi`` began to resolve them at first access
PINNED = {
    **dict.fromkeys([
        "Ball", "Box", "ConvexSet", "CustomSelector", "ExtremeVertex", "LeastNorm",
        "Midpoint", "MinkowskiSum", "PiecewiseField", "Polytope", "Scaled", "SetValuedMap",
        "Singleton", "ThresholdCells", "UniformVertex", "contains", "hausdorff", "krasovskii",
        "least_norm_point", "minkowski_sum", "scale", "select", "support"], "sets"),
    **dict.fromkeys([
        "Interval", "PiecewiseSmoothScalar", "SmoothPiece", "StabilityCertificate",
        "certify_stability", "clarke_gradient", "set_valued_derivative", "smooth_scalar",
        "u_generalized_derivative", "u_reduced"], "nonsmooth"),
    **dict.fromkeys([
        "ConstantBias", "Drift", "GaussianNoise", "NoNoise", "RunSpec", "ShrinkingGaussianBias",
        "StepSchedule", "Trajectory", "UniformNoise", "ZeroBias", "run", "run_ensemble"],
        "engine"),
    **dict.fromkeys(["InclusionPath", "epsilon_chain_diagnostic", "integrate"], "inclusions"),
    **dict.fromkeys([
        "NormalizedSeries", "SDIModel", "compare_to_sdi", "ks_distance", "outer_t_check",
        "simulate_sdi", "tightness_diagnostic"], "rates"),
    **dict.fromkeys([
        "Preset", "RegressionLaw", "SignFilterLaw", "lasso_preset", "nonconvergence_preset",
        "pegasos_preset", "preset_by_name", "rootfind_preset", "sign_error_filter_preset"],
        "presets"),
    **dict.fromkeys(["ConfigError", "ExperimentConfig", "parse_config"], "config"),
    **dict.fromkeys(["AggregateReport", "run_experiment", "sweep"], "runner"),
}


def test_the_export_map_is_the_pinned_list():
    assert sadi._MODULE_OF == PINNED
    assert sorted(sadi.__all__) == sorted(PINNED)
    namespace = {}
    exec("from sadi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_export_resolves_to_its_modules_object(name):
    module = importlib.import_module(f"sadi.{PINNED[name]}")
    assert name in dir(sadi)
    assert getattr(sadi, name) is getattr(module, name)
    namespace = {}
    exec(f"from sadi import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'sadi' has no attribute 'no_such_name'"):
        sadi.no_such_name
    with pytest.raises(ImportError):
        exec("from sadi import no_such_name", {})
    assert "no_such_name" not in dir(sadi)


def test_a_stand_in_rebinds_its_name_at_first_call_unless_it_was_replaced():
    from sadi.rates import ks_distance

    a, b = np.array([0.0, 1.0]), np.array([0.5, 2.0])
    namespace = {}
    namespace["ks_distance"], = sadi._deferred(namespace, "rates", "ks_distance")
    stand_in = namespace["ks_distance"]
    assert stand_in is not ks_distance and stand_in.__name__ == "ks_distance"
    assert stand_in(a, b) == ks_distance(a, b)
    assert namespace["ks_distance"] is ks_distance
    # a replacement bound before the first call stays bound, and is what a
    # call site that reads the name calls
    namespace = {}
    stand_in, = sadi._deferred(namespace, "rates", "ks_distance")
    namespace["ks_distance"] = replacement = lambda *args: -1.0
    assert stand_in(a, b) == ks_distance(a, b)
    assert namespace["ks_distance"] is replacement


_PATCHED_BEFORE_FIRST_USE = """
import sys, types
import sadi.cli, sadi.runner

calls = []

def fake_run_experiment(config, out_dir=None, threads=1):
    calls.append("run_experiment")
    return types.SimpleNamespace(starts=[], n_reps=0)

sadi.cli.run_experiment = fake_run_experiment
assert sadi.cli.main(["run", sys.argv[1], "--out-dir", sys.argv[3]]) == 0
assert calls == ["run_experiment"]

class Normalized(Exception):
    pass

def fake_normalize(*args):
    calls.append("normalize")
    raise Normalized

sadi.runner.normalize = fake_normalize
config = sadi.cli.parse_config(sys.argv[2])
try:
    sadi.runner.run_experiment(config, out_dir=sys.argv[3])
except Normalized:
    pass
assert calls == ["run_experiment", "normalize"]
# the rate function's stand-in never ran, so sadi.rates never loaded
assert "sadi.rates" not in sys.modules
"""


def test_an_entry_point_patched_before_its_first_use_is_the_one_called(tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    raw = json.loads((configs / "ex1.json").read_text(encoding="utf-8"))
    raw.update(iterations=20, replications=100, outputs=["normalized"])
    normalized = tmp_path / "normalized.json"
    normalized.write_text(json.dumps(raw), encoding="utf-8")
    src = str(Path(sadi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", _PATCHED_BEFORE_FIRST_USE, str(configs / "ex1.json"),
                    str(normalized), str(tmp_path / "out")],
                   env=env, timeout=60, check=True)
