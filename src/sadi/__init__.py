"""Stochastic approximation with discontinuous dynamics and set-valued
limits: exact convex-set machinery, nonsmooth Lyapunov certification, the
recursion engine with projections, inclusion integrators, and rate
diagnostics built on the limiting stochastic differential inclusion.

``import sadi`` loads no submodule: each name below is imported from its
module at its first access (PEP 562), so a verb loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "sets": (
        "Ball", "Box", "ConvexSet", "CustomSelector", "ExtremeVertex", "LeastNorm",
        "Midpoint", "MinkowskiSum", "PiecewiseField", "Polytope", "Scaled", "SetValuedMap",
        "Singleton", "ThresholdCells", "UniformVertex", "contains", "hausdorff",
        "krasovskii", "least_norm_point", "minkowski_sum", "scale", "select", "support"),
    "nonsmooth": (
        "Interval", "PiecewiseSmoothScalar", "SmoothPiece", "StabilityCertificate",
        "certify_stability", "clarke_gradient", "set_valued_derivative", "smooth_scalar",
        "u_generalized_derivative", "u_reduced"),
    "engine": (
        "ConstantBias", "Drift", "GaussianNoise", "NoNoise", "RunSpec",
        "ShrinkingGaussianBias", "StepSchedule", "Trajectory", "UniformNoise", "ZeroBias",
        "run", "run_ensemble"),
    "inclusions": ("InclusionPath", "epsilon_chain_diagnostic", "integrate"),
    "rates": (
        "NormalizedSeries", "SDIModel", "compare_to_sdi", "ks_distance", "outer_t_check",
        "simulate_sdi", "tightness_diagnostic"),
    "presets": (
        "Preset", "RegressionLaw", "SignFilterLaw", "lasso_preset", "nonconvergence_preset",
        "pegasos_preset", "preset_by_name", "rootfind_preset", "sign_error_filter_preset"),
    "config": ("ConfigError", "ExperimentConfig", "parse_config"),
    "runner": ("AggregateReport", "run_experiment", "sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS or name == "artifacts":  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


def _deferred(namespace: dict, module: str, *names: str) -> tuple:
    """A stand-in per name of ``sadi.<module>``, for the caller to bind in
    its ``namespace`` (its globals) under the same name.  At its first call
    a stand-in imports the module, rebinds the name to the real function
    unless something else was bound there since (a monkeypatch, a tracer),
    and calls it; a call site reads the global at each call."""

    def stand_in(name):
        def call(*args, **kwargs):
            fn = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            if namespace.get(name) is call:
                namespace[name] = fn
            return fn(*args, **kwargs)

        call.__name__ = call.__qualname__ = name
        return call

    return tuple(stand_in(name) for name in names)
