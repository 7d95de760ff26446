"""Every public name a module of the package exports resolves, so a stale
``__all__`` entry shows here rather than to users."""

import importlib
import pkgutil

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
