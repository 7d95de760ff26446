"""The benchmark's tracer (``perfbench/spans.py``) wraps public names of
``sadi`` from outside the package.  Deleting or renaming one of them would
otherwise show only in the benchmark's own, minute-long tests."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_wraps():
    import sadi.sets

    spans = _load_spans()
    original = sadi.sets.SetValuedMap.__dict__["value"]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.missing == []
        assert sadi.sets.SetValuedMap.__dict__["value"] is not original
    finally:
        tracer.uninstall()
    assert sadi.sets.SetValuedMap.__dict__["value"] is original
