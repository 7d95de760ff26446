"""The benchmark's tracer (``perfbench/spans.py``) wraps public names of
``sadi`` from outside the package.  Deleting or renaming one of them would
otherwise show only in the benchmark's own, minute-long tests.  Likewise a
stricter config schema that rejected one of the benchmark's scaled configs,
and a CLI that no longer took one of the benchmark's command lines."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look up the module's names
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_wraps():
    import sadi.sets

    spans = _load("spans")
    original = sadi.sets.SetValuedMap.__dict__["value"]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.missing == []
        assert sadi.sets.SetValuedMap.__dict__["value"] is not original
    finally:
        tracer.uninstall()
    assert sadi.sets.SetValuedMap.__dict__["value"] is original


def test_every_benchmark_config_parses(tmp_path):
    from sadi.cli import parse_config

    workloads = _load("workloads")
    for workload in workloads.WORKLOADS.values():
        dest = tmp_path / workload.name
        workloads.write_configs(workload, ROOT / "configs", dest)
        for job in workload.jobs:
            parse_config(dest / f"{job.label}.json", seed=workloads.DEFAULT_SEED)


def test_every_benchmark_command_line_parses(tmp_path):
    from sadi.cli import _parser

    workloads = _load("workloads")
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs:
            argv = job.argv(tmp_path / f"{job.label}.json", tmp_path / job.label,
                            workloads.DEFAULT_SEED)
            args = _parser().parse_args(argv)
            assert (args.command, args.threads) == (job.command, job.threads), argv
