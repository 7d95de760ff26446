"""The benchmark's own tests; not part of the package's test suite.

    python3 -m pytest -q perfbench

Takes about a minute: every workload runs two traced passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from workloads import DEFAULT_SEED, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _traced_pass(workload: str, run_dir: Path) -> dict:
    result = run_dir / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--run-dir", str(run_dir), "--trace", "1",
         "--spawned-at", repr(time.perf_counter()), "--result", str(result)],
        env=run._env(), cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    run_dir = ROOT / ".perfbench" / "test" / workload
    write_configs(WORKLOADS[workload], ROOT / "configs", run_dir / "configs")
    first, second = (_traced_pass(workload, run_dir) for _ in range(2))
    assert not [r["failures"] for r in first["jobs"] if r["failures"]]
    assert first["untraced_names"] == []
    counts = [n for n in first["layers"] if run._is_count(n)]
    assert counts
    for name in counts:
        assert isinstance(first["layers"][name], int), name
        assert first["layers"][name] == second["layers"][name], name
    for label, layers in first["layers_by_job"].items():
        for name in counts:
            assert layers[name] == second["layers_by_job"][label][name], (label, name)


def _span(name, start, end, parent=None, tid=1, job="j", info=None):
    s = spans.Span(name, parent, tid, job)
    s.start, s.end, s.info = start, end, info
    return s


def test_layer_metrics_from_spans():
    run_s = _span("runner.run_experiment", 0.0, 10.0, info={"bytes": 7})
    ens = _span("engine.run_ensemble", 1.0, 6.0, run_s,
                info={"reps": 4, "steps": 2, "threads": 1, "spec": "a", "predraw_bytes": 64})
    # a pool thread's spans hang off the ensemble span that started the pool
    draw = _span("engine.sample_block", 1.5, 2.0, ens, tid=2)
    step1 = _span("engine.set_term", 3.0, 3.5, ens, tid=2)
    step2 = _span("engine.set_term", 4.0, 4.5, ens, tid=2)
    tight = _span("rates.tightness", 5.5, 7.0, run_s)
    setup = _span("config.parse", -2.0, -1.0, job="setup")
    nested = _span("config.validate", -1.8, -1.2, setup, job="setup")
    m = spans.layer_metrics([setup, nested, run_s, ens, draw, step1, step2, tight])
    assert m["config.parse_s"] == pytest.approx(1.0)
    assert m["engine.predraw_s"] == pytest.approx(2.0)
    assert m["engine.loop_s"] == pytest.approx(3.0)
    assert m["engine.loop_us_per_step"] == pytest.approx(1.5e6)
    assert m["engine.predraw_us_per_rep"] == pytest.approx(0.5e6)
    assert m["engine.rep_steps_per_s"] == pytest.approx(8 / 5.0)
    assert m["engine.set_term_calls"] == 2
    assert m["engine.predraw_mb"] == pytest.approx(64e-6)
    # self time: 10 s minus the union of [1, 6] and [5.5, 7]
    assert m["runner.self_s"] == pytest.approx(4.0)
    assert m["runner.bytes_written"] == 7


def test_result_line_matches_benchmark_json():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "certify_grid",
                           "--seed", "5", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
