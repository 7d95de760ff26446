"""One pass of a workload in a fresh interpreter: set up, run every job
through ``sadi.cli.main``, check the outputs, and write a JSON result.

Started by run.py, one process per pass:

    python3 perfbench/worker.py --workload W --seed S --run-dir D --trace 0|1 \
        --spawned-at T --result F

``--spawned-at`` is the parent's ``time.perf_counter()`` just before the
spawn (a system-wide monotonic clock on Linux), so ``setup_s`` runs from a
fresh interpreter to ready.  Exits with SETUP_FAILED, writing no result,
when the package cannot be imported or a config cannot be set up.

The host's speed drifts by tens of percent within seconds (other tenants
share its cores and caches), and the jobs of one pass slow down together.
So a fixed reference computation is timed after setup and after every job,
in wall time and in CPU time.  Each job's wall time is scaled by REFERENCE_S
over the mean of the two reference wall times around it, and its CPU time
by REFERENCE_CPU_S over the mean of the two reference CPU times (setup, a
wall time, by the first reference wall time).  The reported ``setup_s``,
``job_s`` and ``cpu_s`` are these calibrated times; the raw ones are kept
alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, check_job

ROOT = Path(__file__).resolve().parent.parent
SETUP_FAILED = 3
# about the medians of _reference_seconds()'s wall and CPU time on a 2-vCPU Xeon VM
REFERENCE_S = 0.05
REFERENCE_CPU_S = 0.05


def _reference_seconds() -> tuple:
    """Wall and CPU time of a fixed computation that does not touch sadi,
    mixing the kinds of work the jobs do: an interpreter loop, numpy calls
    on tiny arrays, and a sort of a larger array."""
    import numpy as np

    t, c = time.perf_counter(), time.process_time()
    s = 0
    for i in range(300_000):
        s += i * i
    x = np.array([0.5, -1.5])
    for _ in range(6_000):
        x = x + 0.01 * (np.where(x > 0, -1.0, 1.0) + np.sin(x))
    np.random.default_rng(1).standard_normal(100_000).sort()
    return time.perf_counter() - t, time.process_time() - c


def _digests(out: Path, label: str) -> dict:
    return {f"{label}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()} if out.is_dir() else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    configs = {job.label: run_dir / "configs" / f"{job.label}.json" for job in workload.jobs}
    outs = {job.label: run_dir / "pass" / job.label for job in workload.jobs}

    tracer = None
    try:
        t_import = time.perf_counter()
        import sadi.cli
        import sadi.config
        import_s = time.perf_counter() - t_import
        if ROOT / "src" not in Path(sadi.__file__).resolve().parents:
            raise ImportError(f"sadi imported from {sadi.__file__}, not from this checkout")
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        # what `sadi` does before any work: parse, validate with the seed
        # override, and resolve every config of the workload
        for job in workload.jobs:
            raw = dict(sadi.cli.parse_config(configs[job.label]).raw)
            raw["seed"] = args.seed
            sadi.config.validate_config(raw).resolve()
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED
    setup_s = time.perf_counter() - args.spawned_at

    records = []
    reference = [_reference_seconds()]
    t0 = time.perf_counter()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.label
        buf = io.StringIO()
        error = None
        ru = resource.getrusage(resource.RUSAGE_SELF)
        tj = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = sadi.cli.main(job.argv(configs[job.label], outs[job.label], args.seed))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - tj
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        reference.append(_reference_seconds())
        (wall0, cpu0), (wall1, cpu1) = reference[-2:]
        cpu = (ru1.ru_utime - ru.ru_utime) + (ru1.ru_stime - ru.ru_stime)
        records.append({"label": job.label, "rc": rc, "wall_s": wall, "cpu_s": cpu,
                        "scale": REFERENCE_S / (0.5 * (wall0 + wall1)),
                        "cpu_scale": REFERENCE_CPU_S / (0.5 * (cpu0 + cpu1)),
                        "output": buf.getvalue(), "error": error})

    result = {
        "setup_s": setup_s * REFERENCE_S / reference[0][0],
        "job_s": sum(r["wall_s"] * r["scale"] for r in records),
        "cpu_s": sum(r["cpu_s"] * r["cpu_scale"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {"setup_s": setup_s, "job_s": sum(r["wall_s"] for r in records),
                "cpu_s": sum(r["cpu_s"] for r in records)},
        "reference_s": reference,
    }

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["layers"]["cli.import_s"] = import_s
        result["layers_by_job"] = {
            job.label: spans.layer_metrics([s for s in tracer.spans if s.job == job.label])
            for job in workload.jobs}
        result["untraced_names"] = tracer.missing
        spans.write_spans(tracer.spans, run_dir / "spans.tsv", t0)

    # checks run after the timed region
    for job, rec in zip(workload.jobs, records):
        fails = []
        if tracer is not None and tracer.missing:
            fails.append(f"tracer found no {tracer.missing}: their layer metrics would read 0")
        if rec["error"] is not None:
            fails.append(rec["error"])
        elif rec["rc"] != 0:
            fails.append(f"exit code {rec['rc']}: {rec['output'][-500:]}")
        else:
            try:
                fails += check_job(job, configs[job.label], outs[job.label], rec["output"], outs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails.append(f"outputs unreadable: {exc!r}")
        rec["failures"] = fails
        rec["artifacts"] = _digests(outs[job.label], job.label)
        del rec["output"], rec["error"]
    result["jobs"] = records

    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
