"""The sadi benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs passes of one workload (see workloads.py) for ``--seconds`` seconds,
each pass in a fresh interpreter (worker.py) with BLAS pinned to one thread,
so a pass uses at most the two threads of ``--threads 2``.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count jobs (one ``sadi`` command each), and ``metrics`` holds the
medians over passes of the end-to-end metrics (``--trace 0``) or of the
per-layer metrics of traced passes (``--trace 1``), as listed in
BENCHMARK.json.  Times are calibrated to the host's momentary speed (see
worker.py); ``--trace 1`` alternates traced and untraced passes so that
``trace.overhead_frac`` compares the two.  A job fails on an exception, a
nonzero exit, a failed output check or, at the default seed, an artifact
whose sha256 differs from digests.json; ``failed / attempted`` is the
failed fraction.

Everything is written under ``.perfbench/`` in the checkout: the scaled
configs, the last traced pass's spans, and a detail file per run with the
provenance, every pass's figures and the per-job layer metrics.

    python3 perfbench/run.py --workload <name> --record-digests

records the artifact digests of one pass at the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, LAYER_MAP, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_FAILED = 3  # worker.py's exit code when the program cannot be set up
MIN_PASSES = 3
TIME_LIMIT_S = 150  # start no pass that could end past this


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _import_split(env: dict) -> dict:
    """Seconds of ``import sadi.cli`` spent importing numpy and scipy, from
    ``python -X importtime`` (which inflates both a little)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sadi.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(parts[1])))
    totals = {"numpy": 0, "scipy": 0}
    ancestors = []
    # importtime prints children before their parent: walk it backwards
    for level, name, cumulative_us in reversed(entries):
        del ancestors[level:]
        top = name.split(".")[0]
        if top in totals and top not in ancestors:
            totals[top] += cumulative_us
        ancestors.append(top)
    return {"cli.import_numpy_s": totals["numpy"] / 1e6,
            "cli.import_scipy_s": totals["scipy"] / 1e6}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.json")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    """HEAD of the checkout's own git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": workload, "seed": seed, "why": WORKLOADS[workload].why,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            **versions, "git_sha": _git_sha(), "source_digest": _source_digest(),
            "machine": platform.machine()}


def _run_pass(workload, seed, run_dir, traced, timeout, env):
    """One worker process; returns its result dict, or None if it died."""
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    shutil.rmtree(run_dir / "pass", ignore_errors=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--run-dir", str(run_dir), "--trace", str(int(traced)),
            "--result", str(result_path)]
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(run_dir / "pass", ignore_errors=True)
    if proc.returncode == SETUP_FAILED:
        sys.stderr.write(proc.stderr)
        raise SystemExit("the program could not be set up; no result")
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def _median(values, count: bool):
    return statistics.median_low(values) if count else statistics.median(values)


def _is_count(name: str) -> bool:
    return name.endswith(("_calls", ".points", ".events", ".steps", "bytes_written"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sadi benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time; BENCHMARK.json's run_seconds by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one pass at the default seed and store its artifact digests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sadi").is_dir() or not (ROOT / "configs").is_dir():
        print("no sadi sources (src/sadi) or configs/ next to the benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    seed = DEFAULT_SEED if args.record_digests else args.seed
    workload = WORKLOADS[args.workload]
    key = f"{args.workload}-seed{seed}-trace{args.trace}"
    run_dir = ROOT / ".perfbench" / "runs" / key
    shutil.rmtree(run_dir, ignore_errors=True)
    write_configs(workload, ROOT / "configs", run_dir / "configs")
    env = _env()
    expected = None
    if seed == DEFAULT_SEED and not args.record_digests:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload, {})

    prov = provenance(args.workload, seed)
    print("provenance " + json.dumps(prov))
    passes, attempted, failed, failures = [], 0, 0, []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if args.record_digests and passes:
            break
        # stop when one more pass would end further past --seconds than
        # stopping now falls short of it
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * last >= seconds:
            break
        if passes and elapsed + 1.5 * last > TIME_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 0
        t = time.perf_counter()
        res = _run_pass(args.workload, seed, run_dir, traced,
                        max(10.0, TIME_LIMIT_S + 20 - elapsed), env)
        last = time.perf_counter() - t
        attempted += len(workload.jobs)
        if res is None:
            failed += len(workload.jobs)
            failures.append({"pass": len(passes), "job": "*", "failures": ["worker died"]})
            passes.append(None)
            continue
        res["traced"] = traced
        if traced:
            res["layers"].update(_import_split(env))
        for rec in res["jobs"]:
            if expected is not None:
                got = rec["artifacts"]
                want = {k: v for k, v in expected.items() if k.split("/")[0] == rec["label"]}
                if got != want:
                    bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                    rec["failures"].append(f"artifact digests differ: {bad}")
            if rec["failures"]:
                failed += 1
                failures.append({"pass": len(passes), "job": rec["label"],
                                 "failures": rec["failures"]})
        passes.append(res)
        kind = "traced" if traced else "plain"
        jobs = " ".join(f"{r['label']}={r['wall_s']:.3f}" for r in res["jobs"])
        print(f"pass {len(passes)} ({kind}): setup_s={res['setup_s']:.4f} "
              f"job_s={res['job_s']:.4f} cpu_s={res['cpu_s']:.4f} "
              f"peak_rss_mb={res['peak_rss_mb']:.1f} raw setup_s={res['raw']['setup_s']:.4f} "
              f"job_s={res['raw']['job_s']:.4f} cpu_s={res['raw']['cpu_s']:.4f} "
              f"jobs: {jobs}")

    for f in failures:
        print(f"FAILED pass {f['pass']} job {f['job']}: {f['failures']}", file=sys.stderr)

    good = [p for p in passes if p is not None]
    if args.record_digests:
        if failed or not good:
            print("not recording digests of a failing pass", file=sys.stderr)
            return 1
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        digests[args.workload] = {k: v for r in good[0]["jobs"] for k, v in r["artifacts"].items()}
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(digests[args.workload])} digests for {args.workload}")
        return 0

    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics = {}
    by_job = {}
    if args.trace and traced and plain:
        layer = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
        job_plain = statistics.median(p["job_s"] for p in plain)
        layer["trace.overhead_frac"] = [p["job_s"] / job_plain - 1.0 for p in traced]
        for m in wanted:
            metrics[m["name"]] = {"value": _median(layer[m["name"]], _is_count(m["name"])),
                                  "unit": m["unit"]}
        for label in traced[0]["layers_by_job"]:
            by_job[label] = {name: _median([p["layers_by_job"][label][name] for p in traced],
                                           _is_count(name))
                             for name in traced[0]["layers_by_job"][label]}
    elif not args.trace and plain:
        for m in wanted:
            metrics[m["name"]] = {"value": statistics.median(p[m["name"]] for p in plain),
                                  "unit": m["unit"]}
    if not metrics:
        print("no pass completed; no result", file=sys.stderr)
        return 1

    failed_frac = failed / attempted
    detail = {"provenance": prov, "layer_map": LAYER_MAP, "metrics": metrics,
              "failed_frac": failed_frac, "layers_by_job": by_job, "failures": failures,
              "untraced_names": traced[0]["untraced_names"] if traced else [],
              "passes": [None if p is None else {k: v for k, v in p.items()
                                                 if k not in ("layers_by_job",)}
                         for p in passes]}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{key}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"failed_frac {failed}/{attempted} = {failed_frac:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
