"""Regenerate the ROADMAP's Baseline block with one command:

    python3 perfbench/baseline.py

Runs one traced and one untraced pass of every workload (run.py --trace 1)
at the default seed 3, where the ROADMAP figures were taken, and prints
each baseline quantity next to the figure the ROADMAP recorded, flagging
those that differ by more than a third.  The table is also written
to .perfbench/results/baseline.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (quantity, ROADMAP figure, workload, job or None for the whole workload, metric)
ROWS = [
    ("lasso R=10k N=1k ensemble, s", 1.74, "ensemble_wide", "ex1_threads1",
     "engine.run_ensemble_s"),
    ("lasso replication-steps per s", 5.8e6, "ensemble_wide", "ex1_threads1",
     "engine.rep_steps_per_s"),
    ("lasso pre-draw share of run_ensemble", 0.40, "ensemble_wide", "ex1_threads1",
     "engine.predraw_share"),
    ("lasso per-replication setup, us (40% of 1.74 s / 10k)", 70.0, "ensemble_wide", "ex1_threads1",
     "engine.predraw_us_per_rep"),
    ("--threads 2 speedup (0.83-1.16)", 1.0, "ensemble_wide", None,
     "engine.thread_speedup"),
    ("rootfind certificate points", 14_640, "certify_grid", "certify_rootfind",
     "nonsmooth.points"),
    ("rootfind certificate, s", 1.7, "certify_grid", "certify_rootfind",
     "nonsmooth.certify_s"),
    ("rootfind us per point", 118.0, "certify_grid", "certify_rootfind",
     "nonsmooth.us_per_point"),
    ("rootfind LP solves", 480, "certify_grid", "certify_rootfind",
     "nonsmooth.lp_calls"),
    ("nonconv generic engine, us per step", 14.1e6 / 200_000, "long_paths", "nonconv_long",
     "engine.loop_us_per_step"),
    ("import sadi.cli, s", 0.8, "certify_grid", None, "cli.import_s"),
    ("  of which scipy, s", 0.6, "certify_grid", None, "cli.import_scipy_s"),
]


def main() -> int:
    details = {}
    for workload in sorted({row[2] for row in ROWS}):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        path = ROOT / ".perfbench" / "results" / f"{workload}-seed{DEFAULT_SEED}-trace1.json"
        details[workload] = json.loads(path.read_text(encoding="utf-8"))

    table = []
    print(f"{'quantity':56s} {'ROADMAP':>12s} {'measured':>12s} {'ratio':>7s}")
    for label, then, workload, job, metric in ROWS:
        d = details[workload]
        if job is None:
            now = d["metrics"][metric]["value"]
        else:
            layers = d["layers_by_job"][job]
            if metric == "engine.predraw_share":
                now = layers["engine.predraw_s"] / layers["engine.run_ensemble_s"]
            else:
                now = layers[metric]
        ratio = now / then
        flag = "  differs" if not 0.75 <= ratio <= 1.0 / 0.75 else ""
        print(f"{label:56s} {then:12.6g} {now:12.6g} {ratio:7.2f}{flag}")
        table.append({"quantity": label, "roadmap": then, "measured": now, "ratio": ratio})
    out = ROOT / ".perfbench" / "results" / "baseline.json"
    out.write_text(json.dumps({"seed": DEFAULT_SEED, "provenance":
                               details["certify_grid"]["provenance"], "rows": table},
                              indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
