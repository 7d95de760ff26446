"""Experiment orchestration: replicated runs, aggregation, sweeps, and the
CSV/report artifacts.  All file output carries the config fingerprint and
seed in a header comment.  ``threads`` is accepted and has no effect.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, _deferred
from .artifacts import Artifact, column_blocks
from .config import ConfigError, ExperimentConfig, validate_config
from .engine import run, run_ensemble, tightness_indices

# the rate outputs' functions, imported at their first call: a run without
# them never loads ``sadi.rates``
normalize, tightness_diagnostic, compare_to_sdi = _deferred(
    globals(), "rates", "normalize", "tightness_diagnostic", "compare_to_sdi")

__all__ = ["StartAggregate", "AggregateReport", "run_experiment", "sweep",
           "set_by_path", "write_report_csv"]

_ERR_QS = (0.1, 0.5, 0.9)  # the report's err_q10, err_q50 and err_q90


@dataclass(repr=False, eq=False)
class StartAggregate:
    start: np.ndarray
    finals: np.ndarray            # (R, d) per-replication final iterates
    fail_steps: np.ndarray        # (R,)
    checkpoint_indices: np.ndarray
    checkpoint_mean: np.ndarray   # (K, d)
    checkpoint_err: np.ndarray    # (K,)
    x_star: Optional[np.ndarray]

    @property
    def n_failed(self) -> int:
        return int(np.sum(self.fail_steps >= 0))

    @property
    def clean(self) -> np.ndarray:
        return self.finals[self.fail_steps < 0]

    @property
    def mean_final(self) -> np.ndarray:
        if self.clean.shape[0] == 0:
            return np.full(self.finals.shape[1], math.nan)
        return self.clean.mean(axis=0)

    @property
    def std_final(self) -> np.ndarray:
        n = self.clean.shape[0]
        if n < 2:
            return np.full(self.finals.shape[1], math.nan if n == 0 else 0.0)
        return self.clean.std(axis=0, ddof=1)

    def _errs(self) -> Optional[np.ndarray]:
        """Per-replication |final - x*| of the clean replications, or None
        when there is no x* or no clean replication."""
        if self.x_star is None or self.clean.shape[0] == 0:
            return None
        return np.linalg.norm(self.clean - self.x_star, axis=1)

    def err_mean_final(self) -> float:
        """|mean final - x*|: the headline error of a replicated table row."""
        if self.x_star is None:
            return math.nan
        return float(np.linalg.norm(self.mean_final - self.x_star))

    def mean_abs_err(self) -> float:
        errs = self._errs()
        return math.nan if errs is None else float(np.mean(errs))

    def err_quantiles(self) -> np.ndarray:
        errs = self._errs()
        return np.full(len(_ERR_QS), math.nan) if errs is None else np.quantile(errs, _ERR_QS)


@dataclass(repr=False, eq=False)
class AggregateReport:
    name: str
    fingerprint: str
    seed: int
    n_reps: int
    starts: list  # of StartAggregate

    def row_dicts(self) -> list:
        rows = []
        for i, agg in enumerate(self.starts):
            row = {"start_index": i, "n_reps": self.n_reps, "n_failed": agg.n_failed}
            row.update((f"start{j}", v) for j, v in enumerate(agg.start))
            row.update((f"mean_final{j}", v) for j, v in enumerate(agg.mean_final))
            row["err_mean_final"] = agg.err_mean_final()
            row["mean_abs_err"] = agg.mean_abs_err()
            row.update((f"std{j}", v) for j, v in enumerate(agg.std_final))
            row["err_q10"], row["err_q50"], row["err_q90"] = agg.err_quantiles()
            rows.append(row)
        return rows


def _provenance(source, *extra) -> list:
    """The header pairs of the runner's artifacts, from a config or a report."""
    return [("name", source.name), ("fingerprint", source.fingerprint),
            ("seed", source.seed), ("version", __version__), *extra]


def write_report_csv(report: AggregateReport, path) -> None:
    rows = report.row_dicts()
    Artifact(list(rows[0]), (row.values() for row in rows),
             provenance=_provenance(report)).write(path)


def _write_checkpoints_csv(report: AggregateReport, path) -> None:
    d = report.starts[0].checkpoint_mean.shape[1]
    cols = ["start_index", "step"] + [f"mean{j}" for j in range(d)] + ["err_mean"]
    rows = ([i, step, *mean, err]
            for i, agg in enumerate(report.starts)
            for step, mean, err in zip(agg.checkpoint_indices, agg.checkpoint_mean,
                                       agg.checkpoint_err))
    Artifact(cols, rows, provenance=_provenance(report)).write(path)


def _write_finals_csv(report: AggregateReport, path) -> None:
    d = report.starts[0].finals.shape[1]
    cols = ["start_index", "replication"] + [f"x{j}" for j in range(d)] + ["fail_step"]
    blocks = (block for i, agg in enumerate(report.starts)
              for block in column_blocks([i] * len(agg.fail_steps), range(len(agg.fail_steps)),
                                         *agg.finals.T, agg.fail_steps))
    Artifact(cols, blocks, provenance=_provenance(report),
             template=",".join(["%d", "%d", *["%.17g"] * d, "%d"]) + "\n").write(path)


def run_experiment(config: ExperimentConfig, out_dir=None, threads: int = 1) -> AggregateReport:
    """Execute every start of a config with replication substreams, write the
    requested artifacts, and return the aggregate report.

    Replication blow-ups are recorded per replication and excluded from the
    statistics; they never abort the experiment.
    """
    preset, specs, x_star = config.resolve()
    n = config.iterations
    # the tightness diagnostic reads the report's own checkpoints
    ck_idx = tightness_indices(0, n, config.checkpoints)
    sdi, sdi_idx = config.sdi, []
    if "sdi_compare" in config.outputs:
        # its start index, and the index a series from there reads at t_eval
        sdi_idx = [sdi["start_index"], sdi["eval_index"]]
    run_idx = np.union1d(ck_idx, np.asarray(sdi_idx, dtype=int))
    cols = np.searchsorted(run_idx, ck_idx)
    aggregates = []
    for i, spec in enumerate(specs):
        result = run_ensemble(spec, config.seed, config.replications,
                              checkpoints=run_idx, threads=threads)
        if i == 0:
            first = result
        clean = result.checkpoint_states[np.ix_(result.fail_steps < 0, cols)]
        ck_mean = clean.mean(axis=0) if clean.shape[0] else np.full(clean.shape[1:], math.nan)
        if x_star is not None:
            ck_err = np.linalg.norm(ck_mean - x_star, axis=1)
        else:
            ck_err = np.full(ck_mean.shape[0], math.nan)
        aggregates.append(StartAggregate(
            start=spec.x0, finals=result.finals, fail_steps=result.fail_steps,
            checkpoint_indices=ck_idx, checkpoint_mean=ck_mean, checkpoint_err=ck_err,
            x_star=x_star))

    report = AggregateReport(name=config.name, fingerprint=config.fingerprint,
                             seed=config.seed, n_reps=config.replications,
                             starts=aggregates)

    if out_dir is not None:
        out = Path(out_dir)
        if "report" in config.outputs:
            write_report_csv(report, out / "report.csv")
        if "checkpoints" in config.outputs:
            _write_checkpoints_csv(report, out / "checkpoints.csv")
        if "finals" in config.outputs:
            _write_finals_csv(report, out / "finals.csv")
        if "trajectory" in config.outputs:
            for i, spec in enumerate(specs):
                run(spec, config.seed).to_csv(out / f"trajectory_start{i}.csv")
        if "certificate" in config.outputs:
            preset.stability.certify(name=config.name).write(out / "certificate.txt")
        if "normalized" in config.outputs:
            u = normalize(first.checkpoint_states[:, cols], ck_idx, specs[0].schedule, x_star)
            rep = tightness_diagnostic(ck_idx, u, kappa=0.05)
            rep.artifact(_provenance(config)).write(out / "tightness.txt")
        if "sdi_compare" in config.outputs:
            u = normalize(first.checkpoint_states[:, np.searchsorted(run_idx, sdi_idx)], sdi_idx,
                          specs[0].schedule, x_star)
            ks = compare_to_sdi(u[:, 0], u[:, 1], sdi["model"], t_eval=sdi["t_eval"],
                                n_sdi_reps=sdi["compare_reps"], seed=config.seed, dt=sdi["dt"])
            Artifact(None, [[str(ks)]], provenance=_provenance(config)).write(
                out / "sdi_compare.txt")
    return report


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------


def set_by_path(raw: dict, path: str, value):
    """Set a numeric config field addressed by a dotted path (list indices
    are numeric segments); raises ConfigError on a path to anything else."""
    *parents, leaf = path.split(".")

    def entry(node, segment):
        # a key of an object, or an index in range of a list
        if isinstance(node, dict) and segment in node:
            return segment
        if isinstance(node, list) and segment.isdecimal() and int(segment) < len(node):
            return int(segment)
        raise ConfigError([f"sweep path {path!r}: no entry {segment!r}"])

    node = raw
    for segment in parents:
        node = node[entry(node, segment)]
    key = entry(node, leaf)
    if not isinstance(node[key], (int, float)) or isinstance(node[key], bool):
        raise ConfigError([f"sweep path {path!r} does not address a number"])
    node[key] = value


def sweep(config: ExperimentConfig, param_path: str, values: Sequence[float],
          out_dir=None, threads: int = 1) -> list:
    """One aggregate report per swept value, plus a combined sweep table."""
    reports = []
    for v in values:
        raw = copy.deepcopy(config.raw)
        set_by_path(raw, param_path, v)
        sub = validate_config(raw)
        reports.append((v, run_experiment(sub, out_dir=None, threads=threads)))
    if out_dir is not None:
        first = reports[0][1].row_dicts()[0]
        rows = ([v, *row.values()] for v, rep in reports for row in rep.row_dicts())
        header = _provenance(config, ("param", param_path))
        Artifact(["value", *first], rows, provenance=header).write(Path(out_dir) / "sweep.csv")
    return reports
