"""Command-line entry point: config-driven experiments, sweeps, stability
certification, and the deterministic/stochastic inclusion simulators.
Every verb runs on the config as resolved; one that lacks what the verb
needs raises ``ConfigError``, which ``main`` alone reports, with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import _deferred
from .artifacts import Artifact, column_blocks
from .config import ConfigError, parse_config
from .engine import SimulationBlowup

# each verb's entry point, imported at its first call, so a verb loads only
# the modules it runs
run_experiment, sweep = _deferred(globals(), "runner", "run_experiment", "sweep")
integrate, epsilon_chain_diagnostic = _deferred(
    globals(), "inclusions", "integrate", "epsilon_chain_diagnostic")
simulate_sdi, = _deferred(globals(), "rates", "simulate_sdi")

# the exit code of a simulator whose path blew up, and of any other value
# that overflows the float range; a config error exits 2
EXIT_BLOWUP = 3


def _provenance(config) -> list:  # the header pairs of the simulators' artifacts
    return [("fingerprint", config.fingerprint), ("seed", config.seed)]


def _load(args):
    return parse_config(args.config, seed=args.seed)


def _cmd_run(args) -> int:
    config = _load(args)
    report = run_experiment(config, out_dir=args.out_dir, threads=args.threads)
    for i, agg in enumerate(report.starts):
        mean = ", ".join(f"{v:.6g}" for v in agg.mean_final)
        err = agg.err_mean_final()
        err_txt = f" err={err:.6g}" if err == err else ""
        print(f"{config.name} start{i}: mean_final=({mean}){err_txt} "
              f"failed={agg.n_failed}/{report.n_reps}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ConfigError([f"--values: not a list of numbers: {args.values!r}"]) from None
    reports = sweep(config, args.param, values, out_dir=args.out_dir, threads=args.threads)
    for v, rep in reports:
        agg = rep.starts[0]
        print(f"{args.param}={v}: err_mean_final={agg.err_mean_final():.6g}")
    return 0


def _cmd_certify(args) -> int:
    config = _load(args)
    stability = getattr(config.preset, "stability", None)
    if stability is None:
        raise ConfigError(["certify: needs a preset that declares a stability bundle"])
    cert = stability.certify(name=config.name)
    cert.write(Path(args.out_dir) / "certificate.txt")
    print(cert.summary())
    return 0 if cert.passed else 1


def _cmd_simulate_di(args) -> int:
    config = _load(args)
    di, chain = config.di, config.chain
    drift = config.specs[0].drift  # the resolved drift, which every start shares
    smooth = drift.mean_field if drift.smooth_mean is not None else None
    path = integrate(drift.set_map, smooth, di["x0"], di["dt"], di["horizon"])
    out = Path(args.out_dir)
    path.to_csv(out / "inclusion_path.csv", _provenance(config))
    end = ", ".join(f"{v:.6g}" for v in path.states[-1])
    print(f"integrated {path.n_steps} steps; final state ({end})")
    if chain is not None:
        reports = epsilon_chain_diagnostic(
            drift.set_map, smooth, chain["probes"], eps=chain["eps"],
            t_min=chain["t_min"], dt=di["dt"], budget=chain["budget"])
        lines = [str(r) for r in reports]
        Artifact(None, ([line] for line in lines),
                 provenance=_provenance(config)).write(out / "chain_report.txt")
        for line in lines:
            print(line)
    return 0


def _cmd_simulate_sdi(args) -> int:
    config = _load(args)
    sdi = config.sdi
    if sdi is None:
        raise ConfigError(["sdi: simulate-sdi needs an sdi block"])
    model, horizon = sdi["model"], sdi["t_eval"]
    finals = simulate_sdi(model, np.zeros(model.dim), dt=sdi["dt"], horizon=horizon,
                          seed=config.seed, n_reps=sdi["n_reps"])
    Artifact([f"u{j}" for j in range(model.dim)], column_blocks(*finals.T),
             provenance=_provenance(config),
             template=",".join(["%.17g"] * model.dim) + "\n").write(
                 Path(args.out_dir) / "sdi_finals.csv")
    print(f"simulated {sdi['n_reps']} paths to t={horizon}; "
          f"mean |u| = {float(np.mean(np.linalg.norm(finals, axis=1))):.6g}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sadi",
        description="stochastic approximation with set-valued dynamics: "
                    "experiments, certification, and inclusion simulators")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, fn, text in (
            ("run", _cmd_run, "run a replicated experiment"),
            ("sweep", _cmd_sweep, "sweep one scalar config field"),
            ("certify", _cmd_certify, "grid-certify the preset stability bundle"),
            ("simulate-di", _cmd_simulate_di, "integrate the limit inclusion"),
            ("simulate-sdi", _cmd_simulate_sdi, "simulate the normalized limit inclusion")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted, no effect; results never depended on it")
        p.add_argument("--out-dir", default="out", help="artifact directory")
        p.set_defaults(fn=fn)
    sweep_args = sub.choices["sweep"]
    sweep_args.add_argument("--param", required=True, help="dotted path, e.g. bias.gamma")
    sweep_args.add_argument("--values", required=True, help="comma-separated values")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the simulators and the certifier turn overflow warnings off where
        # they handle non-finite values themselves; anywhere else, in a
        # statistic of huge but finite states say, an overflow stops the verb
        with np.errstate(over="raise"):
            return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SimulationBlowup as exc:
        print(f"sadi {args.command}: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except FloatingPointError as exc:
        print(f"sadi {args.command}: a value overflows the float range: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
