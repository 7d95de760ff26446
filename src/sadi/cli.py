"""Command-line entry point: config-driven experiments, sweeps, stability
certification, and the deterministic/stochastic inclusion simulators.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .artifacts import Artifact, column_blocks
from .config import ConfigError, parse_config
from .engine import SimulationBlowup
from .inclusions import epsilon_chain_diagnostic, integrate
from .rates import simulate_sdi
from .runner import run_experiment, sweep

# the exit code of a simulator whose path blew up; a config error exits 2
EXIT_BLOWUP = 3


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted, no effect; results never depended on it")
    parser.add_argument("--out-dir", default="out", help="artifact directory")


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
    preset = config.preset
    if preset is None or preset.stability is None:
        print("config has no preset stability bundle to certify", file=sys.stderr)
        return 2
    cert = preset.stability.certify(name=config.name)
    cert.write(Path(args.out_dir) / "certificate.txt")
    print(cert.summary())
    return 0 if cert.passed else 1


def _cmd_simulate_di(args) -> int:
    config = _load(args)
    preset, di, chain = config.preset, config.di, config.chain
    if preset is None:
        print("simulate-di requires a preset config", file=sys.stderr)
        return 2
    drift = preset.spec.drift
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
        print("simulate-sdi requires an sdi block in the config", file=sys.stderr)
        return 2
    model, horizon = sdi["model"], sdi["t_eval"]
    n_reps = 100 if sdi["n_reps"] is None else sdi["n_reps"]
    finals = simulate_sdi(model, np.zeros(model.dim), dt=sdi["dt"], horizon=horizon,
                          seed=config.seed, n_reps=n_reps, record_paths=False)
    Artifact([f"u{j}" for j in range(model.dim)], column_blocks(*finals.T),
             provenance=_provenance(config),
             template=",".join(["%.17g"] * model.dim) + "\n").write(
                 Path(args.out_dir) / "sdi_finals.csv")
    print(f"simulated {n_reps} paths to t={horizon}; "
          f"mean |u| = {float(np.mean(np.linalg.norm(finals, axis=1))):.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sadi",
        description="stochastic approximation with set-valued dynamics: "
                    "experiments, certification, and inclusion simulators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replicated experiment")
    _common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one scalar config field")
    _common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. bias.gamma")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_cert = sub.add_parser("certify", help="grid-certify the preset stability bundle")
    _common(p_cert)
    p_cert.set_defaults(fn=_cmd_certify)

    p_di = sub.add_parser("simulate-di", help="integrate the preset limit inclusion")
    _common(p_di)
    p_di.set_defaults(fn=_cmd_simulate_di)

    p_sdi = sub.add_parser("simulate-sdi", help="simulate the normalized limit inclusion")
    _common(p_sdi)
    p_sdi.set_defaults(fn=_cmd_simulate_sdi)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SimulationBlowup as exc:
        print(f"sadi {args.command}: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
