"""Command-line interface.

Subcommands: simulate, identify, fault-recover, example, montecarlo.
Exit codes: 0 success, 2 input/config error, 3 numerical failure (the stage
label goes to standard error), 4 a Monte-Carlo worker process died before
returning its instance (no report is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .sysgen import (
    load_system_json,
    read_trajectory_csv,
    save_system_json,
    simulate,
    write_trajectory_csv,
)
from .subid import DegenerateDataError, ExcitationError, estimate_initial_state, pi_moesp
from .faultrec import RecoveryError, recover, reconstruct_fault, select_representative
from .harness import (
    ExperimentConfig,
    PipelineError,
    _write_json,
    run_example,
    run_montecarlo,
)

_NUMERICAL_ERRORS = (
    PipelineError,
    ExcitationError,
    DegenerateDataError,
    RecoveryError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subfault",
        description=(
            "Identify an LTI system from faulty input/output data, estimate the "
            "minimal fault dimension, recover fault matrices, and reconstruct "
            "the fault signal."
        ),
    )
    parser.add_argument("--config", help="JSON file with ExperimentConfig fields")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a system from file inputs")
    p_sim.add_argument("--system", required=True, help="system JSON (A,B,C,D[,F,G])")
    p_sim.add_argument("--u", required=True, help="input trajectory CSV")
    p_sim.add_argument("--v", help="fault trajectory CSV")
    p_sim.add_argument("--w", help="noise trajectory CSV")
    p_sim.add_argument("--x0", help="comma-separated initial state (default zero)")

    p_id = sub.add_parser("identify", help="PI-MOESP identification")
    p_id.add_argument("--u", required=True)
    p_id.add_argument("--y", required=True)
    p_id.add_argument("--window", type=int, help="identification window s")
    p_id.add_argument("--order", default="auto", help="model order or 'auto'")

    p_fr = sub.add_parser("fault-recover", help="fault dimension, matrices, and signal")
    p_fr.add_argument("--u", required=True)
    p_fr.add_argument("--y", required=True)
    p_fr.add_argument("--system", required=True, help="identified-system JSON")
    p_fr.add_argument("--window", type=int, required=True, help="residual window s")
    p_fr.add_argument("--rank-policy", choices=("gap", "floor"), default="gap")
    p_fr.add_argument(
        "--policy", choices=("leading", "sparse-G", "sparse-F"), default="leading"
    )
    p_fr.add_argument(
        "--method", choices=("structure", "annihilator"), default="structure",
        help="basis estimator: exact structure constraints or the noise-robust annihilator",
    )

    sub.add_parser("example", help="run the bundled single-system benchmark")
    sub.add_parser("montecarlo", help="run the Monte-Carlo study")
    return parser


def _load_config(args, defaults) -> ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.config:
        return ExperimentConfig.from_json(args.config, **overrides)
    return defaults(**overrides)


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    system, fault = load_system_json(args.system)
    u = read_trajectory_csv(args.u)
    v = read_trajectory_csv(args.v) if args.v else None
    w = read_trajectory_csv(args.w) if args.w else None
    x0 = [float(x) for x in args.x0.split(",")] if args.x0 else None
    if v is not None and fault is None:
        raise ValueError("fault trajectory given but the system JSON carries no F,G")
    y, x = simulate(system, fault if v is not None else None, x0, u, v, w)
    out = _out_dir(args)
    write_trajectory_csv(out / "y.csv", y)
    write_trajectory_csv(out / "x.csv", x)
    if args.verbose:
        print(f"wrote {out / 'y.csv'} and {out / 'x.csv'}")
    return 0


def _cmd_identify(args) -> int:
    u = read_trajectory_csv(args.u)
    y = read_trajectory_csv(args.y)
    order = args.order if args.order == "auto" else int(args.order)
    result = pi_moesp(u, y, s=args.window, order=order)
    out = _out_dir(args)
    payload = {
        "A": result.system.A.tolist(),
        "B": result.system.B.tolist(),
        "C": result.system.C.tolist(),
        "D": result.system.D.tolist(),
        "chosen_order": result.chosen_order,
        "order_confident": result.order_confident,
        "order_singular_values": result.order_singular_values.tolist(),
        "x_tilde_0": result.x_tilde_0.tolist(),
        "window_s": result.window_s,
    }
    path = out / "identified.json"
    _write_json(path, payload)
    save_system_json(out / "identified_system.json", result.system)
    if args.verbose:
        print(f"wrote {path}")
    return 0


def _cmd_fault_recover(args) -> int:
    u = read_trajectory_csv(args.u)
    y = read_trajectory_csv(args.y)
    system, _ = load_system_json(args.system)
    policy = ExperimentConfig(rank_policy=args.rank_policy).policy()
    rec = recover(y, u, system, s=args.window, policy=policy, method=args.method)
    rep = select_representative(rec, policy=args.policy, n_v=rec.n_v_estimate)
    x_tilde_0 = estimate_initial_state(system, u, y, horizon=min(len(u), 50))
    recon = reconstruct_fault(y, u, system, rep, x_tilde_0)
    out = _out_dir(args)
    v_path = out / "v_reconstructed.csv"
    write_trajectory_csv(v_path, recon.v)
    payload = {
        "F_hat": rec.F_hat.tolist(),
        "G_hat": rec.G_hat.tolist(),
        "n_z": rec.n_z,
        "n_v": rec.n_v_estimate,
        "excess_basis": rec.excess_basis,
        "rank_s": rec.rank_s,
        "rank_s_plus_1": rec.rank_s_plus_1,
        "singular_values_s": rec.singular_values_s.tolist(),
        "singular_values_s_plus_1": rec.singular_values_s_plus_1.tolist(),
        "representative_policy": args.policy,
        "representative_F": rep.F.tolist(),
        "representative_G": rep.G.tolist(),
        "xi0": recon.xi0.tolist(),
        "replay_residual": recon.replay_residual,
        "v_csv": v_path.name,
    }
    path = out / "fault_recovery.json"
    _write_json(path, payload)
    if args.verbose:
        print(f"wrote {path}")
    return 0


def _cmd_example(args) -> int:
    config = _load_config(args, ExperimentConfig.example_defaults)
    if config.out_dir is None:
        config.out_dir = str(_out_dir(args))
    report = run_example(config)
    if args.verbose:
        print(json.dumps({"markov_relative_error": report["identified"]["markov_relative_error"],
                          "exact_n_v": report["exact_branch"]["n_v"],
                          "exact_n_z": report["exact_branch"]["n_z"]}, indent=2))
    return 0


def _cmd_montecarlo(args) -> int:
    config = _load_config(args, ExperimentConfig.montecarlo_defaults)
    if config.out_dir is None:
        config.out_dir = str(_out_dir(args))
    report = run_montecarlo(config)
    if args.verbose:
        print(json.dumps({"overall_median_pct": report.overall_median_pct}, indent=2))
    failures = [r for r in report.records if r.failure is not None]
    if failures:
        for r in failures:
            print(f"instance {r.index} (zeros={r.zero_count}): {r.failure}", file=sys.stderr)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "identify": _cmd_identify,
    "fault-recover": _cmd_fault_recover,
    "example": _cmd_example,
    "montecarlo": _cmd_montecarlo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenExecutor as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
