"""Command-line interface.

Subcommands: simulate, identify, fault-recover, example, montecarlo.
The global --config and --seed are read by example and montecarlo only; the
other subcommands refuse them as input errors.
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
from .subid import DegenerateDataError, ExcitationError, pi_moesp
from .faultrec import _REPRESENTATIVES, RecoveryError
from .harness import (
    _RANK_POLICIES,
    ExperimentConfig,
    PipelineError,
    _fault_stages,
    _model_fields,
    _read_config_file,
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


def _order(text: str):
    """``identify --order``: "auto" or an integer; argparse names the flag
    in its message on any other value."""
    try:
        return text if text == "auto" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}") from None


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
    p_id.add_argument("--order", type=_order, default="auto", help="model order or 'auto'")

    p_fr = sub.add_parser("fault-recover", help="fault dimension, matrices, and signal")
    p_fr.add_argument("--u", required=True)
    p_fr.add_argument("--y", required=True)
    p_fr.add_argument("--system", required=True, help="identified-system JSON")
    p_fr.add_argument("--window", type=int, required=True, help="residual window s")
    p_fr.add_argument("--rank-policy", choices=tuple(_RANK_POLICIES), default="gap")
    p_fr.add_argument("--policy", choices=_REPRESENTATIVES, default="leading")
    p_fr.add_argument(
        "--method", choices=("structure", "annihilator"), default="structure",
        help="basis estimator: exact structure constraints or the noise-robust annihilator",
    )

    sub.add_parser("example", help="run the bundled single-system benchmark")
    sub.add_parser("montecarlo", help="run the Monte-Carlo study")
    return parser


def _load_config(args, defaults) -> ExperimentConfig:
    # the file lies over the subcommand's defaults, and the flags over both
    fields = _read_config_file(args.config) if args.config else {}
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.out is not None:
        fields["out_dir"] = args.out
    config = defaults(**fields)
    if config.out_dir is None:
        config.out_dir = str(_out_dir(args))
    return config


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    system, fault, _ = load_system_json(args.system)
    u = read_trajectory_csv(args.u)
    v = read_trajectory_csv(args.v) if args.v else None
    w = read_trajectory_csv(args.w) if args.w else None
    x0 = [float(x) for x in args.x0.split(",")] if args.x0 else None
    y, x = simulate(system, fault if v is not None else None, x0, u, v, w)
    out = _out_dir(args)
    write_trajectory_csv(out / "y.csv", y)
    write_trajectory_csv(out / "x.csv", x)
    return 0


def _cmd_identify(args) -> int:
    u = read_trajectory_csv(args.u)
    y = read_trajectory_csv(args.y)
    result = pi_moesp(u, y, s=args.window, order=args.order, demean=True)
    out = _out_dir(args)
    payload = {
        **_model_fields(result),
        "order_confident": result.order_confident,
        "window_s": result.window_s,
    }
    _write_json(out / "identified.json", payload)
    save_system_json(out / "identified_system.json", result.system, x_tilde_0=result.x_tilde_0)
    return 0


def _cmd_fault_recover(args) -> int:
    u = read_trajectory_csv(args.u)
    y = read_trajectory_csv(args.y)
    system, _, x_tilde_0 = load_system_json(args.system)
    rec, rep, recon, fields = _fault_stages(
        y, u, system, args.window, _RANK_POLICIES[args.rank_policy], args.policy,
        method=args.method, x_tilde_0=x_tilde_0,
    )
    out = _out_dir(args)
    v_path = out / "v_reconstructed.csv"
    write_trajectory_csv(v_path, recon.v)
    payload = {
        **fields,
        "F_hat": rec.F_hat.tolist(),
        "G_hat": rec.G_hat.tolist(),
        "excess_basis": rec.excess_basis,
        "representative_policy": args.policy,
        "representative_F": rep.F.tolist(),
        "representative_G": rep.G.tolist(),
        "xi0": recon.xi0.tolist(),
        "v_csv": v_path.name,
    }
    _write_json(out / "fault_recovery.json", payload)
    return 0


def _cmd_example(args) -> int:
    run_example(_load_config(args, ExperimentConfig.example_defaults))
    return 0


def _cmd_montecarlo(args) -> int:
    report = run_montecarlo(_load_config(args, ExperimentConfig.montecarlo_defaults))
    for r in report.records:
        if r.failure is not None:
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
        if args.command not in ("example", "montecarlo"):
            for flag in ("config", "seed"):
                if getattr(args, flag) is not None:
                    raise ValueError(f"{args.command} does not read --{flag}")
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
