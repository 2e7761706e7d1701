"""Benchmark of the subfault pipeline: one command per workload run.

    python3 perfbench/run.py --workload {example,montecarlo,long-record} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Each measurement runs in a fresh worker process
(``worker.py``) with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics: set-up time (the median of
several fresh processes, from process start to the ready line), the median
pass wall time, samples per second and the peak resident memory of the
workload process. ``--trace 1`` runs passes that alternate traced and
untraced in one process and prints the per-layer metrics from the traced
passes, the tracing overhead and, for ``example``, a sweep over record
length T. Both modes check every pass's outputs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Run
artifacts (spans, worker logs, the ledger) go to ``.perfbench/`` in the
checkout. Exit code 0 means the run completed; any other code means it did
not, and no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, READY, WORKLOADS, error_pct_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# fresh processes that only set up, on top of the measuring process itself
SETUP_PROBES = 6
# every run ends within this many seconds or is stopped
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def start_worker(mode: str, args, run_dir: Path, tag: str, deadline: float):
    """Run one worker; returns (seconds from start to its ready line, result).

    The worker is killed when the deadline passes.
    """
    result_path = run_dir / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
        "--result", str(result_path),
    ]
    with open(run_dir / f"{tag}.log", "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != READY or code != 0:
        tail = (run_dir / f"{tag}.log").read_text(encoding="utf-8")[-2000:]
        raise RunFailed(f"worker {tag} exited with code {code}\n{tail}")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(result_path.read_text(encoding="utf-8"))


def tail_percentile(values):
    """Highest whole percentile (nearest rank) with at least ten samples
    above it, as (percentile, value), or None when there is none."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        value = ordered[max(math.ceil(q * n / 100) - 1, 0)]
        if sum(x > value for x in ordered) >= 10:
            return q, value
    return None


def end_to_end(workload, result, setup_samples) -> dict:
    wall_s = statistics.median(p["wall_s"] for p in result["passes"])
    samples = workload.T * workload.instances
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "samples_per_s": {"value": samples / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def print_report(args, result, metrics, setup_samples) -> None:
    env = result["env"]
    print(
        f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"blas={env['blas']['name']} {env['blas']['version']} nproc={env['nproc']} "
        f"seed={env['seed']}"
    )
    print(f"env blas_config={env['blas']['openblas configuration']}")
    print("env threads " + " ".join(f"{k}={v}" for k, v in env["thread_env"].items()))
    workload = WORKLOADS[args.workload]
    walls = [p["wall_s"] for p in result["passes"]]
    print(
        f"workload {args.workload}: T={workload.T} x {workload.instances} instance(s), "
        f"{len(walls)} passes, warm-up {result['warmup_s']:.3f} s"
    )
    print("pass wall_s " + " ".join(f"{w:.4f}" for w in walls))
    if setup_samples:
        print("setup samples s " + " ".join(f"{s:.4f}" for s in setup_samples))
    tail = tail_percentile(walls)
    if tail is None:
        print(f"wall_s tail: no percentile has ten passes beyond it (n={len(walls)})")
    else:
        print(f"wall_s tail: p{tail[0]} = {tail[1]:.4f} s (n={len(walls)})")
    print(
        f"fail_ratio = {result['failed']}/{result['attempted']} "
        f"(program-recorded failures per pass: {result['recorded_failures']}, "
        f"passes ending with an error exit: {result['error_exits']}, "
        f"check mismatches: {len(result['mismatches'])})"
    )
    summary = result["summary"]
    if summary is not None:
        print(f"error_pct_median = {error_pct_median(summary)!r} %")
        if "identified_branch" in summary:
            print(f"replay_residual = {summary['identified_branch']['replay_residual']!r}")
    for message in result["mismatches"]:
        print(f"check MISMATCH: {message}")
    print(f"check {'passed' if result['correct'] else 'FAILED'}")
    for row in result.get("sweep", []):
        top = ", ".join(f"{k}={v:.4f}" for k, v in row["self_s"].items() if v >= 1e-3)
        print(f"sweep T={row['T']} wall_s={row['wall_s']:.4f} self_s: {top}")
        print(f"sweep T={row['T']} reconstruct_fault: {row['reconstruct_fault']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="subfault pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subfault" / "__init__.py").is_file():
        print(f"perfbench: no subfault package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_samples = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                setup_samples.append(start_worker("setup", args, run_dir, f"setup-{k}", deadline)[0])
        ready_s, result = start_worker("measure", args, run_dir, "measure", deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = result["layers"]
    else:
        setup_samples.append(ready_s)
        metrics = end_to_end(WORKLOADS[args.workload], result, setup_samples)

    print_report(args, result, metrics, setup_samples)
    ledger = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "metrics": metrics,
        **{k: v for k, v in result.items() if k != "layers"},
    }
    (run_dir / "ledger.json").write_text(json.dumps(ledger, indent=1), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
