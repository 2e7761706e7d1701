"""One workload process of the benchmark.

``run.py`` starts this file as a fresh process per measurement, so every
workload runs in its own interpreter with BLAS pinned to one thread. The
thread variables are set first thing in ``main``; numpy is first imported
later, with the package.

Modes:

- ``setup``: import the package and prepare the inputs, print the ready
  line and exit. ``run.py`` times process start to the ready line.
- ``measure``: the same set-up, one small warm-up run, then timed passes of
  the workload through ``subfault.cli.main`` for ``--seconds`` (at least two
  passes, so reports can be compared). With ``--trace 1`` the passes
  alternate traced and untraced, and the example workload adds a sweep
  over T. Each pass's outputs are checked; the result goes to ``--result``.
- ``reference``: run one pass of every workload on the default seed and
  write ``reference.json`` next to this file. Run it only on a commit whose
  outputs are the accepted ones.

Usage: ``python3 perfbench/worker.py reference`` from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    READY,
    THREAD_VARS,
    WORKLOADS,
    check_invariants,
    compare_to_reference,
    digest_outputs,
    failed_instances,
    summarize,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# record lengths of the traced sweep over the example pipeline; the dense
# reconstruct_fault is left out above RECONSTRUCT_MAX_T
SWEEP_T = (250, 1000, 4000)
RECONSTRUCT_MAX_T = 1000


def import_package():
    """Import ``subfault`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "subfault" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no subfault package under {src}")
    sys.path.insert(0, str(src))
    import subfault.cli

    if Path(subfault.cli.__file__).resolve().parent != (src / "subfault").resolve():
        raise SystemExit(f"perfbench: subfault imported from {subfault.cli.__file__}")
    return subfault.cli


def environment(seed: int) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in keep},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in keep},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path


def run_pass(cli, workload, seed, config_path, run_dir):
    """One timed pass; returns (wall seconds, exit code, summary, digest).

    Every pass writes to the same, freshly emptied directory: the reports
    echo their output path, so a new path per pass would change their bytes.
    """
    out = Path(run_dir) / "pass-out"
    shutil.rmtree(out, ignore_errors=True)
    try:
        argv = workload.argv(out, seed, config_path)
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        if code != 0:
            return wall, code, None, None
        return wall, code, summarize(workload, out), digest_outputs(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check(workload, seed: int, summary, passes) -> list:
    """Mismatches as (instance index, or None for the whole report, message).

    A pass the program ends with an error exit is a failure the program
    reports, counted by count_failures; it is a mismatch only where the
    reference has a report, or when the passes of one run disagree.
    """
    bad = []
    if len({(p["exit_code"], p["digest"]) for p in passes}) > 1:
        bad.append((None, "passes of one run differ in exit code or canonical outputs"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)
    on_reference_seed = reference is not None and seed == reference["seed"]
    if summary is None:
        if on_reference_seed:
            bad.append((None, "no pass produced a report; the reference has one"))
        return bad
    bad += check_invariants(workload, summary)
    if on_reference_seed:
        bad += compare_to_reference(summary, reference["summary"])
    return bad


def count_failures(workload, summary, passes, mismatches) -> int:
    """Failed instances of the run: recorded failures plus mismatches.

    The passes of a run repeat the same inputs to time them, so each
    instance counts once per run, not once per pass; the count then depends
    on the seed and the code, not on how many passes fit in the time. A
    pass that ends with an error exit, or any mismatch that concerns the
    whole report (passes that disagree among them), fails every instance;
    otherwise an instance counts once whether the program recorded it as
    failed, the checks flagged it, or both.
    """
    whole = any(p["exit_code"] for p in passes) or any(i is None for i, _ in mismatches)
    if summary is None or whole:
        return workload.instances
    return len(failed_instances(summary) | {i for i, _ in mismatches})


def example_pipeline(seed: int, t: int, reconstruct: bool) -> None:
    """The example's stages at record length t, called through module
    attributes so that installed span wrappers see every call."""
    import numpy as np
    from subfault import faultrec, harness, subid, sysgen

    config = harness.ExperimentConfig.example_defaults(T=t, seed=seed)
    system, fault = harness.demo_system()
    x0 = np.random.default_rng([seed, 4]).standard_normal(system.n_x)
    u = sysgen.white_input(system.n_u, t, seed=[seed, 1])
    v = sysgen.fault_signal("v1", t)
    y, _ = sysgen.simulate(system, fault, x0, u, v)
    ident = subid.pi_moesp(u, y, order="auto", order_hint=system.n_x, demean=True)
    if not ident.order_confident or ident.chosen_order != system.n_x:
        ident = subid.pi_moesp(u, y, order=system.n_x, demean=True)
    for model, x_tilde_0 in ((system, None), (ident.system, ident.x_tilde_0)):
        rec = faultrec.recover(y, u, model, s=config.s, policy=config.policy())
        rep = faultrec.select_representative(rec, policy="sparse-G", n_v=rec.n_v_estimate)
        if reconstruct:
            if x_tilde_0 is None:
                x_tilde_0 = subid.estimate_initial_state(model, u, y, horizon=min(t, 50))
            faultrec.reconstruct_fault(y, u, model, rep, x_tilde_0)


def sweep(tracer, seed: int) -> list:
    """Per-stage self times of the example pipeline at each sweep length."""
    from spans import per_pass_stats
    from subfault import harness

    system, fault = harness.demo_system()
    walls = {}
    for t in SWEEP_T:
        tracer.pass_id = f"sweep-T{t}"
        tracer.install()
        try:
            start = time.perf_counter()
            example_pipeline(seed, t, reconstruct=t <= RECONSTRUCT_MAX_T)
            walls[t] = time.perf_counter() - start
        finally:
            tracer.uninstall()
    stats = per_pass_stats(tracer.spans)
    rows = []
    for t in SWEEP_T:
        by_name = stats[f"sweep-T{t}"].by_name
        if t <= RECONSTRUCT_MAX_T:
            note = "run"
        else:
            dense_mb = t * system.n_y * (system.n_x + t * fault.n_v) * 8 / 1e6
            note = (
                f"not run above T={RECONSTRUCT_MAX_T}: its dense [O_T T^f_T] would hold "
                f"{dense_mb:.0f} MB, filled in O(T^2) Python steps and solved by dense lstsq"
            )
        rows.append(
            {
                "T": t,
                "wall_s": walls[t],
                "reconstruct_fault": note,
                "self_s": {
                    name: e["self_s"]
                    for name, e in sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"])
                },
                "calls": {name: e["calls"] for name, e in by_name.items()},
            }
        )
    return rows


def trace_summary(tracer, passes, instances: int) -> dict:
    """Per-layer metrics of the traced passes and the tracing overhead."""
    from layers import layer_metrics
    from spans import per_pass_stats

    stats = per_pass_stats(tracer.spans)
    traced = [(i, p) for i, p in enumerate(passes) if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    per_pass = [stats[i] for i, _ in traced]
    metrics = layer_metrics(per_pass, instances)
    # each traced pass is paired with the untraced pass that follows it
    pairs = [(passes[i]["wall_s"], passes[i + 1]["wall_s"]) for i, _ in traced if i + 1 < len(passes)]
    metrics["trace.wall_s"] = {"value": statistics.median(p["wall_s"] for _, p in traced), "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": statistics.median(untraced), "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(t / u - 1.0 for t, u in pairs),
        "unit": "ratio",
    }
    metrics["trace.span_coverage"] = {
        "value": statistics.median(stats[i].root_s / p["wall_s"] for i, p in traced),
        "unit": "ratio",
    }
    metrics["trace.spans"] = {"value": statistics.median(s.spans for s in per_pass), "unit": "count"}
    return metrics


def measure(args) -> None:
    cli = import_package()
    from layers import BYTE_COUNTERS
    from spans import Tracer

    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    config_path = None
    if workload.config is not None:
        config_path = _write_config(run_dir / f"{workload.name}.json", workload.config)
    warmup_path = _write_config(run_dir / f"{workload.name}-warmup.json", workload.warmup)
    print(READY, flush=True)
    if args.mode == "setup":
        return

    start = time.perf_counter()
    run_pass(cli, workload, args.seed, warmup_path, run_dir)
    warmup_s = time.perf_counter() - start

    tracer = Tracer(BYTE_COUNTERS) if args.trace else None
    passes = []
    summary = None
    min_passes = 4 if tracer else 2
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        try:
            wall, code, pass_summary, digest = run_pass(
                cli, workload, args.seed, config_path, run_dir
            )
        finally:
            if traced:
                tracer.uninstall()
        summary = summary or pass_summary
        passes.append({"wall_s": wall, "exit_code": code, "digest": digest, "traced": traced})

    mismatches = check(workload, args.seed, summary, passes)
    result = {
        "env": environment(args.seed),
        "warmup_s": warmup_s,
        "passes": passes,
        "summary": summary,
        "mismatches": [m for _, m in mismatches],
        "attempted": workload.instances,
        "failed": count_failures(workload, summary, passes, mismatches),
        "recorded_failures": 0 if summary is None else len(failed_instances(summary)),
        "error_exits": sum(1 for p in passes if p["exit_code"]),
        "correct": not mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = trace_summary(tracer, passes, workload.instances)
        if workload.name == "example":
            result["sweep"] = sweep(tracer, args.seed)
        tracer.write_jsonl(run_dir / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")


def record_reference() -> None:
    cli = import_package()
    reference = {}
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in WORKLOADS.values():
            config_path = None
            if workload.config is not None:
                config_path = _write_config(Path(tmp) / "config.json", workload.config)
            _, code, summary, _ = run_pass(cli, workload, DEFAULT_SEED, config_path, tmp)
            if code != 0:
                raise SystemExit(f"{workload.name} exited with code {code}")
            reference[workload.name] = {"seed": DEFAULT_SEED, "summary": summary}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "reference"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.mode == "reference":
        record_reference()
    else:
        measure(args)


if __name__ == "__main__":
    main()
