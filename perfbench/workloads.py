"""The benchmark's workloads and the correctness checks on their outputs.

Every workload enters through ``subfault.cli.main`` with ``--out`` and
``--seed``, the path a user runs. Why each workload exists:

- ``example``: the paper's single-record pipeline on the bundled 3-state
  system (T=1000, clean data, ``structure`` method). The dense O(T^2)
  ``reconstruct_fault`` does most of the work; the annihilator never runs.
- ``montecarlo``: the default 40-system study (T=1000, 40 dB, annihilator,
  ``floor`` policy). Many short records, so per-instance fixed costs
  dominate; ``reconstruct_fault`` never runs. The program records 2 of 40
  instances as failed on the default seed, which are counted, not hidden.
- ``long-record``: the same study code at T=8000 with one system per zero
  count (4 systems). The T-scaled stages dominate and the T-independent ones
  nearly vanish, so a change that trades short-record cost for long-record
  speed shows on one of the two Monte-Carlo workloads.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240

# the line a worker prints once its set-up is done
READY = "perfbench-ready"

# set to 1 in every workload process before numpy is imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# the Monte-Carlo defaults, spelled out because --config files start from
# the ExperimentConfig field defaults, not from the montecarlo defaults
MONTECARLO_FIELDS = {
    "s": 6,
    "snr_db": 40.0,
    "dims": [5, 1, 3, 2],
    "zero_counts": [0, 1, 2, 3],
    "rank_policy": "floor",
}

# files whose bytes carry wall-clock time and so may differ between passes
NON_CANONICAL = {"timing.csv"}

# float outputs compared to the reference as |got - ref| <= ATOL + RTOL*|ref|
RTOL = 1e-6
ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    # record length and instances per pass, checked against each report
    T: int
    instances: int
    # --config file contents; None runs the subcommand's own defaults
    config: dict | None
    # a small run of the same subcommand, made once before timing so that
    # lazy imports and first-call set-up are not timed
    warmup: dict

    def argv(self, out_dir, seed: int, config_path=None) -> list:
        args = ["--out", str(out_dir), "--seed", str(seed)]
        if config_path is not None:
            args = ["--config", str(config_path)] + args
        return args + [self.subcommand]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("example", "example", 1000, 1, None, warmup={"T": 200}),
        Workload(
            "montecarlo",
            "montecarlo",
            1000,
            40,
            None,
            warmup={"T": 200, "systems_per_count": 1, **MONTECARLO_FIELDS},
        ),
        Workload(
            "long-record",
            "montecarlo",
            8000,
            4,
            {"T": 8000, "systems_per_count": 1, **MONTECARLO_FIELDS},
            warmup={"T": 200, "systems_per_count": 1, **MONTECARLO_FIELDS},
        ),
    )
}


def digest_outputs(out_dir) -> str:
    """SHA-256 over the names and bytes of every canonical output file."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        if path.name in NON_CANONICAL:
            continue
        h.update(path.name.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# summaries: the parts of a report the reference pins down


_BRANCH_KEYS = (
    "n_v",
    "n_z",
    "rank_s",
    "rank_s_plus_1",
    "grassmann_error_pct",
    "representative_error_pct",
    "projection_residual",
    "replay_residual",
)
_RECORD_KEYS = (
    "index",
    "zero_count",
    "n_v_estimate",
    "n_z",
    "failure",
    "error_pct",
    "markov_rel_error",
    "order_fallback",
)


def summarize(workload: Workload, out_dir) -> dict:
    """Read a pass's report into the summary the checks and metrics use."""
    out = Path(out_dir)
    if workload.subcommand == "example":
        report = json.loads((out / "example_report.json").read_text(encoding="utf-8"))
        ident = report["identified"]
        return {
            "T": report["config"]["T"],
            "instances": 1,
            "identified": {
                k: ident[k] for k in ("chosen_order", "order_fallback", "markov_relative_error")
            },
            "exact_branch": {k: report["exact_branch"][k] for k in _BRANCH_KEYS},
            "identified_branch": {k: report["identified_branch"][k] for k in _BRANCH_KEYS},
        }
    report = json.loads((out / "montecarlo_report.json").read_text(encoding="utf-8"))
    cfg = report["config"]
    return {
        "T": cfg["T"],
        "instances": len(report["records"]),
        "records": [{k: r[k] for k in _RECORD_KEYS} for r in report["records"]],
        "overall_median_pct": report["overall_median_pct"],
    }


def failed_instances(summary: dict) -> set:
    """Indices of the instances the program itself recorded as failed."""
    return {r["index"] for r in summary.get("records", []) if r["failure"] is not None}


def error_pct_median(summary: dict) -> float:
    if "records" in summary:
        return summary["overall_median_pct"]
    return summary["identified_branch"]["grassmann_error_pct"]


# ---------------------------------------------------------------------------
# checks; each returns (instance index or None, message) mismatches


def check_invariants(workload: Workload, summary: dict) -> list:
    """Properties that hold on every seed."""
    bad = []
    for key in ("T", "instances"):
        if summary[key] != getattr(workload, key):
            bad.append((None, f"report has {key}={summary[key]}, expected {getattr(workload, key)}"))
    if "records" not in summary:
        exact = summary["exact_branch"]
        # the bundled system has one fault channel with one transmission
        # zero; with the exact model on clean data the recovery is exact
        expect = {"n_v": 1, "n_z": 2}
        for key, want in expect.items():
            if exact[key] != want:
                bad.append((0, f"exact_branch.{key} = {exact[key]}, expected {want}"))
        if not exact["grassmann_error_pct"] < 1e-6:
            bad.append((0, f"exact_branch.grassmann_error_pct = {exact['grassmann_error_pct']}"))
        if not exact["replay_residual"] < 1e-8:
            bad.append((0, f"exact_branch.replay_residual = {exact['replay_residual']}"))
        for key in _BRANCH_KEYS:
            value = summary["identified_branch"][key]
            if isinstance(value, float) and not math.isfinite(value):
                bad.append((0, f"identified_branch.{key} is not finite"))
        return bad
    records = summary["records"]
    ok_errors = []
    for pos, r in enumerate(records):
        if r["index"] != pos:
            bad.append((pos, f"record {pos} has index {r['index']}"))
        if (r["failure"] is None) == (r["error_pct"] is None):
            bad.append((r["index"], "record must carry exactly one of failure and error_pct"))
        elif r["error_pct"] is not None:
            if not 0.0 <= r["error_pct"] <= 100.0:
                bad.append((r["index"], f"error_pct {r['error_pct']} outside [0, 100]"))
            ok_errors.append(r["error_pct"])
    if ok_errors:
        median = statistics.median(ok_errors)
        if not _close(summary["overall_median_pct"], median):
            bad.append((None, f"overall_median_pct {summary['overall_median_pct']} != {median}"))
    return bad


def _close(got, ref) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def compare_to_reference(summary: dict, reference: dict) -> list:
    """Exact match on integers, flags and strings; floats within tolerance."""
    bad = []

    def walk(got, ref, path, index):
        if isinstance(ref, dict):
            if not isinstance(got, dict) or got.keys() != ref.keys():
                bad.append((index, f"{path}: keys differ"))
                return
            for k in ref:
                walk(got[k], ref[k], f"{path}.{k}" if path else k, index)
        elif isinstance(ref, list):
            if not isinstance(got, list) or len(got) != len(ref):
                bad.append((index, f"{path}: length differs"))
                return
            for i, (g, r) in enumerate(zip(got, ref)):
                item_index = r.get("index", index) if isinstance(r, dict) else index
                walk(g, r, f"{path}[{i}]", item_index)
        elif isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            if not _close(got, ref):
                bad.append((index, f"{path}: {got!r} vs reference {ref!r}"))
        elif got != ref or type(got) is not type(ref):
            bad.append((index, f"{path}: {got!r} vs reference {ref!r}"))

    walk(summary, reference, "", 0 if "records" not in summary else None)
    return bad
