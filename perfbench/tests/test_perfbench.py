"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The run.py tests start real benchmark runs with short --seconds and take
about a minute together.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_metric_and_workload_names_use_the_allowed_characters():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    names += [name for name, _, _ in layers.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert names
    for name in names:
        assert NAME.match(name), name
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) == len(
        SPEC["end_to_end"]
    ) + len(SPEC["per_layer"])


def test_spec_lists_every_workload_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_seed_changes_the_generated_inputs(tmp_path):
    import subfault.cli

    workload = workloads.WORKLOADS["montecarlo"]
    config = tmp_path / "small.json"
    config.write_text(json.dumps(workload.warmup), encoding="utf-8")
    reports = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        assert subfault.cli.main(workload.argv(out, seed, config)) == 0
        reports.append(json.loads((out / "montecarlo_report.json").read_text(encoding="utf-8")))
    first, second = (r["records"] for r in reports)
    assert [r["seed"] for r in first] != [r["seed"] for r in second]
    assert [r["markov_rel_error"] for r in first] != [r["markov_rel_error"] for r in second]
    assert workload.argv("o", 1) != workload.argv("o", 2)


def test_self_time_is_duration_minus_children():
    # (id, name, start, end, parent, pass, bytes)
    recorded = [
        (1, "b", 1.0, 2.0, 0, 0, 0),
        (2, "c", 2.5, 3.0, 0, 0, 0),
        (0, "a", 0.0, 4.0, None, 0, 0),
    ]
    got = {s[spans.NAME]: t for s, t in spans.self_times(recorded)}
    assert got == {"a": pytest.approx(2.5), "b": 1.0, "c": 0.5}
    stats = spans.per_pass_stats(recorded)[0]
    assert stats.root_s == 4.0 and stats.spans == 3


def test_tracer_rebinds_every_importing_module_and_restores():
    import subfault
    from subfault import faultrec, matstack, subid, sysgen

    original = matstack.block_toeplitz
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (subfault, faultrec, matstack, subid, sysgen):
            assert mod.block_toeplitz is not original
            assert mod.block_toeplitz.__wrapped__ is original
        tracer.pass_id = "p"
        matstack.block_toeplitz([[0.5]], [[1.0]], [[1.0]], [[0.0]], 3)
    finally:
        tracer.uninstall()
    for mod in (subfault, faultrec, matstack, subid, sysgen):
        assert mod.block_toeplitz is original
    # block_toeplitz ends last; the helpers it calls are its child spans
    root = tracer.spans[-1]
    assert root[spans.NAME] == "matstack.block_toeplitz" and root[spans.PARENT] is None
    assert all(s[spans.PARENT] == root[spans.SPAN_ID] for s in tracer.spans[:-1])
    assert {s[spans.PASS_ID] for s in tracer.spans} == {"p"}


def test_spans_record_calls_that_raise():
    from subfault import matstack

    tracer = spans.Tracer(layers.BYTE_COUNTERS)
    tracer.install()
    try:
        with pytest.raises(ValueError):
            matstack.block_hankel([[1.0], [2.0]], 5)
    finally:
        tracer.uninstall()
    assert [s[spans.NAME] for s in tracer.spans][-1] == "matstack.block_hankel"


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_in_the_spec_is_printed_with_its_unit(trace, section):
    result = _run("--workload", "example", "--seconds", "1", "--trace", trace)
    out = _result(result)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == spec
    lines = {
        line.split(" = ")[0][len("metric "):]: line
        for line in result.stdout.splitlines()
        if line.startswith("metric ")
    }
    assert lines.keys() == spec.keys()
    for name, unit in spec.items():
        assert lines[name].endswith(f" {unit}"), lines[name]


def test_untraced_run_rebinds_nothing(tmp_path):
    import subfault.cli
    from subfault import faultrec

    workload = workloads.WORKLOADS["example"]
    config = tmp_path / "small.json"
    config.write_text(json.dumps(workload.warmup), encoding="utf-8")
    before = {n: getattr(faultrec, n) for n in dir(faultrec)}
    import worker

    worker.run_pass(subfault.cli, workload, 1, config, tmp_path)
    assert all(getattr(faultrec, n) is f for n, f in before.items())
    assert not hasattr(faultrec.reconstruct_fault, "__wrapped__")


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "example", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failures_count_once_per_run_whatever_the_pass_count():
    import worker

    workload = workloads.WORKLOADS["long-record"]
    records = [{"index": i, "failure": "rank" if i == 2 else None} for i in range(4)]
    summary = {"records": records}
    ok = {"exit_code": 0, "digest": "d"}
    for n in (2, 3, 4):
        assert worker.count_failures(workload, summary, [ok] * n, []) == 1
        assert worker.count_failures(workload, summary, [ok] * n, [(0, "m")]) == 2
        assert worker.count_failures(workload, None, [{"exit_code": 2}] * n, []) == 4
