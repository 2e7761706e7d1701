"""The benchmark's workloads, run once each on the reference seed.

Each workload goes through ``subfault.cli.main`` as the benchmark runs it,
and its report is checked with the benchmark's own ``summarize``,
``check_invariants`` and ``compare_to_reference`` against
``perfbench/reference.json``. So a change that moves a pinned output fails
here, before a benchmark run. The benchmark files are only read; every
output goes to ``tmp_path``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from subfault.cli import main as cli_main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    reference = REFERENCE[name]
    config_path = None
    if workload.config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(workload.config, sort_keys=True), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(workload.argv(out, reference["seed"], config_path)) == 0
    summary = workloads.summarize(workload, out)
    assert workloads.check_invariants(workload, summary) == []
    assert workloads.compare_to_reference(summary, reference["summary"]) == []
