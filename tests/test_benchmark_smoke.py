"""Smoke run of the benchmark's workloads: each one prepares its inputs, runs
its first two instances for its minimum number of rounds and checks every
output with the benchmark's own checks.  A program change that the benchmark
would judge wrong fails here first.  ``perfbench/`` is only read."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_workloads_pass_their_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    errors = {}
    for name, workload_cls in workloads.WORKLOADS.items():
        workload = workload_cls(1, tmp_path / name)
        workload.prepare()
        errors[name] = [
            error
            for round_no in range(workload.min_rounds)
            for item in workload.items[:2]
            for error in workload.check(item, round_no, workload.run(item, round_no))
        ]
    assert errors == {name: [] for name in workloads.WORKLOADS}
