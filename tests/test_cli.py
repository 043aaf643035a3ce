from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from optverify import cli
from optverify.cli import EXIT_CONFIG, EXIT_OK, main
from optverify.generator import generate_suite
from optverify.llm import CallableTransport, LlmClient, RecordingTransport, REPLAY_CONFIG
from optverify.pipeline import run_instance
from optverify.prompts import SCHEMA_BASED
from optverify.scenario import validate_instance

from .helpers import scripted_reference_provider


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    generate_suite(out)
    return out


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_gen_bench_idempotent(tmp_path):
    assert main(["gen-bench", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["gen-bench", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def _mini_instances(bench_dir: Path, tmp_path: Path, names: list[str]) -> Path:
    mini = tmp_path / "instances"
    mini.mkdir()
    for name in names:
        for suffix in (".json", ".scenario.txt", ".full.txt"):
            shutil.copy(bench_dir / f"{name}{suffix}", mini / f"{name}{suffix}")
    return mini


def test_ground_truth_command(bench_dir, tmp_path, capsys):
    mini = _mini_instances(bench_dir, tmp_path,
                           ["retail_f1_base_v0", "retail_f5_storage_overflow_v0"])
    out_file = tmp_path / "gt.json"
    assert main(["ground-truth", "--instances", str(mini),
                 "--out", str(out_file)]) == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["retail_f1_base_v0"]["status"] == "optimal"
    assert payload["retail_f5_storage_overflow_v0"]["status"] == "optimal"
    assert payload["retail_f1_base_v0"]["objective"] == pytest.approx(378951.5, rel=1e-6)


def _seed_fixtures(instances_dir: Path, fixture_dir: Path, names: list[str]) -> None:
    """Record every reply the pipeline will need into the fixture store."""
    for name in names:
        inst = validate_instance(
            json.loads((instances_dir / f"{name}.json").read_text()))
        client = LlmClient(REPLAY_CONFIG, RecordingTransport(
            fixture_dir, CallableTransport(scripted_reference_provider())))
        problem = (instances_dir / f"{name}.scenario.txt").read_text()
        run_instance(inst, problem, SCHEMA_BASED, client)


def test_run_replay_evaluate_report_flow(bench_dir, tmp_path, capsys):
    names = ["retail_f1_base_v0", "retail_f1_base_v1"]
    mini = _mini_instances(bench_dir, tmp_path, names)
    fixtures = tmp_path / "fixtures"
    _seed_fixtures(mini, fixtures, names)

    assert main(["run", "--instances", str(mini), "--format", "schema",
                 "--out", str(tmp_path / "runs"),
                 "--llm-replay", str(fixtures)]) == EXIT_OK
    for name in names:
        run_dir = tmp_path / "runs" / name
        assert (run_dir / "report.json").exists()
        result = json.loads((run_dir / "result.json").read_text())
        assert result["status"] == "verified"

    gt_file = tmp_path / "gt.json"
    assert main(["ground-truth", "--instances", str(mini),
                 "--out", str(gt_file)]) == EXIT_OK

    eval_file = tmp_path / "records.jsonl"
    assert main(["evaluate", "--results", str(tmp_path / "runs"),
                 "--ground-truth", str(gt_file),
                 "--benchmark", "retail", "--out", str(eval_file)]) == EXIT_OK
    lines = eval_file.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["correct_strict"] is True

    assert main(["report", "--eval", str(eval_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Total" in out
    assert "F1" in out


@pytest.mark.parametrize("fmt,suffix", [("schema", ".scenario.txt"), ("full", ".full.txt")])
def test_run_renders_missing_prompt(bench_dir, tmp_path, monkeypatch, fmt, suffix):
    # Only the instance record is present, so `run` renders the prompt
    # itself; it must match the file gen-bench writes for that format.
    name = "retail_f1_base_v0"
    mini = tmp_path / "instances"
    mini.mkdir()
    shutil.copy(bench_dir / f"{name}.json", mini / f"{name}.json")
    seen = []

    def fake_run_instance(inst, problem, prompt_format, llm, **kwargs):
        seen.append((problem, prompt_format))
        return SimpleNamespace(status="verified")

    monkeypatch.setattr(cli, "run_instance", fake_run_instance)
    assert main(["run", "--instances", str(mini), "--format", fmt,
                 "--out", str(tmp_path / "runs"),
                 "--llm-replay", str(tmp_path / "fixtures")]) == EXIT_OK
    assert seen == [((bench_dir / f"{name}{suffix}").read_text(encoding="utf-8"), fmt)]


def test_run_requires_provider_or_replay(bench_dir, tmp_path):
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG


def test_evaluate_missing_ground_truth(tmp_path):
    code = main(["evaluate", "--results", str(tmp_path),
                 "--ground-truth", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == EXIT_CONFIG


def test_run_reports_partial_failures(bench_dir, tmp_path):
    # Empty fixture store: every generation call misses, instances fail,
    # and the command signals partial failure.
    from optverify.cli import EXIT_PARTIAL

    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--llm-replay", str(fixtures)])
    assert code == EXIT_PARTIAL
    result = json.loads(
        (tmp_path / "runs" / "retail_f1_base_v0" / "result.json").read_text())
    assert result["status"] == "failed"


def test_run_rejects_empty_instances_dir(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["run", "--instances", str(empty), "--out", str(tmp_path / "runs"),
                 "--llm-replay", str(tmp_path / "fixtures")])
    assert code == EXIT_CONFIG


def test_ground_truth_workers_flag(bench_dir, tmp_path):
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0",
                                                 "retail_f1_high_waste_v0"])
    out_file = tmp_path / "gt.json"
    assert main(["ground-truth", "--instances", str(mini),
                 "--out", str(out_file), "--workers", "2"]) == EXIT_OK
    assert len(json.loads(out_file.read_text())) == 2
