from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from optverify import cli
from optverify.cli import EXIT_CONFIG, EXIT_OK, main
from optverify.generator import generate_suite
from optverify.llm import (
    REPLAY_CONFIG,
    CallableTransport,
    LlmClient,
    LlmConfig,
    RecordingTransport,
)
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
                 "--out", str(eval_file)]) == EXIT_OK
    lines = eval_file.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["correct_strict"] is True

    assert main(["report", "--eval", str(eval_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Total" in out
    assert "F1" in out


def test_report_judges_stored_records_again(tmp_path, capsys):
    # The stored rel_err and verdicts contradict y_pred == y_ref: the report
    # counts the verdict derived from the observed values.
    record = {"instance": "retail_f1_base_v0", "family": "F1", "executed": True,
              "pred_status": "feasible", "y_pred": 100.0, "gt_status": "optimal",
              "y_ref": 100.0, "rel_err": 0.5, "correct_strict": False,
              "correct_practical": False}
    eval_file = tmp_path / "eval.jsonl"
    eval_file.write_text(json.dumps(record) + "\n")
    assert main(["report", "--eval", str(eval_file)]) == EXIT_OK
    total = next(line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("Total"))
    assert total.split()[-2:] == ["100.0", "100.0"]


def test_replay_of_crashed_first_candidate_is_byte_identical(bench_dir, tmp_path):
    # The regeneration prompt quotes the crash traceback; it must not vary
    # between the recording run and the replay, or the replay misses.
    name = "retail_f1_base_v0"
    mini = _mini_instances(bench_dir, tmp_path, [name])
    inner = scripted_reference_provider()
    state = {"first": True}

    def crash_first(payload):
        if "STEP 1: UNDERSTAND" in payload["user"] and state["first"]:
            state["first"] = False
            return "```python\nx = 1\ny = data['missing_key']\n```"
        return inner(payload)

    fixtures = tmp_path / "fixtures"
    inst = validate_instance(json.loads((mini / f"{name}.json").read_text()))
    client = LlmClient(REPLAY_CONFIG, RecordingTransport(fixtures, CallableTransport(crash_first)))
    recorded = run_instance(inst, (mini / f"{name}.scenario.txt").read_text(), SCHEMA_BASED,
                            client, run_dir=tmp_path / "recorded")
    assert recorded.status == "verified"
    assert sum(e.get("event") == "regeneration" for e in recorded.events) == 1

    assert main(["run", "--instances", str(mini), "--format", "schema",
                 "--out", str(tmp_path / "replayed"), "--llm-replay", str(fixtures)]) == EXIT_OK
    for fname in ("report.json", "result.json", "code.py"):
        assert (tmp_path / "replayed" / name / fname).read_bytes() == \
            (tmp_path / "recorded" / fname).read_bytes(), fname


def test_run_workers_match_serial_run(bench_dir, tmp_path):
    names = ["retail_f1_base_v0", "retail_f1_base_v1"]
    mini = _mini_instances(bench_dir, tmp_path, names)
    fixtures = tmp_path / "fixtures"
    _seed_fixtures(mini, fixtures, names)
    for workers in ("1", "2"):
        assert main(["run", "--instances", str(mini), "--format", "schema",
                     "--out", str(tmp_path / f"w{workers}"), "--workers", workers,
                     "--llm-replay", str(fixtures)]) == EXIT_OK
    for name in names:
        for fname in ("report.json", "result.json", "code.py"):
            serial = (tmp_path / "w1" / name / fname).read_bytes()
            assert (tmp_path / "w2" / name / fname).read_bytes() == serial, (name, fname)


def test_run_rejects_wrong_typed_config(bench_dir, tmp_path, capsys):
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"timeout_s": "60"}))
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--config", str(cfg), "--llm-replay", str(tmp_path / "fixtures")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "timeout_s must be float" in err
    assert "Traceback" not in err


def test_run_rejects_fixed_threshold_in_config(bench_dir, tmp_path, capsys):
    # The L2 thresholds are constants, not settings: a config naming one is
    # refused rather than silently ignored.
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"missing_threshold": 0.1}))
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--config", str(cfg), "--llm-replay", str(tmp_path / "fixtures")])
    assert code == EXIT_CONFIG
    assert "unknown configuration key: missing_threshold" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_refuses_workers_in_config(bench_dir, tmp_path, capsys):
    # --workers is the one worker setting: a config naming it is refused.
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({"workers": 2}))
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--config", str(cfg), "--llm-replay", str(tmp_path / "fixtures")])
    assert code == EXIT_CONFIG
    assert "unknown configuration key: workers" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_zero_workers(bench_dir, tmp_path, capsys):
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--workers", "0", "--llm-replay", str(tmp_path / "fixtures")])
    assert code == EXIT_CONFIG
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv,name", [
    (["run", "--limit", "0"], "limit"),
    (["run", "--limit", "-1"], "limit"),
    (["ground-truth", "--workers", "-3"], "workers"),
], ids=["run_limit_zero", "run_limit_negative", "ground_truth_workers_negative"])
def test_counts_below_one_are_refused(bench_dir, tmp_path, capsys, argv, name):
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    out = tmp_path / "out"
    if argv[0] == "run":
        argv = argv + ["--llm-replay", str(tmp_path / "fixtures")]
    code = main(argv + ["--instances", str(mini), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"configuration error: {name} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_provider_config_reads_readme_example(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"### Provider config.*?```json\n(.*?)```", readme, re.DOTALL).group(1)
    path = tmp_path / "provider.json"
    path.write_text(example)
    assert cli._provider_config(str(path)) == LlmConfig(
        endpoint="https://api.example.com/v1/chat/completions", model_name="some-model",
        temperature=0.0, max_tokens=8192, api_key_env="OPTVERIFY_API_KEY",
        retry_attempts=3, backoff_s=1.0)


@pytest.mark.parametrize("entry,message", [
    ({"endpiont": "https://api.example.com"}, "unknown provider key: endpiont"),
    ({"max_tokens": "8192"}, "max_tokens must be int, not str"),
], ids=["unknown_key", "wrong_type"])
def test_run_rejects_bad_provider_config(bench_dir, tmp_path, capsys, entry, message):
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    provider = tmp_path / "provider.json"
    provider.write_text(json.dumps({"model_name": "some-model", **entry}))
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--provider", str(provider)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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
