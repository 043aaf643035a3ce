from __future__ import annotations

import itertools
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from optverify import cli, llm
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

from .helpers import scripted_reference_provider, tree_digest


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    generate_suite(out)
    return out


def test_gen_bench_idempotent(tmp_path):
    assert main(["gen-bench", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["gen-bench", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


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


def _assert_ground_truth_refuses(bench_dir, tmp_path, capsys, edit, message):
    """``ground-truth`` over the base v0 record after ``edit`` exits 2 with
    ``message`` and writes no output file."""
    mini = tmp_path / "instances"
    mini.mkdir()
    raw = json.loads((bench_dir / "retail_f1_base_v0.json").read_text())
    edit(raw)
    (mini / "retail_f1_base_v0.json").write_text(json.dumps(raw))
    code = main(["ground-truth", "--instances", str(mini),
                 "--out", str(tmp_path / "gt.json")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "gt.json").exists()


def test_ground_truth_refuses_non_finite_number(bench_dir, tmp_path, capsys):
    def edit(raw):
        raw["demand_curve"]["SKU_Basic"][3] = float("nan")
    _assert_ground_truth_refuses(bench_dir, tmp_path, capsys, edit,
                                 "demand_curve[SKU_Basic]: expected a finite number, got nan")


def test_ground_truth_refuses_undeclared_key(bench_dir, tmp_path, capsys):
    def edit(raw):
        raw["constraint"] = {"budget_per_period": 10000}
    _assert_ground_truth_refuses(bench_dir, tmp_path, capsys, edit,
                                 "instance: unknown keys ['constraint']")


def test_ground_truth_refuses_duplicate_edge(bench_dir, tmp_path, capsys):
    # Without the refusal the solver sees two variables of one name and fails.
    def edit(raw):
        raw["network"]["sub_edges"].append(["SKU_Basic", "SKU_Premium"])
    _assert_ground_truth_refuses(bench_dir, tmp_path, capsys, edit,
                                 "network.sub_edges[1]: duplicate edge [SKU_Basic, SKU_Premium]")


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


def test_ground_truth_refuses_model_the_solver_cannot_take(bench_dir, tmp_path, capsys):
    # A cold usage of 1e16 puts a coefficient HiGHS refuses into the
    # storage rows: the refusal names it instead of ending in a traceback.
    def edit(raw):
        raw["cold_usage"]["SKU_Basic"] = 1e16
    _assert_ground_truth_refuses(
        bench_dir, tmp_path, capsys, edit,
        "constraint storage_capacity[DC1,1] has coefficient 1e+16 on I[SKU_Basic,DC1,1,1]")


def test_ground_truth_refuses_instance_file_that_is_not_json(tmp_path, capsys):
    mini = tmp_path / "instances"
    mini.mkdir()
    (mini / "retail_f1_base_v0.json").write_text("{not json")
    code = main(["ground-truth", "--instances", str(mini), "--out", str(tmp_path / "gt.json")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: cannot read {mini / 'retail_f1_base_v0.json'}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "gt.json").exists()


@pytest.mark.parametrize("command", ["ground-truth", "run"])
@pytest.mark.parametrize("manifest,message", [
    ("{bad", "cannot read {path}"),
    ('{"count": 1}', "{path}: no instances list"),
    ('{"instances": [{"instance": "retail_f1_base_v0"}]}',
     "{path}: entry without a string instance_file: {{'instance': 'retail_f1_base_v0'}}"),
], ids=["non_json", "no_instances_list", "entry_without_instance_file"])
def test_unreadable_manifest_is_refused(tmp_path, capsys, command, manifest, message):
    mini = tmp_path / "instances"
    mini.mkdir()
    (mini / "manifest.json").write_text(manifest)
    out = tmp_path / "out"
    options = ["--llm-replay", str(tmp_path / "fx")] if command == "run" else []
    code = main([command, "--instances", str(mini), "--out", str(out), *options])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {message.format(path=mini / 'manifest.json')}" in err
    assert "Traceback" not in err
    assert not out.exists()


_RECORD = {"instance": "retail_f1_base_v0", "family": "F1", "executed": True,
           "pred_status": "feasible", "y_pred": 100.0, "gt_status": "optimal", "y_ref": 100.0}


@pytest.mark.parametrize("content,message", [
    (None, "cannot read {path}"),
    (json.dumps(_RECORD) + "\n{not json\n", "{path}, line 2: not an evaluation record"),
    (json.dumps({k: v for k, v in _RECORD.items() if k != "family"}) + "\n",
     "{path}, line 1: not an evaluation record: KeyError('family')"),
    (json.dumps(_RECORD) + "\n" + json.dumps({**_RECORD, "y_pred": "5"}) + "\n",
     "{path}, line 2: instance retail_f1_base_v0: y_pred is not a number: '5'"),
    (json.dumps({**_RECORD, "y_ref": True}) + "\n",
     "{path}, line 1: instance retail_f1_base_v0: y_ref is not a number: True"),
], ids=["missing_file", "non_json_line", "record_without_family", "y_pred_a_string",
        "y_ref_a_bool"])
def test_report_refuses_unreadable_records(tmp_path, capsys, content, message):
    eval_file = tmp_path / "eval.jsonl"
    if content is not None:
        eval_file.write_text(content)
    assert main(["report", "--eval", str(eval_file)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {message.format(path=eval_file)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ground_truth,result,message", [
    ("{not json", {"instance": "retail_f1_base_v0"}, "cannot read {gt}"),
    ("[]", {"instance": "retail_f1_base_v0"}, "{gt}: expected a mapping of instance names"),
    ('{"retail_f1_base_v0": {"status": "optimal", "objective": 1.0}}', {"status": "verified"},
     "{result}: no instance name"),
    ('{"retail_f1_base_v0": {"objective": 1.0}}', {"instance": "retail_f1_base_v0"},
     "{gt}: entry retail_f1_base_v0 is not a mapping with a string status"),
    ('{"retail_f1_base_v0": 5}', {"instance": "retail_f1_base_v0"},
     "{gt}: entry retail_f1_base_v0 is not a mapping with a string status"),
    ('{"retail_f1_base_v0": {"status": "optimal", "objective": "abc"}}',
     {"instance": "retail_f1_base_v0"},
     "{gt}: entry retail_f1_base_v0: objective is not a number: 'abc'"),
    ('{"retail_f1_base_v0": {"status": "optimal", "objective": false}}',
     {"instance": "retail_f1_base_v0"},
     "{gt}: entry retail_f1_base_v0: objective is not a number: False"),
    ('{"retail_f1_base_v0": {"status": "optimal", "objective": 1.0}}',
     {"instance": "retail_f1_base_v0", "status_code": 2, "objective": "5"},
     "{result}: instance retail_f1_base_v0: objective is not a number: '5'"),
    ('{"retail_f1_base_v0": {"status": "optimal", "objective": 1.0}}',
     {"instance": "retail_f1_base_v0", "status_code": 2, "objective": True},
     "{result}: instance retail_f1_base_v0: objective is not a number: True"),
], ids=["non_json_ground_truth", "ground_truth_not_a_mapping", "result_without_instance",
        "entry_without_status", "entry_not_a_mapping", "entry_objective_a_string",
        "entry_objective_a_bool", "result_objective_a_string", "result_objective_a_bool"])
def test_evaluate_refuses_unreadable_input(tmp_path, capsys, ground_truth, result, message):
    gt_file = tmp_path / "gt.json"
    gt_file.write_text(ground_truth)
    result_file = tmp_path / "runs" / "retail_f1_base_v0" / "result.json"
    result_file.parent.mkdir(parents=True)
    result_file.write_text(json.dumps(result))
    out = tmp_path / "eval.jsonl"
    code = main(["evaluate", "--results", str(tmp_path / "runs"),
                 "--ground-truth", str(gt_file), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {message.format(gt=gt_file, result=result_file)}" in err
    assert "Traceback" not in err
    assert not out.exists()


def _no_network(*args, **kwargs):
    raise AssertionError("requests.post called")


@pytest.mark.parametrize("drop", ["--provider", "--llm-replay"])
def test_seed_fixtures_refused_where_it_cannot_record(bench_dir, tmp_path, capsys, monkeypatch,
                                                      drop):
    # Without a store nothing is recorded; without a provider every call
    # posts to the empty replay endpoint.  Neither run posts anything.
    monkeypatch.setattr(llm.requests, "post", _no_network)
    mini = _mini_instances(bench_dir, tmp_path, ["retail_f1_base_v0"])
    provider = tmp_path / "p.json"
    provider.write_text(json.dumps({"endpoint": "http://provider.invalid/v1", "model_name": "m"}))
    options = {"--provider": str(provider), "--llm-replay": str(tmp_path / "fx")}
    del options[drop]
    code = main(["run", "--instances", str(mini), "--out", str(tmp_path / "runs"),
                 "--seed-fixtures", *itertools.chain(*options.items())])
    assert code == EXIT_CONFIG
    assert ("configuration error: --seed-fixtures requires --provider and --llm-replay"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


def test_seed_fixtures_records_what_replay_reads(bench_dir, tmp_path, monkeypatch):
    # A recording run against a stubbed provider, then a replay of its store
    # with the network shut: the two runs write the same bytes.
    name = "retail_f1_base_v0"
    mini = _mini_instances(bench_dir, tmp_path, [name])
    provider = tmp_path / "p.json"
    provider.write_text(json.dumps({"endpoint": "http://provider.invalid/v1", "model_name": "m"}))
    reply = scripted_reference_provider()

    def post(url, json, headers, timeout):
        content = reply({"user": json["messages"][1]["content"]})
        return SimpleNamespace(status_code=200,
                               json=lambda: {"choices": [{"message": {"content": content}}]})

    monkeypatch.setattr(llm.requests, "post", post)
    fixtures = tmp_path / "fx"
    assert main(["run", "--instances", str(mini), "--out", str(tmp_path / "recorded"),
                 "--provider", str(provider), "--llm-replay", str(fixtures),
                 "--seed-fixtures"]) == EXIT_OK
    assert any(fixtures.iterdir())

    monkeypatch.setattr(llm.requests, "post", _no_network)
    assert main(["run", "--instances", str(mini), "--out", str(tmp_path / "replayed"),
                 "--provider", str(provider), "--llm-replay", str(fixtures)]) == EXIT_OK
    for fname in ("report.json", "result.json", "code.py"):
        assert (tmp_path / "replayed" / name / fname).read_bytes() == \
            (tmp_path / "recorded" / name / fname).read_bytes(), fname
    assert json.loads((tmp_path / "replayed" / name / "result.json").read_text())["status"] \
        == "verified"
