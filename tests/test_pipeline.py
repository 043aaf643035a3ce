from __future__ import annotations

import json

import pytest

from optverify.config import PipelineConfig
from optverify.diagnostics import FAILED, NEEDS_REPAIR, VERIFIED, WARNING
from optverify.generator import build_instance
from optverify import llm as llm_module
from optverify.llm import CallableTransport, LlmClient, LlmConfig, REPLAY_CONFIG
from optverify.pipeline import run_instance
from optverify.prompts import DATA_EMBEDDED, SCHEMA_BASED, render_prompt
from optverify.reference import candidate_source
from optverify.repair import REPAIR_SYSTEM_PROMPT

from .helpers import scripted_reference_provider


def _client(fn):
    return LlmClient(REPLAY_CONFIG, CallableTransport(fn))


@pytest.fixture(scope="module")
def f1_v0():
    return build_instance("f1_base", 0)


_FAST = PipelineConfig(timeout_s=90.0)


def test_schema_pipeline_verifies_reference_candidate(f1_v0, tmp_path):
    problem = render_prompt(f1_v0, SCHEMA_BASED)
    llm = _client(scripted_reference_provider())
    result = run_instance(f1_v0, problem, SCHEMA_BASED, llm,
                          config=_FAST, run_dir=tmp_path / "run")
    assert result.status == VERIFIED
    assert result.executed
    assert result.status_code == 2
    assert result.baseline_objective == pytest.approx(378951.5, rel=1e-6)
    layers = {d.layer for d in result.report.diagnostics}
    assert layers == {"L2_CPT", "L2_OPT"}
    assert all(d.severity == "pass" for d in result.report.diagnostics)
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "result.json").exists()
    assert (tmp_path / "run" / "code.py").exists()


def test_full_pipeline_uses_extraction_first(f1_v0, tmp_path):
    problem = render_prompt(f1_v0, DATA_EMBEDDED)
    llm = _client(scripted_reference_provider())
    result = run_instance(f1_v0, problem, DATA_EMBEDDED, llm,
                          config=_FAST, run_dir=tmp_path / "run")
    assert result.status == VERIFIED
    assert result.program.data_mode == "external_dict"
    assert result.baseline_objective == pytest.approx(378951.5, rel=1e-6)


def test_pipeline_reports_are_byte_identical(f1_v0, tmp_path):
    problem = render_prompt(f1_v0, SCHEMA_BASED)
    for leg in ("a", "b"):
        llm = _client(scripted_reference_provider())
        run_instance(f1_v0, problem, SCHEMA_BASED, llm,
                     config=_FAST, run_dir=tmp_path / leg)
    report_a = (tmp_path / "a" / "report.json").read_bytes()
    report_b = (tmp_path / "b" / "report.json").read_bytes()
    assert report_a == report_b
    assert (tmp_path / "a" / "result.json").read_bytes() == \
        (tmp_path / "b" / "result.json").read_bytes()


def test_regeneration_recovers_broken_first_attempt(f1_v0, tmp_path):
    inner = scripted_reference_provider()
    state = {"first": True}

    def flaky_codegen(payload):
        user = payload["user"]
        is_generation = "STEP 1: UNDERSTAND" in user
        if is_generation and state["first"]:
            state["first"] = False
            return "```python\nraise RuntimeError('bad first draft')\n```"
        return inner(payload)

    problem = render_prompt(f1_v0, SCHEMA_BASED)
    result = run_instance(f1_v0, problem, SCHEMA_BASED, _client(flaky_codegen),
                          config=_FAST, run_dir=tmp_path / "run")
    assert result.status == VERIFIED
    regen_events = [e for e in result.events if e.get("event") == "regeneration"]
    assert len(regen_events) == 1
    # Attempt artifacts persisted for audit.
    assert (tmp_path / "run" / "attempt_1" / "prompt.txt").exists()
    assert (tmp_path / "run" / "attempt_1" / "reply.txt").exists()


def test_persistent_failure_reports_failed(f1_v0, tmp_path):
    def always_broken(payload):
        user = payload["user"]
        if "KEY" in user:
            return "[]"
        return "```python\nraise RuntimeError('nope')\n```"

    problem = render_prompt(f1_v0, SCHEMA_BASED)
    config = PipelineConfig(timeout_s=30.0, max_regenerations=2)
    result = run_instance(f1_v0, problem, SCHEMA_BASED, _client(always_broken),
                          config=config, run_dir=tmp_path / "run")
    assert result.status == FAILED
    assert result.baseline_objective is None
    payload = json.loads((tmp_path / "run" / "result.json").read_text())
    assert payload["status"] == "failed"
    assert payload["objective"] is None


def test_generation_without_code_fence_fails_cleanly(f1_v0, tmp_path):
    problem = render_prompt(f1_v0, SCHEMA_BASED)
    result = run_instance(
        f1_v0, problem, SCHEMA_BASED, _client(lambda p: "no code, sorry"),
        config=_FAST, run_dir=tmp_path / "run")
    assert result.status == FAILED
    assert not result.executed
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["status"] == "failed"
    assert [(d["layer"], d["severity"], d["issue_type"]) for d in report["diagnostics"]] == [
        ("L1", "fatal", "generation_failed")]
    assert json.loads((tmp_path / "run" / "result.json").read_text())["status"] == "failed"


class _ListContentResponse:
    status_code = 200

    def json(self):
        return {"choices": [{"message": {"content": [{"type": "text", "text": "hi"}]}}]}


@pytest.mark.parametrize("prompt_format", [SCHEMA_BASED, DATA_EMBEDDED])
def test_non_text_provider_reply_fails_generation(f1_v0, tmp_path, monkeypatch, prompt_format):
    # A provider may send message content as a list of parts; the client
    # refuses it as a malformed reply instead of calling str methods on it.
    monkeypatch.setattr(llm_module.requests, "post",
                        lambda url, json, headers, timeout: _ListContentResponse())
    client = LlmClient(LlmConfig(endpoint="http://provider.invalid/v1", retry_attempts=1))
    problem = render_prompt(f1_v0, prompt_format)
    result = run_instance(f1_v0, problem, prompt_format, client,
                          config=_FAST, run_dir=tmp_path / "run")
    assert result.status == FAILED
    assert not result.executed
    [diagnostic] = result.report.diagnostics
    assert (diagnostic.layer, diagnostic.severity, diagnostic.issue_type) == (
        "L1", "fatal", "generation_failed")
    assert diagnostic.evidence == (
        "transport: malformed provider reply: list content, not text")


def test_config_timeout_bounds_candidate_runs(f1_v0, tmp_path):
    problem = render_prompt(f1_v0, SCHEMA_BASED)
    config = PipelineConfig(timeout_s=1.0, max_regenerations=0)
    result = run_instance(
        f1_v0, problem, SCHEMA_BASED, _client(lambda p: "```python\nwhile True: pass\n```"),
        config=config, run_dir=tmp_path / "run")
    assert result.status == FAILED
    assert result.report.diagnostics[0].evidence == "candidate exceeded 1s wall clock"


def test_plateau_report_describes_adopted_program(f1_v0, tmp_path):
    # Storage capacity does not bind on f1_base v0, so the mutant's L2 pass
    # warns on it, the intact repair lands on the same objective (plateau),
    # and the final report must come from L2 on the intact program.
    mutant = scripted_reference_provider(drop=("storage_capacity",))
    intact = f"```python\n{candidate_source()}\n```"

    def fn(payload):
        return intact if payload["system"] == REPAIR_SYSTEM_PROMPT else mutant(payload)

    problem = render_prompt(f1_v0, SCHEMA_BASED)
    result = run_instance(f1_v0, problem, SCHEMA_BASED, _client(fn),
                          config=_FAST, run_dir=tmp_path / "run")
    assert [e.get("decision") for e in result.events] == ["plateau"]
    assert result.program.source.rstrip() == candidate_source().rstrip()
    assert result.status == VERIFIED
    assert not any(d.issue_type == "constraint_missing"
                   for d in result.report.diagnostics)


def test_guided_retry_reply_is_audited(f1_v0, tmp_path):
    # The first repair imports subprocess; the guided retry's reply is the
    # one adopted, so its prompt and reply sit beside the first attempt's.
    mutant = scripted_reference_provider(drop=("storage_capacity",))
    unsafe = f"```python\nimport subprocess\n{candidate_source()}\n```"
    intact = f"```python\n{candidate_source()}\n```"

    def fn(payload):
        if payload["system"] != REPAIR_SYSTEM_PROMPT:
            return mutant(payload)
        return intact if "SAFETY VIOLATIONS DETECTED" in payload["user"] else unsafe

    problem = render_prompt(f1_v0, SCHEMA_BASED)
    result = run_instance(f1_v0, problem, SCHEMA_BASED, _client(fn),
                          config=_FAST, run_dir=tmp_path / "run")
    assert [e.get("decision") for e in result.events] == ["plateau"]
    attempt = tmp_path / "run" / "attempt_1"
    assert (attempt / "reply.txt").read_text() == unsafe
    assert (attempt / "retry_reply.txt").read_text() == intact
    assert (attempt / "retry_prompt.txt").read_text().startswith("SAFETY VIOLATIONS DETECTED")
    assert (tmp_path / "run" / "code.py").read_text() in intact
    decision = json.loads((attempt / "decision.json").read_text())
    assert (decision["safety_violations"], decision["retry_safety_violations"]) == (
        ["blocked_import"], [])
    assert not {"prompt", "reply", "retry_prompt", "retry_reply"} & decision.keys()


def test_budget_zero_still_runs_l2(f3_bottleneck_v0, tmp_path):
    # A zero budget disables regeneration and repair, not behavioural
    # verification: the dropped storage limit is still reported.
    problem = render_prompt(f3_bottleneck_v0, SCHEMA_BASED)
    llm = _client(scripted_reference_provider(drop=("storage_capacity",)))
    config = PipelineConfig(timeout_s=90.0, max_regenerations=0, repair_budget=0)
    result = run_instance(f3_bottleneck_v0, problem, SCHEMA_BASED, llm,
                          config=config, run_dir=tmp_path / "run")
    assert result.status == NEEDS_REPAIR
    assert result.events == []
    assert [d.issue_type for d in result.report.diagnostics
            if d.severity == WARNING] == ["constraint_missing"]


def test_report_and_result_agree_on_adopted_objective(tmp_path):
    # Holding cost dropped: the intact repair moves the objective by ~2%, so
    # it is adopted.  Both files must then name the returned program's
    # objective the same way; result.json alone keeps the pre-repair z*.
    inst = build_instance("f7_budget_limit", 0)
    opt = [{"description": "inventory holding cost", "role": "cost", "parameters": ["inventory"]}]
    mutant = scripted_reference_provider(drop=("holding_cost",), opt_candidates=opt)
    intact = f"```python\n{candidate_source()}\n```"

    def fn(payload):
        return intact if payload["system"] == REPAIR_SYSTEM_PROMPT else mutant(payload)

    problem = render_prompt(inst, SCHEMA_BASED)
    result = run_instance(inst, problem, SCHEMA_BASED, _client(fn),
                          config=_FAST, run_dir=tmp_path / "run")
    assert [e.get("decision") for e in result.events][0] == "adopted"
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    outcome = json.loads((tmp_path / "run" / "result.json").read_text())
    assert "baseline_objective" not in report
    assert report["objective"] == outcome["objective"] == result.final_objective
    assert outcome["baseline_objective"] == result.baseline_objective != outcome["objective"]


def test_infeasible_candidate_reaches_the_judge_as_executed(f1_v0, tmp_path):
    # An L1 failure that ran: the fail path's derived fields (executed,
    # status_code) must reach result.json, and the judge reads them.
    from optverify.cli import EXIT_OK, main

    problem = render_prompt(f1_v0, SCHEMA_BASED)
    config = PipelineConfig(timeout_s=30.0, max_regenerations=0)
    result = run_instance(
        f1_v0, problem, SCHEMA_BASED, _client(lambda p: "```python\nprint('status: 3')\n```"),
        config=config, run_dir=tmp_path / "runs" / f1_v0.name)
    assert result.status == FAILED
    outcome = json.loads((tmp_path / "runs" / f1_v0.name / "result.json").read_text())
    assert (outcome["status"], outcome["executed"], outcome["status_code"]) == ("failed", True, 3)
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({f1_v0.name: {"status": "infeasible"}}))
    assert main(["evaluate", "--results", str(tmp_path / "runs"), "--ground-truth", str(gt),
                 "--out", str(tmp_path / "eval.jsonl")]) == EXIT_OK
    [record] = [json.loads(line) for line in (tmp_path / "eval.jsonl").read_text().splitlines()]
    assert (record["executed"], record["pred_status"]) == (True, "infeasible")
    assert record["correct_strict"] and record["correct_practical"]
