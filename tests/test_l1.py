from __future__ import annotations

import math

from scipy.optimize._highspy._core import HighsModelStatus

from optverify import backend
from optverify.backend import Constraint, ModelSpec, Objective, Variable
from optverify.diagnostics import INFO
from optverify.errors import LlmError
from optverify.l1 import (
    REGENERATION_SYSTEM_PROMPT,
    build_regeneration_prompt,
    check_syntax,
    l1_verify,
    l1_verify_with_regeneration,
)
from optverify.runtime import CandidateProgram, CandidateRuntime

from .helpers import llm_client


def test_syntax_fatal_without_execution(tmp_path, runtime):
    marker = tmp_path / "executed.flag"
    src = f"open({str(marker)!r}, 'w').close(\n"  # unbalanced: SyntaxError
    result = l1_verify(CandidateProgram(src), runtime)
    assert not result.passed
    assert result.fatal.issue_type == "syntax"
    assert result.outcome is None
    assert not marker.exists()


def test_check_syntax_clean():
    assert check_syntax("x = 1\nprint(x)\n") is None


def test_pass_records_exact_objective(runtime):
    prog = CandidateProgram("print('status: 2')\nprint('objective: 17')")
    result = l1_verify(prog, runtime)
    assert result.passed
    assert result.objective == 17.0
    assert result.fatal is None


def test_crash_fatal_with_stderr(runtime):
    prog = CandidateProgram("raise RuntimeError('model exploded')")
    result = l1_verify(prog, runtime)
    assert not result.passed
    assert result.fatal.issue_type == "runtime_error"
    assert "model exploded" in result.fatal.evidence


def test_crash_evidence_is_stable_and_names_program_lines(runtime):
    # The record is bound without source lines of its own, and the script
    # runs by a relative name: evidence carries no temp path, so a
    # regeneration prompt built from it is the same on every run.
    prog = CandidateProgram("x = 1\ny = data['missing_key']\n", {"present": 1})
    evidence = [l1_verify(prog, runtime).fatal.evidence for _ in range(2)]
    assert evidence[0] == evidence[1]
    assert 'File "candidate.py", line 2, in <module>' in evidence[0]
    assert "optverify-run-" not in evidence[0]


def test_timeout_fatal():
    prog = CandidateProgram("while True: pass")
    result = l1_verify(prog, CandidateRuntime(timeout_s=1.0))
    assert result.fatal.issue_type == "timeout"
    assert result.fatal.evidence == "candidate exceeded 1s wall clock"


def test_missing_contract_fatal(runtime):
    result = l1_verify(CandidateProgram("print('hello')"), runtime)
    assert result.fatal.issue_type == "no_status"


def test_status2_without_objective_fatal(runtime):
    result = l1_verify(CandidateProgram("print('status: 2')"), runtime)
    assert result.fatal.issue_type == "no_objective"


def test_infeasible_enriched_with_iis(runtime):
    model = ModelSpec(
        variables=[Variable("x", lower=-math.inf)],
        constraints=[
            Constraint("x_ge_1", {"x": 1.0}, ">=", 1.0),
            Constraint("x_le_0", {"x": 1.0}, "<=", 0.0),
        ],
        objective=Objective("min", {"x": 1.0}),
    )
    prog = CandidateProgram("print('status: 3')")
    result = l1_verify(prog, runtime, model_spec=model)
    assert result.fatal.issue_type == "infeasible"
    assert "x_ge_1" in result.fatal.evidence
    assert "x_le_0" in result.fatal.evidence


def test_infeasible_keeps_its_fatal_when_an_iis_probe_ends_undecided(runtime, monkeypatch):
    # A probe that hits its time limit proves neither outcome: the Fatal
    # stays, without IIS evidence.
    monkeypatch.setattr(backend._Session, "run",
                        lambda self, rows=None, relaxed=False: HighsModelStatus.kTimeLimit)
    model = ModelSpec(
        variables=[Variable("x", lower=-math.inf)],
        constraints=[
            Constraint("x_ge_1", {"x": 1.0}, ">=", 1.0),
            Constraint("x_le_0", {"x": 1.0}, "<=", 0.0),
        ],
    )
    result = l1_verify(CandidateProgram("print('status: 3')"), runtime, model_spec=model)
    assert result.fatal.issue_type == "infeasible"
    assert "IIS" not in result.fatal.evidence


def test_infeasible_keeps_its_fatal_when_the_model_is_feasible(runtime):
    # The program's status and the model passed for enrichment disagree:
    # no IIS exists, so the Fatal stays without IIS evidence.
    model = ModelSpec(
        variables=[Variable("x", lower=-math.inf)],
        constraints=[Constraint("x_ge_1", {"x": 1.0}, ">=", 1.0)],
    )
    result = l1_verify(CandidateProgram("print('status: 3')"), runtime, model_spec=model)
    assert result.fatal.issue_type == "infeasible"
    assert result.fatal.evidence == "solver reported the model infeasible"


def test_infeasible_without_model_spec_raw_status(runtime):
    result = l1_verify(CandidateProgram("print('status: 3')"), runtime)
    assert result.fatal.issue_type == "infeasible"
    assert "IIS" not in result.fatal.evidence


def test_unbounded_enriched_with_ray(runtime):
    model = ModelSpec(
        variables=[Variable("x", lower=-math.inf)],
        constraints=[],
        objective=Objective("max", {"x": 1.0}),
    )
    result = l1_verify(CandidateProgram("print('status: 5')"), runtime, model_spec=model)
    assert result.fatal.issue_type == "unbounded"
    assert "x" in result.fatal.evidence


def test_solver_timeout_status_fatal(runtime):
    result = l1_verify(CandidateProgram("print('status: 9')"), runtime)
    assert result.fatal.issue_type == "solver_timeout"


def test_regeneration_prompt_external_mode():
    text = build_regeneration_prompt(
        "problem text", CandidateProgram("bad code", {"demand": [1.0, 2.0]}),
        "KeyError: 'demand'")
    assert "PRE-DEFINED with these keys" in text
    assert "- demand: list[float]" in text
    assert "KeyError: 'demand'" in text
    assert "bad code" in text


def test_regeneration_prompt_self_contained():
    text = build_regeneration_prompt("p", CandidateProgram("c"), "err")
    assert "all data is defined within the code itself" in text
    assert "PRE-DEFINED" not in text


def test_regeneration_prompt_carries_iis_names(runtime):
    model = ModelSpec(
        variables=[Variable("x", lower=-math.inf)],
        constraints=[
            Constraint("cap_limit", {"x": 1.0}, "<=", 0.0),
            Constraint("min_demand", {"x": 1.0}, ">=", 1.0),
        ],
    )
    result = l1_verify(CandidateProgram("print('status: 3')"), runtime, model_spec=model)
    prompt = build_regeneration_prompt(
        "p", CandidateProgram("code"), result.fatal.evidence)
    assert "cap_limit" in prompt
    assert "min_demand" in prompt


def test_regeneration_loop_budget(runtime):
    calls = []

    def always_broken(payload):
        calls.append(payload["user"])
        return "```python\nraise RuntimeError('still broken')\n```"

    program = CandidateProgram("raise RuntimeError('broken')")
    final, result = l1_verify_with_regeneration(
        program, "problem", llm_client(always_broken), runtime, max_regenerations=3)
    assert not result.passed
    assert len(calls) == 3  # exactly the budget, then give up
    assert result.fatal is not None


def test_regeneration_loop_recovers(runtime):
    def fixer(payload):
        return "```python\nprint('status: 2')\nprint('objective: 10')\n```"

    program = CandidateProgram("raise RuntimeError('broken')")
    final, result = l1_verify_with_regeneration(
        program, "problem", llm_client(fixer), runtime, max_regenerations=3)
    assert result.passed
    assert result.objective == 10.0
    assert "status: 2" in final.source


def test_regeneration_llm_error_ends_loop_with_last_failure(runtime):
    calls = []

    def broken_then_down(payload):
        calls.append(1)
        if len(calls) > 1:
            raise LlmError("auth", "provider returned 401")
        return "```python\nraise RuntimeError('regen 1')\n```"

    final, result = l1_verify_with_regeneration(
        CandidateProgram("raise RuntimeError('broken')"), "problem",
        llm_client(broken_then_down), runtime, max_regenerations=3)
    assert len(calls) == 2
    assert final.source == "raise RuntimeError('regen 1')"
    assert result.fatal.issue_type == "runtime_error"
    assert "regen 1" in result.fatal.evidence


def test_regeneration_reply_without_code_uses_an_attempt(runtime):
    replies = iter(["I cannot fix this.",
                    "```python\nprint('status: 2')\nprint('objective: 10')\n```"])
    audit = []
    final, result = l1_verify_with_regeneration(
        CandidateProgram("raise RuntimeError('broken')"), "problem",
        llm_client(lambda payload: next(replies)), runtime, max_regenerations=2, audit=audit)
    assert [e["attempt"] for e in audit] == [1, 2]
    assert result.objective == 10.0
    assert "status: 2" in final.source


def test_regenerated_program_keeps_record(runtime):
    record = {"value": 4.5}

    def fixer(payload):
        assert "- value: float" in payload["user"]
        return "```python\nprint('status: 2')\nprint(f\"objective: {data['value']}\")\n```"

    program = CandidateProgram("raise RuntimeError('broken')", record)
    final, result = l1_verify_with_regeneration(
        program, "problem", llm_client(fixer), runtime, max_regenerations=1)
    assert result.objective == 4.5
    assert final.data is record


def test_duality_gap_info_from_backend(runtime):
    # A pure LP solves to zero gap: no Info expected.
    model = ModelSpec(
        variables=[Variable("x", lower=0.0)],
        constraints=[Constraint("c", {"x": 1.0}, ">=", 3.0)],
        objective=Objective("min", {"x": 1.0}),
    )
    prog = CandidateProgram("print('status: 2')\nprint('objective: 3.0')")
    result = l1_verify(prog, runtime, model_spec=model)
    assert result.passed
    assert not [d for d in result.diagnostics if d.severity == INFO]


def test_system_prompt_is_fixed():
    assert "fix broken optimization code" in REGENERATION_SYSTEM_PROMPT.lower()
