from __future__ import annotations

import pytest

from optverify import l2, repair
from optverify.config import PipelineConfig
from optverify.diagnostics import INFO, NEEDS_REPAIR, VERIFIED, WARNING, Diagnostic
from optverify.errors import ConfigError, LlmError
from optverify.l1 import l1_verify
from optverify.repair import (
    RepairOutcome,
    build_repair_prompt,
    regression_check,
    repair_loop,
    safety_check,
)
from optverify.runtime import EXTERNAL_DICT, SELF_CONTAINED, CandidateProgram, CandidateRuntime

from .helpers import llm_client


# --------------------------------------------------------------------------
# Safety validator
# --------------------------------------------------------------------------


def test_data_literal_reassignment_flagged():
    violations = safety_check('data = {"capacity": 99}\n', EXTERNAL_DICT)
    assert len(violations) == 1
    assert violations[0].rule == "data_reassignment"


def test_reparse_rebind_allowed():
    assert safety_check("data = json.loads(raw)\n", EXTERNAL_DICT) == []


def test_process_spawn_import_flagged():
    violations = safety_check("import subprocess\n", EXTERNAL_DICT)
    assert [v.rule for v in violations] == ["blocked_import"]
    violations = safety_check("from os import path\n", SELF_CONTAINED)
    assert [v.rule for v in violations] == ["blocked_import"]


def test_data_subscript_mutation_flagged():
    violations = safety_check('data["capacity"] = 5\n', EXTERNAL_DICT)
    assert [v.rule for v in violations] == ["data_mutation"]
    violations = safety_check('data["a"]["b"] += 1\n', EXTERNAL_DICT)
    assert [v.rule for v in violations] == ["data_mutation"]
    violations = safety_check('del data["a"]\n', EXTERNAL_DICT)
    assert [v.rule for v in violations] == ["data_mutation"]
    violations = safety_check('data.update({"a": 1})\n', EXTERNAL_DICT)
    assert [v.rule for v in violations] == ["data_mutation"]


def test_self_contained_may_define_data():
    assert safety_check('data = {"capacity": 99}\n', SELF_CONTAINED) == []


def test_reading_data_is_fine():
    src = "x = data['capacity']\nrows = [data['demand'][i] for i in range(3)]\n"
    assert safety_check(src, EXTERNAL_DICT) == []


# --------------------------------------------------------------------------
# Repair prompt
# --------------------------------------------------------------------------


def _warning(target="storage capacity limit"):
    return Diagnostic("L2_CPT", WARNING, "constraint_missing", target,
                      "perturbation x0.001 caused only 0.3% objective change")


def _info(target="waste cost term"):
    return Diagnostic("L2_OPT", INFO, "objective_term_uncertain", target,
                      "perturbation x0.001 caused only 12.0% objective change")


def test_repair_prompt_counts_and_sections():
    text = build_repair_prompt(
        "problem", CandidateProgram("code body", {"capacity": 1.5}), 1234.5,
        [_warning()], [_info(), _info("labor term")])
    assert "ISSUES DETECTED (1 actionable)" in text
    assert "REFERENCE ONLY (DO NOT FIX)" in text
    assert text.count("Action: DO NOT FIX") == 2
    assert "perturbation x0.001 caused only 0.3% objective change" in text
    assert "## Current objective value: 1234.5" in text
    assert "code body" in text


def test_repair_prompt_safety_rules_by_mode():
    ext = build_repair_prompt("p", CandidateProgram("c", {"a": 1}), 1.0, [_warning()], [])
    assert "Do NOT redefine the `data` variable" in ext
    selfc = build_repair_prompt("p", CandidateProgram("c"), 1.0, [_warning()], [])
    assert "Code is self-contained." in selfc
    assert "Do NOT redefine the `data` variable" not in selfc


def test_repair_prompt_reference_section_empty():
    text = build_repair_prompt("p", CandidateProgram("c"), 1.0, [_warning()], [])
    assert "(none)" in text


# --------------------------------------------------------------------------
# Regression guard
# --------------------------------------------------------------------------


def test_regression_boundary_arithmetic():
    assert regression_check(103.9, 100.0, 0.04) is False  # 3.9% <= 4%
    assert regression_check(105.0, 100.0, 0.04) is True   # 5% > 4%
    assert regression_check(104.0, 100.0, 0.04) is False  # exactly 4%


def test_regression_on_status_degradation(runtime):
    # A repair that no longer reaches an optimal status fails L1, and a
    # failed L1 carries no objective, which the guard treats as regression.
    for src in ("raise RuntimeError('broken repair')\n", "print('status: 3')\n"):
        result = l1_verify(CandidateProgram(src), runtime)
        assert not result.passed and result.objective is None
        assert regression_check(result.objective, 100.0, 0.04) is True


def test_regression_on_missing_objective():
    assert regression_check(None, 100.0, 0.04) is True


def test_config_guard_ordering():
    with pytest.raises(ConfigError):
        PipelineConfig(regression_threshold=0.05)  # must stay below MISSING_THRESHOLD


# --------------------------------------------------------------------------
# Repair loop
# --------------------------------------------------------------------------

# The toy candidate's "objective" is cost * quantity read from data.
_BASE_SOURCE = (
    "total = data['unit_cost'] * data['quantity']\n"
    "print('status: 2')\n"
    "print(f\"objective: {total}\")\n"
)
_RECORD = {"unit_cost": 10.0, "quantity": 10.0, "holding_cost": 3.0}

_CONSTRAINT_REPLY = (
    '[{"description": "capacity limit", "type": "capacity", "parameters": ["missing_cap"]}]'
)
_EMPTY_REPLY = "[]"


def _scripted_llm(repair_replies, sent=None):
    """CPT extraction yields one untestable candidate (Info); OPT extraction
    yields a term whose parameter the base source ignores, producing a
    Warning that triggers repair.  ``repair_replies`` feed the repair calls
    in order; ``sent`` collects every user prompt."""
    replies = list(repair_replies)

    def fn(payload):
        user = payload["user"]
        if sent is not None:
            sent.append(user)
        if "KEY CONSTRAINTS" in user:
            return _EMPTY_REPLY
        if "KEY OBJECTIVE" in user:
            return ('[{"description": "holding cost", "role": "cost", '
                    '"parameters": ["holding_cost"]}]')
        if replies:
            return replies.pop(0)
        return "```python\n" + _BASE_SOURCE + "```"

    return llm_client(fn)


def _loop(program, llm, budget=3):
    config = PipelineConfig(repair_budget=budget)
    return repair_loop(program, 100.0, "problem", llm, CandidateRuntime(timeout_s=30.0), config)


def test_skip_guard_returns_immediately():
    # Both extractions empty: no Warning, loop exits verified, code unchanged.
    def fn(payload):
        return _EMPTY_REPLY

    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm_client(fn))
    assert out.report.status == VERIFIED
    assert out.program is program
    assert out.objective == 100.0
    assert out.iterations == 0


def test_rollback_on_objective_drift():
    # Repair rescales the cost by 1.10: 10% drift > 4% guard -> rollback.
    drifted = _BASE_SOURCE.replace(
        "data['unit_cost']", "(data['unit_cost'] * 1.10)")
    llm = _scripted_llm(["```python\n" + drifted + "```"])
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm)
    assert out.program.source == _BASE_SOURCE  # pre-repair code kept
    assert out.objective == 100.0
    assert any(e.get("decision") == "rollback" for e in out.events)
    assert out.report.status == NEEDS_REPAIR


def test_small_shift_accepted():
    # 3.9% shift stays under the guard; repair is adopted.
    shifted = _BASE_SOURCE.replace(
        "data['unit_cost']", "(data['unit_cost'] * 1.039)")
    llm = _scripted_llm(["```python\n" + shifted + "```"] * 3)
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm)
    assert out.objective == pytest.approx(103.9)
    assert any(e.get("decision") == "adopted" for e in out.events)


def test_each_extraction_prompt_sent_once():
    # The adopted repair still ignores holding cost, so a second L2 pass
    # warns again and the next repair returns identical code.
    shifted = _BASE_SOURCE.replace(
        "data['unit_cost']", "(data['unit_cost'] * 1.039)")
    sent = []
    llm = _scripted_llm(["```python\n" + shifted + "```"] * 3, sent)
    out = _loop(CandidateProgram(_BASE_SOURCE, _RECORD), llm)
    assert [e["decision"] for e in out.events] == ["adopted", "identical_code"]
    assert sum("KEY CONSTRAINTS" in user for user in sent) == 1
    assert sum("KEY OBJECTIVE" in user for user in sent) == 1


def test_self_contained_extraction_prompts_list_bound_data():
    # No data record: the prompts list the names the program binds to
    # numbers, not an empty list.
    source = (
        'data = {"unit_cost": 10.0, "quantity": [4, 6], "label": "x"}\n'
        "scale = 2\n"
        "total = data['unit_cost'] * sum(data['quantity']) * scale\n"
        "print('status: 2')\n"
        "print(f\"objective: {total}\")\n"
    )
    sent = []
    _loop(CandidateProgram(source), _scripted_llm([], sent))
    extraction = [u for u in sent if "KEY CONSTRAINTS" in u or "KEY OBJECTIVE" in u]
    assert len(extraction) == 2
    for user in extraction:
        assert "## Available Data Parameters\n['data', 'scale', 'unit_cost', 'quantity']" in user


def test_llm_error_ends_repair_with_first_pass_state(monkeypatch):
    passes = []
    run = repair.run_l2
    monkeypatch.setattr(repair, "run_l2", lambda *a: passes.append(run(*a)) or passes[-1])

    def fn(payload):
        user = payload["user"]
        if "KEY CONSTRAINTS" in user:
            return _EMPTY_REPLY
        if "KEY OBJECTIVE" in user:
            return ('[{"description": "holding cost", "role": "cost", '
                    '"parameters": ["holding_cost"]}]')
        raise LlmError("auth", "provider returned 401")

    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm_client(fn))
    assert out.events == [{"iteration": 1, "decision": "llm_error",
                           "detail": "auth: provider returned 401"}]
    assert out.program is program
    assert out.objective == 100.0
    assert len(passes) == 1
    assert out.diagnostics is passes[0]
    assert out.report.status == NEEDS_REPAIR


def test_identical_code_terminates():
    llm = _scripted_llm(["```python\n" + _BASE_SOURCE + "```"] * 5)
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm)
    assert out.iterations == 1
    assert any(e.get("decision") == "identical_code" for e in out.events)
    assert out.program.source == _BASE_SOURCE


def test_guided_retry_does_not_consume_budget():
    # First reply violates safety; the guided retry (same iteration) fixes a
    # genuinely repaired program that resolves the warning.
    fixed = (
        "total = data['unit_cost'] * data['quantity'] + 0 * data['holding_cost']\n"
        "print('status: 2')\n"
        "print(f\"objective: {total}\")\n"
    )
    unsafe = 'data = {"quantity": 1}\n' + _BASE_SOURCE
    repair_calls = []

    def fn(payload):
        user = payload["user"]
        if "KEY CONSTRAINTS" in user:
            return _EMPTY_REPLY
        if "KEY OBJECTIVE" in user:
            return ('[{"description": "holding cost", "role": "cost", '
                    '"parameters": ["holding_cost"]}]')
        repair_calls.append(user)
        if "SAFETY VIOLATIONS DETECTED" in user:
            return "```python\n" + fixed + "```"
        return "```python\n" + unsafe + "```"

    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm_client(fn), budget=1)  # one budgeted iteration only
    assert len(repair_calls) == 2  # original + safety retry
    assert "SAFETY VIOLATIONS DETECTED" in repair_calls[1]
    assert out.program.source.rstrip() == fixed.rstrip()
    assert out.objective == pytest.approx(100.0)


def test_unsafe_retry_keeps_pre_repair_code(monkeypatch):
    # Each L2 pass rewrites the record once per parameter it perturbs.
    perturbed = []
    perturb = l2.perturb_record
    monkeypatch.setattr(l2, "perturb_record",
                        lambda record, key, *a: perturbed.append(key) or perturb(record, key, *a))
    unsafe = 'data = {"quantity": 1}\n' + _BASE_SOURCE
    llm = _scripted_llm(["```python\n" + unsafe + "```"] * 10)
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm, budget=2)
    assert out.program.source == _BASE_SOURCE
    assert sum(1 for e in out.events
               if e.get("decision") == "unsafe_repair_discarded") == 2
    # A discarded repair leaves the program as L2 tested it: no second pass.
    assert perturbed == ["holding_cost"]


def test_unparseable_repair_rolls_back():
    # Source that does not parse passes the safety check untouched, fails
    # L1's syntax check without running, and the guard rolls it back.
    broken = "data = {broken syntax\nimport os\n"
    assert safety_check(broken, EXTERNAL_DICT) == []
    llm = _scripted_llm(["```python\n" + broken + "```"])
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm)
    assert [e["decision"] for e in out.events] == ["rollback"]
    assert out.events[0]["l1_passed"] is False
    assert out.program is program
    assert out.objective == 100.0


def test_plateau_terminates():
    # Textually different repair, behaviorally identical objective.
    plateau = _BASE_SOURCE + "# retuned\n"
    llm = _scripted_llm(["```python\n" + plateau + "```"] * 5)
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm)
    assert out.iterations == 1
    assert any(e.get("decision") == "plateau" for e in out.events)
    assert out.objective == 100.0


def test_budget_exhaustion_returns_verified_state():
    # Every repair is adopted but never fixes the warning: after N budgeted
    # iterations the loop returns the last verified program.
    v1 = _BASE_SOURCE + "# attempt\n"
    v2 = _BASE_SOURCE + "# attempt 2\n"
    v3 = _BASE_SOURCE + "# attempt 3\n"
    # Each adoption requires a changed objective to avoid the plateau guard.
    s1 = v1.replace("data['unit_cost']", "(data['unit_cost'] * 1.01)")
    s2 = v2.replace("data['unit_cost']", "(data['unit_cost'] * 0.99)")
    s3 = v3.replace("data['unit_cost']", "(data['unit_cost'] * 1.02)")
    llm = _scripted_llm(["```python\n" + s + "```" for s in (s1, s2, s3)])
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm, budget=3)
    assert out.iterations == 3
    assert out.report.status == NEEDS_REPAIR
    assert out.objective is not None  # still a verified solve


def test_outcome_type():
    program = CandidateProgram(_BASE_SOURCE, _RECORD)
    out = _loop(program, llm_client(lambda _: _EMPTY_REPLY))
    assert isinstance(out, RepairOutcome)
