from __future__ import annotations

import os
from pathlib import Path

import pytest

import optverify
from optverify.errors import SandboxSetupError
from optverify.runtime import (
    COMPLETED,
    CRASH,
    EXTERNAL_DICT,
    SELF_CONTAINED,
    TIMEOUT,
    CandidateProgram,
    CandidateRuntime,
    parse_contract,
)


def test_contract_lines_parsed(runtime):
    program = CandidateProgram('print("status: 2")\nprint("objective: 42.5")')
    outcome = runtime.execute(program, timeout_s=30)
    assert outcome.exit_kind == COMPLETED
    assert outcome.status_code == 2
    assert outcome.objective == 42.5


def test_last_occurrence_wins(runtime):
    src = (
        'print("solver noise")\n'
        'print("status: 9")\n'
        'print("objective: 1.0")\n'
        'print("status: 2")\n'
        'print("objective: 17.25")\n'
    )
    outcome = runtime.execute(CandidateProgram(src), timeout_s=30)
    assert outcome.status_code == 2
    assert outcome.objective == 17.25


@pytest.mark.parametrize("literal,expected", [
    ("3", 3.0),
    ("-12.5", -12.5),
    ("+4.25e2", 425.0),
    ("1E-3", 0.001),
    (".5", 0.5),
])
def test_objective_literal_forms(literal, expected):
    status, objective = parse_contract(f"status: 2\nobjective: {literal}\n")
    assert status == 2
    assert objective == pytest.approx(expected)


def test_contract_requires_own_line():
    status, objective = parse_contract("the status: 2 of things\nobjective: 3 extra\n")
    assert status is None
    assert objective is None


def test_timeout_kills_process(runtime):
    outcome = runtime.execute(
        CandidateProgram("while True:\n    pass"), timeout_s=1.0)
    assert outcome.exit_kind == TIMEOUT
    assert outcome.objective is None
    assert outcome.duration_s >= 1.0
    assert outcome.duration_s < 10.0


def test_crash_captures_stderr(runtime):
    outcome = runtime.execute(
        CandidateProgram("import definitely_not_a_module"), timeout_s=30)
    assert outcome.exit_kind == CRASH
    assert outcome.objective is None
    assert "definitely_not_a_module" in outcome.stderr


def test_external_dict_injection(runtime):
    src = 'print(f"status: {data[\'answer\']}")\nprint(f"objective: {data[\'value\']}")'
    outcome = runtime.execute(
        CandidateProgram(src, EXTERNAL_DICT),
        {"answer": 2, "value": 3.5},
        timeout_s=30,
    )
    assert outcome.status_code == 2
    assert outcome.objective == 3.5


def test_external_dict_requires_data(runtime):
    with pytest.raises(ValueError):
        runtime.execute(CandidateProgram("pass", EXTERNAL_DICT), None)


def test_caller_record_is_isolated(runtime):
    record = {"value": 1}
    src = "data['value'] = 999\nprint('status: 2')\nprint(f\"objective: {data['value']}\")"
    outcome = runtime.execute(CandidateProgram(src, EXTERNAL_DICT), record, timeout_s=30)
    assert outcome.objective == 999
    assert record == {"value": 1}


def test_scenario_instance_serialized(runtime, base):
    src = (
        "print('status: 2')\n"
        "print(f\"objective: {data['demand_curve']['SKU_Basic'][0]}\")"
    )
    outcome = runtime.execute(CandidateProgram(src, EXTERNAL_DICT), base, timeout_s=30)
    assert outcome.objective == 303


def test_missing_interpreter_raises_setup_error():
    rt = CandidateRuntime(interpreter=["/nonexistent/python-binary"])
    with pytest.raises(SandboxSetupError):
        rt.execute(CandidateProgram("print('hi')"), timeout_s=5)


def test_artifacts_persisted(tmp_path, base):
    rt = CandidateRuntime(artifact_root=tmp_path)
    rt.execute(
        CandidateProgram("print('status: 2')\nprint('objective: 1')", SELF_CONTAINED),
        timeout_s=30, run_label="probe")
    assert (tmp_path / "probe" / "candidate.py").exists()
    assert "status: 2" in (tmp_path / "probe" / "stdout.txt").read_text()


def test_repeated_label_keeps_every_run(tmp_path):
    rt = CandidateRuntime(artifact_root=tmp_path)
    sources = [f"print('status: 2')\nprint('objective: {z}')" for z in (1, 2)]
    for src in sources:
        rt.execute(CandidateProgram(src, SELF_CONTAINED), timeout_s=30, run_label="probe")
    dirs = sorted(tmp_path.iterdir())
    assert [d.name for d in dirs] == ["probe", "probe_0002"]
    assert [(d / "candidate.py").read_text() for d in dirs] == sources


def test_objective_ignored_unless_completed(runtime):
    src = "print('status: 2')\nprint('objective: 5.0')\nraise SystemExit(3)"
    outcome = runtime.execute(CandidateProgram(src), timeout_s=30)
    assert outcome.exit_kind == CRASH
    assert outcome.status_code is None
    assert outcome.objective is None


@pytest.mark.parametrize("caller_pythonpath", ["relative", "unset"])
def test_child_imports_running_optverify_from_any_cwd(
        runtime, monkeypatch, caller_pythonpath):
    package_root = Path(optverify.__file__).resolve().parent.parent
    monkeypatch.chdir(package_root.parent)
    unrelated = "optverify-unrelated-entry"
    if caller_pythonpath == "relative":
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join([package_root.name, unrelated]))
    else:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    src = (
        "import pathlib, sys\n"
        "import optverify\n"
        "print(f'package: {pathlib.Path(optverify.__file__).resolve()}')\n"
        "print('\\n'.join(sys.path))\n"
        "print('status: 2')\n"
    )
    outcome = runtime.execute(CandidateProgram(src), timeout_s=30)
    assert outcome.exit_kind == COMPLETED, outcome.stderr
    assert outcome.status_code == 2
    lines = outcome.stdout.splitlines()
    assert f"package: {Path(optverify.__file__).resolve()}" in lines
    if caller_pythonpath == "relative":
        assert str(package_root.parent / unrelated) in lines
