from __future__ import annotations

import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

import pytest
from scipy.optimize._highspy._core import _Highs

import optverify
import optverify.runtime
from optverify.errors import SandboxSetupError
from optverify.runtime import (
    COMPLETED,
    CRASH,
    EXTERNAL_DICT,
    TIMEOUT,
    CandidateProgram,
    CandidateRuntime,
    parse_contract,
)
from optverify.scenario import to_json_dict


def test_contract_lines_parsed(runtime):
    program = CandidateProgram('print("status: 2")\nprint("objective: 42.5")')
    outcome = runtime.execute(program)
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
    outcome = runtime.execute(CandidateProgram(src))
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


def test_timeout_kills_process():
    outcome = CandidateRuntime(timeout_s=1.0).execute(CandidateProgram("while True:\n    pass"))
    assert outcome.exit_kind == TIMEOUT
    assert outcome.objective is None
    assert outcome.duration_s >= 1.0
    assert outcome.duration_s < 10.0


def test_crash_captures_stderr(runtime):
    outcome = runtime.execute(
        CandidateProgram("import definitely_not_a_module"))
    assert outcome.exit_kind == CRASH
    assert outcome.objective is None
    assert "definitely_not_a_module" in outcome.stderr


def test_external_dict_injection(runtime):
    src = 'print(f"status: {data[\'answer\']}")\nprint(f"objective: {data[\'value\']}")'
    program = CandidateProgram(src, {"answer": 2, "value": 3.5})
    assert program.data_mode == EXTERNAL_DICT
    outcome = runtime.execute(program)
    assert outcome.status_code == 2
    assert outcome.objective == 3.5


def test_caller_record_is_isolated(runtime):
    record = {"value": 1}
    src = "data['value'] = 999\nprint('status: 2')\nprint(f\"objective: {data['value']}\")"
    outcome = runtime.execute(CandidateProgram(src, record))
    assert outcome.objective == 999
    assert record == {"value": 1}


def test_scenario_instance_serialized(runtime, base):
    src = (
        "print('status: 2')\n"
        "print(f\"objective: {data['demand_curve']['SKU_Basic'][0]}\")"
    )
    outcome = runtime.execute(CandidateProgram(src, to_json_dict(base)))
    assert outcome.objective == 303


def test_fork_failure_raises_setup_error(monkeypatch):
    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(SandboxSetupError):
        CandidateRuntime().execute(CandidateProgram("print('hi')"))


def test_artifacts_persisted(tmp_path, base):
    rt = CandidateRuntime(artifact_root=tmp_path)
    rt.execute(
        CandidateProgram("print('status: 2')\nprint('objective: 1')"),
        run_label="probe")
    assert (tmp_path / "probe" / "candidate.py").exists()
    assert "status: 2" in (tmp_path / "probe" / "stdout.txt").read_text()


def test_repeated_label_keeps_every_run(tmp_path):
    rt = CandidateRuntime(artifact_root=tmp_path)
    sources = [f"print('status: 2')\nprint('objective: {z}')" for z in (1, 2)]
    for src in sources:
        rt.execute(CandidateProgram(src), run_label="probe")
    dirs = sorted(tmp_path.iterdir())
    assert [d.name for d in dirs] == ["probe", "probe_0002"]
    assert [(d / "candidate.py").read_text() for d in dirs] == sources


def test_objective_ignored_unless_completed(runtime):
    src = "print('status: 2')\nprint('objective: 5.0')\nraise SystemExit(3)"
    outcome = runtime.execute(CandidateProgram(src))
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
        "import json, os, pathlib, sys\n"
        "import optverify\n"
        "print(f'package: {pathlib.Path(optverify.__file__).resolve()}')\n"
        "print(f'cwd: {os.getcwd()}')\n"
        "print(f'path: {json.dumps(sys.path)}')\n"
        "print('status: 2')\n"
    )
    outcome = runtime.execute(CandidateProgram(src))
    assert outcome.exit_kind == COMPLETED, outcome.stderr
    assert outcome.status_code == 2
    lines = outcome.stdout.splitlines()
    assert f"package: {Path(optverify.__file__).resolve()}" in lines
    cwd = next(line[len("cwd: "):] for line in lines if line.startswith("cwd: "))
    child_path = json.loads(
        next(line[len("path: "):] for line in lines if line.startswith("path: ")))
    assert Path(child_path[0]).resolve() == Path(cwd).resolve()
    assert child_path[1:] == sys.path


@pytest.mark.parametrize("src,exit_kind,stderr_text", [
    ("print('status: 2')\nimport sys\nsys.exit()", COMPLETED, ""),
    ("print('status: 2')\nimport sys\nsys.exit(0)", COMPLETED, ""),
    ("print('status: 2')\nimport sys\nsys.exit('bad input file')", CRASH, "bad input file"),
    ("import sys\nsys.exit(256)", COMPLETED, ""),
], ids=["none", "zero", "message", "wraps_to_zero"])
def test_sys_exit_maps_like_an_interpreter(runtime, src, exit_kind, stderr_text):
    outcome = runtime.execute(CandidateProgram(src))
    assert outcome.exit_kind == exit_kind
    assert outcome.stderr.strip() == stderr_text


def test_uncaught_exception_traceback_starts_at_candidate(runtime):
    outcome = runtime.execute(
        CandidateProgram("x = 1\nraise ValueError('bad shape')"))
    assert outcome.exit_kind == CRASH
    lines = outcome.stderr.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[1].endswith('candidate.py", line 2, in <module>')
    assert lines[-1] == "ValueError: bad shape"
    assert "runpy" not in outcome.stderr


@pytest.mark.parametrize("src", [
    "import os\nos.write(1, b'status: 2\\nobjective: 7\\n')",
    "if __name__ == '__main__':\n    print('status: 2')\n    print('objective: 7')",
], ids=["fd_write", "main_block"])
def test_contract_reached_through_fd_and_main_block(runtime, src):
    outcome = runtime.execute(CandidateProgram(src))
    assert outcome.exit_kind == COMPLETED, outcome.stderr
    assert (outcome.status_code, outcome.objective) == (2, 7.0)


def test_parent_unflushed_output_stays_out_of_candidate(runtime, monkeypatch):
    # The parent's stdout writes fd 1 through a buffer the child inherits,
    # and a logging handler lets the candidate write through that buffer.
    parent_out = open(1, "w", buffering=1 << 16, encoding="utf-8", closefd=False)
    monkeypatch.setattr(sys, "stdout", parent_out)
    logger = logging.getLogger("optverify.test_runtime")
    handler = logging.StreamHandler(parent_out)
    logger.addHandler(handler)
    try:
        print("parent-only-text")
        src = (
            "import logging\n"
            "logging.getLogger('optverify.test_runtime').warning('candidate-line')\n"
            "print('status: 2')"
        )
        outcome = runtime.execute(CandidateProgram(src))
    finally:
        logger.removeHandler(handler)
    assert outcome.exit_kind == COMPLETED
    assert "candidate-line" in outcome.stdout
    assert "parent-only-text" not in outcome.stdout
    assert outcome.status_code == 2


def test_candidate_cannot_write_parent_descriptors(runtime, tmp_path):
    log = tmp_path / "parent.log"
    with open(log, "w") as fh:
        src = f"import os\nos.write({fh.fileno()}, b'leak')"
        outcome = runtime.execute(CandidateProgram(src))
    assert outcome.exit_kind == CRASH
    assert "Bad file descriptor" in outcome.stderr
    assert log.read_text() == ""


def test_candidate_cannot_rebind_parent_globals(runtime):
    src = (
        "import optverify.runtime\n"
        "optverify.runtime.DEFAULT_TIMEOUT_S = 1.0\n"
        "print('status: 2')"
    )
    before = optverify.runtime.DEFAULT_TIMEOUT_S
    outcome = runtime.execute(CandidateProgram(src))
    assert outcome.exit_kind == COMPLETED
    assert optverify.runtime.DEFAULT_TIMEOUT_S == before == 60.0


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def test_timeout_kills_grandchildren():
    src = (
        "import subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(120)'])\n"
        "print(f'grandchild: {child.pid}', flush=True)\n"
        "while True:\n"
        "    pass\n"
    )
    outcome = CandidateRuntime(timeout_s=2).execute(CandidateProgram(src))
    assert outcome.exit_kind == TIMEOUT
    pid = int(outcome.stdout.split("grandchild: ")[1].split()[0])
    deadline = time.monotonic() + 5
    while not _gone_or_zombie(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone_or_zombie(pid)


def test_run_cost_reported_and_persisted(tmp_path):
    rt = CandidateRuntime(artifact_root=tmp_path)
    src = (
        "import time\n"
        "end = time.process_time() + 0.3\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "print('status: 2')"
    )
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    outcome = rt.execute(CandidateProgram(src), run_label="probe")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert outcome.exit_kind == COMPLETED
    assert outcome.cpu_s >= 0.25
    assert outcome.maxrss_mb > 0
    # The child was reaped before execute returned, so the caller's
    # children account holds exactly its CPU time.
    children_cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert children_cpu == pytest.approx(outcome.cpu_s, abs=1e-3)
    cost = json.loads((tmp_path / "probe" / "exec.json").read_text())
    assert cost == {"duration_s": outcome.duration_s, "cpu_s": outcome.cpu_s,
                    "maxrss_mb": outcome.maxrss_mb}


def test_mip_candidate_after_threaded_parent_solve(runtime):
    # A parent whose HiGHS already runs worker threads, as after any solve
    # on a machine with three or more cores.
    h = _Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("threads", 4)
    h.run()
    src = (
        "import numpy as np\n"
        "from scipy.optimize import Bounds, LinearConstraint, milp\n"
        "rng = np.random.default_rng(1)\n"
        "a = rng.random((40, 80))\n"
        "res = milp(-rng.random(80), integrality=np.ones(80), bounds=Bounds(0, 1),\n"
        "           constraints=LinearConstraint(a, -np.inf, a.sum(axis=1) / 3))\n"
        "print(f'status: {res.status}')\n"
    )
    try:
        outcome = runtime.execute(CandidateProgram(src))
    finally:
        _Highs.resetGlobalScheduler(True)
    assert outcome.exit_kind == COMPLETED, outcome.stderr
    assert outcome.status_code == 0


def test_batch_children_run_concurrently():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    sleeper = CandidateProgram("import time\ntime.sleep(1.0)\nprint('status: 2')")
    start = time.monotonic()
    outcomes = CandidateRuntime().execute_all([(sleeper, None), (sleeper, None)])
    assert time.monotonic() - start < 1.8
    assert [o.exit_kind for o in outcomes] == [COMPLETED, COMPLETED]


def test_batch_children_end_on_their_own():
    runs = [
        (CandidateProgram("print('status: 2')\nprint('objective: 4')"), None),
        (CandidateProgram("raise ValueError('boom')"), None),
        (CandidateProgram("while True:\n    pass"), None),
    ]
    done, crashed, spun = CandidateRuntime(timeout_s=1).execute_all(runs)
    assert (done.exit_kind, done.objective) == (COMPLETED, 4.0)
    assert crashed.exit_kind == CRASH
    assert crashed.stderr.splitlines()[-1] == "ValueError: boom"
    assert spun.exit_kind == TIMEOUT
    assert 1.0 <= spun.duration_s < 10.0


def test_batch_keeps_input_order_and_sequential_names(tmp_path):
    # The last child finishes first; order and names follow the input.
    runs = [
        (CandidateProgram(f"import time\ntime.sleep({delay})\n"
                          f"print('status: 2')\nprint('objective: {z}')"), label)
        for z, delay, label in ((1, 0.6, "probe"), (2, 0.3, "probe"), (3, 0.0, "other"))
    ]
    sequential = CandidateRuntime(artifact_root=tmp_path / "sequential")
    for program, label in runs:
        sequential.execute(program, run_label=label)
    outcomes = CandidateRuntime(artifact_root=tmp_path / "batch").execute_all(runs)
    assert [o.objective for o in outcomes] == [1.0, 2.0, 3.0]
    names = ["other", "probe", "probe_0002"]
    for root in ("sequential", "batch"):
        dirs = sorted((tmp_path / root).iterdir())
        assert [d.name for d in dirs] == names
        assert [(d / "candidate.py").read_text() for d in dirs] == [
            runs[2][0].source, runs[0][0].source, runs[1][0].source]


def _fork_only_once(monkeypatch) -> list[int]:
    """Let the first fork succeed and fail every later one, on two CPUs;
    returns the pids forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real_fork = os.fork
    forked = []

    def fork_once():
        if forked:
            raise OSError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork_once)
    return forked


def test_failed_fork_mid_batch_reaps_started_children(monkeypatch):
    forked = _fork_only_once(monkeypatch)
    sleeper = CandidateProgram("import time\ntime.sleep(60)")
    start = time.monotonic()
    with pytest.raises(SandboxSetupError):
        CandidateRuntime().execute_all([(sleeper, None), (sleeper, None)])
    assert time.monotonic() - start < 10.0
    assert len(forked) == 1
    # Reaped: the pid is no longer a child of this process.  (Other tests
    # may leave unrelated children, such as a multiprocessing resource
    # tracker, so ``waitpid(-1)`` is no witness here.)
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)


def test_failed_fork_mid_batch_keeps_started_runs(monkeypatch, tmp_path):
    _fork_only_once(monkeypatch)
    sleeper = CandidateProgram("import time\ntime.sleep(60)")
    with pytest.raises(SandboxSetupError):
        CandidateRuntime(artifact_root=tmp_path).execute_all(
            [(sleeper, "first"), (sleeper, "second")])
    assert (tmp_path / "first" / "candidate.py").read_text() == sleeper.source
    assert (tmp_path / "first" / "exec.json").exists()


def test_child_runs_in_its_run_directory(tmp_path):
    src = (
        "import os\n"
        "print(f'cwd: {os.getcwd()}')\n"
        "with open('model.json', 'w') as fh:\n"
        "    fh.write('{}')\n"
        "print('status: 2')\n"
    )
    outcome = CandidateRuntime(artifact_root=tmp_path).execute(
        CandidateProgram(src), run_label="probe")
    assert outcome.exit_kind == COMPLETED, outcome.stderr
    assert f"cwd: {tmp_path / 'probe'}" in outcome.stdout.splitlines()
    assert (tmp_path / "probe" / "model.json").read_text() == "{}"


def test_candidate_removing_its_run_directory_still_ends_as_a_run(tmp_path):
    src = "import os, shutil\nshutil.rmtree(os.getcwd())\nprint('status: 2')"
    outcome = CandidateRuntime(artifact_root=tmp_path).execute(
        CandidateProgram(src), run_label="probe")
    assert (outcome.exit_kind, outcome.status_code) == (COMPLETED, 2)
    assert (tmp_path / "probe" / "exec.json").exists()


def test_relative_root_imports_module_written_beside_candidate(tmp_path, monkeypatch):
    # The root is resolved once, against the caller's working directory, so
    # the child's ``sys.path[0]`` names its own directory from inside it.
    monkeypatch.chdir(tmp_path)
    src = (
        "import importlib, os, sys\n"
        "with open('helper.py', 'w') as fh:\n"
        "    fh.write('ANSWER = 7\\n')\n"
        "importlib.invalidate_caches()\n"
        "import helper\n"
        "print(f'path0: {sys.path[0]}')\n"
        "print('status: 2')\n"
        "print(f'objective: {helper.ANSWER}')\n"
    )
    outcome = CandidateRuntime(artifact_root="runs").execute(
        CandidateProgram(src), run_label="probe")
    assert outcome.exit_kind == COMPLETED, outcome.stderr
    assert outcome.objective == 7.0
    assert f"path0: {tmp_path / 'runs' / 'probe'}" in outcome.stdout.splitlines()
    assert (tmp_path / "runs" / "probe" / "helper.py").exists()
