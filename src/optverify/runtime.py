"""Isolated execution of untrusted candidate programs.

Each run forks the calling process, which already holds numpy, scipy and
``optverify``, so a candidate starts without importing them again.  The
runtime carries the wall-clock limit of its runs; the pipeline builds one
per instance, and every layer that runs the candidate uses it.
``execute_all`` runs a batch of programs through one fork/poll/reap loop:
at most one child per usable CPU is alive at a time, each under the limit
counted from its own fork, and outcomes come back in input order;
``execute`` is a batch of one.  Each child gets its own session (the
timeout kills its whole process group), its run directory as working
directory and first on ``sys.path``, ``/dev/null`` as stdin,
``stdout.txt``/``stderr.txt`` in that directory as fds 1 and 2 (so C code
such as HiGHS is captured too) and no other descriptor of the caller.  It
runs the script as ``__main__`` and exits with the status and traceback
``python candidate.py`` would give.  Every child is reaped with ``os.wait4``
before ``execute_all`` returns, so its CPU time and peak RSS count in the
caller's ``RUSAGE_CHILDREN``.  The caller must not run Python threads,
since a fork from a threaded process can deadlock the child; the child
drops the thread pool HiGHS keeps.  Requires Linux (``fork``, ``setsid``,
``pidfd_open``).

The run directory holds the program as written, ``candidate.py``, which the
child runs by that relative name: tracebacks carry the program's own line
numbers and no directory path, so crash evidence is the same on every run.
A program that carries a data record (``external_dict`` mode) has the
script's ``data`` global bound to the child's forked copy of it, so a
candidate can never mutate the caller's copy; ``instance.json`` in the run
directory is the audit copy of the record.

Stdout is scanned for the output contract lines ``status: <int>`` and
``objective: <float>``; they may appear anywhere (solvers print noise) and
the last occurrence of each wins.
"""

from __future__ import annotations

import json
import os
import re
import runpy
import select
import signal
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, NoReturn, Sequence

from scipy.optimize._highspy._core import _Highs

from .errors import SandboxSetupError

EXTERNAL_DICT = "external_dict"
SELF_CONTAINED = "self_contained"

DEFAULT_TIMEOUT_S = 60.0

COMPLETED = "completed"
TIMEOUT = "timeout"
CRASH = "crash"

_STATUS_RE = re.compile(r"^\s*status\s*:\s*([+-]?\d+)\s*$", re.MULTILINE)
_OBJECTIVE_RE = re.compile(
    r"^\s*objective\s*:\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*$",
    re.MULTILINE,
)

_SCRIPT = "candidate.py"
_DATA_FILE = "instance.json"


@dataclass(frozen=True)
class CandidateProgram:
    """Program text plus the data record bound to its ``data`` global.

    A program without a record defines its data itself.
    """

    source: str
    data: dict[str, Any] | None = None

    @property
    def data_mode(self) -> str:
        return SELF_CONTAINED if self.data is None else EXTERNAL_DICT


@dataclass(frozen=True)
class ExecutionOutcome:
    exit_kind: str
    status_code: int | None
    objective: float | None
    stdout: str
    stderr: str
    duration_s: float
    cpu_s: float
    maxrss_mb: float


def parse_contract(stdout: str) -> tuple[int | None, float | None]:
    """Last-match parse of the status/objective contract lines."""
    status = None
    objective = None
    matches = _STATUS_RE.findall(stdout)
    if matches:
        status = int(matches[-1])
    matches = _OBJECTIVE_RE.findall(stdout)
    if matches:
        objective = float(matches[-1])
    return status, objective


class CandidateRuntime:
    """Forking runner for candidate programs.

    One runtime serves every run of an instance: L1, each L2 perturbation
    and each repair re-verification run under its wall-clock limit
    ``timeout_s``.  Each run gets its own directory under ``artifact_root``
    (under a temporary root, deleted with the batch, when there is none),
    made when its child is spawned: the run keeps the script, the record,
    the captured streams, the run's cost (``exec.json``) and whatever the
    candidate writes there.  A label already used gets the run counter
    appended, so no run overwrites another.
    """

    def __init__(self, artifact_root: str | Path | None = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S):
        self.artifact_root = Path(artifact_root).absolute() if artifact_root else None
        self.timeout_s = timeout_s
        self._run_counter = 0

    def execute(self, program: CandidateProgram, run_label: str | None = None) -> ExecutionOutcome:
        return self.execute_all([(program, run_label)])[0]

    def execute_all(self, runs: Sequence[tuple[CandidateProgram, str | None]]) -> list[ExecutionOutcome]:
        """Run each ``(program, run_label)``, at most one child per usable CPU
        at a time, each under the timeout counted from its own fork.
        Outcomes and run directories come in input order."""
        slots = len(os.sched_getaffinity(0))
        outcomes: list = [None] * len(runs)
        with (nullcontext(self.artifact_root) if self.artifact_root
              else tempfile.TemporaryDirectory(prefix="optverify-run-")) as root:
            live: dict[int, _Child] = {}  # by pidfd
            poller = select.poll()
            spawned = 0
            try:
                while spawned < len(runs) or live:
                    while spawned < len(runs) and len(live) < slots:
                        program, label = runs[spawned]
                        pidfd, child = _spawn(program, self._run_dir(Path(root), label),
                                              spawned, self.timeout_s)
                        live[pidfd] = child
                        poller.register(pidfd, select.POLLIN)
                        spawned += 1
                    # poll() takes at most 2**31 - 1 ms, so long timeouts wait in steps.
                    left = min(c.deadline for c in live.values()) - time.monotonic()
                    ready = {fd for fd, _ in poller.poll(min(max(left, 0.0), 3600.0) * 1000)}
                    now = time.monotonic()
                    for pidfd, child in list(live.items()):
                        if pidfd in ready or child.deadline <= now:
                            poller.unregister(pidfd)
                            os.close(pidfd)
                            del live[pidfd]
                            outcomes[child.index] = child.finish(exited=pidfd in ready)
            finally:
                for pidfd, child in live.items():
                    os.close(pidfd)
                    child.finish(exited=False)
        return outcomes

    def _run_dir(self, root: Path, label: str | None) -> Path:
        """Make the next run's directory: its label, or ``run_NNNN``, with
        the run counter appended while the name is taken."""
        self._run_counter += 1
        name = label or f"run_{self._run_counter:04d}"
        workdir = root / name
        n = self._run_counter
        while workdir.exists():
            workdir = root / f"{name}_{n:04d}"
            n += 1
        workdir.mkdir(parents=True)
        return workdir


@dataclass
class _Child:
    """A forked run: its input position, directory, pid, deadline and
    capture files."""

    index: int
    workdir: Path
    pid: int
    start: float
    deadline: float
    out: IO[str]
    err: IO[str]

    def finish(self, exited: bool) -> ExecutionOutcome:
        """Kill the child's process group, reap it, read back its streams and
        write its cost to ``exec.json``; ``exited`` tells whether it ended in
        time.  The group is killed in every case, so no process the candidate
        started outlives the run."""
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:  # the child has not called setsid yet
            os.kill(self.pid, signal.SIGKILL)
        _, status, usage = os.wait4(self.pid, 0)
        duration = time.monotonic() - self.start
        with self.out, self.err:
            self.out.seek(0)
            self.err.seek(0)
            stdout, stderr = self.out.read(), self.err.read()
        exit_kind = (TIMEOUT if not exited
                     else COMPLETED if os.waitstatus_to_exitcode(status) == 0 else CRASH)
        status_code, objective = parse_contract(stdout) if exit_kind == COMPLETED else (None, None)
        cost = {"duration_s": duration, "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024}
        self.workdir.mkdir(exist_ok=True)  # the candidate may have removed it
        (self.workdir / "exec.json").write_text(
            json.dumps(cost, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return ExecutionOutcome(exit_kind, status_code, objective, stdout, stderr, **cost)


def _spawn(program: CandidateProgram, workdir: Path, index: int,
           timeout_s: float) -> tuple[int, _Child]:
    """Write the run directory and fork the child that runs it."""
    if program.data is not None:
        (workdir / _DATA_FILE).write_text(json.dumps(program.data), encoding="utf-8")
    (workdir / _SCRIPT).write_text(program.source, encoding="utf-8")
    # The parent holds the capture files open, so it reads them back
    # whatever the candidate does to its directory.
    out = open(workdir / "stdout.txt", "w+", encoding="utf-8", errors="replace")
    err = open(workdir / "stderr.txt", "w+", encoding="utf-8", errors="replace")
    # Unflushed parent output would otherwise be copied into the child and
    # could end up in its capture files.
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.monotonic()
    try:
        pid = os.fork()
    except OSError as exc:
        out.close()
        err.close()
        raise SandboxSetupError(f"cannot fork a candidate: {exc}") from exc
    if pid == 0:
        _run_child(workdir, program.data, out.fileno(), err.fileno())
    child = _Child(index, workdir, pid, start, start + timeout_s, out, err)
    try:
        return os.pidfd_open(pid), child
    except BaseException:
        child.finish(exited=False)
        raise


def _run_child(workdir: Path, data: dict[str, Any] | None, out_fd: int, err_fd: int) -> NoReturn:
    """Body of the forked child: run the script in ``workdir``, with
    ``data`` bound to its global of that name unless None, then exit
    without returning into the caller's stack."""
    code = 1
    try:
        os.setsid()
        # HiGHS solves MIPs on a process-wide pool of threads, which did not
        # survive the fork: a MIP solved here would wait on the lost workers
        # forever.  Drop the pool without joining it; HiGHS starts a new one
        # on its next solve.
        _Highs.resetGlobalScheduler(False)
        os.chdir(workdir)
        null_fd = os.open(os.devnull, os.O_RDONLY)
        for fd, target in ((null_fd, 0), (out_fd, 1), (err_fd, 2)):
            os.dup2(fd, target)
        # The parent's other descriptors (open files, pipes to a process
        # pool) are not the candidate's to write to.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdin = sys.__stdin__ = open(0, encoding="utf-8", closefd=False)
        sys.stdout = sys.__stdout__ = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = sys.__stderr__ = open(2, "w", buffering=1, encoding="utf-8",
                                           errors="backslashreplace", closefd=False)
        sys.argv = [_SCRIPT]
        sys.path.insert(0, str(workdir))
        code = _run_script(None if data is None else {"data": data})
    finally:
        os._exit(code)


def _run_script(init_globals: dict[str, Any] | None) -> int:
    """Run ``candidate.py`` of the working directory as ``__main__``; the exit
    status ``python candidate.py`` gives."""
    try:
        runpy.run_path(_SCRIPT, init_globals, run_name="__main__")
        code = 0
    except SystemExit as exc:
        if exc.code is None:
            code = 0
        elif isinstance(exc.code, int):
            code = exc.code & 0xFF
        else:
            print(exc.code, file=sys.stderr)
            code = 1
    except BaseException as exc:  # an uncaught exception ends the program
        # Drop the runtime's and runpy's frames: ``python script`` shows none.
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code.co_filename != _SCRIPT:
            tb = tb.tb_next
        traceback.print_exception(type(exc), exc, tb)
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    return code
