"""Isolated execution of untrusted candidate programs.

Each run gets a fresh temp working directory and a fresh interpreter
process, killed at the wall-clock timeout.  The child's ``PYTHONPATH`` is
made absolute and extended with the directory holding this ``optverify``
package, so a candidate imports the same ``optverify`` as its parent
whatever the caller's working directory.  In ``external_dict`` mode the
instance record is serialized into the run directory and a generated
preamble parses it and binds it to ``data`` before the candidate source
runs, so a candidate can never mutate the caller's copy.

Stdout is scanned for the output contract lines ``status: <int>`` and
``objective: <float>``; they may appear anywhere (solvers print noise) and
the last occurrence of each wins.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import site
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import SandboxSetupError
from .scenario import ScenarioInstance, to_json_dict

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

_DATA_FILE = "instance.json"
_PREAMBLE = (
    "import json as _ov_json\n"
    f"with open({_DATA_FILE!r}, encoding='utf-8') as _ov_fh:\n"
    "    data = _ov_json.load(_ov_fh)\n"
    "del _ov_json, _ov_fh\n"
)


@dataclass(frozen=True)
class CandidateProgram:
    source: str
    data_mode: str = SELF_CONTAINED


@dataclass(frozen=True)
class ExecutionOutcome:
    exit_kind: str
    status_code: int | None
    objective: float | None
    stdout: str
    stderr: str
    duration_s: float


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
    """Subprocess runner for candidate programs.

    ``interpreter`` is the command prefix (defaults to the current Python);
    ``artifact_root``, when set, receives per-run copies of the assembled
    script and captured streams for audit, one directory per run: a label
    already used gets the run counter appended, so no run overwrites another.
    """

    def __init__(
        self,
        interpreter: Sequence[str] | None = None,
        artifact_root: str | Path | None = None,
    ):
        self.interpreter = list(interpreter) if interpreter else [sys.executable]
        self.artifact_root = Path(artifact_root) if artifact_root else None
        self._run_counter = 0

    def execute(
        self,
        program: CandidateProgram,
        data: ScenarioInstance | Mapping[str, Any] | None = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        run_label: str | None = None,
    ) -> ExecutionOutcome:
        if program.data_mode == EXTERNAL_DICT and data is None:
            raise ValueError("external_dict mode requires a data record")

        with tempfile.TemporaryDirectory(prefix="optverify-run-") as tmp:
            workdir = Path(tmp)
            source = program.source
            if program.data_mode == EXTERNAL_DICT:
                record = to_json_dict(data) if isinstance(data, ScenarioInstance) else data
                (workdir / _DATA_FILE).write_text(
                    json.dumps(record), encoding="utf-8")
                source = _PREAMBLE + "\n" + program.source
            script = workdir / "candidate.py"
            script.write_text(source, encoding="utf-8")

            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [*self.interpreter, script.name],
                    cwd=workdir,
                    env=_child_env(),
                    capture_output=True,
                    text=True,
                    timeout=timeout_s,
                )
                duration = time.monotonic() - start
                exit_kind = COMPLETED if proc.returncode == 0 else CRASH
                stdout, stderr = proc.stdout, proc.stderr
            except subprocess.TimeoutExpired as exc:
                duration = time.monotonic() - start
                exit_kind = TIMEOUT
                stdout = _decode(exc.stdout)
                stderr = _decode(exc.stderr)
            except FileNotFoundError as exc:
                raise SandboxSetupError(
                    f"interpreter not found: {self.interpreter[0]}") from exc

            status_code, objective = (None, None)
            if exit_kind == COMPLETED:
                status_code, objective = parse_contract(stdout)

            outcome = ExecutionOutcome(
                exit_kind=exit_kind,
                status_code=status_code,
                objective=objective,
                stdout=stdout,
                stderr=stderr,
                duration_s=duration,
            )
            self._persist(workdir, outcome, run_label)
            return outcome

    def _persist(self, workdir: Path, outcome: ExecutionOutcome, label: str | None) -> None:
        if self.artifact_root is None:
            return
        self._run_counter += 1
        name = label or f"run_{self._run_counter:04d}"
        dest = self.artifact_root / name
        n = self._run_counter
        while dest.exists():
            dest = self.artifact_root / f"{name}_{n:04d}"
            n += 1
        dest.mkdir(parents=True)
        for fname in ("candidate.py", _DATA_FILE):
            src = workdir / fname
            if src.exists():
                shutil.copy(src, dest / fname)
        (dest / "stdout.txt").write_text(outcome.stdout, encoding="utf-8")
        (dest / "stderr.txt").write_text(outcome.stderr, encoding="utf-8")


def _child_env() -> dict[str, str]:
    """The caller's environment with an absolute ``PYTHONPATH`` that ends in
    the directory containing the running ``optverify`` package, unless that
    directory is a site directory the child finds on its own."""
    env = dict(os.environ)
    # An empty entry means the cwd to Python, so it resolves to the caller's.
    given = env.get("PYTHONPATH")
    entries = [str(Path(e).resolve()) for e in given.split(os.pathsep)] if given else []
    package_root = str(Path(__file__).resolve().parent.parent)
    # An installed copy's site directory is on the child's path already;
    # listing it here would put it ahead of the standard library.
    site_dirs = {str(Path(d).resolve())
                 for d in (*site.getsitepackages(), site.getusersitepackages())}
    if package_root not in entries and package_root not in site_dirs:
        entries.append(package_root)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def _decode(stream: bytes | str | None) -> str:
    if stream is None:
        return ""
    if isinstance(stream, bytes):
        return stream.decode("utf-8", errors="replace")
    return stream
