"""Per-instance orchestration: generate, verify, repair, persist artifacts.

Phase 1 generates a candidate and runs blocking L1 verification with up to
``max_regenerations`` error-guided retries; a surviving Fatal, a failed
generation included, means the instance failed.  Phase 2 runs the
non-blocking behavioral layer and the guarded repair loop.  Each run ends
in one :class:`InstanceRunResult`, its verdict derived from what it
observed, persisted once under the instance's run directory;
``report.json`` and ``result.json`` contain no volatile values (no
timestamps, durations, or absolute paths) so replayed runs are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .config import DEFAULT_CONFIG, PipelineConfig
from .diagnostics import FATAL, LAYER_L1, Diagnostic, VerificationReport
from .errors import GenerationError, LlmError
from .l1 import L1Result, l1_verify_with_regeneration
from .llm import LlmClient, generate, generate_with_schema
from .prompts import DATA_EMBEDDED, SCHEMA_BASED
from .repair import RepairOutcome, repair_loop
from .runtime import COMPLETED, CandidateProgram, CandidateRuntime
from .scenario import ScenarioInstance, to_json_dict


@dataclass
class InstanceRunResult:
    """What a run observed: the program it ends with, phase 1's last L1
    check and phase 2's outcome (None after a Fatal).  The rest is derived."""

    instance: str
    program: CandidateProgram | None
    l1: L1Result
    repair: RepairOutcome | None = None
    events: list[dict] = field(default_factory=list)

    @property
    def report(self) -> VerificationReport:
        # Info diagnostics from L1 (duality gap) ride along in the final report.
        phase2 = self.repair.diagnostics if self.repair else []
        return VerificationReport(self.l1.diagnostics + phase2, self.final_objective)

    @property
    def status(self) -> str:
        return self.report.status

    @property
    def executed(self) -> bool:
        return self.l1.outcome is not None and self.l1.outcome.exit_kind == COMPLETED

    @property
    def status_code(self) -> int | None:
        return self.l1.status_code

    @property
    def baseline_objective(self) -> float | None:
        return self.l1.objective

    @property
    def final_objective(self) -> float | None:
        return self.repair.objective if self.repair else None

    def to_result_dict(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "status": self.status,
            "data_mode": self.program.data_mode if self.program else None,
            "executed": self.executed,
            "status_code": self.status_code,
            "baseline_objective": self.baseline_objective,
            "objective": self.final_objective,
        }


def run_instance(
    inst: ScenarioInstance,
    problem: str,
    prompt_format: str,
    llm: LlmClient,
    config: PipelineConfig = DEFAULT_CONFIG,
    run_dir: str | Path | None = None,
) -> InstanceRunResult:
    """Full verification-and-repair pipeline for one instance."""
    run_path = Path(run_dir) if run_dir else None
    if run_path:
        run_path.mkdir(parents=True, exist_ok=True)
    runtime = CandidateRuntime(
        artifact_root=run_path / "runs" if run_path else None, timeout_s=config.timeout_s)
    events: list[dict] = []
    program, repair = None, None

    # Generation: schema prompts pair with the pre-validated instance record;
    # data-embedded prompts go through extraction-first generation.  Either
    # way the program carries the record it runs on from here to the end.
    try:
        if prompt_format == SCHEMA_BASED:
            program = generate_with_schema(problem, llm, to_json_dict(inst))
        elif prompt_format == DATA_EMBEDDED:
            program = generate(problem, llm)
        else:
            raise ValueError(f"unknown prompt format {prompt_format!r}")
    except (GenerationError, LlmError) as exc:
        events.append({"phase": "generation", "decision": "failed", "detail": str(exc)})
        l1_result = L1Result(
            [Diagnostic(LAYER_L1, FATAL, "generation_failed", "generation", str(exc))])
    else:
        # Phase 1: blocking execution verification with regeneration.
        program, l1_result = l1_verify_with_regeneration(
            program, problem, llm, runtime,
            max_regenerations=config.max_regenerations,
            audit=events,
        )
        # Phase 2: behavioral testing plus guarded repair.
        if l1_result.passed:
            repair = repair_loop(
                program, l1_result.objective, problem, llm, runtime, config=config)
            program = repair.program
            events.extend(repair.events)

    result = InstanceRunResult(inst.name, program, l1_result, repair, events)
    _persist(run_path, result)
    return result


def _persist(run_path: Path | None, result: InstanceRunResult) -> None:
    if run_path is None:
        return
    if result.program is not None:
        (run_path / "code.py").write_text(result.program.source, encoding="utf-8")
    (run_path / "report.json").write_text(
        json.dumps(result.report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (run_path / "result.json").write_text(
        json.dumps(result.to_result_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    # Each regeneration and repair call's prompt and reply, for audit.
    for i, event in enumerate(result.events, start=1):
        if "prompt" not in event:
            continue
        attempt_dir = run_path / f"attempt_{i}"
        attempt_dir.mkdir(parents=True, exist_ok=True)
        for key in ("prompt", "reply"):
            (attempt_dir / f"{key}.txt").write_text(str(event[key]), encoding="utf-8")
        meta = {k: v for k, v in event.items() if k not in ("prompt", "reply")}
        (attempt_dir / "decision.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8")
