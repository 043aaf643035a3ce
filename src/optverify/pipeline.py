"""Per-instance orchestration: generate, verify, repair, persist artifacts.

Phase 1 generates a candidate and runs blocking L1 verification with up to
``max_regenerations`` error-guided retries; a surviving Fatal means the
instance failed.  Phase 2 runs the non-blocking behavioral layer and the
guarded repair loop.  Everything the run decided is persisted under the
instance's run directory; ``report.json`` and ``result.json`` contain no
volatile values (no timestamps, durations, or absolute paths) so replayed
runs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .config import DEFAULT_CONFIG, PipelineConfig
from .diagnostics import FAILED, VerificationReport
from .errors import GenerationError, LlmError
from .l1 import l1_verify_with_regeneration
from .llm import (
    GenerationResult,
    LlmClient,
    describe_data_keys,
    generate,
    generate_with_schema,
)
from .prompts import DATA_EMBEDDED, SCHEMA_BASED
from .repair import RepairOutcome, repair_loop
from .runtime import COMPLETED, EXTERNAL_DICT, CandidateProgram, CandidateRuntime
from .scenario import ScenarioInstance, to_json_dict


@dataclass
class InstanceRunResult:
    instance: str
    status: str
    program: CandidateProgram | None
    baseline_objective: float | None
    final_objective: float | None
    status_code: int | None
    executed: bool
    report: VerificationReport
    events: list[dict] = field(default_factory=list)

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
        artifact_root=run_path / "runs" if run_path else None)
    events: list[dict] = []

    # Generation: schema prompts pair with the pre-validated instance record;
    # data-embedded prompts go through extraction-first generation.
    record = to_json_dict(inst)
    schema_desc = describe_data_keys(record)
    try:
        if prompt_format == SCHEMA_BASED:
            program = generate_with_schema(problem, llm, schema_desc)
            data: Any = inst
        elif prompt_format == DATA_EMBEDDED:
            gen: GenerationResult = generate(problem, llm)
            program = gen.program
            data = gen.extracted_data
            if program.data_mode == EXTERNAL_DICT and data is not None:
                schema_desc = describe_data_keys(data)
        else:
            raise ValueError(f"unknown prompt format {prompt_format!r}")
    except (GenerationError, LlmError) as exc:
        events.append({"phase": "generation", "decision": "failed", "detail": str(exc)})
        result = InstanceRunResult(
            instance=inst.name, status=FAILED, program=None,
            baseline_objective=None, final_objective=None,
            status_code=None, executed=False,
            report=VerificationReport([], None), events=events,
        )
        _persist(run_path, result, events)
        return result

    # Phase 1: blocking execution verification with regeneration.
    program, l1_result = l1_verify_with_regeneration(
        program, data, problem, llm, runtime,
        max_regenerations=config.max_regenerations,
        timeout_s=config.timeout_s,
        data_schema=schema_desc if program.data_mode == EXTERNAL_DICT else None,
        audit=events,
    )
    executed = bool(
        l1_result.outcome and l1_result.outcome.exit_kind == COMPLETED)
    if not l1_result.passed:
        result = InstanceRunResult(
            instance=inst.name, status=FAILED, program=program,
            baseline_objective=None, final_objective=None,
            status_code=l1_result.status_code, executed=executed,
            report=VerificationReport(l1_result.diagnostics, None),
            events=events,
        )
        _persist(run_path, result, events)
        return result

    z_star = l1_result.objective
    assert z_star is not None

    # Phase 2: behavioral testing plus guarded repair.
    outcome: RepairOutcome = repair_loop(
        program, data, z_star, problem, llm, runtime,
        config=config,
        data_schema=schema_desc if program.data_mode == EXTERNAL_DICT else None,
    )
    events.extend(outcome.events)
    # Info diagnostics from L1 (duality gap) ride along in the final report.
    report = VerificationReport(
        l1_result.diagnostics + outcome.report.diagnostics,
        outcome.objective,
    )
    result = InstanceRunResult(
        instance=inst.name, status=report.status, program=outcome.program,
        baseline_objective=z_star, final_objective=outcome.objective,
        status_code=l1_result.status_code, executed=True,
        report=report, events=events,
    )
    _persist(run_path, result, events)
    return result


def _persist(run_path: Path | None, result: InstanceRunResult, events: list[dict]) -> None:
    if run_path is None:
        return
    run_path.mkdir(parents=True, exist_ok=True)
    if result.program is not None:
        (run_path / "code.py").write_text(result.program.source, encoding="utf-8")
    (run_path / "report.json").write_text(
        json.dumps(result.report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (run_path / "result.json").write_text(
        json.dumps(result.to_result_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    # Prompts and replies per attempt, for audit.
    for i, event in enumerate(events, start=1):
        if "prompt" not in event and "reply" not in event:
            continue
        attempt_dir = run_path / f"attempt_{i}"
        attempt_dir.mkdir(parents=True, exist_ok=True)
        if "prompt" in event:
            (attempt_dir / "prompt.txt").write_text(
                str(event["prompt"]), encoding="utf-8")
        if "reply" in event:
            (attempt_dir / "reply.txt").write_text(
                str(event["reply"]), encoding="utf-8")
        meta = {k: v for k, v in event.items() if k not in ("prompt", "reply")}
        (attempt_dir / "decision.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8")
