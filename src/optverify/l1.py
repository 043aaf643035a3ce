"""L1 execution verification: the only blocking layer.

Sequential checks on a candidate program: syntax (compile-only, the source
never runs), execution in the sandboxed runtime, solver status from the
printed contract, and an optional duality-gap note.  Any failure is a Fatal
diagnostic; a pass records the baseline objective ``z*`` exactly as printed.

Infeasible and unbounded statuses are enriched with IIS constraint names /
ray variable names when the caller can supply a rebuilt ``ModelSpec`` of the
candidate's model (the reference-mutation tests can; arbitrary black-box
candidates cannot, and then the Fatal carries the raw status only).

Every run goes through the caller's :class:`CandidateRuntime`, whose
``timeout_s`` is the limit L1 reports on a timeout and gives an enrichment
re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .backend import DEFAULT_BACKEND, ModelSpec, SolveParams
from .diagnostics import FATAL, INFO, LAYER_L1, Diagnostic
from .errors import LlmError
from .llm import data_key_lines, extract_code
from .runtime import CRASH, TIMEOUT, CandidateProgram, CandidateRuntime, ExecutionOutcome

DUALITY_GAP_THRESHOLD = 0.01
MAX_REGENERATIONS = 3

_STDERR_EXCERPT_CHARS = 800


@dataclass
class L1Result:
    passed: bool
    objective: float | None
    status_code: int | None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    outcome: ExecutionOutcome | None = None

    @property
    def fatal(self) -> Diagnostic | None:
        for d in self.diagnostics:
            if d.severity == FATAL:
                return d
        return None


def check_syntax(source: str) -> Diagnostic | None:
    """Compile-only validation; never executes candidate effects."""
    try:
        compile(source, "<candidate>", "exec")
        return None
    except SyntaxError as exc:
        return Diagnostic(
            layer=LAYER_L1,
            severity=FATAL,
            issue_type="syntax",
            target="source",
            evidence=f"syntax error at line {exc.lineno}: {exc.msg}",
        )


def _stderr_excerpt(outcome: ExecutionOutcome) -> str:
    text = outcome.stderr.strip() or outcome.stdout.strip()
    if len(text) > _STDERR_EXCERPT_CHARS:
        text = text[-_STDERR_EXCERPT_CHARS:]
    return text


def l1_verify(
    program: CandidateProgram,
    runtime: CandidateRuntime,
    *,
    model_spec: ModelSpec | None = None,
    run_label: str | None = None,
) -> L1Result:
    diags: list[Diagnostic] = []

    syntax_diag = check_syntax(program.source)
    if syntax_diag is not None:
        return L1Result(False, None, None, [syntax_diag], None)

    outcome = runtime.execute(program, run_label=run_label)

    if outcome.exit_kind == TIMEOUT:
        diags.append(Diagnostic(
            LAYER_L1, FATAL, "timeout", "execution",
            f"candidate exceeded {runtime.timeout_s:g}s wall clock",
        ))
        return L1Result(False, None, None, diags, outcome)
    if outcome.exit_kind == CRASH:
        diags.append(Diagnostic(
            LAYER_L1, FATAL, "runtime_error", "execution",
            f"candidate crashed: {_stderr_excerpt(outcome)}",
        ))
        return L1Result(False, None, None, diags, outcome)

    code = outcome.status_code
    if code is None:
        diags.append(Diagnostic(
            LAYER_L1, FATAL, "no_status", "output contract",
            "no `status: <int>` line found in candidate stdout",
        ))
        return L1Result(False, None, None, diags, outcome)

    if code == 3:
        evidence = "solver reported the model infeasible"
        if model_spec is not None:
            iis = DEFAULT_BACKEND.compute_iis(model_spec)
            evidence += "; IIS constraints: " + ", ".join(sorted(iis))
        diags.append(Diagnostic(LAYER_L1, FATAL, "infeasible", "model", evidence))
        return L1Result(False, None, code, diags, outcome)
    if code == 5:
        evidence = "solver reported the model unbounded"
        if model_spec is not None:
            result = DEFAULT_BACKEND.solve(model_spec, SolveParams(time_limit_s=runtime.timeout_s))
            if result.ray_vars:
                evidence += "; unbounded ray variables: " + ", ".join(sorted(result.ray_vars))
        diags.append(Diagnostic(LAYER_L1, FATAL, "unbounded", "model", evidence))
        return L1Result(False, None, code, diags, outcome)
    if code == 9:
        diags.append(Diagnostic(
            LAYER_L1, FATAL, "solver_timeout", "model",
            "solver hit its time limit without a proven optimum",
        ))
        return L1Result(False, None, code, diags, outcome)
    if code != 2:
        diags.append(Diagnostic(
            LAYER_L1, FATAL, "solver_status", "model",
            f"solver returned status {code}, expected 2 (optimal)",
        ))
        return L1Result(False, None, code, diags, outcome)

    if outcome.objective is None:
        diags.append(Diagnostic(
            LAYER_L1, FATAL, "no_objective", "output contract",
            "status 2 printed but no `objective: <float>` line found",
        ))
        return L1Result(False, None, code, diags, outcome)

    if model_spec is not None:
        result = DEFAULT_BACKEND.solve(model_spec, SolveParams(time_limit_s=runtime.timeout_s))
        if result.duality_gap is not None and result.duality_gap > DUALITY_GAP_THRESHOLD:
            diags.append(Diagnostic(
                LAYER_L1, INFO, "duality_gap", "model",
                f"primal-dual gap {result.duality_gap:.4f} exceeds {DUALITY_GAP_THRESHOLD:g}",
            ))

    return L1Result(True, outcome.objective, code, diags, outcome)


# --------------------------------------------------------------------------
# Regeneration
# --------------------------------------------------------------------------

REGENERATION_SYSTEM_PROMPT = (
    "You fix broken optimization code. Ensure the new code is syntactically "
    "correct and handles all edge cases."
)

_REGENERATION_TEMPLATE = """\
The previous code failed to execute. Generate a new, correct version.

## Problem
{problem}

## Previous Code (FAILED)
```python
{failed_code}
```

## Error
{error}

{data_instructions}

## Instructions
1. Analyze why the previous code failed
2. Generate completely new code that avoids the error
3. Handle edge cases (empty arrays, division by zero)

Return ONLY the corrected Python code in a ```python block.
"""


def _data_instructions(program: CandidateProgram) -> str:
    if program.data is not None:
        return (
            "## Data Structure\n"
            "The `data` variable is PRE-DEFINED with these keys:\n"
            f"{data_key_lines(program.data)}\n"
            'CRITICAL: Do NOT create data = {...}. Just use data["key"] directly.'
        )
    return (
        "## Note\n"
        "Code is self-contained: all data is defined within the code itself."
    )


def build_regeneration_prompt(problem: str, failed: CandidateProgram, error: str) -> str:
    return _REGENERATION_TEMPLATE.format(
        problem=problem,
        failed_code=failed.source,
        error=error,
        data_instructions=_data_instructions(failed),
    )


def l1_verify_with_regeneration(
    program: CandidateProgram,
    problem: str,
    llm,
    runtime: CandidateRuntime,
    *,
    max_regenerations: int = MAX_REGENERATIONS,
    audit: list | None = None,
) -> tuple[CandidateProgram, L1Result]:
    """Phase-1 loop: verify, regenerate on Fatal, give up after the budget.

    At most ``max_regenerations`` LLM regenerations happen; the returned
    result is the last verification outcome (failed when the budget ran out
    or the LLM became unavailable).  A regenerated program keeps the data
    record of the one it replaces.
    """
    current = program
    result = l1_verify(current, runtime, run_label="l1_initial")
    attempts = 0
    while not result.passed and attempts < max_regenerations:
        attempts += 1
        fatal = result.fatal
        error = fatal.evidence if fatal else "unknown failure"
        prompt = build_regeneration_prompt(problem, current, error)
        try:
            reply = llm.complete(REGENERATION_SYSTEM_PROMPT, prompt)
        except LlmError:
            break
        if audit is not None:
            audit.append({"event": "regeneration", "attempt": attempts,
                          "prompt": prompt, "reply": reply})
        code = extract_code(reply)
        if code is None:
            continue
        current = replace(current, source=code)
        result = l1_verify(current, runtime, run_label=f"l1_regen_{attempts}")
    return current, result
