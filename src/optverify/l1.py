"""L1 execution verification: the only blocking layer.

Sequential checks on a candidate program: syntax (compile-only, the source
never runs), execution in the sandboxed runtime, and the solver status from
the printed contract, read in one place (``_outcome_fatal``).  Any failure
is a Fatal diagnostic; a pass records the baseline objective ``z*`` exactly
as printed.  :class:`L1Result` keeps the diagnostics and the outcome only.

IIS constraint names (infeasible), ray variable names (unbounded) and a
duality-gap note (pass) need a rebuilt ``ModelSpec`` of the candidate's
model, and only tests pass one today; a black-box candidate's Fatal carries
the raw status (ROADMAP item 2 captures the model from the run instead).

Every run goes through the caller's :class:`CandidateRuntime`, whose
``timeout_s`` is the limit L1 reports on a timeout and gives an enrichment
re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .backend import DEFAULT_BACKEND, MIP_GAP, ModelSpec, SolveParams
from .diagnostics import FATAL, INFO, LAYER_L1, Diagnostic
from .errors import BackendError, LlmError
from .llm import data_key_lines, extract_code
from .runtime import CRASH, TIMEOUT, CandidateProgram, CandidateRuntime, ExecutionOutcome

_STDERR_EXCERPT_CHARS = 800

# The Fatal (issue type, evidence) of each non-optimal status a run prints.
_STATUS_FATALS = {
    3: ("infeasible", "solver reported the model infeasible"),
    5: ("unbounded", "solver reported the model unbounded"),
    9: ("solver_timeout", "solver hit its time limit without a proven optimum"),
}


@dataclass
class L1Result:
    """What one L1 check observed; it passed when no diagnostic is Fatal,
    and only then has an objective (the run's printed ``z*``)."""

    diagnostics: list[Diagnostic]
    outcome: ExecutionOutcome | None = None

    @property
    def fatal(self) -> Diagnostic | None:
        return next((d for d in self.diagnostics if d.severity == FATAL), None)

    @property
    def passed(self) -> bool:
        return self.fatal is None

    @property
    def objective(self) -> float | None:
        return self.outcome.objective if self.outcome and self.passed else None

    @property
    def status_code(self) -> int | None:
        return self.outcome.status_code if self.outcome else None


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
    return (outcome.stderr.strip() or outcome.stdout.strip())[-_STDERR_EXCERPT_CHARS:]


def _outcome_fatal(outcome: ExecutionOutcome, timeout_s: float) -> Diagnostic | None:
    """The Fatal a run earns, or None when it printed an optimum and its
    objective.  ``timeout_s`` is the limit a timed-out run exceeded."""
    code = outcome.status_code
    if outcome.exit_kind == TIMEOUT:
        return Diagnostic(LAYER_L1, FATAL, "timeout", "execution",
                          f"candidate exceeded {timeout_s:g}s wall clock")
    if outcome.exit_kind == CRASH:
        return Diagnostic(LAYER_L1, FATAL, "runtime_error", "execution",
                          f"candidate crashed: {_stderr_excerpt(outcome)}")
    if code is None:
        return Diagnostic(LAYER_L1, FATAL, "no_status", "output contract",
                          "no `status: <int>` line found in candidate stdout")
    if code != 2:
        issue, evidence = _STATUS_FATALS.get(
            code, ("solver_status", f"solver returned status {code}, expected 2 (optimal)"))
        return Diagnostic(LAYER_L1, FATAL, issue, "model", evidence)
    if outcome.objective is None:
        return Diagnostic(LAYER_L1, FATAL, "no_objective", "output contract",
                          "status 2 printed but no `objective: <float>` line found")
    return None


def _model_diagnostics(fatal: Diagnostic | None, model: ModelSpec,
                       timeout_s: float) -> list[Diagnostic]:
    """``fatal`` with the IIS of an infeasible ``model`` or the ray of an
    unbounded one in its evidence; with no Fatal, an Info on a wide
    duality gap.  An IIS probe that ends neither infeasible nor feasible
    leaves the Fatal without IIS evidence."""
    if fatal is not None and fatal.issue_type == "infeasible":
        try:
            iis = ", ".join(sorted(DEFAULT_BACKEND.compute_iis(model)))
        except BackendError:  # a probe neither infeasible nor feasible
            return [fatal]
        return [replace(fatal, evidence=f"{fatal.evidence}; IIS constraints: {iis}")]
    if fatal is not None and fatal.issue_type != "unbounded":
        return [fatal]
    result = DEFAULT_BACKEND.solve(model, SolveParams(time_limit_s=timeout_s))
    if fatal is not None:
        ray = ", ".join(sorted(result.ray_vars))
        return [replace(fatal, evidence=f"{fatal.evidence}; unbounded ray variables: {ray}")
                if ray else fatal]
    gap = result.duality_gap
    if gap is not None and gap > MIP_GAP:
        return [Diagnostic(LAYER_L1, INFO, "duality_gap", "model",
                           f"primal-dual gap {gap:.4f} exceeds {MIP_GAP:g}")]
    return []


def l1_verify(
    program: CandidateProgram,
    runtime: CandidateRuntime,
    *,
    model_spec: ModelSpec | None = None,
    run_label: str | None = None,
) -> L1Result:
    syntax_diag = check_syntax(program.source)
    if syntax_diag is not None:
        return L1Result([syntax_diag])
    outcome = runtime.execute(program, run_label=run_label)
    fatal = _outcome_fatal(outcome, runtime.timeout_s)
    diagnostics = [fatal] if fatal else []
    if model_spec is not None:
        diagnostics = _model_diagnostics(fatal, model_spec, runtime.timeout_s)
    return L1Result(diagnostics, outcome)


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
    max_regenerations: int,
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
        prompt = build_regeneration_prompt(problem, current, result.fatal.evidence)
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
