"""Diagnosis-guided repair with safety and regression guards.

Warnings (and only Warnings) trigger targeted repair, through one prompt
template filled with L2's evidence.  Three mechanisms keep repair from
making things worse:

* safety check - repaired code must not fabricate or mutate the injected
  data record, and must not import process-spawning modules; one guided
  retry is allowed and does not consume the repair budget;
* regression guard - a repair whose re-verified objective drifts more than
  the guard threshold (or that crashes, or degrades solver status) is rolled
  back, and repair halts entirely;
* skip guard - no Warning, no repair.

The loop therefore never returns anything worse than its L1-verified input.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Any, Sequence

from .config import DEFAULT_CONFIG, PipelineConfig
from .diagnostics import INFO, Diagnostic, VerificationReport, change_ratio
from .errors import LlmError
from .l1 import l1_verify
from .l2 import data_names, extract_candidates, run_l2
from .llm import LlmClient, data_key_lines, extract_code
from .runtime import EXTERNAL_DICT, CandidateProgram, CandidateRuntime

PLATEAU_TOLERANCE = 1e-9

BLOCKED_IMPORTS = {"os", "subprocess", "multiprocessing"}

_DATA_MUTATOR_METHODS = {"update", "pop", "popitem", "clear", "setdefault"}


@dataclass(frozen=True)
class SafetyViolation:
    rule: str
    lineno: int
    detail: str


def _is_reparse_call(node: ast.AST) -> bool:
    """True for json.loads(...) / json.load(...) style re-parsing calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("loads", "load")
    if isinstance(func, ast.Name):
        return func.id in ("loads", "load")
    return False


def _subscript_root(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _safety_check_ast(tree: ast.Module, data_mode: str) -> list[SafetyViolation]:
    violations: list[SafetyViolation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BLOCKED_IMPORTS:
                    violations.append(SafetyViolation(
                        "blocked_import", node.lineno,
                        f"import of process-spawning module {root!r}"))
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in BLOCKED_IMPORTS:
                violations.append(SafetyViolation(
                    "blocked_import", node.lineno,
                    f"import from process-spawning module {root!r}"))

        if data_mode != EXTERNAL_DICT:
            continue

        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "data":
                    value = getattr(node, "value", None)
                    if value is not None and _is_reparse_call(value):
                        continue  # re-parsing embedded text is allowed
                    violations.append(SafetyViolation(
                        "data_reassignment", node.lineno,
                        "rebinding `data` replaces the injected record"))
                elif isinstance(target, (ast.Subscript, ast.Attribute)) \
                        and _subscript_root(target) == "data":
                    violations.append(SafetyViolation(
                        "data_mutation", node.lineno,
                        "assignment into `data` mutates the injected record"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)) \
                        and _subscript_root(target) == "data":
                    violations.append(SafetyViolation(
                        "data_mutation", node.lineno,
                        "deleting from `data` mutates the injected record"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if isinstance(node.func.value, ast.Name) and node.func.value.id == "data" \
                    and node.func.attr in _DATA_MUTATOR_METHODS:
                violations.append(SafetyViolation(
                    "data_mutation", node.lineno,
                    f"data.{node.func.attr}(...) mutates the injected record"))
    return violations


def safety_check(source: str, data_mode: str) -> list[SafetyViolation]:
    """Violations in repaired code; empty list means safe to run.

    Source that does not parse yields no violations: it can never run,
    because L1's compile-only syntax check rejects it before execution and
    the regression guard then rolls the repair back.  In self-contained mode
    only the import rule applies (the program owns its data by construction).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    return _safety_check_ast(tree, data_mode)


# --------------------------------------------------------------------------
# Repair prompt
# --------------------------------------------------------------------------

REPAIR_SYSTEM_PROMPT = "You are an optimization code repair expert."

_REPAIR_TEMPLATE = """\
CRITICAL RULES:
1. ONLY fix the actionable issues listed in the ISSUES DETECTED
   section
2. Items in REFERENCE ONLY are for context -- DO NOT modify code
   based on them
3. Be conservative -- only make changes that are clearly necessary
4. Preserve all working code -- only change what is broken
5. Do NOT change hardcoded data values unless the diagnostic
   evidence specifically requires it

Fix this optimization code based on the behavioral verification
report.

## Problem
{problem}

{data}

## Current Code
```python
{source}
```

## Current objective value: {objective}

---
## ISSUES DETECTED ({count} actionable)

{issues}

---
## REFERENCE ONLY (DO NOT FIX)

{reference}

---
## REPAIR INSTRUCTIONS

1. Read each Issue carefully, especially the Evidence field
2. Identify the root cause in your code for each actionable issue
3. Fix ALL actionable issues above
4. DO NOT fix items in the REFERENCE section -- they are likely
   normal
5. Preserve all working code -- only change what is broken

{safety}
Return the COMPLETE fixed code in a ```python block.
"""

# The ``{safety}`` fills; kept out of the template because they hold braces.
_SAFETY_RULES_EXTERNAL = """\
## SAFETY RULES
- Do NOT redefine the `data` variable (no `data = {...}`)
- Do NOT use json.loads() to replace `data`; it is already a Python dict
- Do NOT mutate `data` contents (no `data["key"] = ...`)
"""

_SAFETY_RULES_SELF = """\
## SAFETY RULES
- Do NOT remove or change hardcoded data values unless the diagnostic
  evidence specifically requires it
"""


def build_repair_prompt(
    problem: str,
    program: CandidateProgram,
    current_objective: float | None,
    actionable: Sequence[Diagnostic],
    reference_only: Sequence[Diagnostic],
) -> str:
    return _REPAIR_TEMPLATE.format(
        problem=problem,
        data=("## Data Structure\n"
              "The `data` variable is PRE-LOADED with these keys (types only,\n"
              f"values are supplied at runtime):\n{data_key_lines(program.data)}"
              if program.data is not None else "## Data\nCode is self-contained."),
        source=program.source,
        objective=current_objective,
        count=len(actionable),
        issues="\n\n".join(
            f"=== Issue {i} [{d.layer}] [{d.severity}] ===\n"
            f"Type: {d.issue_type}\nTarget: {d.target}\nEvidence: {d.evidence}"
            for i, d in enumerate(actionable, start=1)),
        reference=("Below items are NORMAL in most cases and are shown for context only.\n\n"
                   + "\n\n".join(
                       f"{i}. [{d.layer}] {d.issue_type} -- {d.target}\n"
                       f"   {d.evidence}\n   Action: DO NOT FIX"
                       for i, d in enumerate(reference_only, start=1))
                   if reference_only else "(none)"),
        safety=_SAFETY_RULES_EXTERNAL if program.data is not None else _SAFETY_RULES_SELF,
    )


# --------------------------------------------------------------------------
# Regression guard and the loop
# --------------------------------------------------------------------------


def regression_check(z_new: float | None, z_old: float, tau_r: float) -> bool:
    """True when the repair regressed: no objective, or drift > tau_r.

    A repair that fails L1 (crash, timeout, non-optimal status) carries no
    objective, so it regresses here too.
    """
    return z_new is None or change_ratio(z_new, z_old) > tau_r


@dataclass
class RepairOutcome:
    """Phase 2's final program, objective, L2 diagnostics and one event per
    iteration; the report and the iteration count are derived."""

    program: CandidateProgram
    objective: float | None
    diagnostics: list[Diagnostic]
    events: list[dict]

    @property
    def iterations(self) -> int:
        """Iterations that asked for a repair: all but the skip guard's."""
        return sum(e["decision"] != "skip_guard" for e in self.events)

    @property
    def report(self) -> VerificationReport:
        return VerificationReport(self.diagnostics, self.objective)


def repair_loop(
    program: CandidateProgram,
    z_star: float,
    problem: str,
    llm: LlmClient,
    runtime: CandidateRuntime,
    config: PipelineConfig = DEFAULT_CONFIG,
) -> RepairOutcome:
    """Phase 2: L2 testing plus targeted repair under guards.

    ``program`` must already be L1-verified with baseline objective
    ``z_star``.  L2 tests it once and again after each adopted repair, so
    the report always describes the program returned; the budget bounds
    the repairs only.  The returned state is never worse than the baseline:
    repairs are adopted only after passing L1 again and the regression
    guard, and a rollback halts repair entirely.
    """
    current, z = program, z_star
    events: list[dict] = []
    # The extraction prompts depend only on the problem and the data keys, so
    # every L2 pass tests the same lists.  A self-contained program's keys
    # are the names it binds to numeric data.
    data_keys = data_names(program.source) if program.data is None else list(program.data)
    extraction = extract_candidates(problem, data_keys, llm)
    diags = run_l2(current, z, extraction, runtime)
    for j in range(1, config.repair_budget + 1):
        warnings = [d for d in diags if d.triggers_repair]
        if not warnings:
            events.append({"iteration": j, "decision": "skip_guard"})
            break

        reference = [d for d in diags if d.severity == INFO]
        prompt = build_repair_prompt(problem, current, z, warnings, reference)
        event: dict[str, Any] = {"iteration": j}
        ask = prompt
        try:
            # One guided retry after unsafe or missing code; this extra call
            # does not consume the budget.  Each call is logged under its prefix.
            for prefix in ("", "retry_"):
                reply = llm.complete(REPAIR_SYSTEM_PROMPT, ask)
                repaired = extract_code(reply)
                violations = safety_check(repaired, current.data_mode) if repaired else []
                event |= {prefix + "prompt": ask, prefix + "reply": reply,
                          prefix + "safety_violations": [v.rule for v in violations]}
                if repaired is not None and not violations:
                    break
                ask = ("SAFETY VIOLATIONS DETECTED in the previous repair:\n" + "".join(
                    f"- line {v.lineno}: {v.detail}\n" for v in violations) + "\n"
                    if violations else "The previous reply contained no code block.\n\n") + prompt
        except LlmError as exc:
            events.append(event | {"decision": "llm_error", "detail": str(exc)})
            break
        if repaired is None or violations:
            event["decision"] = "unsafe_repair_discarded"
            events.append(event)
            continue  # keep pre-repair code and its report, try again

        if repaired.rstrip() == current.source.rstrip():
            event["decision"] = "identical_code"
            events.append(event)
            break

        candidate = replace(current, source=repaired)
        l1_result = l1_verify(candidate, runtime, run_label=f"repair_{j}")
        event["l1_passed"] = l1_result.passed
        event["l1_objective"] = l1_result.objective

        if regression_check(l1_result.objective, z, config.regression_threshold):
            event["decision"] = "rollback"
            events.append(event)
            break  # keep pre-repair code and halt further repair

        plateau = abs(l1_result.objective - z) <= PLATEAU_TOLERANCE
        current, z = candidate, l1_result.objective
        diags = run_l2(current, z, extraction, runtime)
        event["decision"] = "plateau" if plateau else "adopted"
        events.append(event)
        if plateau:
            break

    return RepairOutcome(current, z, diags, events)
