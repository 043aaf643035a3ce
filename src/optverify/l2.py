"""L2 behavioral testing: constraint and objective presence via perturbation.

The LLM only proposes *what to test* (candidate constraints and objective
terms with their governing parameters); detection itself is solver-based:
scale the parameter to an extreme, re-run the candidate, and measure the
objective response.  A parameter that should matter but moves the objective
by almost nothing marks its component as likely missing.

L2 is diagnostic, never blocking: whatever it finds, the L1-verified program
and its baseline objective survive.

Perturbation is dual-strategy.  Strategy 1 rewrites the injected data record
and re-runs the original source; Strategy 2 rewrites the parameter's literal
assignment inside the source (fuzzy name match) and re-runs that.  Programs
that read the data dict use Strategy 1, self-contained programs Strategy 2,
and hybrids fall back from 1 to 2 when the data-side perturbation barely
moved the objective (the value was probably hardcoded).
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .diagnostics import (
    INFO,
    LAYER_CPT,
    LAYER_OPT,
    MISSING_THRESHOLD,
    PASS,
    UNCERTAIN_THRESHOLD,
    Diagnostic,
    change_ratio,
    classify_change_ratio,
)
from .errors import ExtractionError, LlmError, ParameterNotFound
from .llm import LlmClient, find_json_payload
from .runtime import (
    COMPLETED,
    DEFAULT_TIMEOUT_S,
    EXTERNAL_DICT,
    CandidateProgram,
    CandidateRuntime,
    ExecutionOutcome,
)
from .scenario import ScenarioInstance, to_json_dict

MAX_CANDIDATES = 10
HYBRID_FALLBACK_RATIO = 0.01

CPT_FACTORS = {"capacity": 0.001, "demand": 100.0, "other": 0.01}
OPT_FACTORS = {"cost": 0.001, "revenue": 100.0, "other": 0.01}


@dataclass(frozen=True)
class CandidateConstraint:
    description: str
    ctype: str
    parameters: tuple[str, ...]


@dataclass(frozen=True)
class CandidateObjectiveTerm:
    description: str
    role: str
    parameters: tuple[str, ...]


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------

_CPT_EXTRACTION_TEMPLATE = """\
Analyze this optimization problem and extract the KEY CONSTRAINTS
that should be present in the model.

## Problem Description
{problem}

## Available Data Parameters
{data_keys}

## Task
Identify constraints that are REQUIRED by the problem. Focus on:
1. Capacity constraints (resource limits, maximum values)
2. Demand constraints (minimum requirements, must-satisfy conditions)
3. Balance constraints (flow balance, inventory balance)

## Output Format
Return ONLY a JSON array with this exact format:
```json
[
  {{"description": "minimum protein requirement",
   "type": "demand", "parameters": ["min_protein"]}},
  {{"description": "capacity limit on production",
   "type": "capacity", "parameters": ["capacity"]}}
]
```

Return ONLY the JSON array, no explanation.
"""

_OPT_EXTRACTION_TEMPLATE = """\
Analyze this optimization problem and extract the KEY OBJECTIVE
FUNCTION TERMS (cost and revenue components) that should be present
in the model's objective function.

## Problem Description
{problem}

## Available Data Parameters
{data_keys}

## Task
Identify cost and revenue terms that MUST appear in the objective
function. Focus on:
1. **Cost terms**: purchasing/procurement cost, holding/storage cost,
   transportation cost, shortage/backorder cost, setup/fixed cost,
   penalty cost
2. **Revenue terms**: sales revenue, demand revenue, return/salvage
   value

For each term, identify which data parameter(s) provide its
coefficient.

## Output Format
Return ONLY a JSON array with this exact format:
```json
[
  {{"description": "unit purchasing cost",
   "role": "cost", "parameters": ["unit_cost"]}},
  {{"description": "sales revenue per unit",
   "role": "revenue", "parameters": ["selling_price"]}}
]
```

Return ONLY the JSON array, no explanation.
"""

EXTRACTION_SYSTEM = "You analyze optimization problems."


def build_cpt_extraction_prompt(problem: str, data_keys: Sequence[str]) -> str:
    return _CPT_EXTRACTION_TEMPLATE.format(problem=problem, data_keys=list(data_keys))


def build_opt_extraction_prompt(problem: str, data_keys: Sequence[str]) -> str:
    return _OPT_EXTRACTION_TEMPLATE.format(problem=problem, data_keys=list(data_keys))


def _parse_entries(reply: str, kind_field: str) -> list[dict[str, Any]]:
    payload = find_json_payload(reply, "[")
    if not isinstance(payload, list):
        raise ExtractionError("extraction reply is not a JSON array")
    entries = []
    for item in payload:
        if not isinstance(item, dict):
            continue
        desc = item.get("description")
        params = item.get("parameters")
        if not isinstance(desc, str) or not desc.strip():
            continue
        if not isinstance(params, list) or not params:
            continue
        params = [str(p) for p in params if isinstance(p, (str, int))]
        if not params:
            continue
        kind = item.get(kind_field, "other")
        kind = kind.strip().lower() if isinstance(kind, str) else "other"
        entries.append({"description": desc.strip(), kind_field: kind,
                        "parameters": params})
    return entries


def extract_constraints(
    problem: str,
    data_keys: Sequence[str],
    llm: LlmClient,
    max_candidates: int = MAX_CANDIDATES,
) -> list[CandidateConstraint]:
    reply = llm.complete(EXTRACTION_SYSTEM, build_cpt_extraction_prompt(problem, data_keys))
    entries = _parse_entries(reply, "type")
    return [
        CandidateConstraint(e["description"], e["type"], tuple(e["parameters"]))
        for e in entries[:max_candidates]
    ]


def extract_objective_terms(
    problem: str,
    data_keys: Sequence[str],
    llm: LlmClient,
    max_candidates: int = MAX_CANDIDATES,
) -> list[CandidateObjectiveTerm]:
    reply = llm.complete(EXTRACTION_SYSTEM, build_opt_extraction_prompt(problem, data_keys))
    entries = _parse_entries(reply, "role")
    return [
        CandidateObjectiveTerm(e["description"], e["role"], tuple(e["parameters"]))
        for e in entries[:max_candidates]
    ]


# --------------------------------------------------------------------------
# Strategy 1: data-record perturbation
# --------------------------------------------------------------------------


def _scale_numeric(node: Any, factor: float) -> tuple[Any, int]:
    """Scale every numeric leaf below node; returns (scaled, touched_count)."""
    if isinstance(node, bool):
        return node, 0
    if isinstance(node, (int, float)):
        return node * factor, 1
    if isinstance(node, list):
        out, total = [], 0
        for item in node:
            scaled, n = _scale_numeric(item, factor)
            out.append(scaled)
            total += n
        return out, total
    if isinstance(node, dict):
        out, total = {}, 0
        for k, v in node.items():
            scaled, n = _scale_numeric(v, factor)
            out[k] = scaled
            total += n
        return out, total
    return node, 0


def _normalize_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def perturb_record(record: Mapping[str, Any], param_key: str, factor: float) -> dict[str, Any] | None:
    """Deep copy with every numeric leaf under ``param_key`` scaled.

    ``param_key`` may be a dotted path or a bare key searched recursively
    (exact match first, then case/punctuation-insensitive).  Returns None
    when the key matches nothing numeric.
    """
    out = copy.deepcopy(dict(record))
    touched = 0

    if "." in param_key:
        parts = param_key.split(".")
        node = out
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            return None
        node[leaf], touched = _scale_numeric(node[leaf], factor)
        return out if touched else None

    def visit(node: Any, match: str, exact: bool) -> int:
        count = 0
        if isinstance(node, dict):
            for k in list(node.keys()):
                hit = k == match if exact else _normalize_name(k) == match
                if hit:
                    node[k], n = _scale_numeric(node[k], factor)
                    count += n
                else:
                    count += visit(node[k], match, exact)
        elif isinstance(node, list):
            for item in node:
                count += visit(item, match, exact)
        return count

    touched = visit(out, param_key, exact=True)
    if not touched:
        touched = visit(out, _normalize_name(param_key), exact=False)
    return out if touched else None


# --------------------------------------------------------------------------
# Strategy 2: source-literal perturbation
# --------------------------------------------------------------------------


def _numeric_literal_count(node: ast.AST) -> int:
    count = 0
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, (int, float)) \
                and not isinstance(sub.value, bool):
            count += 1
    return count


def _fuzzy_rank(name: str, param_key: str) -> tuple[int, int] | None:
    """Match quality of an assignment target name for the parameter.

    Rank 0 exact (case-insensitive), 1 normalized equality, 2 token subset;
    ties broken by longest common prefix (larger wins).  None means no match.
    """
    lname, lkey = name.lower(), param_key.lower()
    prefix = 0
    for a, b in zip(lname, lkey):
        if a != b:
            break
        prefix += 1
    if lname == lkey:
        return 0, prefix
    if _normalize_name(name) == _normalize_name(param_key):
        return 1, prefix
    name_tokens = set(t for t in lname.replace("-", "_").split("_") if t)
    key_tokens = set(t for t in lkey.replace("-", "_").split("_") if t)
    if name_tokens and key_tokens and (
        key_tokens <= name_tokens or name_tokens <= key_tokens
    ):
        return 2, prefix
    return None


class _ScaleLiterals(ast.NodeTransformer):
    def __init__(self, factor: float):
        self.factor = factor

    def visit_Constant(self, node: ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return ast.copy_location(ast.Constant(node.value * self.factor), node)
        return node


def perturb_source(source: str, param_key: str, factor: float) -> str | None:
    """Scale the numeric literal(s) assigned to the fuzzily-matched name.

    Only simple ``name = <numeric literal or container of them>`` bindings
    qualify.  Returns the rewritten source, or None when no assignment
    matches.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None

    best: tuple[tuple[int, int], ast.Assign] | None = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if _numeric_literal_count(node.value) == 0:
            continue
        rank = _fuzzy_rank(target.id, param_key)
        if rank is None:
            continue
        # Lower rank wins; within a rank the longer common prefix wins.
        key = (rank[0], -rank[1])
        if best is None or key < (best[0][0], -best[0][1]):
            best = (rank, node)

    if best is None:
        return None
    node = best[1]
    scaled_value = _ScaleLiterals(factor).visit(copy.deepcopy(node.value))
    ast.fix_missing_locations(scaled_value)
    new_expr = ast.unparse(scaled_value)
    return _splice(source, node.value, new_expr)


def _splice(source: str, node: ast.AST, replacement: str) -> str:
    lines = source.splitlines(keepends=True)
    start_line, start_col = node.lineno - 1, node.col_offset
    end_line, end_col = node.end_lineno - 1, node.end_col_offset
    prefix = "".join(lines[:start_line]) + lines[start_line][:start_col]
    suffix = lines[end_line][end_col:] + "".join(lines[end_line + 1:])
    return prefix + replacement + suffix


# --------------------------------------------------------------------------
# Perturbed execution
# --------------------------------------------------------------------------


@dataclass
class PerturbationRun:
    outcome: ExecutionOutcome
    strategy: str  # "data" | "source"
    param_key: str
    factor: float


def _as_record(data: Any) -> dict[str, Any] | None:
    if data is None:
        return None
    if isinstance(data, ScenarioInstance):
        return to_json_dict(data)
    return dict(data)


def perturb_parameter(
    program: CandidateProgram,
    data: Any,
    param_key: str,
    factor: float,
    runtime: CandidateRuntime | None = None,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    baseline_objective: float | None = None,
    run_label: str | None = None,
) -> PerturbationRun:
    """Execute the program with ``param_key`` scaled by ``factor``.

    Raises :class:`ParameterNotFound` when neither strategy locates the
    parameter.
    """
    runtime = runtime or CandidateRuntime()
    record = _as_record(data)

    data_run: PerturbationRun | None = None
    if program.data_mode == EXTERNAL_DICT and record is not None:
        perturbed = perturb_record(record, param_key, factor)
        if perturbed is not None:
            outcome = runtime.execute(
                program, perturbed, timeout_s=timeout_s, run_label=run_label)
            data_run = PerturbationRun(outcome, "data", param_key, factor)
            ratio = None
            if (
                baseline_objective is not None
                and outcome.exit_kind == COMPLETED
                and outcome.status_code == 2
                and outcome.objective is not None
            ):
                ratio = change_ratio(outcome.objective, baseline_objective)
            if ratio is None or ratio >= HYBRID_FALLBACK_RATIO:
                return data_run
            # Hybrid fallback: data change barely registered; the value may
            # be hardcoded in source.

    rewritten = perturb_source(program.source, param_key, factor)
    if rewritten is None:
        if data_run is not None:
            return data_run
        raise ParameterNotFound(param_key)
    outcome = runtime.execute(
        CandidateProgram(rewritten, program.data_mode),
        record,
        timeout_s=timeout_s,
        run_label=f"{run_label}_src" if run_label else None,
    )
    return PerturbationRun(outcome, "source", param_key, factor)


# --------------------------------------------------------------------------
# CPT / OPT
# --------------------------------------------------------------------------


def _evidence(factor: float, ratio: float) -> str:
    return f"perturbation x{factor:g} caused only {ratio * 100:.1f}% objective change"


def _test_candidates(
    layer: str,
    factors: Mapping[str, float],
    issue_prefix: str,
    infeasible_is_pass: bool,
    program: CandidateProgram,
    data: Any,
    z_star: float,
    candidates: Iterable[Any],
    kind_attr: str,
    runtime: CandidateRuntime,
    *,
    timeout_s: float,
    tau_low: float,
    tau_high: float,
    max_candidates: int,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for idx, cand in enumerate(list(candidates)[:max_candidates]):
        kind = getattr(cand, kind_attr)
        factor = factors.get(kind, factors["other"])
        run: PerturbationRun | None = None
        for key in cand.parameters:
            try:
                run = perturb_parameter(
                    program, data, key, factor, runtime,
                    timeout_s=timeout_s, baseline_objective=z_star,
                    run_label=f"{layer.lower()}_{idx}",
                )
                break
            except ParameterNotFound:
                continue
        if run is None:
            diags.append(Diagnostic(
                layer, INFO, "parameter_not_found", cand.description,
                f"none of the listed parameters {list(cand.parameters)} could be located; test skipped",
            ))
            continue

        outcome = run.outcome
        if outcome.exit_kind != COMPLETED or outcome.status_code is None:
            diags.append(Diagnostic(
                layer, INFO, "perturbation_inconclusive", cand.description,
                f"perturbed run ended in {outcome.exit_kind}; test inconclusive",
            ))
            continue
        if outcome.status_code == 3:
            if infeasible_is_pass:
                diags.append(Diagnostic(
                    layer, PASS, f"{issue_prefix}_present", cand.description,
                    f"perturbation x{factor:g} made the model infeasible; component is enforced",
                ))
            # Objective perturbation is not expected to cause infeasibility;
            # the test is skipped without a result.
            continue
        if outcome.status_code != 2 or outcome.objective is None:
            diags.append(Diagnostic(
                layer, INFO, "perturbation_inconclusive", cand.description,
                f"perturbed run returned solver status {outcome.status_code}; test inconclusive",
            ))
            continue

        ratio = change_ratio(outcome.objective, z_star)
        severity = classify_change_ratio(ratio, False, tau_low, tau_high)
        suffix = {PASS: "present", INFO: "uncertain"}.get(severity, "missing")
        diags.append(Diagnostic(
            layer, severity, f"{issue_prefix}_{suffix}", cand.description,
            _evidence(factor, ratio),
        ))
    return diags


def cpt(
    program: CandidateProgram,
    data: Any,
    z_star: float,
    candidates: Sequence[CandidateConstraint],
    runtime: CandidateRuntime | None = None,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    tau_low: float = MISSING_THRESHOLD,
    tau_high: float = UNCERTAIN_THRESHOLD,
    max_candidates: int = MAX_CANDIDATES,
) -> list[Diagnostic]:
    """Constraint presence testing; infeasibility under perturbation passes."""
    return _test_candidates(
        LAYER_CPT, CPT_FACTORS, "constraint", True,
        program, data, z_star, candidates, "ctype",
        runtime or CandidateRuntime(),
        timeout_s=timeout_s, tau_low=tau_low, tau_high=tau_high,
        max_candidates=max_candidates,
    )


def opt_test(
    program: CandidateProgram,
    data: Any,
    z_star: float,
    candidates: Sequence[CandidateObjectiveTerm],
    runtime: CandidateRuntime | None = None,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    tau_low: float = MISSING_THRESHOLD,
    tau_high: float = UNCERTAIN_THRESHOLD,
    max_candidates: int = MAX_CANDIDATES,
) -> list[Diagnostic]:
    """Objective presence testing; infeasible perturbed runs are skipped."""
    return _test_candidates(
        LAYER_OPT, OPT_FACTORS, "objective_term", False,
        program, data, z_star, candidates, "role",
        runtime or CandidateRuntime(),
        timeout_s=timeout_s, tau_low=tau_low, tau_high=tau_high,
        max_candidates=max_candidates,
    )


def run_l2(
    program: CandidateProgram,
    data: Any,
    z_star: float,
    problem: str,
    llm: LlmClient,
    runtime: CandidateRuntime | None = None,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    tau_low: float = MISSING_THRESHOLD,
    tau_high: float = UNCERTAIN_THRESHOLD,
    max_candidates: int = MAX_CANDIDATES,
) -> list[Diagnostic]:
    """Full L2 pass: extract candidates, run CPT then OPT."""
    runtime = runtime or CandidateRuntime()
    record = _as_record(data)
    data_keys = list(record.keys()) if record else []
    diags: list[Diagnostic] = []

    try:
        constraints = extract_constraints(problem, data_keys, llm, max_candidates)
    except (ExtractionError, LlmError) as exc:
        diags.append(Diagnostic(
            LAYER_CPT, INFO, "extraction_failed", "constraints",
            f"constraint extraction produced no usable list ({exc}); CPT skipped",
        ))
        constraints = []
    if constraints:
        diags.extend(cpt(
            program, data, z_star, constraints, runtime,
            timeout_s=timeout_s, tau_low=tau_low, tau_high=tau_high,
            max_candidates=max_candidates,
        ))

    try:
        terms = extract_objective_terms(problem, data_keys, llm, max_candidates)
    except (ExtractionError, LlmError) as exc:
        diags.append(Diagnostic(
            LAYER_OPT, INFO, "extraction_failed", "objective terms",
            f"objective-term extraction produced no usable list ({exc}); OPT skipped",
        ))
        terms = []
    if terms:
        diags.extend(opt_test(
            program, data, z_star, terms, runtime,
            timeout_s=timeout_s, tau_low=tau_low, tau_high=tau_high,
            max_candidates=max_candidates,
        ))
    return diags
