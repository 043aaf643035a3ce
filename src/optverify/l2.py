"""L2 behavioral testing: constraint and objective presence via perturbation.

The LLM only proposes *what to test* (candidate constraints and objective
terms with their governing parameters); detection itself is solver-based:
scale the parameter to an extreme, re-run the candidate, and measure the
objective response.  A parameter that should matter but moves the objective
by almost nothing marks its component as likely missing.

Constraints (CPT) and objective terms (OPT) share one extractor and one
tester; a :class:`Layer` record holds what differs between them (prompt,
factor table, issue names, what an infeasible perturbed run means).

L2 is diagnostic, never blocking: whatever it finds, the L1-verified program
and its baseline objective survive.

Perturbation is dual-strategy.  Strategy 1 runs the original source on a
perturbed record, built in one copying walk of the program's data record
that scales the parameter's numbers as it goes; Strategy 2 rewrites the
parameter's literal assignment inside the source (fuzzy name match) and runs
that on the unchanged record.  Programs that carry a record use Strategy 1,
self-contained programs Strategy 2, and hybrids fall back from 1 to 2 when
the data-side perturbation barely moved the objective (the value was
probably hardcoded).  A pass plans every candidate's perturbed program up
front, then runs them as one batch of concurrent children of the caller's
:class:`CandidateRuntime` (so under its timeout), and the hybrid fallbacks
as a second batch; verdicts follow in candidate order.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Sequence

from .diagnostics import (
    INFO,
    LAYER_CPT,
    LAYER_OPT,
    PASS,
    Diagnostic,
    change_ratio,
    classify_change_ratio,
)
from .errors import ExtractionError, LlmError, ParameterNotFound
from .llm import LlmClient, find_json_payload
from .runtime import COMPLETED, CandidateProgram, CandidateRuntime, ExecutionOutcome

MAX_CANDIDATES = 10
HYBRID_FALLBACK_RATIO = 0.01

CPT_FACTORS = {"capacity": 0.001, "demand": 100.0, "other": 0.01}
OPT_FACTORS = {"cost": 0.001, "revenue": 100.0, "other": 0.01}


@dataclass(frozen=True)
class Candidate:
    """A component the model should contain, with its governing parameters."""

    description: str
    kind: str  # factor-table key: CPT "type", OPT "role"
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


@dataclass(frozen=True)
class Layer:
    """Everything that differs between constraint and objective-term testing."""

    name: str
    template: str
    kind_field: str  # the JSON field of an extracted entry that names its kind
    factors: Mapping[str, float]
    issue_prefix: str
    infeasible_is_pass: bool  # else an infeasible perturbed run gives no result
    failed_target: str  # target and evidence of the extraction_failed Info
    failed_evidence: str  # {} is the error


CPT = Layer(
    name=LAYER_CPT, template=_CPT_EXTRACTION_TEMPLATE, kind_field="type",
    factors=CPT_FACTORS, issue_prefix="constraint", infeasible_is_pass=True,
    failed_target="constraints",
    failed_evidence="constraint extraction produced no usable list ({}); CPT skipped")
OPT = Layer(
    name=LAYER_OPT, template=_OPT_EXTRACTION_TEMPLATE, kind_field="role",
    factors=OPT_FACTORS, issue_prefix="objective_term", infeasible_is_pass=False,
    failed_target="objective terms",
    failed_evidence="objective-term extraction produced no usable list ({}); OPT skipped")


def extract(
    layer: Layer,
    problem: str,
    data_keys: Sequence[str],
    llm: LlmClient,
) -> list[Candidate]:
    """Ask the LLM for the layer's components; keeps the first
    ``MAX_CANDIDATES`` well-formed entries."""
    prompt = layer.template.format(problem=problem, data_keys=list(data_keys))
    payload = find_json_payload(llm.complete(EXTRACTION_SYSTEM, prompt), "[")
    if not isinstance(payload, list):
        raise ExtractionError("extraction reply is not a JSON array")
    candidates = []
    for item in payload:
        if not isinstance(item, dict):
            continue
        desc = item.get("description")
        params = item.get("parameters")
        if not isinstance(desc, str) or not desc.strip() or not isinstance(params, list):
            continue
        params = [str(p) for p in params if isinstance(p, (str, int))]
        if not params:
            continue
        kind = item.get(layer.kind_field, "other")
        kind = kind.strip().lower() if isinstance(kind, str) else "other"
        candidates.append(Candidate(desc.strip(), kind, tuple(params)))
    return candidates[:MAX_CANDIDATES]


def extract_constraints(problem: str, data_keys: Sequence[str], llm: LlmClient) -> list[Candidate]:
    return extract(CPT, problem, data_keys, llm)


def extract_objective_terms(problem: str, data_keys: Sequence[str], llm: LlmClient) -> list[Candidate]:
    return extract(OPT, problem, data_keys, llm)


Extraction = list[tuple[Layer, list[Candidate] | Diagnostic]]


def extract_candidates(problem: str, data_keys: Sequence[str], llm: LlmClient) -> Extraction:
    """Both layers' candidate lists, CPT first.  A layer whose extraction
    failed holds its ``extraction_failed`` Info instead of a list."""
    found: Extraction = []
    for layer, extract_layer in ((CPT, extract_constraints), (OPT, extract_objective_terms)):
        try:
            found.append((layer, extract_layer(problem, data_keys, llm)))
        except (ExtractionError, LlmError) as exc:
            found.append((layer, Diagnostic(
                layer.name, INFO, "extraction_failed", layer.failed_target,
                layer.failed_evidence.format(exc))))
    return found


# --------------------------------------------------------------------------
# Strategy 1: data-record perturbation
# --------------------------------------------------------------------------


def _normalize_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def perturb_record(record: Mapping[str, Any], param_key: str, factor: float) -> dict[str, Any] | None:
    """A copy of ``record`` with every numeric leaf under ``param_key`` scaled.

    ``param_key`` may be a dotted path or a bare key searched recursively
    (exact match first, then case/punctuation-insensitive).  One walk builds
    the copy, every dict and list new, so ``record`` is left as it was.
    Returns None when the key matches nothing numeric.
    """
    scaled = 0

    def walk(node: Any, under: bool = False) -> Any:
        nonlocal scaled
        if isinstance(node, dict):
            return {k: walk(v, under or hit(node, k)) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(item, under) for item in node]
        if under and isinstance(node, (int, float)) and not isinstance(node, bool):
            scaled += 1
            return node * factor
        return node

    if "." in param_key:
        *path, leaf = param_key.split(".")
        parent: Any = record
        for part in path:
            parent = parent.get(part) if isinstance(parent, Mapping) else None
        # The path names one dict of the record; only its ``leaf`` entry matches.
        hits = [lambda node, key: node is parent and key == leaf]
    else:
        normal = _normalize_name(param_key)
        hits = [lambda node, key: key == param_key,
                lambda node, key: _normalize_name(key) == normal]
    for hit in hits:  # ``walk`` reads the current ``hit``
        out = walk(dict(record))
        if scaled:
            return out
    return None


# --------------------------------------------------------------------------
# Strategy 2: source-literal perturbation
# --------------------------------------------------------------------------


_SEQUENCES = (ast.List, ast.Tuple, ast.ListComp)


def _data_literals(node: ast.AST) -> list[ast.Constant]:
    """Numeric literals below ``node`` that hold data.

    Shapes are not data: a ``range`` argument, the count of a sequence
    repetition (``[0] * 20``) and a dict key are left out.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        return [node] if isinstance(value, (int, float)) and not isinstance(value, bool) else []
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range":
        return []
    children = node.values if isinstance(node, ast.Dict) else list(ast.iter_child_nodes(node))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        children = [c for c in children if isinstance(c, _SEQUENCES)] or children
    return [lit for child in children for lit in _data_literals(child)]


def _fuzzy_rank(name: str, param_key: str) -> tuple[int, int] | None:
    """Match quality of a binding's name for the parameter.

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


def _bindings(tree: ast.AST) -> Iterator[tuple[str, ast.expr]]:
    """(name, value) of each ``name = value`` assignment and of each
    string-keyed entry of a dict literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            yield node.targets[0].id, node.value
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value, value


def data_names(source: str) -> list[str]:
    """Names a program binds to numeric data, first binding first: each
    binding whose value is a number or a container holding one."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    return list(dict.fromkeys(
        name for name, value in _bindings(tree)
        if isinstance(value, (ast.Constant, ast.Dict, ast.Set, *_SEQUENCES))
        and _data_literals(value)))


def perturb_source(source: str, param_key: str, factor: float) -> str | None:
    """Scale the data literal(s) bound to the fuzzily-matched name.

    A binding is a ``name = value`` assignment or a string key of a dict
    literal whose value holds at least one data literal.  Returns the
    rewritten source, or None when no binding matches.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None

    best: tuple[tuple[int, int], ast.expr] | None = None
    for name, value in _bindings(tree):
        rank = _fuzzy_rank(name, param_key)
        if rank is None or not _data_literals(value):
            continue
        # Lower rank wins; within a rank the longer common prefix wins.
        key = (rank[0], -rank[1])
        if best is None or key < best[0]:
            best = (key, value)

    if best is None:
        return None
    value = best[1]
    scaled = copy.deepcopy(value)
    for literal in _data_literals(scaled):
        literal.value *= factor
    return _splice(source, value, ast.unparse(scaled))


def _splice(source: str, node: ast.AST, replacement: str) -> str:
    # AST columns count UTF-8 bytes, and the AST ends lines only at \n,
    # \r\n and \r, as bytes.splitlines does; str.splitlines also ends them
    # at U+2028, form feed and others.
    lines = source.encode().splitlines(keepends=True)
    start_line, start_col = node.lineno - 1, node.col_offset
    end_line, end_col = node.end_lineno - 1, node.end_col_offset
    prefix = b"".join(lines[:start_line]) + lines[start_line][:start_col]
    suffix = lines[end_line][end_col:] + b"".join(lines[end_line + 1:])
    return prefix.decode() + replacement + suffix.decode()


# --------------------------------------------------------------------------
# Perturbed execution
# --------------------------------------------------------------------------


@dataclass
class PerturbationRun:
    """A program with ``key`` scaled by ``factor`` and, once run, its outcome."""

    key: str
    factor: float
    program: CandidateProgram
    strategy: str  # "data" | "source"
    label: str | None
    outcome: ExecutionOutcome | None = None


def _locate(program: CandidateProgram, key: str, factor: float,
            label: str | None) -> PerturbationRun | None:
    """The first-strategy run for ``key``: the rewritten record of a program
    that carries one, else the rewritten source; None when neither strategy
    locates the parameter."""
    if program.data is not None:
        perturbed = perturb_record(program.data, key, factor)
        if perturbed is not None:
            return PerturbationRun(key, factor, replace(program, data=perturbed), "data", label)
    rewritten = perturb_source(program.source, key, factor)
    if rewritten is None:
        return None
    return PerturbationRun(key, factor, replace(program, source=rewritten), "source",
                           label and f"{label}_src")


def _run_all(program: CandidateProgram, runs: Sequence[PerturbationRun],
             baseline_objective: float, runtime: CandidateRuntime) -> None:
    """Run ``runs`` as one batch, then, as a second batch, the source rewrite
    of each data run that moved ``baseline_objective`` by less than
    ``HYBRID_FALLBACK_RATIO`` (the value was probably hardcoded), which
    takes that run's place."""
    for run, outcome in zip(runs, runtime.execute_all([(r.program, r.label) for r in runs])):
        run.outcome = outcome
    fallbacks = []
    for run in runs:
        o = run.outcome
        if (run.strategy == "data" and o.exit_kind == COMPLETED and o.status_code == 2
                and o.objective is not None
                and change_ratio(o.objective, baseline_objective) < HYBRID_FALLBACK_RATIO):
            rewritten = perturb_source(program.source, run.key, run.factor)
            if rewritten is not None:
                fallbacks.append((run, replace(program, source=rewritten)))
    outcomes = runtime.execute_all([(prog, run.label and f"{run.label}_src")
                                    for run, prog in fallbacks])
    for (run, prog), outcome in zip(fallbacks, outcomes):
        run.program, run.strategy, run.outcome = prog, "source", outcome


def perturb_parameter(
    program: CandidateProgram,
    param_key: str,
    factor: float,
    runtime: CandidateRuntime,
    *,
    baseline_objective: float,
    run_label: str | None = None,
) -> PerturbationRun:
    """Execute the program with ``param_key`` scaled by ``factor``; a
    data-side run that moves ``baseline_objective`` (``z*``) by less than
    ``HYBRID_FALLBACK_RATIO`` falls back to the source.  Raises
    :class:`ParameterNotFound` when neither strategy locates the parameter."""
    run = _locate(program, param_key, factor, run_label)
    if run is None:
        raise ParameterNotFound(param_key)
    _run_all(program, [run], baseline_objective, runtime)
    return run


# --------------------------------------------------------------------------
# CPT / OPT
# --------------------------------------------------------------------------


def _classify(layer: Layer, cand: Candidate, run: PerturbationRun | None,
              z_star: float) -> Diagnostic | None:
    """The candidate's presence verdict from its perturbed run (None when no
    parameter was located); None when an infeasible run gives no result."""
    if run is None:
        return Diagnostic(
            layer.name, INFO, "parameter_not_found", cand.description,
            f"none of the listed parameters {list(cand.parameters)} could be located; test skipped",
        )
    outcome, factor = run.outcome, run.factor
    if outcome.exit_kind != COMPLETED or outcome.status_code is None:
        ended = ("printed no `status:` line" if outcome.exit_kind == COMPLETED
                 else f"ended in {outcome.exit_kind}")
        return Diagnostic(
            layer.name, INFO, "perturbation_inconclusive", cand.description,
            f"perturbed run {ended}; test inconclusive",
        )
    if outcome.status_code == 3:
        if layer.infeasible_is_pass:
            return Diagnostic(
                layer.name, PASS, f"{layer.issue_prefix}_present", cand.description,
                f"perturbation x{factor:g} made the model infeasible; component is enforced",
            )
        # Objective perturbation is not expected to cause infeasibility;
        # the test is skipped without a result.
        return None
    if outcome.status_code != 2 or outcome.objective is None:
        return Diagnostic(
            layer.name, INFO, "perturbation_inconclusive", cand.description,
            f"perturbed run returned solver status {outcome.status_code}; test inconclusive",
        )
    ratio = change_ratio(outcome.objective, z_star)
    severity = classify_change_ratio(ratio)
    suffix = {PASS: "present", INFO: "uncertain"}.get(severity, "missing")
    caused = "caused" if severity == PASS else "caused only"
    return Diagnostic(
        layer.name, severity, f"{layer.issue_prefix}_{suffix}", cand.description,
        f"perturbation x{factor:g} {caused} {ratio * 100:.1f}% objective change",
    )


def run_l2(
    program: CandidateProgram,
    z_star: float,
    extraction: Extraction,
    runtime: CandidateRuntime,
) -> list[Diagnostic]:
    """Full L2 pass over extracted candidates, CPT then OPT: perturb each
    candidate's first locatable parameter by its layer's factor and classify
    the objective response.  The pass's perturbed runs go to the runtime as
    one batch, plus one batch of hybrid fallbacks."""
    plan: list[Diagnostic | tuple[Layer, Candidate, PerturbationRun | None]] = []
    for layer, candidates in extraction:
        if isinstance(candidates, Diagnostic):
            plan.append(candidates)
            continue
        for idx, cand in enumerate(candidates):
            factor = layer.factors.get(cand.kind, layer.factors["other"])
            label = f"{layer.name.lower()}_{idx}"
            located = (_locate(program, key, factor, label) for key in cand.parameters)
            plan.append((layer, cand, next(filter(None, located), None)))
    _run_all(program, [e[2] for e in plan if isinstance(e, tuple) and e[2]], z_star, runtime)
    verdicts = (e if isinstance(e, Diagnostic) else _classify(*e, z_star) for e in plan)
    return [d for d in verdicts if d is not None]
