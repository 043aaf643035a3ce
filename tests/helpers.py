"""Scripted chat-completion providers and reference-solution checks used
across the tests.

The reference provider plays the role of a competent code generator: it
answers the numeric-extraction prompt by lifting the JSON payload out of the
problem text, answers both L2 extraction prompts with fixed candidate lists,
and answers every generation/repair prompt with a candidate program backed
by the package's own model builder (optionally with mutations dropped, to
fake defective candidates).

:func:`extract_solution` reads a solved reference model into a
:class:`RetailSolution`, and :func:`check_flow_conservation` checks that
every unit of stock is accounted for.  The rest are small helpers several
test modules share: an LLM client over a reply function, a directory
digest, an LP relaxation and a seeded random infeasible LP.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from optverify.backend import (
    CONTINUOUS,
    DEFAULT_BACKEND,
    Constraint,
    ModelSpec,
    Objective,
    SolveResult,
    Variable,
)
from optverify.llm import CallableTransport, LlmClient, LlmConfig
from optverify.reference import (
    _iv,
    _lv,
    _nv,
    _qv,
    _sv,
    _wv,
    _xv,
    _yv,
    _zv,
    candidate_source,
)
from optverify.scenario import ScenarioInstance

_JSON_FENCE = re.compile(r"```json\s*\n(.*?)```", re.DOTALL)

FLOW_TOLERANCE = 1e-6

CPT_CANDIDATES = [
    {"description": "cold storage capacity limit", "type": "capacity",
     "parameters": ["cold_capacity"]},
]
OPT_CANDIDATES = [
    {"description": "unit purchasing cost", "role": "cost",
     "parameters": ["purchasing"]},
]


def scripted_reference_provider(drop=(), cpt_candidates=None, opt_candidates=None):
    code = candidate_source(drop=drop)

    def fn(payload: dict) -> str:
        user = payload["user"]
        if "Extract all numerical parameters" in user:
            m = _JSON_FENCE.search(user)
            if m:
                return m.group(1)
            return "no data found"
        if "KEY CONSTRAINTS" in user:
            return json.dumps(cpt_candidates if cpt_candidates is not None
                              else CPT_CANDIDATES)
        if "KEY OBJECTIVE" in user:
            return json.dumps(opt_candidates if opt_candidates is not None
                              else OPT_CANDIDATES)
        return f"```python\n{code}\n```"

    return fn


def llm_client(fn) -> LlmClient:
    """A client whose every reply is ``fn(payload)``."""
    return LlmClient(LlmConfig(), CallableTransport(fn))


def tree_digest(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the names and bytes of the files directly under ``root``
    whose names match ``pattern``."""
    h = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def lp_relaxation(model: ModelSpec) -> ModelSpec:
    """``model`` with every variable continuous."""
    return ModelSpec([v._replace(domain=CONTINUOUS) for v in model.variables],
                     model.constraints, model.objective)


def random_infeasible_lp(rng: random.Random) -> ModelSpec:
    """Small random LP over 2 vars, resampled until infeasible."""
    while True:
        n_vars = rng.randint(1, 2)
        variables = [Variable(f"v{i}", lower=-math.inf) for i in range(n_vars)]
        constraints = []
        for j in range(rng.randint(2, 6)):
            coeffs = {
                f"v{i}": rng.choice([-2, -1, 1, 2])
                for i in rng.sample(range(n_vars), rng.randint(1, n_vars))
            }
            constraints.append(Constraint(
                f"c{j}", coeffs, rng.choice(["<=", ">="]), rng.randint(-6, 6)))
        model = ModelSpec(variables, constraints, Objective())
        if DEFAULT_BACKEND.solve(model).status == "infeasible":
            return model


@dataclass
class RetailSolution:
    """Structured view of a solved reference model."""

    status: str
    objective: float | None
    inventory: dict[tuple[str, str, int, int], float] = field(default_factory=dict)
    sales: dict[tuple[str, str, int, int], float] = field(default_factory=dict)
    orders: dict[tuple[str, str, int], float] = field(default_factory=dict)
    waste: dict[tuple[str, str, int], float] = field(default_factory=dict)
    lost: dict[tuple[str, str, int], float] = field(default_factory=dict)
    substitution: dict[tuple[str, str, str, int], float] = field(default_factory=dict)
    transshipment: dict[tuple[str, str, str, int], float] = field(default_factory=dict)
    order_flag: dict[tuple[str, str, int], float] = field(default_factory=dict)
    pack_count: dict[tuple[str, str, int], float] = field(default_factory=dict)


def extract_solution(inst: ScenarioInstance, result: SolveResult) -> RetailSolution:
    sol = RetailSolution(status=result.status, objective=result.objective)
    get = result.values.get
    for p in inst.products:
        for l in inst.locations:
            for t in range(1, inst.periods + 1):
                for k in range(1, inst.shelf_life[p] + 1):
                    sol.inventory[(p, l, t, k)] = get(_iv(p, l, t, k), 0.0)
                    sol.sales[(p, l, t, k)] = get(_yv(p, l, t, k), 0.0)
                sol.orders[(p, l, t)] = get(_qv(p, l, t), 0.0)
                sol.waste[(p, l, t)] = get(_wv(p, l, t), 0.0)
                sol.lost[(p, l, t)] = get(_lv(p, l, t), 0.0)
                if _zv(p, l, t) in result.values:
                    sol.order_flag[(p, l, t)] = result.values[_zv(p, l, t)]
                if _nv(p, l, t) in result.values:
                    sol.pack_count[(p, l, t)] = result.values[_nv(p, l, t)]
    for (pf, pt) in inst.network.sub_edges:
        for l in inst.locations:
            for t in range(1, inst.periods + 1):
                sol.substitution[(pf, pt, l, t)] = get(_sv(pf, pt, l, t), 0.0)
    for p in inst.products:
        for (lf, lto) in inst.network.trans_edges:
            for t in range(1, inst.periods + 1):
                sol.transshipment[(p, lf, lto, t)] = get(_xv(p, lf, lto, t), 0.0)
    return sol


def check_flow_conservation(
    inst: ScenarioInstance,
    sol: RetailSolution,
    tolerance: float = FLOW_TOLERANCE,
) -> list[tuple[str, str, float]]:
    """Per (product, location) conservation residuals above tolerance.

    Every unit entering a location's stock (arrivals, net transshipment,
    returns) must leave through sales, waste, or end-of-horizon carryover.
    Returns an empty list when the solution is conservative.
    """
    violations: list[tuple[str, str, float]] = []
    T = inst.periods
    for p in inst.products:
        rho = inst.return_rate[p]
        for l in inst.locations:
            inflow = 0.0
            for t in range(1, T + 1):
                if t - inst.lead_time[p] >= 1:
                    inflow += sol.orders.get((p, l, t - inst.lead_time[p]), 0.0)
                for (lf, lto) in inst.network.trans_edges:
                    if lto == l:
                        inflow += sol.transshipment.get((p, lf, lto, t), 0.0)
                    if lf == l:
                        inflow -= sol.transshipment.get((p, lf, lto, t), 0.0)
                if rho > 0 and t >= 2:
                    inflow += rho * sum(
                        sol.sales.get((p, l, t - 1, k), 0.0)
                        for k in range(1, inst.shelf_life[p] + 1)
                    )
            sold = sum(
                sol.sales.get((p, l, t, k), 0.0)
                for t in range(1, T + 1)
                for k in range(1, inst.shelf_life[p] + 1)
            )
            wasted = sum(sol.waste.get((p, l, t), 0.0) for t in range(1, T + 1))
            end_stock = sum(
                sol.inventory.get((p, l, T, k), 0.0) - sol.sales.get((p, l, T, k), 0.0)
                for k in range(2, inst.shelf_life[p] + 1)
            )
            residual = inflow - sold - wasted - end_stock
            if abs(residual) >= tolerance:
                violations.append((p, l, residual))
    return violations
