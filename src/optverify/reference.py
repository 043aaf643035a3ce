"""Universal retail MILP: ground-truth model builder and solution checks.

One builder covers every scenario instance.  Inventory is tracked per
remaining-life bucket ``k`` (k=1 oldest, k=SL freshest); the core always
present variables are inventory I, sales y, orders Q, waste W and lost sales
L, while substitution S, transshipment X, order trigger z and pack count n
are created only when the corresponding mechanism is active in the instance.

The builder doubles as the mutation-testing substrate: callers may drop a
constraint family or objective term (``drop={"storage_capacity"}``,
``drop={"holding_cost"}``) to produce deliberately defective models whose
perturbation behaviour the verification layers must detect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Iterable

from .backend import (
    BINARY,
    DEFAULT_BACKEND,
    INTEGER,
    Constraint,
    ModelSpec,
    Objective,
    SolveParams,
    SolveResult,
    Variable,
)
from .scenario import ScenarioInstance, demand_at, substitution_neighbors

BIG_M = 1e6

# Constraint families / objective terms that can be deliberately removed for
# mutation testing.
MUTATIONS = frozenset({"storage_capacity", "holding_cost"})

GROUND_TRUTH_PARAMS = SolveParams(time_limit_s=60.0, mip_gap=0.01)

FLOW_TOLERANCE = 1e-6


def _iv(p: str, l: str, t: int, k: int) -> str:
    return f"I[{p},{l},{t},{k}]"


def _yv(p: str, l: str, t: int, k: int) -> str:
    return f"y[{p},{l},{t},{k}]"


def _qv(p: str, l: str, t: int) -> str:
    return f"Q[{p},{l},{t}]"


def _wv(p: str, l: str, t: int) -> str:
    return f"W[{p},{l},{t}]"


def _lv(p: str, l: str, t: int) -> str:
    return f"L[{p},{l},{t}]"


def _sv(p_from: str, p_to: str, l: str, t: int) -> str:
    return f"S[{p_from}->{p_to},{l},{t}]"


def _xv(p: str, l_from: str, l_to: str, t: int) -> str:
    return f"X[{p},{l_from}->{l_to},{t}]"


def _zv(p: str, l: str, t: int) -> str:
    return f"z[{p},{l},{t}]"


def _nv(p: str, l: str, t: int) -> str:
    return f"n[{p},{l},{t}]"


def build_reference_model(
    inst: ScenarioInstance, drop: Collection[str] = ()
) -> ModelSpec:
    """Encode the instance as a ModelSpec.

    ``drop`` removes whole constraint families or objective terms (see
    ``MUTATIONS``); the default builds the faithful model.
    """
    unknown = set(drop) - MUTATIONS
    if unknown:
        raise ValueError(f"unknown mutation keys: {sorted(unknown)}")

    T = inst.periods
    products, locations = inst.products, inst.locations
    sl = inst.shelf_life
    lt = inst.lead_time
    sub_edges = inst.network.sub_edges
    trans_edges = inst.network.trans_edges
    moq = inst.constraints.moq
    pack = inst.constraints.pack_size
    c = inst.costs
    has_z = moq > 0 or c.fixed_order > 0
    has_n = pack > 1
    has_labor = any(u > 0 for u in inst.labor_usage.values())

    def order_cap(p: str, t: int) -> float:
        # Upper bound on Q[p,l,t] implied by the arrival-period production
        # constraint; tightens MIP presolve without changing the feasible set.
        arrival = t + lt[p]
        if arrival <= T:
            return float(inst.production_cap[p][arrival - 1])
        return float("inf")

    variables: list[Variable] = []
    for p in products:
        for l in locations:
            for t in range(1, T + 1):
                for k in range(1, sl[p] + 1):
                    variables.append(Variable(_iv(p, l, t, k)))
                    variables.append(Variable(_yv(p, l, t, k)))
                variables.append(Variable(_qv(p, l, t), upper=order_cap(p, t)))
                variables.append(Variable(_wv(p, l, t)))
                variables.append(Variable(_lv(p, l, t)))
    for (pf, pt) in sub_edges:
        for l in locations:
            for t in range(1, T + 1):
                variables.append(Variable(_sv(pf, pt, l, t)))
    for p in products:
        for (lf, lto) in trans_edges:
            for t in range(1, T + 1):
                variables.append(Variable(_xv(p, lf, lto, t)))
    if has_z:
        for p in products:
            for l in locations:
                for t in range(1, T + 1):
                    variables.append(Variable(_zv(p, l, t), domain=BINARY, upper=1.0))
    if has_n:
        for p in products:
            for l in locations:
                for t in range(1, T + 1):
                    cap = order_cap(p, t)
                    n_upper = float(int(cap // pack)) if cap != float("inf") else cap
                    variables.append(Variable(_nv(p, l, t), domain=INTEGER, upper=n_upper))

    # Objective: purchasing + holding (k>=2 only; bucket 1 either sells or
    # becomes waste, charging it would double-count the waste penalty) +
    # waste + lost sales, plus fixed-order and transshipment terms.
    obj: dict[str, float] = {}

    def add_obj(name: str, coef: float) -> None:
        if coef:
            obj[name] = obj.get(name, 0.0) + coef

    for p in products:
        for l in locations:
            for t in range(1, T + 1):
                add_obj(_qv(p, l, t), c.purchasing[p])
                add_obj(_wv(p, l, t), c.waste[p])
                add_obj(_lv(p, l, t), c.lost_sales[p])
                if "holding_cost" not in drop:
                    for k in range(2, sl[p] + 1):
                        add_obj(_iv(p, l, t, k), c.inventory[p])
                        add_obj(_yv(p, l, t, k), -c.inventory[p])
    if has_z and c.fixed_order > 0:
        for p in products:
            for l in locations:
                for t in range(1, T + 1):
                    add_obj(_zv(p, l, t), c.fixed_order)
    for p in products:
        for (lf, lto) in trans_edges:
            for t in range(1, T + 1):
                add_obj(_xv(p, lf, lto, t), c.transshipment)

    cons: list[Constraint] = []

    def eq(name: str, coeffs: dict[str, float], rhs: float = 0.0) -> None:
        cons.append(Constraint(name, coeffs, "=", rhs))

    def le(name: str, coeffs: dict[str, float], rhs: float) -> None:
        cons.append(Constraint(name, coeffs, "<=", rhs))

    def ge(name: str, coeffs: dict[str, float], rhs: float) -> None:
        cons.append(Constraint(name, coeffs, ">=", rhs))

    for p in products:
        n_out, n_in = substitution_neighbors(inst, p)
        rho = inst.return_rate[p]
        for l in locations:
            incoming = [lf for (lf, lto) in trans_edges if lto == l]
            outgoing = [lto for (lf, lto) in trans_edges if lf == l]
            for t in range(1, T + 1):
                # Non-fresh buckets start empty: every unit must originate
                # from an order (no phantom stock).
                if t == 1:
                    for k in range(1, sl[p]):
                        eq(f"init_zero[{p},{l},{k}]", {_iv(p, l, 1, k): 1.0})

                # Fresh bucket receives arrivals, net transshipment, returns.
                coeffs: dict[str, float] = {_iv(p, l, t, sl[p]): 1.0}
                if t - lt[p] >= 1:
                    coeffs[_qv(p, l, t - lt[p])] = -1.0
                for lf in incoming:
                    coeffs[_xv(p, lf, l, t)] = -1.0
                for lto in outgoing:
                    coeffs[_xv(p, l, lto, t)] = coeffs.get(_xv(p, l, lto, t), 0.0) + 1.0
                if rho > 0 and t >= 2:
                    for k in range(1, sl[p] + 1):
                        coeffs[_yv(p, l, t - 1, k)] = -rho
                eq(f"fresh_inflow[{p},{l},{t}]", coeffs)

                # Aging: bucket k+1 today becomes bucket k tomorrow, net of
                # today's sales from that bucket.
                if t <= T - 1:
                    for k in range(1, sl[p]):
                        eq(
                            f"aging[{p},{l},{t},{k}]",
                            {
                                _iv(p, l, t + 1, k): 1.0,
                                _iv(p, l, t, k + 1): -1.0,
                                _yv(p, l, t, k + 1): 1.0,
                            },
                        )

                # Only bucket 1 expires; unsold oldest stock becomes waste.
                eq(
                    f"waste_def[{p},{l},{t}]",
                    {_wv(p, l, t): 1.0, _iv(p, l, t, 1): -1.0, _yv(p, l, t, 1): 1.0},
                )

                for k in range(1, sl[p] + 1):
                    le(
                        f"sales_avail[{p},{l},{t},{k}]",
                        {_yv(p, l, t, k): 1.0, _iv(p, l, t, k): -1.0},
                        0.0,
                    )

                # Demand conservation with substitution routing: exported
                # demand is served by the partner's sales, imported demand
                # adds to ours.
                d = demand_at(inst, p, l, t)
                coeffs = {_yv(p, l, t, k): 1.0 for k in range(1, sl[p] + 1)}
                coeffs[_lv(p, l, t)] = 1.0
                for pt in n_out:
                    coeffs[_sv(p, pt, l, t)] = 1.0
                for pf in n_in:
                    coeffs[_sv(pf, p, l, t)] = -1.0
                eq(f"demand_balance[{p},{l},{t}]", coeffs, d)

                if n_out:
                    le(
                        f"sub_export_cap[{p},{l},{t}]",
                        {_sv(p, pt, l, t): 1.0 for pt in n_out},
                        d,
                    )

    # Production capacity binds delivered inflow in the arrival period.
    for p in products:
        for t in range(1, T + 1):
            if t - lt[p] >= 1:
                le(
                    f"production_capacity[{p},{t}]",
                    {_qv(p, l, t - lt[p]): 1.0 for l in locations},
                    inst.production_cap[p][t - 1],
                )

    # Storage measured on start-of-period inventory (before sales).
    if "storage_capacity" not in drop:
        for l in locations:
            for t in range(1, T + 1):
                coeffs = {}
                for p in products:
                    for k in range(1, sl[p] + 1):
                        coeffs[_iv(p, l, t, k)] = inst.cold_usage[p]
                le(f"storage_capacity[{l},{t}]", coeffs, inst.cold_capacity[l])

    if has_labor:
        for l in locations:
            for t in range(1, T + 1):
                coeffs = {}
                for p in products:
                    if inst.labor_usage[p] > 0:
                        for k in range(1, sl[p] + 1):
                            coeffs[_yv(p, l, t, k)] = inst.labor_usage[p]
                le(f"labor_capacity[{l},{t}]", coeffs, inst.labor_cap[l][t - 1])

    budget = inst.constraints.budget_per_period
    if budget is not None:
        for t in range(1, T + 1):
            coeffs = {_qv(p, l, t): c.purchasing[p] for p in products for l in locations}
            if has_z and c.fixed_order > 0:
                for p in products:
                    for l in locations:
                        coeffs[_zv(p, l, t)] = c.fixed_order
            le(f"budget[{t}]", coeffs, budget)

    omega = inst.constraints.waste_limit_pct
    if omega is not None:
        total_demand = sum(
            demand_at(inst, p, l, t)
            for p in products for l in locations for t in range(1, T + 1)
        )
        coeffs = {
            _wv(p, l, t): 1.0
            for p in products for l in locations for t in range(1, T + 1)
        }
        le("waste_cap", coeffs, omega * total_demand)

    if has_z:
        for p in products:
            for l in locations:
                for t in range(1, T + 1):
                    le(
                        f"order_trigger_link[{p},{l},{t}]",
                        {_qv(p, l, t): 1.0, _zv(p, l, t): -BIG_M},
                        0.0,
                    )
                    if moq > 0:
                        ge(
                            f"moq_floor[{p},{l},{t}]",
                            {_qv(p, l, t): 1.0, _zv(p, l, t): -moq},
                            0.0,
                        )

    if has_n:
        for p in products:
            for l in locations:
                for t in range(1, T + 1):
                    eq(
                        f"pack_multiple[{p},{l},{t}]",
                        {_qv(p, l, t): 1.0, _nv(p, l, t): -float(pack)},
                    )

    return ModelSpec(
        variables=variables,
        constraints=cons,
        objective=Objective(sense="min", coefficients=obj),
    )


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


def solve_reference(
    inst: ScenarioInstance,
    drop: Collection[str] = (),
    params: SolveParams = GROUND_TRUTH_PARAMS,
    backend=DEFAULT_BACKEND,
) -> SolveResult:
    return backend.solve(build_reference_model(inst, drop=drop), params)


def ground_truth(inst: ScenarioInstance, backend=DEFAULT_BACKEND) -> dict[str, Any]:
    """Solve with the ground-truth parameter set; objective absent on infeasible."""
    result = solve_reference(inst, backend=backend)
    out: dict[str, Any] = {"status": result.status}
    if result.objective is not None:
        out["objective"] = result.objective
    return out


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


def candidate_source(drop: Iterable[str] = ()) -> str:
    """Source text of a candidate program backed by the reference builder.

    The emitted script expects the instance record pre-bound to ``data``,
    solves it, and prints the integer status / objective contract lines.
    Mutations in ``drop`` produce deliberately defective candidates for
    verification tests.
    """
    drops = tuple(sorted(drop))
    return (
        "from optverify.backend import DEFAULT_BACKEND, SolveParams, status_to_code\n"
        "from optverify.reference import build_reference_model\n"
        "from optverify.scenario import validate_instance\n"
        "\n"
        "inst = validate_instance(data)\n"
        f"model = build_reference_model(inst, drop={drops!r})\n"
        "result = DEFAULT_BACKEND.solve(model, SolveParams(time_limit_s=55.0))\n"
        "code = status_to_code(result.status)\n"
        'print(f"status: {code}")\n'
        "if code == 2:\n"
        '    print(f"objective: {result.objective}")\n'
    )
