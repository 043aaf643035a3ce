"""Universal retail MILP: the ground-truth model builder, its solves, and a
candidate program backed by it.

One builder covers every scenario instance.  Inventory is tracked per
remaining-life bucket ``k`` (k=1 oldest, k=SL freshest); the core always
present variables are inventory I, sales y, orders Q, waste W and lost sales
L, while substitution S, transshipment X, order trigger z and pack count n
are created only when the corresponding mechanism is active in the instance.

Sales availability (y <= I per bucket) is stated only for the last period's
buckets k >= 2; rows the builder always emits, whatever the data or
mutation, imply every other one.  ``aging`` gives I[t,k] - y[t,k] =
I[t+1,k-1] >= 0 for k >= 2 before the last period, and ``waste_def`` gives
I[t,1] - y[t,1] = W[t] >= 0 in every period.  The feasible set is the full
formulation's, with about 40% fewer rows.

The builder doubles as the mutation-testing substrate: callers may drop a
constraint family or objective term (``drop={"storage_capacity"}``,
``drop={"holding_cost"}``) to produce deliberately defective models whose
perturbation behaviour the verification layers must detect.
"""

from __future__ import annotations

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

GROUND_TRUTH_PARAMS = SolveParams(time_limit_s=60.0)


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
    periods = range(1, T + 1)
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

    # Each variable name is formatted once, into a table indexed the way the
    # name reads: I[p, l][t][k] is "I[p,l,t,k]" and Q[p, l][t] is "Q[p,l,t]",
    # with t and k 1-based like the model (index 0 is unused).
    def per_period(name, *key) -> list:
        return [None, *(name(*key, t) for t in periods)]

    I, Y, Q, W, L, Z, N = {}, {}, {}, {}, {}, {}, {}
    for p in products:
        buckets = range(1, sl[p] + 1)
        for l in locations:
            I[p, l] = [None, *([None, *(_iv(p, l, t, k) for k in buckets)] for t in periods)]
            Y[p, l] = [None, *([None, *(_yv(p, l, t, k) for k in buckets)] for t in periods)]
            Q[p, l], W[p, l], L[p, l] = (per_period(f, p, l) for f in (_qv, _wv, _lv))
            if has_z:
                Z[p, l] = per_period(_zv, p, l)
            if has_n:
                N[p, l] = per_period(_nv, p, l)
    S = {(pf, pt, l): per_period(_sv, pf, pt, l) for (pf, pt) in sub_edges for l in locations}
    X = {(p, lf, lto): per_period(_xv, p, lf, lto)
         for p in products for (lf, lto) in trans_edges}

    variables: list[Variable] = []
    for p in products:
        for l in locations:
            for t in periods:
                for i, y in zip(I[p, l][t][1:], Y[p, l][t][1:]):
                    variables += Variable(i), Variable(y)
                variables += (Variable(Q[p, l][t], upper=order_cap(p, t)),
                              Variable(W[p, l][t]), Variable(L[p, l][t]))
    for (pf, pt) in sub_edges:
        for l in locations:
            variables += map(Variable, S[pf, pt, l][1:])
    for p in products:
        for (lf, lto) in trans_edges:
            variables += map(Variable, X[p, lf, lto][1:])
    if has_z:
        for p in products:
            for l in locations:
                variables += (Variable(z, BINARY, upper=1.0) for z in Z[p, l][1:])
    if has_n:
        for p in products:
            for l in locations:
                for t in periods:
                    cap = order_cap(p, t)
                    n_upper = float(int(cap // pack)) if cap != float("inf") else cap
                    variables.append(Variable(N[p, l][t], INTEGER, upper=n_upper))

    # Objective: purchasing + holding (k>=2 only; bucket 1 either sells or
    # becomes waste, charging it would double-count the waste penalty) +
    # waste + lost sales, plus fixed-order and transshipment terms.  Zero
    # costs are left out.
    obj: dict[str, float] = {}
    for p in products:
        purchasing, waste, lost = float(c.purchasing[p]), float(c.waste[p]), float(c.lost_sales[p])
        holding = 0.0 if "holding_cost" in drop else float(c.inventory[p])
        for l in locations:
            for t in periods:
                if purchasing:
                    obj[Q[p, l][t]] = purchasing
                if waste:
                    obj[W[p, l][t]] = waste
                if lost:
                    obj[L[p, l][t]] = lost
                if holding:
                    for i, y in zip(I[p, l][t][2:], Y[p, l][t][2:]):
                        obj[i], obj[y] = holding, -holding
    if has_z and c.fixed_order > 0:
        for p in products:
            for l in locations:
                obj.update(dict.fromkeys(Z[p, l][1:], float(c.fixed_order)))
    if c.transshipment:
        for p in products:
            for (lf, lto) in trans_edges:
                obj.update(dict.fromkeys(X[p, lf, lto][1:], float(c.transshipment)))

    cons: list[Constraint] = []
    for p in products:
        n_out, n_in = substitution_neighbors(inst, p)
        rho = inst.return_rate[p]
        for l in locations:
            i, y, q, w, lost = I[p, l], Y[p, l], Q[p, l], W[p, l], L[p, l]
            incoming = [X[p, lf, lto] for (lf, lto) in trans_edges if lto == l]
            outgoing = [X[p, lf, lto] for (lf, lto) in trans_edges if lf == l]
            for t in periods:
                # Non-fresh buckets start empty: every unit must originate
                # from an order (no phantom stock).
                if t == 1:
                    for k in range(1, sl[p]):
                        cons.append(Constraint(f"init_zero[{p},{l},{k}]", {i[1][k]: 1.0}, "=", 0.0))

                # Fresh bucket receives arrivals, net transshipment, returns.
                coeffs: dict[str, float] = {i[t][sl[p]]: 1.0}
                if t - lt[p] >= 1:
                    coeffs[q[t - lt[p]]] = -1.0
                for x in incoming:
                    coeffs[x[t]] = -1.0
                for x in outgoing:
                    coeffs[x[t]] = coeffs.get(x[t], 0.0) + 1.0
                if rho > 0 and t >= 2:
                    coeffs.update(dict.fromkeys(y[t - 1][1:], -rho))
                cons.append(Constraint(f"fresh_inflow[{p},{l},{t}]", coeffs, "=", 0.0))

                # Aging: bucket k+1 today becomes bucket k tomorrow, net of
                # today's sales from that bucket.
                if t <= T - 1:
                    for k in range(1, sl[p]):
                        cons.append(Constraint(
                            f"aging[{p},{l},{t},{k}]",
                            {i[t + 1][k]: 1.0, i[t][k + 1]: -1.0, y[t][k + 1]: 1.0}, "=", 0.0))

                # Only bucket 1 expires; unsold oldest stock becomes waste.
                cons.append(Constraint(
                    f"waste_def[{p},{l},{t}]", {w[t]: 1.0, i[t][1]: -1.0, y[t][1]: 1.0}, "=", 0.0))

                # Sales availability, y <= I: aging and waste_def imply it
                # everywhere else (see the module docstring).
                if t == T:
                    for k in range(2, sl[p] + 1):
                        cons.append(Constraint(
                            f"sales_avail[{p},{l},{t},{k}]", {y[t][k]: 1.0, i[t][k]: -1.0},
                            "<=", 0.0))

                # Demand conservation with substitution routing: exported
                # demand is served by the partner's sales, imported demand
                # adds to ours.
                d = demand_at(inst, p, l, t)
                coeffs = dict.fromkeys(y[t][1:], 1.0)
                coeffs[lost[t]] = 1.0
                for pt in n_out:
                    coeffs[S[p, pt, l][t]] = 1.0
                for pf in n_in:
                    coeffs[S[pf, p, l][t]] = -1.0
                cons.append(Constraint(f"demand_balance[{p},{l},{t}]", coeffs, "=", d))

                if n_out:
                    cons.append(Constraint(
                        f"sub_export_cap[{p},{l},{t}]",
                        {S[p, pt, l][t]: 1.0 for pt in n_out}, "<=", d))

    # Production capacity binds delivered inflow in the arrival period.
    for p in products:
        for t in periods:
            if t - lt[p] >= 1:
                cons.append(Constraint(
                    f"production_capacity[{p},{t}]",
                    {Q[p, l][t - lt[p]]: 1.0 for l in locations},
                    "<=", inst.production_cap[p][t - 1]))

    # Storage measured on start-of-period inventory (before sales).
    if "storage_capacity" not in drop:
        for l in locations:
            for t in periods:
                coeffs = {}
                for p in products:
                    coeffs.update(dict.fromkeys(I[p, l][t][1:], inst.cold_usage[p]))
                cons.append(Constraint(
                    f"storage_capacity[{l},{t}]", coeffs, "<=", inst.cold_capacity[l]))

    if has_labor:
        for l in locations:
            for t in periods:
                coeffs = {}
                for p in products:
                    if inst.labor_usage[p] > 0:
                        coeffs.update(dict.fromkeys(Y[p, l][t][1:], inst.labor_usage[p]))
                cons.append(Constraint(
                    f"labor_capacity[{l},{t}]", coeffs, "<=", inst.labor_cap[l][t - 1]))

    budget = inst.constraints.budget_per_period
    if budget is not None:
        for t in periods:
            coeffs = {Q[p, l][t]: c.purchasing[p] for p in products for l in locations}
            if has_z and c.fixed_order > 0:
                for p in products:
                    for l in locations:
                        coeffs[Z[p, l][t]] = c.fixed_order
            cons.append(Constraint(f"budget[{t}]", coeffs, "<=", budget))

    omega = inst.constraints.waste_limit_pct
    if omega is not None:
        total_demand = sum(
            demand_at(inst, p, l, t)
            for p in products for l in locations for t in periods
        )
        coeffs = {W[p, l][t]: 1.0 for p in products for l in locations for t in periods}
        cons.append(Constraint("waste_cap", coeffs, "<=", omega * total_demand))

    if has_z:
        for p in products:
            for l in locations:
                for t in periods:
                    q, z = Q[p, l][t], Z[p, l][t]
                    cons.append(Constraint(
                        f"order_trigger_link[{p},{l},{t}]", {q: 1.0, z: -BIG_M}, "<=", 0.0))
                    if moq > 0:
                        cons.append(Constraint(
                            f"moq_floor[{p},{l},{t}]", {q: 1.0, z: -moq}, ">=", 0.0))

    if has_n:
        for p in products:
            for l in locations:
                for t in periods:
                    cons.append(Constraint(
                        f"pack_multiple[{p},{l},{t}]",
                        {Q[p, l][t]: 1.0, N[p, l][t]: -float(pack)}, "=", 0.0))

    return ModelSpec(
        variables=variables,
        constraints=cons,
        objective=Objective(sense="min", coefficients=obj),
    )


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
