from __future__ import annotations

import hashlib

import pytest

from optverify.backend import (
    DEFAULT_BACKEND,
    Constraint,
    ModelSpec,
    SolveParams,
)
from optverify.generator import ARCHETYPES, build_instance
from optverify.reference import (
    MUTATIONS,
    build_reference_model,
    ground_truth,
    solve_reference,
)
from optverify.scenario import demand_at, to_json_dict, validate_instance

from .helpers import check_flow_conservation, extract_solution, lp_relaxation

# Golden regression value: one solve of this builder on f1_base_v0, frozen.
F1_BASE_V0_OBJECTIVE = 378951.5


@pytest.fixture(scope="module")
def f1_base_v0():
    return build_instance("f1_base", 0)


@pytest.fixture(scope="module")
def f1_solution(f1_base_v0):
    result = solve_reference(f1_base_v0)
    assert result.status == "optimal"
    return extract_solution(f1_base_v0, result)


def _variable_prefixes(model):
    return {v.name.split("[")[0] for v in model.variables}


def test_modular_variable_activation(f1_base_v0):
    model = build_reference_model(f1_base_v0)
    prefixes = _variable_prefixes(model)
    # Base: substitution active, no transshipment, no MOQ/fixed cost/packs.
    assert prefixes == {"I", "y", "Q", "W", "L", "S"}


def test_discrete_variables_created_when_active():
    moq = build_reference_model(build_instance("f6_moq_binary", 0))
    assert "z" in _variable_prefixes(moq)
    assert "n" not in _variable_prefixes(moq)
    pack = build_reference_model(build_instance("f6_pack_size_integer", 0))
    assert "n" in _variable_prefixes(pack)
    trans = build_reference_model(build_instance("f7_transshipment", 0))
    assert "X" in _variable_prefixes(trans)


def test_unknown_mutation_rejected(f1_base_v0):
    with pytest.raises(ValueError):
        build_reference_model(f1_base_v0, drop=("objective",))


def test_golden_objective_regression(f1_base_v0):
    result = solve_reference(f1_base_v0)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(F1_BASE_V0_OBJECTIVE, rel=1e-6)


def test_ground_truth_shape(f1_base_v0):
    gt = ground_truth(f1_base_v0)
    assert gt["status"] == "optimal"
    assert gt["objective"] == pytest.approx(F1_BASE_V0_OBJECTIVE, rel=1e-6)


def test_zero_demand_zero_objective(f1_base_v0):
    raw = to_json_dict(f1_base_v0)
    raw["demand_curve"] = {p: [0] * raw["periods"] for p in raw["products"]}
    inst = validate_instance(raw)
    result = solve_reference(inst)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert max(abs(v) for v in result.values.values()) < 1e-9


def test_flow_conservation_clean(f1_base_v0, f1_solution):
    assert check_flow_conservation(f1_base_v0, f1_solution) == []


def test_flow_conservation_detects_injected_defect(f1_base_v0):
    result = solve_reference(f1_base_v0)
    sol = extract_solution(f1_base_v0, result)
    sol.waste[("SKU_Basic", "DC2", 7)] += 1.0
    violations = check_flow_conservation(f1_base_v0, sol)
    assert len(violations) == 1
    p, l, residual = violations[0]
    assert (p, l) == ("SKU_Basic", "DC2")
    assert abs(residual) == pytest.approx(1.0, abs=1e-6)


def test_flow_conservation_zero_demand(f1_base_v0):
    raw = to_json_dict(f1_base_v0)
    raw["demand_curve"] = {p: [0] * raw["periods"] for p in raw["products"]}
    inst = validate_instance(raw)
    sol = extract_solution(inst, solve_reference(inst))
    assert check_flow_conservation(inst, sol) == []


def test_no_expired_fresh_stock(f1_base_v0, f1_solution):
    # Waste can only come from the oldest bucket's start-of-period stock.
    for (p, l, t), w in f1_solution.waste.items():
        assert w <= f1_solution.inventory[(p, l, t, 1)] + 1e-6


def test_holding_cost_scope(f1_base_v0, f1_solution):
    """Zeroing holding cost moves the objective by at most the holding term."""
    base_obj = f1_solution.objective
    holding = 0.0
    for p in f1_base_v0.products:
        c_inv = f1_base_v0.costs.inventory[p]
        for l in f1_base_v0.locations:
            for t in range(1, f1_base_v0.periods + 1):
                for k in range(2, f1_base_v0.shelf_life[p] + 1):
                    holding += c_inv * (
                        f1_solution.inventory[(p, l, t, k)]
                        - f1_solution.sales[(p, l, t, k)]
                    )
    raw = to_json_dict(f1_base_v0)
    raw["costs"]["inventory"] = {p: 0.0 for p in raw["products"]}
    free_holding = solve_reference(validate_instance(raw))
    assert free_holding.objective <= base_obj + 1e-6
    assert free_holding.objective >= base_obj - holding - 1e-6


def test_mutation_sensitivity_oracle(f3_bottleneck_v0):
    """Storage perturbation must move the objective only while the storage
    constraints exist in the model."""
    raw = to_json_dict(f3_bottleneck_v0)
    for l in raw["cold_capacity"]:
        raw["cold_capacity"][l] *= 0.001
    squeezed = validate_instance(raw)

    intact_base = solve_reference(f3_bottleneck_v0)
    intact_squeezed = solve_reference(squeezed)
    if intact_squeezed.status == "optimal":
        ratio = abs(intact_squeezed.objective - intact_base.objective) / abs(intact_base.objective)
        assert ratio > 0.30
    else:
        assert intact_squeezed.status == "infeasible"

    mutant_base = solve_reference(f3_bottleneck_v0, drop=("storage_capacity",))
    mutant_squeezed = solve_reference(squeezed, drop=("storage_capacity",))
    ratio = abs(mutant_squeezed.objective - mutant_base.objective) / abs(mutant_base.objective)
    assert ratio < 0.05


def test_substitution_flows_respect_route_bound(f1_base_v0, f1_solution):
    for (pf, pt, l, t), s in f1_solution.substitution.items():
        assert s <= demand_at(f1_base_v0, pf, l, t) + 1e-6


def test_lead_time_guard_no_early_arrivals():
    inst = build_instance("f6_lead_time", 0)
    model = build_reference_model(inst)
    # Fresh inflow in period 1 must reference no order variable for products
    # with positive lead time (arrival guard t - LT >= 1).
    by_name = {c.name: c for c in model.constraints}
    cons = by_name["fresh_inflow[SKU_Basic,DC1,1]"]
    assert all(not v.startswith("Q[") for v in cons.coefficients)
    cons_late = by_name[f"fresh_inflow[SKU_Basic,DC1,{inst.periods}]"]
    assert any(v.startswith("Q[") for v in cons_late.coefficients)


def test_returns_feed_fresh_bucket():
    inst = build_instance("f8_reverse_logistics", 0)
    model = build_reference_model(inst)
    by_name = {c.name: c for c in model.constraints}
    cons = by_name["fresh_inflow[SKU_Basic,DC1,2]"]
    rho = inst.return_rate["SKU_Basic"]
    sales_coeffs = [v for v in cons.coefficients if v.startswith("y[")]
    assert sales_coeffs
    assert all(cons.coefficients[v] == pytest.approx(-rho) for v in sales_coeffs)


def test_budget_constraint_present_only_when_active(f1_base_v0):
    assert not any(
        c.name.startswith("budget[")
        for c in build_reference_model(f1_base_v0).constraints)
    budgeted = build_reference_model(build_instance("f7_budget_limit", 0))
    assert sum(1 for c in budgeted.constraints if c.name.startswith("budget[")) == 20


def test_time_limit_params_respected(f1_base_v0):
    result = solve_reference(
        f1_base_v0, params=SolveParams(time_limit_s=30.0))
    assert result.status == "optimal"


def _restored_sales_avail(model):
    """The ``sales_avail`` rows the builder leaves out, built back from the
    variable names: y[p,l,t,k] <= I[p,l,t,k] for each sales variable whose
    row is not in the model."""
    stated = {c.name for c in model.constraints}
    restored = []
    for v in model.variables:
        if v.name.startswith("y["):
            name = "sales_avail" + v.name[1:]
            if name not in stated:
                restored.append(Constraint(name, {v.name: 1.0, "I" + v.name[1:]: -1.0}, "<=", 0.0))
    return restored


def _assert_implied(model, restored):
    """Each restored row y[t,k] <= I[t,k] has the row that implies it in
    ``model``, saying the stock left after sales equals a variable with
    lower bound 0: aging[t,k-1] (I[t+1,k-1] = I[t,k] - y[t,k]) for k >= 2,
    waste_def[t] (W[t] = I[t,1] - y[t,1]) for k = 1."""
    by_name = {c.name: c for c in model.constraints}
    lower = {v.name: v.lower for v in model.variables}
    for row in restored:
        p, l, t, k = row.name[len("sales_avail["):-1].split(",")
        t, k = int(t), int(k)
        if k >= 2:
            name, rest = f"aging[{p},{l},{t},{k - 1}]", f"I[{p},{l},{t + 1},{k - 1}]"
        else:
            name, rest = f"waste_def[{p},{l},{t}]", f"W[{p},{l},{t}]"
        assert name in by_name, f"{row.name} is left out, but {name} is not in the model"
        implying = by_name[name]
        assert (implying.sense, implying.rhs) == ("=", 0.0), name
        y, i = row.coefficients
        assert implying.coefficients == {rest: 1.0, i: -1.0, y: 1.0}, name
        assert lower[rest] >= 0.0, rest


@pytest.mark.parametrize("archetype_id", sorted(ARCHETYPES))
def test_omitted_sales_availability_rows_are_implied(archetype_id):
    # The builder states y <= I only where no other row implies it.  Adding
    # every omitted row back must leave the optimum where it is, on the LP
    # relaxation of the MIP archetypes too; the slim optimum must already
    # satisfy each of them; and each must have its implying row in the
    # model, so that a mutation dropping that row fails here.
    inst = build_instance(archetype_id, 0)
    for drop in [(), *((key,) for key in sorted(MUTATIONS))]:
        slim = lp_relaxation(build_reference_model(inst, drop=drop))
        restored = _restored_sales_avail(slim)
        assert len(restored) == sum(
            len(inst.locations) * (inst.periods * inst.shelf_life[p] - inst.shelf_life[p] + 1)
            for p in inst.products)
        _assert_implied(slim, restored)
        full = ModelSpec(slim.variables, slim.constraints + restored, slim.objective)
        got, want = DEFAULT_BACKEND.solve(slim), DEFAULT_BACKEND.solve(full)
        assert got.status == want.status, drop
        if want.objective is not None:
            assert got.objective == pytest.approx(want.objective, rel=1e-9), drop
            for row in restored:
                y, i = row.coefficients
                assert got.values[y] <= got.values[i] + 1e-6, (drop, row.name)


def _layout_digest(models) -> str:
    """Hash of what HiGHS is handed, in the order it is handed over:
    variables, rows with their coefficients in insertion order, and the
    objective terms in order."""
    h = hashlib.sha256()
    for model in models:
        for v in model.variables:
            h.update(f"v {v.name} {v.domain} {float(v.lower)!r} {float(v.upper)!r}\n".encode())
        for c in model.constraints:
            terms = " ".join(f"{name}:{float(x)!r}" for name, x in c.coefficients.items())
            h.update(f"c {c.name} {c.sense} {float(c.rhs)!r} {terms}\n".encode())
        obj = model.objective
        terms = " ".join(f"{name}:{float(x)!r}" for name, x in obj.coefficients.items())
        h.update(f"o {obj.sense} {float(obj.constant)!r} {terms}\n".encode())
    return h.hexdigest()[:16]


# Variant 0 of each archetype, intact and under each of ``MUTATIONS`` in
# sorted order.  A builder change that reorders anything changes HiGHS's
# input, and so the replayed run bytes; it has to change these on purpose.
LAYOUT_DIGESTS = {
    "f1_52_weeks": "b722d5c36f8eda93",
    "f1_base": "4025a0e1cb1425bc",
    "f1_high_waste": "0de224fee8b82071",
    "f1_jit_logic": "0f0581a4846ab658",
    "f2_cannibalization": "5f98658cd33b18f5",
    "f2_circular_sub": "2c47fddb0b22a3e7",
    "f2_no_substitution": "eb8021467f8dd3ca",
    "f2_price_band_tight": "8f3513519af441e3",
    "f2_promo_budget": "469fe5f7564a5a88",
    "f2_ultra_fresh": "5f3e6cb26fa1b3da",
    "f3_storage_bottleneck": "5ad682448ef329ae",
    "f3_supply_bottleneck": "05023de798b9a065",
    "f3_unbalanced_network": "dffbcb0d5a998418",
    "f3_volumetric_constraint": "4e348301f2f8be41",
    "f4_demand_surge": "ff646482aae16dce",
    "f4_early_stockout": "321114b762507a51",
    "f4_peak_failure": "a69d6a66c025b1bc",
    "f4_quality_hold": "bc3a8384b37bd7bd",
    "f4_robust_variance": "9997f6900caebcc0",
    "f4_supply_risk": "aa4ac08405e5fbe1",
    "f5_impossible_demand": "9c976e259147449a",
    "f5_storage_overflow": "9f9095716c77f4fe",
    "f5_strict_service_trap": "28ecf6526fd21e1c",
    "f5_ultimate_stress": "047f1d5cb3e362ef",
    "f6_fixed_order_cost": "0c140b1c3cd104db",
    "f6_lead_time": "137a25a111cd5fca",
    "f6_moq_binary": "349e839f577b6c4b",
    "f6_pack_size_integer": "b090e5921b10e3b1",
    "f7_budget_limit": "8ba96fc0770a0195",
    "f7_hub_and_spoke": "4682d7e0d20906b1",
    "f7_multi_sourcing": "a3797f1d42614063",
    "f7_multiechelon_chain": "47c174cc3f13f5f2",
    "f7_ring_routing": "2f3dba0c3bbecddb",
    "f7_transshipment": "d5d4f59880ca4702",
    "f8_labor_constraint": "3ee8b0b432510aad",
    "f8_reverse_logistics": "a520952e03d28ee5",
    "f8_ship_from_store": "4aa04d4065e5dcd4",
    "f8_sustainability": "fe5a7150dd6e228c",
}


@pytest.mark.parametrize("archetype_id", sorted(ARCHETYPES))
def test_reference_model_layout_is_pinned(archetype_id):
    inst = build_instance(archetype_id, 0)
    models = [build_reference_model(inst)] + [
        build_reference_model(inst, drop=(key,)) for key in sorted(MUTATIONS)]
    assert _layout_digest(models) == LAYOUT_DIGESTS[archetype_id]
