from __future__ import annotations

import hashlib

import pytest

from optverify.backend import SolveParams
from optverify.generator import ARCHETYPES, build_instance
from optverify.reference import (
    MUTATIONS,
    build_reference_model,
    ground_truth,
    solve_reference,
)
from optverify.scenario import demand_at, to_json_dict, validate_instance

from .helpers import check_flow_conservation, extract_solution

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
    "f1_52_weeks": "2537f0f6e8f85256",
    "f1_base": "5d3490255b8a654a",
    "f1_high_waste": "01e4e3df16d512ab",
    "f1_jit_logic": "d9527b37a4bdf335",
    "f2_cannibalization": "3103bc54a36b3788",
    "f2_circular_sub": "a3f7fe89960b4777",
    "f2_no_substitution": "b89f0e9b60ee3d08",
    "f2_price_band_tight": "8759f7b5ed135d4c",
    "f2_promo_budget": "8fbffc2869d39709",
    "f2_ultra_fresh": "a5fa2761d5a29437",
    "f3_storage_bottleneck": "1718ff3fb4a09acb",
    "f3_supply_bottleneck": "b8a8c697aa77d4ca",
    "f3_unbalanced_network": "01ff5be86428c6c9",
    "f3_volumetric_constraint": "8535f953d80bd894",
    "f4_demand_surge": "69a28843bbba10f1",
    "f4_early_stockout": "76cbba13e8a1c316",
    "f4_peak_failure": "70139243f6163dc7",
    "f4_quality_hold": "3f9f03567115e7ae",
    "f4_robust_variance": "618a265c2f5e1601",
    "f4_supply_risk": "a37ba43b40d266a9",
    "f5_impossible_demand": "5bcd74d097c83483",
    "f5_storage_overflow": "f165beb772f0a0cb",
    "f5_strict_service_trap": "3dd0931ad1e06714",
    "f5_ultimate_stress": "2dd5a02c3dd7e8e4",
    "f6_fixed_order_cost": "984d196bda1704ca",
    "f6_lead_time": "612ad8924ca3c51f",
    "f6_moq_binary": "9edacd3f62cc75ee",
    "f6_pack_size_integer": "71c3486c9ce97ba2",
    "f7_budget_limit": "90842f799df74887",
    "f7_hub_and_spoke": "f9e630c33fdaaa1e",
    "f7_multi_sourcing": "e7c34ae61f4724ab",
    "f7_multiechelon_chain": "b6bdd6cc30e6ec75",
    "f7_ring_routing": "ec011be2f1f5e705",
    "f7_transshipment": "aff632ce5ab24a65",
    "f8_labor_constraint": "b1dc7abbf298d0ec",
    "f8_reverse_logistics": "ece90f9647179c6a",
    "f8_ship_from_store": "030be981b628a917",
    "f8_sustainability": "806c067f96a8a4ae",
}


@pytest.mark.parametrize("archetype_id", sorted(ARCHETYPES))
def test_reference_model_layout_is_pinned(archetype_id):
    inst = build_instance(archetype_id, 0)
    models = [build_reference_model(inst)] + [
        build_reference_model(inst, drop=(key,)) for key in sorted(MUTATIONS)]
    assert _layout_digest(models) == LAYOUT_DIGESTS[archetype_id]
