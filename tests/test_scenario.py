from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from optverify.errors import SchemaError
from optverify.scenario import (
    demand_at,
    dumps_instance,
    substitution_neighbors,
    to_json_dict,
    validate_instance,
)


def test_base_scenario_validates(base):
    assert base.periods == 20
    assert len(base.products) == 3
    assert len(base.locations) == 5
    assert base.constraints.budget_per_period is None
    assert base.constraints.waste_limit_pct is None


def test_share_sum_violation_names_field(raw_base):
    raw_base["demand_share"]["DC1"] = 0.15  # sums to 0.9
    with pytest.raises(SchemaError, match="demand_share"):
        validate_instance(raw_base)


def test_missing_network_defaults_to_empty(raw_base):
    del raw_base["network"]
    inst = validate_instance(raw_base)
    assert inst.network.sub_edges == ()
    assert inst.network.trans_edges == ()


def test_missing_required_field_is_named(raw_base):
    del raw_base["shelf_life"]
    with pytest.raises(SchemaError, match="shelf_life"):
        validate_instance(raw_base)


def test_null_required_scalar_reads_missing(raw_base):
    raw_base["costs"]["transshipment"] = None
    with pytest.raises(SchemaError, match=r"costs\.transshipment: missing required field"):
        validate_instance(raw_base)


def test_wrong_arity_is_reported(raw_base):
    raw_base["demand_curve"]["SKU_Basic"] = raw_base["demand_curve"]["SKU_Basic"][:-1]
    with pytest.raises(SchemaError, match="demand_curve"):
        validate_instance(raw_base)


def test_self_loop_edge_rejected(raw_base):
    raw_base["network"]["sub_edges"] = [["SKU_Basic", "SKU_Basic"]]
    with pytest.raises(SchemaError, match="self-loop"):
        validate_instance(raw_base)


def test_edge_to_undeclared_id_rejected(raw_base):
    raw_base["network"]["trans_edges"] = [["DC1", "DC9"]]
    with pytest.raises(SchemaError, match="undeclared"):
        validate_instance(raw_base)


def test_negative_cost_rejected(raw_base):
    raw_base["costs"]["waste"]["SKU_Basic"] = -1
    with pytest.raises(SchemaError, match="waste"):
        validate_instance(raw_base)


def test_return_rate_must_be_below_one(raw_base):
    raw_base["return_rate"]["SKU_Basic"] = 1.0
    with pytest.raises(SchemaError, match="return_rate"):
        validate_instance(raw_base)


def _assign(raw, path, value):
    *parents, last = path
    for key in parents:
        raw = raw[key]
    raw[last] = value


@pytest.mark.parametrize("path,value,field", [
    (("demand_curve", "SKU_Basic", 3), float("nan"), "demand_curve[SKU_Basic]"),
    (("cold_capacity", "DC2"), float("inf"), "cold_capacity[DC2]"),
    (("costs", "fixed_order"), float("nan"), "costs.fixed_order"),
], ids=["array_entry", "map_value", "scalar"])
def test_non_finite_number_rejected(raw_base, path, value, field):
    _assign(raw_base, path, value)
    with pytest.raises(SchemaError) as exc:
        validate_instance(raw_base)
    assert str(exc.value) == f"{field}: expected a finite number, got {value!r}"


@pytest.mark.parametrize("path,value,message", [
    (("constraint",), {"budget_per_period": 10000}, "instance: unknown keys ['constraint']"),
    (("constraints", "budget"), 10000, "constraints: unknown keys ['budget']"),
    (("costs", "holding"), 1.0, "costs: unknown keys ['holding']"),
    (("network", "trans_edge"), [["DC1", "DC2"]], "network: unknown keys ['trans_edge']"),
    (("cold_capacity", "DC9"), 100.0, "cold_capacity: entries for undeclared ['DC9']"),
], ids=["top_level", "constraints", "costs", "network", "map_entry"])
def test_undeclared_key_rejected(raw_base, path, value, message):
    _assign(raw_base, path, value)
    with pytest.raises(SchemaError) as exc:
        validate_instance(raw_base)
    assert str(exc.value) == message


@pytest.mark.parametrize("key,edges,message", [
    ("sub_edges", [["SKU_Basic", "SKU_Premium"], ["SKU_Basic", "SKU_Premium"]],
     "network.sub_edges[1]: duplicate edge [SKU_Basic, SKU_Premium]"),
    ("trans_edges", [["DC1", "DC2"], ["DC2", "DC1"], ["DC1", "DC2"]],
     "network.trans_edges[2]: duplicate edge [DC1, DC2]"),
], ids=["sub_edges", "trans_edges"])
def test_duplicate_edge_rejected(raw_base, key, edges, message):
    raw_base["network"][key] = edges
    with pytest.raises(SchemaError) as exc:
        validate_instance(raw_base)
    assert str(exc.value) == message


@pytest.mark.parametrize("path,value,message", [
    (("name",), ["a"], "name: expected a string, got ['a']"),
    (("description",), None, "description: expected a string, got None"),
    (("description",), 7, "description: expected a string, got 7"),
    (("products", 2), None, "products[2]: expected a string, got None"),
    (("locations", 0), 1, "locations[0]: expected a string, got 1"),
    (("network", "sub_edges", 0, 1), None, "network.sub_edges[0]: expected a string, got None"),
], ids=["name", "description_null", "description_number", "product_id", "location_id",
        "edge_end"])
def test_text_and_ids_must_be_strings(raw_base, path, value, message):
    _assign(raw_base, path, value)
    with pytest.raises(SchemaError) as exc:
        validate_instance(raw_base)
    assert str(exc.value) == message


def test_absent_description_reads_empty(raw_base):
    del raw_base["description"]
    assert validate_instance(raw_base).description == ""


def test_negative_budget_rejected(raw_base):
    raw_base["constraints"]["budget_per_period"] = -5
    with pytest.raises(SchemaError, match=r"constraints\.budget_per_period: value -5 below 0"):
        validate_instance(raw_base)


def test_inactive_tristate_distinct_from_zero(raw_base):
    raw_base["constraints"]["waste_limit_pct"] = 0.0
    inst = validate_instance(raw_base)
    assert inst.constraints.waste_limit_pct == 0.0
    raw_base["constraints"]["waste_limit_pct"] = None
    inst = validate_instance(raw_base)
    assert inst.constraints.waste_limit_pct is None


def test_demand_at_uses_one_indexed_periods(base):
    assert demand_at(base, "SKU_Basic", "DC1", 1) == pytest.approx(303 * 0.25)
    assert demand_at(base, "SKU_Basic", "DC1", 11) == pytest.approx(1300 * 0.25)


def test_demand_at_out_of_range(base):
    with pytest.raises(IndexError):
        demand_at(base, "SKU_Basic", "DC1", 0)
    with pytest.raises(IndexError):
        demand_at(base, "SKU_Basic", "DC1", 21)


def test_demand_at_zero_share(raw_base):
    raw_base["demand_share"] = {"DC1": 1.0, "DC2": 0.0, "DC3": 0.0, "DC4": 0.0, "DC5": 0.0}
    inst = validate_instance(raw_base)
    assert demand_at(inst, "SKU_Basic", "DC2", 5) == 0


def test_substitution_neighbors_directions(base):
    n_out, n_in = substitution_neighbors(base, "SKU_Basic")
    assert n_out == {"SKU_Premium"}
    assert n_in == set()
    n_out, n_in = substitution_neighbors(base, "SKU_Premium")
    assert n_out == set()
    assert n_in == {"SKU_Basic"}


def test_substitution_neighbors_empty(raw_base):
    raw_base["network"]["sub_edges"] = []
    inst = validate_instance(raw_base)
    for p in inst.products:
        assert substitution_neighbors(inst, p) == (set(), set())


def test_validate_serialize_roundtrip_idempotent(base):
    text = dumps_instance(base)
    again = validate_instance(json.loads(text))
    assert again == base
    assert dumps_instance(again) == text


@given(st.integers(min_value=1, max_value=20))
def test_share_partition_property(t):
    from optverify.generator import base_raw

    inst = validate_instance(base_raw())
    for p in inst.products:
        total = sum(demand_at(inst, p, l, t) for l in inst.locations)
        assert abs(total - inst.demand_curve[p][t - 1]) < 1e-9


@given(st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", "D"]), st.sampled_from(["A", "B", "C", "D"]))
    .filter(lambda e: e[0] != e[1]),
    max_size=8,
))
def test_neighbor_consistency_property(edges):
    raw = _tiny_raw(products=["A", "B", "C", "D"])
    raw["network"]["sub_edges"] = [list(e) for e in dict.fromkeys(edges)]
    inst = validate_instance(raw)
    for p in inst.products:
        n_out, _ = substitution_neighbors(inst, p)
        for q in n_out:
            _, q_in = substitution_neighbors(inst, q)
            assert p in q_in


def _tiny_raw(products):
    periods = 3
    return {
        "name": "tiny",
        "description": "",
        "periods": periods,
        "products": list(products),
        "locations": ["L1"],
        "shelf_life": {p: 2 for p in products},
        "lead_time": {p: 0 for p in products},
        "demand_curve": {p: [1.0] * periods for p in products},
        "demand_share": {"L1": 1.0},
        "production_cap": {p: [10.0] * periods for p in products},
        "cold_capacity": {"L1": 100.0},
        "cold_usage": {p: 1.0 for p in products},
        "labor_cap": {"L1": [100.0] * periods},
        "labor_usage": {p: 0.0 for p in products},
        "return_rate": {p: 0.0 for p in products},
        "costs": {
            "purchasing": {p: 1.0 for p in products},
            "inventory": {p: 0.1 for p in products},
            "waste": {p: 0.5 for p in products},
            "lost_sales": {p: 5.0 for p in products},
            "fixed_order": 0.0,
            "transshipment": 0.0,
        },
        "constraints": {"moq": 0, "pack_size": 1,
                        "budget_per_period": None, "waste_limit_pct": None},
        "network": {"sub_edges": [], "trans_edges": []},
    }
