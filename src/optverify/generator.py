"""Deterministic retail benchmark suite: base scenario, archetypes, variants.

The suite is 38 archetypes x 5 variants = 190 instances across eight families
(F1 core operations .. F8 omni-channel).  Every archetype is a pure transform
of the shared base scenario that touches only its declared fields; variants
v1..v4 apply seeded +/-15% perturbation to demand curves and storage
capacities, leaving the structural skeleton untouched.

Determinism contract: the seed for (archetype, variant) is the little-endian
uint32 of the first four bytes of ``SHA256("{archetype_name}|{v}")``, fed to
NumPy's PCG64 generator; uniforms are drawn demand-first (product order,
period order) and then storage (location order).  Two runs of
:func:`generate_suite` produce byte-identical trees.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import BadVariantIndex, UnknownArchetype
from .prompts import DATA_EMBEDDED, SCHEMA_BASED, render_prompt
from .scenario import ScenarioInstance, dumps_instance, validate_instance

PERTURBATION_ALPHA = 0.15
VARIANTS = (0, 1, 2, 3, 4)

SKU_BASIC = "SKU_Basic"
SKU_PREMIUM = "SKU_Premium"
SKU_SHORTLIFE = "SKU_ShortLife"
PRODUCTS = (SKU_BASIC, SKU_PREMIUM, SKU_SHORTLIFE)
DCS = ("DC1", "DC2", "DC3", "DC4", "DC5")

# Seasonal demand: Gaussian peak at mid-horizon plus a floor, per-SKU scaling
# applied before the final floor-to-int.
_DEMAND_MULT = {SKU_BASIC: 1.0, SKU_PREMIUM: 0.5, SKU_SHORTLIFE: 0.4}


def seasonal_demand_curve(mult: float, periods: int = 20) -> list[int]:
    return [
        math.floor(mult * (1000.0 * math.exp(-((t - 10) ** 2) / 18.0) + 300.0))
        for t in range(periods)
    ]


def base_raw() -> dict[str, Any]:
    """Plain-dict form of the base scenario (the substrate all modifiers edit)."""
    periods = 20
    return {
        "name": "retail_f1_base",
        "description": "Standard seasonal retail scenario.",
        "periods": periods,
        "products": list(PRODUCTS),
        "locations": list(DCS),
        "shelf_life": {SKU_BASIC: 10, SKU_PREMIUM: 8, SKU_SHORTLIFE: 4},
        "lead_time": {SKU_BASIC: 0, SKU_PREMIUM: 0, SKU_SHORTLIFE: 0},
        "demand_curve": {p: seasonal_demand_curve(_DEMAND_MULT[p], periods) for p in PRODUCTS},
        "demand_share": {"DC1": 0.25, "DC2": 0.2, "DC3": 0.2, "DC4": 0.2, "DC5": 0.15},
        "production_cap": {
            SKU_BASIC: [800] * periods,
            SKU_PREMIUM: [400] * periods,
            SKU_SHORTLIFE: [500] * periods,
        },
        "cold_capacity": {"DC1": 4000, "DC2": 3500, "DC3": 3000, "DC4": 3000, "DC5": 2500},
        "cold_usage": {SKU_BASIC: 1.0, SKU_PREMIUM: 3.0, SKU_SHORTLIFE: 1.2},
        "labor_cap": {l: [99999.0] * periods for l in DCS},
        "labor_usage": {SKU_BASIC: 0.0, SKU_PREMIUM: 0.0, SKU_SHORTLIFE: 0.0},
        "return_rate": {SKU_BASIC: 0.0, SKU_PREMIUM: 0.0, SKU_SHORTLIFE: 0.0},
        "costs": {
            "purchasing": {SKU_BASIC: 10, SKU_PREMIUM: 20, SKU_SHORTLIFE: 15},
            "inventory": {SKU_BASIC: 1.0, SKU_PREMIUM: 1.5, SKU_SHORTLIFE: 1.0},
            "waste": {SKU_BASIC: 2.0, SKU_PREMIUM: 3.0, SKU_SHORTLIFE: 2.0},
            "lost_sales": {SKU_BASIC: 50, SKU_PREMIUM: 80, SKU_SHORTLIFE: 40},
            "fixed_order": 0.0,
            "transshipment": 0.5,
        },
        "constraints": {
            "moq": 0,
            "pack_size": 1,
            "budget_per_period": None,
            "waste_limit_pct": None,
        },
        "network": {
            "sub_edges": [[SKU_BASIC, SKU_PREMIUM]],
            "trans_edges": [],
        },
    }


def base_scenario() -> ScenarioInstance:
    return validate_instance(base_raw())


# --------------------------------------------------------------------------
# Archetype registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Archetype:
    id: str
    family: str
    description: str
    # Dotted field paths the modifier is allowed to change (besides
    # name/description); checked by the isolation test.
    touched: frozenset[str]
    modifier: Callable[[dict[str, Any]], None]


def _scale_map(m: dict[str, float], factor: float) -> None:
    for k in m:
        m[k] = m[k] * factor


def _scale_arrays(m: dict[str, list[float]], factor: float, idx: range | None = None) -> None:
    for k, arr in m.items():
        rng = idx if idx is not None else range(len(arr))
        for i in rng:
            arr[i] = arr[i] * factor


def _set_arrays(m: dict[str, list[float]], value: float, idx: range) -> None:
    for arr in m.values():
        for i in idx:
            arr[i] = value


def _tile(arr: list, length: int) -> list:
    reps = -(-length // len(arr))
    return (arr * reps)[:length]


def _mod_identity(raw: dict[str, Any]) -> None:
    pass


def _mod_high_waste(raw: dict[str, Any]) -> None:
    _scale_map(raw["costs"]["waste"], 20.0)


def _mod_jit_logic(raw: dict[str, Any]) -> None:
    _scale_map(raw["costs"]["inventory"], 20.0)


def _mod_52_weeks(raw: dict[str, Any]) -> None:
    raw["periods"] = 52
    for key in ("demand_curve", "production_cap", "labor_cap"):
        raw[key] = {k: _tile(v, 52) for k, v in raw[key].items()}


def _mod_no_substitution(raw: dict[str, Any]) -> None:
    raw["network"]["sub_edges"] = []


def _mod_circular_sub(raw: dict[str, Any]) -> None:
    raw["network"]["sub_edges"] = [
        [SKU_BASIC, SKU_PREMIUM],
        [SKU_PREMIUM, SKU_SHORTLIFE],
        [SKU_SHORTLIFE, SKU_BASIC],
    ]


def _mod_cannibalization(raw: dict[str, Any]) -> None:
    raw["demand_curve"][SKU_BASIC] = [d * 2 for d in raw["demand_curve"][SKU_BASIC]]
    raw["costs"]["lost_sales"][SKU_BASIC] = 5
    _scale_map(raw["cold_capacity"], 0.5)


def _mod_ultra_fresh(raw: dict[str, Any]) -> None:
    raw["shelf_life"] = {SKU_BASIC: 2, SKU_PREMIUM: 2, SKU_SHORTLIFE: 1}


def _mod_price_band_tight(raw: dict[str, Any]) -> None:
    costs = raw["costs"]
    costs["purchasing"][SKU_PREMIUM] = costs["purchasing"][SKU_PREMIUM] * 0.8
    costs["purchasing"][SKU_BASIC] = costs["purchasing"][SKU_BASIC] * 1.1
    costs["lost_sales"][SKU_PREMIUM] = costs["lost_sales"][SKU_PREMIUM] * 2


def _mod_promo_budget(raw: dict[str, Any]) -> None:
    periods = raw["periods"]
    for sku in (SKU_BASIC, SKU_SHORTLIFE):
        arr = raw["demand_curve"][sku]
        for i in range(periods - 4, periods):
            arr[i] = arr[i] * 2
    raw["constraints"]["budget_per_period"] = 15000


def _mod_storage_bottleneck(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 0.3)


def _mod_volumetric(raw: dict[str, Any]) -> None:
    raw["cold_usage"][SKU_PREMIUM] = 15.0


def _mod_supply_bottleneck(raw: dict[str, Any]) -> None:
    _scale_arrays(raw["production_cap"], 0.3)
    for l in raw["cold_capacity"]:
        raw["cold_capacity"][l] = 999999


def _mod_unbalanced_network(raw: dict[str, Any]) -> None:
    total = sum(raw["cold_capacity"].values())
    locations = raw["locations"]
    raw["cold_capacity"] = {
        l: total * (0.96 if l == locations[0] else 0.01) for l in locations
    }


def _mod_early_stockout(raw: dict[str, Any]) -> None:
    _set_arrays(raw["production_cap"], 0, range(0, 5))


def _mod_peak_failure(raw: dict[str, Any]) -> None:
    _set_arrays(raw["production_cap"], 0, range(8, 12))


def _mod_demand_surge(raw: dict[str, Any]) -> None:
    for arr in raw["demand_curve"].values():
        arr[14] = arr[14] * 4


def _mod_quality_hold(raw: dict[str, Any]) -> None:
    arr = raw["production_cap"][SKU_BASIC]
    for i in range(10, len(arr)):
        arr[i] = 0


def _mod_robust_variance(raw: dict[str, Any]) -> None:
    for arr in raw["demand_curve"].values():
        for i in range(len(arr)):
            arr[i] = arr[i] * (1.5 if i % 2 == 0 else 0.7)
    _scale_map(raw["costs"]["lost_sales"], 2.5)


def _mod_supply_risk(raw: dict[str, Any]) -> None:
    _scale_arrays(raw["production_cap"], 0.4, range(8, 12))
    _scale_map(raw["costs"]["waste"], 3.0)


def _mod_impossible_demand(raw: dict[str, Any]) -> None:
    for arr in raw["demand_curve"].values():
        for i in range(len(arr)):
            arr[i] = arr[i] * 5


def _mod_service_trap(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 0.1)


def _mod_storage_overflow(raw: dict[str, Any]) -> None:
    for l in raw["cold_capacity"]:
        raw["cold_capacity"][l] = 0.5


def _mod_ultimate_stress(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 0.3)
    _set_arrays(raw["production_cap"], 0, range(8, 12))
    raw["network"]["sub_edges"] = []


def _mod_lead_time(raw: dict[str, Any]) -> None:
    raw["lead_time"] = {SKU_BASIC: 3, SKU_PREMIUM: 4, SKU_SHORTLIFE: 2}


def _mod_moq_binary(raw: dict[str, Any]) -> None:
    raw["constraints"]["moq"] = 300


def _mod_fixed_order_cost(raw: dict[str, Any]) -> None:
    raw["costs"]["fixed_order"] = 5000.0


def _mod_pack_size(raw: dict[str, Any]) -> None:
    raw["constraints"]["pack_size"] = 100


def _mod_transshipment(raw: dict[str, Any]) -> None:
    locs = raw["locations"]
    raw["network"]["trans_edges"] = [[a, b] for a in locs for b in locs if a != b]


def _mod_hub_and_spoke(raw: dict[str, Any]) -> None:
    locs = raw["locations"]
    hub, spokes = locs[0], locs[1:]
    raw["cold_capacity"] = {hub: 50000, **{s: 500 for s in spokes}}
    raw["network"]["trans_edges"] = [[hub, s] for s in spokes]


def _mod_budget_limit(raw: dict[str, Any]) -> None:
    raw["constraints"]["budget_per_period"] = 10000


def _mod_multi_sourcing(raw: dict[str, Any]) -> None:
    raw["lead_time"] = {SKU_BASIC: 5, SKU_PREMIUM: 0, SKU_SHORTLIFE: 1}
    raw["costs"]["inventory"][SKU_BASIC] = 0.5
    raw["costs"]["inventory"][SKU_PREMIUM] = 10.0


def _mod_multiechelon_chain(raw: dict[str, Any]) -> None:
    # Three-tier rewrite: plant -> 2 DCs -> 3 stores; only stores face demand.
    periods = raw["periods"]
    locations = ["Plant", "DC_A", "DC_B", "Store1", "Store2", "Store3"]
    raw["locations"] = locations
    raw["demand_share"] = {
        "Plant": 0.0, "DC_A": 0.0, "DC_B": 0.0,
        "Store1": 0.4, "Store2": 0.35, "Store3": 0.25,
    }
    raw["cold_capacity"] = {
        "Plant": 20000, "DC_A": 4000, "DC_B": 3500,
        "Store1": 1500, "Store2": 1200, "Store3": 1000,
    }
    raw["labor_cap"] = {l: [99999.0] * periods for l in locations}
    raw["network"]["trans_edges"] = [
        ["Plant", "DC_A"], ["Plant", "DC_B"],
        ["DC_A", "Store1"], ["DC_A", "Store2"],
        ["DC_B", "Store2"], ["DC_B", "Store3"],
    ]


def _mod_ring_routing(raw: dict[str, Any]) -> None:
    locs = raw["locations"]
    raw["network"]["trans_edges"] = [
        [locs[i], locs[(i + 1) % len(locs)]] for i in range(len(locs))
    ]
    _scale_map(raw["cold_capacity"], 0.8)


def _mod_reverse_logistics(raw: dict[str, Any]) -> None:
    raw["return_rate"] = {SKU_BASIC: 0.20, SKU_PREMIUM: 0.10, SKU_SHORTLIFE: 0.05}


def _mod_labor_constraint(raw: dict[str, Any]) -> None:
    periods = raw["periods"]
    raw["labor_cap"] = {l: [200.0] * periods for l in raw["locations"]}
    raw["labor_usage"] = {SKU_BASIC: 0.1, SKU_PREMIUM: 0.2, SKU_SHORTLIFE: 0.1}


def _mod_ship_from_store(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 5.0)
    periods = raw["periods"]
    raw["labor_cap"] = {l: [500.0] * periods for l in raw["locations"]}
    raw["labor_usage"] = {SKU_BASIC: 0.5, SKU_PREMIUM: 0.8, SKU_SHORTLIFE: 0.6}


def _mod_sustainability(raw: dict[str, Any]) -> None:
    raw["constraints"]["waste_limit_pct"] = 0.02


def _arch(aid: str, family: str, description: str, touched: set[str],
          modifier: Callable[[dict[str, Any]], None]) -> Archetype:
    return Archetype(aid, family, description, frozenset(touched), modifier)


ARCHETYPES: dict[str, Archetype] = {
    a.id: a
    for a in [
        # F1 - core operations
        _arch("f1_base", "F1", "Baseline: 20 periods, 3 SKUs, 5 DCs, seasonal demand.",
              set(), _mod_identity),
        _arch("f1_high_waste", "F1", "Waste cost x20 for all products.",
              {"costs.waste"}, _mod_high_waste),
        _arch("f1_jit_logic", "F1", "Holding cost x20 for all products.",
              {"costs.inventory"}, _mod_jit_logic),
        _arch("f1_52_weeks", "F1", "Horizon extended to 52 weeks; arrays tiled from base.",
              {"periods", "demand_curve", "production_cap", "labor_cap"}, _mod_52_weeks),
        # F2 - assortment & substitution
        _arch("f2_no_substitution", "F2", "Substitution edges removed.",
              {"network.sub_edges"}, _mod_no_substitution),
        _arch("f2_circular_sub", "F2", "Circular substitution ring across the three SKUs.",
              {"network.sub_edges"}, _mod_circular_sub),
        _arch("f2_cannibalization", "F2",
              "Basic demand x2, Basic lost-sales penalty cut to 5, storage x0.5.",
              {"demand_curve", "costs.lost_sales", "cold_capacity"}, _mod_cannibalization),
        _arch("f2_ultra_fresh", "F2", "Shelf life reduced to {2, 2, 1} periods.",
              {"shelf_life"}, _mod_ultra_fresh),
        _arch("f2_price_band_tight", "F2",
              "Premium purchasing x0.8, Basic x1.1, Premium lost-sales x2.",
              {"costs.purchasing", "costs.lost_sales"}, _mod_price_band_tight),
        _arch("f2_promo_budget", "F2",
              "Last 4 periods: Basic/ShortLife demand x2; budget 15000 per period.",
              {"demand_curve", "constraints.budget_per_period"}, _mod_promo_budget),
        # F3 - resource constraints
        _arch("f3_storage_bottleneck", "F3", "Cold capacity x0.3 at all locations.",
              {"cold_capacity"}, _mod_storage_bottleneck),
        _arch("f3_volumetric_constraint", "F3", "Premium cold usage raised to 15.0.",
              {"cold_usage"}, _mod_volumetric),
        _arch("f3_supply_bottleneck", "F3", "Production capacity x0.3; storage effectively unbounded.",
              {"production_cap", "cold_capacity"}, _mod_supply_bottleneck),
        _arch("f3_unbalanced_network", "F3", "DC1 holds 96% of total storage; others 1% each.",
              {"cold_capacity"}, _mod_unbalanced_network),
        # F4 - demand dynamics
        _arch("f4_early_stockout", "F4", "Production zero in periods 1-5.",
              {"production_cap"}, _mod_early_stockout),
        _arch("f4_peak_failure", "F4", "Production zero in periods 9-12 (peak window).",
              {"production_cap"}, _mod_peak_failure),
        _arch("f4_demand_surge", "F4", "Period-15 demand x4 for all SKUs.",
              {"demand_curve"}, _mod_demand_surge),
        _arch("f4_quality_hold", "F4", "Basic production zero from period 11 onward.",
              {"production_cap"}, _mod_quality_hold),
        _arch("f4_robust_variance", "F4", "Alternating demand x1.5/x0.7; lost-sales x2.5.",
              {"demand_curve", "costs.lost_sales"}, _mod_robust_variance),
        _arch("f4_supply_risk", "F4", "Production x0.4 in periods 9-12; waste cost x3.",
              {"production_cap", "costs.waste"}, _mod_supply_risk),
        # F5 - feasibility stress
        _arch("f5_impossible_demand", "F5", "All demand x5, far beyond production capacity.",
              {"demand_curve"}, _mod_impossible_demand),
        _arch("f5_strict_service_trap", "F5", "Storage x0.1 (near-zero capacity).",
              {"cold_capacity"}, _mod_service_trap),
        _arch("f5_storage_overflow", "F5", "Cold capacity 0.5 at all locations.",
              {"cold_capacity"}, _mod_storage_overflow),
        _arch("f5_ultimate_stress", "F5",
              "Storage x0.3 plus peak production failure plus no substitution.",
              {"cold_capacity", "production_cap", "network.sub_edges"}, _mod_ultimate_stress),
        # F6 - discrete logistics
        _arch("f6_lead_time", "F6", "Lead times {3, 4, 2} periods per SKU.",
              {"lead_time"}, _mod_lead_time),
        _arch("f6_moq_binary", "F6", "Minimum order quantity 300 units (global).",
              {"constraints.moq"}, _mod_moq_binary),
        _arch("f6_fixed_order_cost", "F6", "Fixed ordering cost 5000 per order.",
              {"costs.fixed_order"}, _mod_fixed_order_cost),
        _arch("f6_pack_size_integer", "F6", "Pack size 100 units.",
              {"constraints.pack_size"}, _mod_pack_size),
        # F7 - network & multi-echelon
        _arch("f7_transshipment", "F7", "Full bidirectional transshipment among all 5 DCs.",
              {"network.trans_edges"}, _mod_transshipment),
        _arch("f7_hub_and_spoke", "F7", "Hub DC1 (50000 cap) feeding 4 spokes (500 cap each).",
              {"cold_capacity", "network.trans_edges"}, _mod_hub_and_spoke),
        _arch("f7_budget_limit", "F7", "Per-period purchasing budget 10000.",
              {"constraints.budget_per_period"}, _mod_budget_limit),
        _arch("f7_multi_sourcing", "F7",
              "Heterogeneous lead times {5, 0, 1}; holding costs Basic 0.5, Premium 10.0.",
              {"lead_time", "costs.inventory"}, _mod_multi_sourcing),
        _arch("f7_multiechelon_chain", "F7",
              "Three-tier chain: plant, 2 DCs, 3 stores; upstream tiers face no demand.",
              {"locations", "demand_share", "cold_capacity", "labor_cap",
               "network.trans_edges"}, _mod_multiechelon_chain),
        _arch("f7_ring_routing", "F7", "Circular transshipment ring among 5 DCs; storage x0.8.",
              {"cold_capacity", "network.trans_edges"}, _mod_ring_routing),
        # F8 - omni-channel
        _arch("f8_reverse_logistics", "F8", "Return rates {0.20, 0.10, 0.05} per SKU.",
              {"return_rate"}, _mod_reverse_logistics),
        _arch("f8_labor_constraint", "F8", "Labor cap 200 per period; usage {0.1, 0.2, 0.1}.",
              {"labor_cap", "labor_usage"}, _mod_labor_constraint),
        _arch("f8_ship_from_store", "F8",
              "Storage x5; labor cap 500 with high per-unit usage {0.5, 0.8, 0.6}.",
              {"cold_capacity", "labor_cap", "labor_usage"}, _mod_ship_from_store),
        _arch("f8_sustainability", "F8", "Global waste cap at 2% of total demand.",
              {"constraints.waste_limit_pct"}, _mod_sustainability),
    ]
}

FAMILY_ARCHETYPE_COUNTS = {"F1": 4, "F2": 6, "F3": 4, "F4": 6, "F5": 4, "F6": 4, "F7": 6, "F8": 4}


def archetype_name(archetype_id: str) -> str:
    return f"retail_{archetype_id}"


def instance_name(archetype_id: str, variant: int) -> str:
    return f"retail_{archetype_id}_v{variant}"


def apply_archetype(archetype_id: str) -> ScenarioInstance:
    """Base scenario with the archetype's declared deltas applied."""
    try:
        arch = ARCHETYPES[archetype_id]
    except KeyError:
        raise UnknownArchetype(archetype_id) from None
    raw = base_raw()
    arch.modifier(raw)
    raw["name"] = archetype_name(archetype_id)
    raw["description"] = arch.description
    return validate_instance(raw)


def variant_seed(archetype_name_: str, variant: int) -> int:
    """uint32 little-endian of the first 4 bytes of SHA256("{name}|{v}")."""
    digest = hashlib.sha256(f"{archetype_name_}|{variant}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def perturb_variant(
    inst: ScenarioInstance,
    archetype_name_: str,
    variant: int,
) -> ScenarioInstance:
    """Seeded numeric variant of one archetype instance.

    v0 returns the instance unchanged.  v1..v4 scale each demand entry by an
    independent U(1-alpha, 1+alpha) draw (alpha = ``PERTURBATION_ALPHA``) and
    floor it, then scale each storage capacity by a further draw; nothing else
    changes.
    """
    if variant not in VARIANTS:
        raise BadVariantIndex(f"variant {variant} outside {VARIANTS}")
    if variant == 0:
        return inst

    lo, hi = 1.0 - PERTURBATION_ALPHA, 1.0 + PERTURBATION_ALPHA
    rng = np.random.default_rng(variant_seed(archetype_name_, variant))
    raw = json.loads(dumps_instance(inst))
    for p in raw["products"]:
        draws = rng.uniform(lo, hi, size=len(raw["demand_curve"][p]))
        raw["demand_curve"][p] = [
            math.floor(d * u) for d, u in zip(raw["demand_curve"][p], draws)
        ]
    for l in raw["locations"]:
        raw["cold_capacity"][l] = raw["cold_capacity"][l] * rng.uniform(lo, hi)
    return validate_instance(raw)


def build_instance(archetype_id: str, variant: int) -> ScenarioInstance:
    """Fully-named suite instance for (archetype, variant)."""
    inst = perturb_variant(
        apply_archetype(archetype_id), archetype_name(archetype_id), variant)
    return replace(inst, name=instance_name(archetype_id, variant))


def iter_suite():
    """Yield (archetype, variant, instance) over the full suite in registry order."""
    for arch in ARCHETYPES.values():
        modified = apply_archetype(arch.id)
        for v in VARIANTS:
            inst = perturb_variant(modified, archetype_name(arch.id), v)
            yield arch, v, replace(inst, name=instance_name(arch.id, v))


def generate_suite(output_dir: str | Path) -> dict[str, Any]:
    """Emit the 190 instances plus both prompt renderings and a manifest.

    Files per instance: ``{name}.json``, ``{name}.scenario.txt`` and
    ``{name}.full.txt``.  Returns the manifest (also written as
    ``manifest.json``).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for arch, v, inst in iter_suite():
        name = inst.name
        (out / f"{name}.json").write_text(dumps_instance(inst), encoding="utf-8")
        (out / f"{name}.scenario.txt").write_text(
            render_prompt(inst, SCHEMA_BASED), encoding="utf-8")
        (out / f"{name}.full.txt").write_text(
            render_prompt(inst, DATA_EMBEDDED), encoding="utf-8")
        entries.append({
            "name": name,
            "family": arch.family,
            "archetype": archetype_name(arch.id),
            "variant": v,
            "instance_file": f"{name}.json",
            "scenario_prompt": f"{name}.scenario.txt",
            "full_prompt": f"{name}.full.txt",
        })
    manifest = {"count": len(entries), "instances": entries}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest
