"""Deterministic retail benchmark suite: base scenario, archetypes, variants.

The suite is 38 archetypes x 5 variants = 190 instances across eight families
(F1 core operations .. F8 omni-channel).  Every archetype is a pure transform
of the shared base scenario that touches only its declared fields; variants
v1..v4 apply seeded +/-15% perturbation to demand curves and storage
capacities, leaving the structural skeleton untouched.

Each transform registers itself in :data:`ARCHETYPES` (``@_archetype``:
id, description, touched fields), so the suite's order is the order of
definition; the family is read from the id (``f6_moq_binary`` is F6).

Determinism contract: :func:`build_instance` is the one builder and the
only place the draws happen, on the archetype's raw record before its single
validation.  The seed for (archetype, variant) is the little-endian uint32 of
the first four bytes of ``SHA256("{archetype_name}|{v}")``, fed to NumPy's
PCG64 generator; uniforms are drawn demand-first (product order, period
order, each entry floored) and then storage (location order).  Two runs of
:func:`generate_suite` produce byte-identical trees; the tests pin the
tree's digest, which holds as long as NumPy's PCG64 ``uniform`` stream does.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import BadVariantIndex, UnknownArchetype
from .prompts import DATA_EMBEDDED, SCHEMA_BASED, render_prompt, split_instance_name
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


# --------------------------------------------------------------------------
# Archetype registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Archetype:
    id: str
    description: str
    # Dotted field paths the modifier is allowed to change (besides
    # name/description); checked by the isolation test.
    touched: frozenset[str]
    modifier: Callable[[dict[str, Any]], None]

    @property
    def family(self) -> str:
        return split_instance_name(archetype_name(self.id))[1]


# Suite order is registration order, which is definition order below.
ARCHETYPES: dict[str, Archetype] = {}


def _archetype(aid: str, description: str, touched: set[str]):
    def register(modifier: Callable[[dict[str, Any]], None]):
        ARCHETYPES[aid] = Archetype(aid, description, frozenset(touched), modifier)
        return modifier
    return register


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


@_archetype("f1_base", "Baseline: 20 periods, 3 SKUs, 5 DCs, seasonal demand.", set())
def _mod_identity(raw: dict[str, Any]) -> None:
    pass


@_archetype("f1_high_waste", "Waste cost x20 for all products.", {"costs.waste"})
def _mod_high_waste(raw: dict[str, Any]) -> None:
    _scale_map(raw["costs"]["waste"], 20.0)


@_archetype("f1_jit_logic", "Holding cost x20 for all products.", {"costs.inventory"})
def _mod_jit_logic(raw: dict[str, Any]) -> None:
    _scale_map(raw["costs"]["inventory"], 20.0)


@_archetype("f1_52_weeks", "Horizon extended to 52 weeks; arrays tiled from base.",
            {"periods", "demand_curve", "production_cap", "labor_cap"})
def _mod_52_weeks(raw: dict[str, Any]) -> None:
    raw["periods"] = 52
    for key in ("demand_curve", "production_cap", "labor_cap"):
        raw[key] = {k: _tile(v, 52) for k, v in raw[key].items()}


@_archetype("f2_no_substitution", "Substitution edges removed.", {"network.sub_edges"})
def _mod_no_substitution(raw: dict[str, Any]) -> None:
    raw["network"]["sub_edges"] = []


@_archetype("f2_circular_sub", "Circular substitution ring across the three SKUs.",
            {"network.sub_edges"})
def _mod_circular_sub(raw: dict[str, Any]) -> None:
    raw["network"]["sub_edges"] = [
        [SKU_BASIC, SKU_PREMIUM],
        [SKU_PREMIUM, SKU_SHORTLIFE],
        [SKU_SHORTLIFE, SKU_BASIC],
    ]


@_archetype("f2_cannibalization",
            "Basic demand x2, Basic lost-sales penalty cut to 5, storage x0.5.",
            {"demand_curve", "costs.lost_sales", "cold_capacity"})
def _mod_cannibalization(raw: dict[str, Any]) -> None:
    raw["demand_curve"][SKU_BASIC] = [d * 2 for d in raw["demand_curve"][SKU_BASIC]]
    raw["costs"]["lost_sales"][SKU_BASIC] = 5
    _scale_map(raw["cold_capacity"], 0.5)


@_archetype("f2_ultra_fresh", "Shelf life reduced to {2, 2, 1} periods.", {"shelf_life"})
def _mod_ultra_fresh(raw: dict[str, Any]) -> None:
    raw["shelf_life"] = {SKU_BASIC: 2, SKU_PREMIUM: 2, SKU_SHORTLIFE: 1}


@_archetype("f2_price_band_tight", "Premium purchasing x0.8, Basic x1.1, Premium lost-sales x2.",
            {"costs.purchasing", "costs.lost_sales"})
def _mod_price_band_tight(raw: dict[str, Any]) -> None:
    costs = raw["costs"]
    costs["purchasing"][SKU_PREMIUM] = costs["purchasing"][SKU_PREMIUM] * 0.8
    costs["purchasing"][SKU_BASIC] = costs["purchasing"][SKU_BASIC] * 1.1
    costs["lost_sales"][SKU_PREMIUM] = costs["lost_sales"][SKU_PREMIUM] * 2


@_archetype("f2_promo_budget",
            "Last 4 periods: Basic/ShortLife demand x2; budget 15000 per period.",
            {"demand_curve", "constraints.budget_per_period"})
def _mod_promo_budget(raw: dict[str, Any]) -> None:
    periods = raw["periods"]
    for sku in (SKU_BASIC, SKU_SHORTLIFE):
        arr = raw["demand_curve"][sku]
        for i in range(periods - 4, periods):
            arr[i] = arr[i] * 2
    raw["constraints"]["budget_per_period"] = 15000


@_archetype("f3_storage_bottleneck", "Cold capacity x0.3 at all locations.", {"cold_capacity"})
def _mod_storage_bottleneck(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 0.3)


@_archetype("f3_volumetric_constraint", "Premium cold usage raised to 15.0.", {"cold_usage"})
def _mod_volumetric(raw: dict[str, Any]) -> None:
    raw["cold_usage"][SKU_PREMIUM] = 15.0


@_archetype("f3_supply_bottleneck", "Production capacity x0.3; storage effectively unbounded.",
            {"production_cap", "cold_capacity"})
def _mod_supply_bottleneck(raw: dict[str, Any]) -> None:
    _scale_arrays(raw["production_cap"], 0.3)
    for l in raw["cold_capacity"]:
        raw["cold_capacity"][l] = 999999


@_archetype("f3_unbalanced_network", "DC1 holds 96% of total storage; others 1% each.",
            {"cold_capacity"})
def _mod_unbalanced_network(raw: dict[str, Any]) -> None:
    total = sum(raw["cold_capacity"].values())
    locations = raw["locations"]
    raw["cold_capacity"] = {
        l: total * (0.96 if l == locations[0] else 0.01) for l in locations
    }


@_archetype("f4_early_stockout", "Production zero in periods 1-5.", {"production_cap"})
def _mod_early_stockout(raw: dict[str, Any]) -> None:
    _set_arrays(raw["production_cap"], 0, range(0, 5))


@_archetype("f4_peak_failure", "Production zero in periods 9-12 (peak window).",
            {"production_cap"})
def _mod_peak_failure(raw: dict[str, Any]) -> None:
    _set_arrays(raw["production_cap"], 0, range(8, 12))


@_archetype("f4_demand_surge", "Period-15 demand x4 for all SKUs.", {"demand_curve"})
def _mod_demand_surge(raw: dict[str, Any]) -> None:
    for arr in raw["demand_curve"].values():
        arr[14] = arr[14] * 4


@_archetype("f4_quality_hold", "Basic production zero from period 11 onward.",
            {"production_cap"})
def _mod_quality_hold(raw: dict[str, Any]) -> None:
    arr = raw["production_cap"][SKU_BASIC]
    for i in range(10, len(arr)):
        arr[i] = 0


@_archetype("f4_robust_variance", "Alternating demand x1.5/x0.7; lost-sales x2.5.",
            {"demand_curve", "costs.lost_sales"})
def _mod_robust_variance(raw: dict[str, Any]) -> None:
    for arr in raw["demand_curve"].values():
        for i in range(len(arr)):
            arr[i] = arr[i] * (1.5 if i % 2 == 0 else 0.7)
    _scale_map(raw["costs"]["lost_sales"], 2.5)


@_archetype("f4_supply_risk", "Production x0.4 in periods 9-12; waste cost x3.",
            {"production_cap", "costs.waste"})
def _mod_supply_risk(raw: dict[str, Any]) -> None:
    _scale_arrays(raw["production_cap"], 0.4, range(8, 12))
    _scale_map(raw["costs"]["waste"], 3.0)


@_archetype("f5_impossible_demand", "All demand x5, far beyond production capacity.",
            {"demand_curve"})
def _mod_impossible_demand(raw: dict[str, Any]) -> None:
    for arr in raw["demand_curve"].values():
        for i in range(len(arr)):
            arr[i] = arr[i] * 5


@_archetype("f5_strict_service_trap", "Storage x0.1 (near-zero capacity).", {"cold_capacity"})
def _mod_service_trap(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 0.1)


@_archetype("f5_storage_overflow", "Cold capacity 0.5 at all locations.", {"cold_capacity"})
def _mod_storage_overflow(raw: dict[str, Any]) -> None:
    for l in raw["cold_capacity"]:
        raw["cold_capacity"][l] = 0.5


@_archetype("f5_ultimate_stress",
            "Storage x0.3 plus peak production failure plus no substitution.",
            {"cold_capacity", "production_cap", "network.sub_edges"})
def _mod_ultimate_stress(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 0.3)
    _set_arrays(raw["production_cap"], 0, range(8, 12))
    raw["network"]["sub_edges"] = []


@_archetype("f6_lead_time", "Lead times {3, 4, 2} periods per SKU.", {"lead_time"})
def _mod_lead_time(raw: dict[str, Any]) -> None:
    raw["lead_time"] = {SKU_BASIC: 3, SKU_PREMIUM: 4, SKU_SHORTLIFE: 2}


@_archetype("f6_moq_binary", "Minimum order quantity 300 units (global).", {"constraints.moq"})
def _mod_moq_binary(raw: dict[str, Any]) -> None:
    raw["constraints"]["moq"] = 300


@_archetype("f6_fixed_order_cost", "Fixed ordering cost 5000 per order.", {"costs.fixed_order"})
def _mod_fixed_order_cost(raw: dict[str, Any]) -> None:
    raw["costs"]["fixed_order"] = 5000.0


@_archetype("f6_pack_size_integer", "Pack size 100 units.", {"constraints.pack_size"})
def _mod_pack_size(raw: dict[str, Any]) -> None:
    raw["constraints"]["pack_size"] = 100


@_archetype("f7_transshipment", "Full bidirectional transshipment among all 5 DCs.",
            {"network.trans_edges"})
def _mod_transshipment(raw: dict[str, Any]) -> None:
    locs = raw["locations"]
    raw["network"]["trans_edges"] = [[a, b] for a in locs for b in locs if a != b]


@_archetype("f7_hub_and_spoke", "Hub DC1 (50000 cap) feeding 4 spokes (500 cap each).",
            {"cold_capacity", "network.trans_edges"})
def _mod_hub_and_spoke(raw: dict[str, Any]) -> None:
    locs = raw["locations"]
    hub, spokes = locs[0], locs[1:]
    raw["cold_capacity"] = {hub: 50000, **{s: 500 for s in spokes}}
    raw["network"]["trans_edges"] = [[hub, s] for s in spokes]


@_archetype("f7_budget_limit", "Per-period purchasing budget 10000.",
            {"constraints.budget_per_period"})
def _mod_budget_limit(raw: dict[str, Any]) -> None:
    raw["constraints"]["budget_per_period"] = 10000


@_archetype("f7_multi_sourcing",
            "Heterogeneous lead times {5, 0, 1}; holding costs Basic 0.5, Premium 10.0.",
            {"lead_time", "costs.inventory"})
def _mod_multi_sourcing(raw: dict[str, Any]) -> None:
    raw["lead_time"] = {SKU_BASIC: 5, SKU_PREMIUM: 0, SKU_SHORTLIFE: 1}
    raw["costs"]["inventory"][SKU_BASIC] = 0.5
    raw["costs"]["inventory"][SKU_PREMIUM] = 10.0


@_archetype("f7_multiechelon_chain",
            "Three-tier chain: plant, 2 DCs, 3 stores; upstream tiers face no demand.",
            {"locations", "demand_share", "cold_capacity", "labor_cap", "network.trans_edges"})
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


@_archetype("f7_ring_routing", "Circular transshipment ring among 5 DCs; storage x0.8.",
            {"cold_capacity", "network.trans_edges"})
def _mod_ring_routing(raw: dict[str, Any]) -> None:
    locs = raw["locations"]
    raw["network"]["trans_edges"] = [
        [locs[i], locs[(i + 1) % len(locs)]] for i in range(len(locs))
    ]
    _scale_map(raw["cold_capacity"], 0.8)


@_archetype("f8_reverse_logistics", "Return rates {0.20, 0.10, 0.05} per SKU.", {"return_rate"})
def _mod_reverse_logistics(raw: dict[str, Any]) -> None:
    raw["return_rate"] = {SKU_BASIC: 0.20, SKU_PREMIUM: 0.10, SKU_SHORTLIFE: 0.05}


@_archetype("f8_labor_constraint", "Labor cap 200 per period; usage {0.1, 0.2, 0.1}.",
            {"labor_cap", "labor_usage"})
def _mod_labor_constraint(raw: dict[str, Any]) -> None:
    periods = raw["periods"]
    raw["labor_cap"] = {l: [200.0] * periods for l in raw["locations"]}
    raw["labor_usage"] = {SKU_BASIC: 0.1, SKU_PREMIUM: 0.2, SKU_SHORTLIFE: 0.1}


@_archetype("f8_ship_from_store",
            "Storage x5; labor cap 500 with high per-unit usage {0.5, 0.8, 0.6}.",
            {"cold_capacity", "labor_cap", "labor_usage"})
def _mod_ship_from_store(raw: dict[str, Any]) -> None:
    _scale_map(raw["cold_capacity"], 5.0)
    periods = raw["periods"]
    raw["labor_cap"] = {l: [500.0] * periods for l in raw["locations"]}
    raw["labor_usage"] = {SKU_BASIC: 0.5, SKU_PREMIUM: 0.8, SKU_SHORTLIFE: 0.6}


@_archetype("f8_sustainability", "Global waste cap at 2% of total demand.",
            {"constraints.waste_limit_pct"})
def _mod_sustainability(raw: dict[str, Any]) -> None:
    raw["constraints"]["waste_limit_pct"] = 0.02


def archetype_name(archetype_id: str) -> str:
    return f"retail_{archetype_id}"


def instance_name(archetype_id: str, variant: int) -> str:
    return f"retail_{archetype_id}_v{variant}"


def variant_seed(archetype_name_: str, variant: int) -> int:
    """uint32 little-endian of the first 4 bytes of SHA256("{name}|{v}")."""
    digest = hashlib.sha256(f"{archetype_name_}|{variant}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def build_instance(archetype_id: str, variant: int) -> ScenarioInstance:
    """Suite instance ``retail_{archetype_id}_v{variant}``, validated once.

    The archetype's modifier edits :func:`base_raw`.  v0 takes no draws;
    v1..v4 then scale each demand entry of that same record by an independent
    U(1-alpha, 1+alpha) draw (alpha = ``PERTURBATION_ALPHA``) and floor it,
    then scale each storage capacity by a further draw; nothing else changes.
    """
    try:
        arch = ARCHETYPES[archetype_id]
    except KeyError:
        raise UnknownArchetype(archetype_id) from None
    if variant not in VARIANTS:
        raise BadVariantIndex(f"variant {variant} outside {VARIANTS}")
    raw = base_raw()
    arch.modifier(raw)
    if variant:
        lo, hi = 1.0 - PERTURBATION_ALPHA, 1.0 + PERTURBATION_ALPHA
        rng = np.random.default_rng(variant_seed(archetype_name(archetype_id), variant))
        for p in raw["products"]:
            draws = rng.uniform(lo, hi, size=len(raw["demand_curve"][p]))
            raw["demand_curve"][p] = [
                math.floor(d * u) for d, u in zip(raw["demand_curve"][p], draws)
            ]
        for l in raw["locations"]:
            raw["cold_capacity"][l] = raw["cold_capacity"][l] * rng.uniform(lo, hi)
    raw["name"] = instance_name(archetype_id, variant)
    raw["description"] = arch.description
    return validate_instance(raw)


def generate_suite(output_dir: str | Path) -> dict[str, Any]:
    """Emit the 190 instances plus both prompt renderings and a manifest.

    Files per instance: ``{name}.json``, ``{name}.scenario.txt`` and
    ``{name}.full.txt``.  Returns the manifest (also written as
    ``manifest.json``).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for arch in ARCHETYPES.values():
        for v in VARIANTS:
            inst = build_instance(arch.id, v)
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
