"""Prompt rendering for benchmark instances.

Each instance renders in two formats that share a byte-identical
``[BUSINESS DESCRIPTION]`` and differ only in data delivery:

* schema-based (``.scenario.txt``): type-level ``[DATA SCHEMA]`` plus a
  ``[DATA ACCESS]`` section; the numeric payload reaches the generated code
  at runtime through a pre-loaded ``data`` dict.
* data-embedded (``.full.txt``): the complete instance JSON inline in a
  ``[DATA]`` section; the generated code must parse it itself.

Section headers are part of the external interface and are bit-exact:
``[SCENARIO]``, ``[BUSINESS DESCRIPTION]``, ``[DATA SCHEMA]``,
``[DATA ACCESS]``, ``[DATA]``, ``[OUTPUT FORMAT]``, ``[TASK]``.

The business narratives below are frozen fixtures: a base paragraph per
family plus one archetype-specific passage, followed by structure cues
derived from the instance's active mechanisms.
"""

from __future__ import annotations

import re

from .scenario import ScenarioInstance, dumps_instance

# The format names ``optverify run --format`` and ``run_instance`` accept.
SCHEMA_BASED = "schema"
DATA_EMBEDDED = "full"
PROMPT_FORMATS = (SCHEMA_BASED, DATA_EMBEDDED)

_FAMILY_NAMES = {
    "F1": "Core Operations",
    "F2": "Assortment & Substitution",
    "F3": "Resource Constraints",
    "F4": "Demand Dynamics",
    "F5": "Feasibility Stress",
    "F6": "Discrete Logistics",
    "F7": "Network & Multi-Echelon",
    "F8": "Omni-channel",
}

_FAMILY_INTROS = {
    "F1": (
        "A grocery retailer manages three perishable product tiers (a basic, "
        "a premium, and a short-life item) across five regional distribution "
        "centers over a multi-week horizon. Each week it decides how much of "
        "each product to order for each center and how much to sell from "
        "stock of each remaining-life age; stock that reaches the end of its "
        "shelf life is discarded as waste."
    ),
    "F2": (
        "A retailer manages an assortment of three perishable product tiers "
        "across five distribution centers, where the tiers interact through "
        "price positioning, promotions, and (where declared) substitution "
        "arcs that let a higher tier's stock serve a lower tier's excess "
        "demand. Ordering, aging, and waste work as in the core operations "
        "setting."
    ),
    "F3": (
        "A retailer distributes three perishable product tiers through five "
        "distribution centers whose physical resources bind. Cold-room "
        "volume is finite and products occupy different amounts of it, so "
        "storage, supply, and demand interact tightly week by week."
    ),
    "F4": (
        "A retailer plans weekly orders of three perishable product tiers "
        "for five distribution centers while demand and supply conditions "
        "shift over the horizon. Timing matters: stock ordered too early "
        "expires, stock ordered too late misses the window."
    ),
    "F5": (
        "A retailer faces a deliberately stressed configuration of its "
        "three-product, five-center perishable network. Conditions are "
        "extreme, but every sales shortfall can always be absorbed as lost "
        "sales at a penalty, so a correctly built plan exists even when it "
        "is expensive."
    ),
    "F6": (
        "A retailer orders three perishable product tiers for five "
        "distribution centers under discrete procurement rules. Order "
        "quantities are not freely divisible: logistics terms such as "
        "minimum order sizes, case packs, fixed ordering charges, or "
        "delivery delays shape when and how much to buy."
    ),
    "F7": (
        "A retailer coordinates perishable inventories across a "
        "multi-location network. Per-location capacities and sourcing terms "
        "differ, so where stock is positioned matters as much as how much "
        "is bought; declared transshipment lanes, where present, move stock "
        "between locations at a per-unit cost."
    ),
    "F8": (
        "An omni-channel retailer manages three perishable product tiers "
        "across five fulfillment sites. Beyond ordering and selling, "
        "operational realities of the channel (customer returns, handling "
        "labor, in-store fulfillment) enter the weekly trade-offs."
    ),
}

_ARCHETYPE_PASSAGES = {
    "retail_f1_base": (
        "Demand follows a seasonal curve that peaks at mid-horizon; "
        "capacities are comfortable, so the plan is driven by cost "
        "trade-offs between over-ordering (waste) and under-ordering "
        "(lost sales) rather than by hard limits."
    ),
    "retail_f1_high_waste": (
        "Disposal fees have soared: every expired unit now costs many times "
        "the usual write-off, so over-ordering perishable stock is heavily "
        "punished relative to the baseline."
    ),
    "retail_f1_jit_logic": (
        "Carrying stock has become expensive: per-unit holding cost is far "
        "above the baseline, pushing the plan toward just-in-time ordering "
        "with minimal overnight inventory."
    ),
    "retail_f1_52_weeks": (
        "The retailer plans inventory over a full year of weekly decisions, "
        "represented by fifty-two time periods. Exogenous seasonal demand, "
        "local inventories at each distribution center, and per-product "
        "production capacities work as in the core operations baseline."
    ),
    "retail_f2_no_substitution": (
        "In this configuration the substitution program is suspended: no "
        "product may cover another's demand, and each tier succeeds or "
        "fails on its own stock."
    ),
    "retail_f2_circular_sub": (
        "Substitution forms a closed ring across the three tiers: each "
        "product's excess demand can be served by the next product's "
        "inventory around the ring."
    ),
    "retail_f2_cannibalization": (
        "A price promotion doubles demand for the basic tier while its "
        "lost-sales penalty is slashed, and available cold storage is "
        "halved, so serving cheap surging demand competes with premium "
        "stock for the same shelf space."
    ),
    "retail_f2_ultra_fresh": (
        "The assortment moves to ultra-fresh items: shelf lives shrink to "
        "one or two weeks, so nearly everything ordered must sell almost "
        "immediately or be wasted."
    ),
    "retail_f2_price_band_tight": (
        "Price bands tighten: the premium tier becomes cheaper to buy while "
        "the basic tier becomes dearer, and failing premium customers is "
        "penalized twice as hard, shifting the optimal mix."
    ),
    "retail_f2_promo_budget": (
        "A season-end promotion doubles demand for the basic and short-life "
        "tiers in the last four weeks, while a fixed weekly purchasing "
        "budget caps how much can be bought in any single week."
    ),
    "retail_f3_storage_bottleneck": (
        "Cold-room refurbishment cuts every location's storage capacity to "
        "under a third of normal, so start-of-week inventory must fit into "
        "sharply reduced space."
    ),
    "retail_f3_volumetric_constraint": (
        "The premium tier ships in bulky protective packaging and now "
        "occupies several times its usual cold-room volume per unit, making "
        "storage consumption highly product-dependent."
    ),
    "retail_f3_supply_bottleneck": (
        "Suppliers can deliver only a fraction of normal volumes while "
        "storage is effectively unlimited: the binding resource is what can "
        "be produced each week, not what can be kept."
    ),
    "retail_f3_unbalanced_network": (
        "Nearly all cold storage sits at the first distribution center "
        "while the others retain token capacity, yet demand still arrives "
        "at every location according to its share."
    ),
    "retail_f4_early_stockout": (
        "Production is unavailable for the first five weeks, so any early "
        "demand must be met from what little can be pre-positioned or be "
        "lost."
    ),
    "retail_f4_peak_failure": (
        "A supplier outage eliminates production exactly during the "
        "mid-horizon demand peak (weeks nine through twelve), forcing "
        "pre-building of perishable stock ahead of the outage."
    ),
    "retail_f4_demand_surge": (
        "A one-week event quadruples demand for all products in week "
        "fifteen; the surge must be anticipated within shelf-life limits."
    ),
    "retail_f4_quality_hold": (
        "A quality hold stops production of the basic tier from week eleven "
        "onward; its remaining demand must be covered from earlier stock, "
        "substitution, or lost sales."
    ),
    "retail_f4_robust_variance": (
        "Demand whipsaws week to week, alternating well above and well "
        "below the seasonal curve, while lost-sales penalties are raised, "
        "rewarding plans robust to the swings."
    ),
    "retail_f4_supply_risk": (
        "Mid-horizon supply drops to a fraction of normal for four weeks "
        "and disposal costs triple, squeezing the plan from both the "
        "supply and the waste side."
    ),
    "retail_f5_impossible_demand": (
        "Demand is five times production capacity: most of it simply cannot "
        "be served. The task is to serve what is physically possible and "
        "absorb the rest as lost sales."
    ),
    "retail_f5_strict_service_trap": (
        "Storage shrinks to a tenth of normal. High service ambitions "
        "cannot override physics: only plans that respect the tiny "
        "cold-rooms are valid, whatever the lost-sales bill."
    ),
    "retail_f5_storage_overflow": (
        "Cold storage is all but gone (a fraction of a single unit of "
        "volume per site), so essentially nothing can be held and almost "
        "all demand is lost at a penalty."
    ),
    "retail_f5_ultimate_stress": (
        "Several stressors combine: storage is cut to under a third, "
        "production fails during the demand peak, and substitution is "
        "unavailable. The plan must still be well-formed, with lost sales "
        "absorbing what cannot be served."
    ),
    "retail_f6_lead_time": (
        "Orders no longer arrive instantly: each product has its own "
        "multi-week delivery delay, so orders must be placed ahead of the "
        "demand they serve and arrive against the capacity of their "
        "arrival week."
    ),
    "retail_f6_moq_binary": (
        "The supplier enforces a minimum order quantity: any order placed "
        "for a product at a location in a week is either zero or at least "
        "the contractual minimum."
    ),
    "retail_f6_fixed_order_cost": (
        "Every order placed triggers a fixed administrative and freight "
        "charge on top of per-unit prices, so orders should be consolidated "
        "into fewer, larger placements."
    ),
    "retail_f6_pack_size_integer": (
        "Products ship in sealed cases: order quantities must be integer "
        "multiples of the case size, ruling out fractional top-ups."
    ),
    "retail_f7_transshipment": (
        "All five distribution centers are connected by two-way "
        "transshipment lanes, so stock can be rebalanced across the network "
        "each week at a per-unit moving cost."
    ),
    "retail_f7_hub_and_spoke": (
        "The network operates hub-and-spoke: one large hub holds nearly all "
        "storage and feeds four small spokes through one-way lanes, so "
        "spoke demand is mostly served by weekly shipments from the hub."
    ),
    "retail_f7_budget_limit": (
        "Working capital is tight: total purchasing spend in each week is "
        "capped, forcing the plan to spread buying across the horizon even "
        "when demand is peaked."
    ),
    "retail_f7_multi_sourcing": (
        "Sourcing terms differ sharply by product: one tier arrives only "
        "after a long delay but is cheap to hold, another arrives instantly "
        "but is very expensive to keep, so each tier wants a different "
        "ordering rhythm."
    ),
    "retail_f7_multiechelon_chain": (
        "The network is a three-tier chain: a plant supplies two regional "
        "DCs, which supply three stores, over one-way lanes. Customer "
        "demand occurs only at the stores; the plant and DCs exist to "
        "position stock."
    ),
    "retail_f7_ring_routing": (
        "Transshipment lanes form a one-way ring around the five centers "
        "while storage is modestly tightened, so rebalancing stock may "
        "require routing it several hops around the ring."
    ),
    "retail_f8_reverse_logistics": (
        "A share of each week's sales comes back through the returns "
        "channel and re-enters stock as fresh, fully sellable inventory at "
        "the start of the next week."
    ),
    "retail_f8_labor_constraint": (
        "Each site has a small weekly labor budget and every unit sold "
        "consumes handling time, so throughput is capped by staffing "
        "rather than by storage."
    ),
    "retail_f8_ship_from_store": (
        "Stores double as fulfillment centers: storage is generous, but "
        "picking and packing online orders makes every unit sold labor "
        "intensive against a hard weekly labor cap."
    ),
    "retail_f8_sustainability": (
        "A sustainability commitment caps total expired units over the "
        "whole horizon at a small fraction of total demand, constraining "
        "how aggressively perishable stock may be over-ordered."
    ),
}

_SCHEMA_BLOCK = """\
{
  "periods": int,       "products": [str, ...],
  "locations": [str, ...],
  "shelf_life": {p: int},  "lead_time": {p: int},
  "demand_curve": {p: [float, ...]},
  "demand_share": {l: float},
  "production_cap": {p: [float, ...]},
  "cold_capacity": {l: float},  "cold_usage": {p: float},
  "labor_cap": {l: [float, ...]},  "labor_usage": {p: float},
  "return_rate": {p: float},
  "costs": { "purchasing": {p: float}, "inventory": {p: float},
             "waste": {p: float}, "lost_sales": {p: float},
             "fixed_order": float, "transshipment": float },
  "constraints": { "moq": float, "pack_size": int,
                   "budget_per_period": float|null,
                   "waste_limit_pct": float|null },
  "network": { "sub_edges": [[p_from, p_to], ...],
               "trans_edges": [[l_from, l_to], ...] }
}"""

_DATA_ACCESS_BLOCK = """\
- The variable `data` is pre-loaded. Do NOT use file I/O.
- Lists are 0-indexed (period t in model uses index [t-1] in
  data arrays)

CRITICAL - Network edges require tuple conversion for Gurobi:
  sub_edges = [tuple(e) for e in data.get('network', {}).get('sub_edges', [])]
  trans_edges = [tuple(e) for e in data.get('network', {}).get('trans_edges', [])]"""


def _output_format(embed_json: bool) -> str:
    imports = "import gurobipy as gp; from gurobipy import GRB"
    if embed_json:
        imports += "; import json"
    return (
        f"- Import: {imports}\n"
        "- Set Gurobi params: m.Params.OutputFlag = 0;\n"
        "  m.Params.Threads = 1; m.Params.Seed = 0\n"
        "- Print at end:\n"
        '  print(f"status: {m.Status}")\n'
        "  if m.Status == 2:\n"
        '      print(f"objective: {m.ObjVal}")\n'
        "- Output ONLY executable Python code. No markdown, no explanations."
    )


_TASK_SCHEMA = (
    "Write a GurobiPy script that models and solves this optimization\n"
    "problem."
)
_TASK_EMBEDDED = (
    "Write a GurobiPy script that:\n"
    "1. Parses the JSON data above (use json.loads on the string)\n"
    "2. Models and solves the optimization problem\n"
    "3. Prints status and objective value"
)

_NAME_RE = re.compile(r"^(retail_(f\d)_[a-z0-9_]+?)(?:_v(\d+))?$")


def split_instance_name(name: str) -> tuple[str, str]:
    """Return (archetype_name, family) parsed from an instance name."""
    m = _NAME_RE.match(name)
    if not m:
        return name, "F?"
    return m.group(1), m.group(2).upper()


def _fresh_inflow_cue(inst: ScenarioInstance) -> str:
    terms = ["arrivals[p,l,t]"]
    if any(lt > 0 for lt in inst.lead_time.values()):
        notes = ["arrivals[p,l,t] = Q[p,l,t - lead_time[p]] (zero when\n"
                 "        t - lead_time[p] < 1)"]
    else:
        notes = ["arrivals[p,l,t] = Q[p,l,t] (zero lead time)"]
    if inst.network.trans_edges:
        terms.append("ship_in[p,l,t] - ship_out[p,l,t]")
    if any(r > 0 for r in inst.return_rate.values()):
        terms.append("returns[p,l,t]")
        notes.append(
            "returns[p,l,t] = return_rate[p] * total_sales[p,l,t-1]\n"
            "        (zero in the first period)"
        )
    notes.append("This is ONLY fresh inflow. Do NOT subtract sales here!")
    return "\n".join([f"  (1) Fresh inflow: I[p,l,t,SL] = {' + '.join(terms)}",
                      *(f"      - {note}" for note in notes)])


def _shelf_life_cue(inst: ScenarioInstance) -> str:
    return (
        "- Shelf life: Each product has a shelf life in periods.\n"
        "  Inventory must be tracked by REMAINING LIFE.\n"
        "\n"
        "  VARIABLE DEFINITION: I[p,l,t,r] = inventory at START of period t\n"
        "  with r periods remaining.\n"
        "  Convention: r=1 is OLDEST (sell first FIFO),\n"
        "              r=shelf_life[p] is FRESHEST.\n"
        "\n"
        "  KEY EQUATIONS - implement EXACTLY as written, do NOT add or\n"
        "  remove terms:\n"
        "\n"
        + _fresh_inflow_cue(inst) + "\n"
        "  (2) Aging: I[p,l,t+1,r] = I[p,l,t,r+1] - sales[p,l,t,r+1]\n"
        "      for r=1..SL-1\n"
        "  (3) Waste: W[p,l,t] = I[p,l,t,1] - sales[p,l,t,1]\n"
        "  (4) Sales availability: sales[p,l,t,r] <= I[p,l,t,r]\n"
        "  (5) Inventory holding cost: charged on\n"
        "      (I[p,l,t,r] - sales[p,l,t,r]) for r >= 2"
    )


_SUBSTITUTION_CUE = (
    "- Substitution: Edge [p_from, p_to] means p_from's demand can\n"
    "  be served by p_to's inventory.\n"
    "  Variable sub[p_from, p_to, l, t] = units of p_from's demand\n"
    "  fulfilled by p_to.\n"
    "\n"
    "  Demand fulfillment equation:\n"
    "  - For p_from: total_sales[p_from] + sub[p_from, p_to]\n"
    "                + L[p_from] = demand[p_from]\n"
    "  - For p_to:   total_sales[p_to] - sub[p_from, p_to]\n"
    "                + L[p_to]   = demand[p_to]\n"
    "  - Total demand exported by a product in a location and week\n"
    "    cannot exceed that product's own demand there."
)

_TRANSSHIPMENT_CUE = (
    "- Transshipment: Edge [l_from, l_to] means stock can move from\n"
    "  l_from to l_to. Variable ship[p, l_from, l_to, t] moves fresh\n"
    "  inventory: shipped units leave l_from's fresh inflow and arrive\n"
    "  in l_to's fresh bucket in the same period t, at the per-unit\n"
    "  transshipment cost."
)


def _structure_cues(inst: ScenarioInstance) -> list[str]:
    cues = [
        "- Demand: each product's aggregate weekly demand follows its demand\n"
        "  curve; every location receives its fixed share of that total.\n"
        "  Customers are never backordered; unmet demand in a week is\n"
        "  immediately lost and penalized at the per-unit lost-sales cost.",
        _shelf_life_cue(inst),
    ]
    if inst.network.sub_edges:
        cues.append(_SUBSTITUTION_CUE)
    if inst.network.trans_edges:
        cues.append(_TRANSSHIPMENT_CUE)

    has_lead = any(lt > 0 for lt in inst.lead_time.values())
    if not has_lead and not inst.network.trans_edges:
        cues.append("- No transshipment and zero lead times in this scenario.")
    elif has_lead:
        cues.append(
            "- Lead times: an order placed in week t arrives at the start of\n"
            "  week t + lead_time[p]. Arrivals count against production\n"
            "  capacity in their ARRIVAL week."
        )
    else:
        cues.append("- Zero lead times: orders arrive in the week they are placed.")

    cues.append(
        "- Production: total arrivals of each product across all locations\n"
        "  in a week are capped by that week's production capacity."
    )
    cues.append(
        "- Storage: volume-weighted inventory at the START of each period\n"
        "  (before sales) must fit within each location's cold capacity."
    )
    if any(u > 0 for u in inst.labor_usage.values()):
        cues.append(
            "- Labor: every unit sold consumes labor hours per labor_usage;\n"
            "  weekly labor hours at each location are capped by labor_cap."
        )
    if any(r > 0 for r in inst.return_rate.values()):
        cues.append(
            "- Returns: a fixed fraction of each week's sales comes back at\n"
            "  the start of the next week as fresh, fully sellable stock."
        )
    if inst.constraints.moq > 0:
        cues.append(
            "- Minimum order quantity: each order placed is either zero or at\n"
            "  least the MOQ (use a binary order indicator with a big-M link)."
        )
    if inst.constraints.pack_size > 1:
        cues.append(
            "- Pack size: every order quantity must be an integer multiple of\n"
            "  the pack size."
        )
    if inst.costs.fixed_order > 0:
        cues.append(
            "- Fixed ordering cost: each (product, location, week) order that\n"
            "  is placed incurs the fixed ordering cost on top of per-unit\n"
            "  purchasing cost."
        )
    if inst.constraints.budget_per_period is not None:
        cues.append(
            "- Budget: total purchasing spend in each week (including any\n"
            "  fixed ordering costs) is capped by the per-period budget."
        )
    if inst.constraints.waste_limit_pct is not None:
        cues.append(
            "- Waste cap: total expired units over the whole horizon may not\n"
            "  exceed the waste limit fraction of total demand."
        )

    objective_terms = ["purchasing", "holding", "waste", "and lost sales costs"]
    extras = []
    if inst.costs.fixed_order > 0:
        extras.append("fixed ordering costs")
    if inst.network.trans_edges:
        extras.append("transshipment costs")
    tail = (" plus " + " and ".join(extras)) if extras else ""
    cues.append(
        "- The objective is to minimize total cost over the entire horizon,\n"
        f"  aggregating {', '.join(objective_terms)}{tail}\n"
        "  across all weeks."
    )
    return cues


def business_description(inst: ScenarioInstance) -> str:
    """Narrative plus structure cues; byte-identical across prompt formats."""
    archetype, family = split_instance_name(inst.name)
    intro = _FAMILY_INTROS.get(family, _FAMILY_INTROS["F1"])
    passage = _ARCHETYPE_PASSAGES.get(archetype, inst.description)
    narrative = intro + (" " + passage if passage else "")
    cues = "\n".join(_structure_cues(inst))
    return f"Business narrative:\n{narrative}\n\nStructure cues:\n{cues}"


def render_prompt(inst: ScenarioInstance, prompt_format: str) -> str:
    """Render one instance prompt in the requested format."""
    if prompt_format not in PROMPT_FORMATS:
        raise ValueError(f"unknown prompt format: {prompt_format!r}")
    archetype, family = split_instance_name(inst.name)
    family_label = f"{family} ({_FAMILY_NAMES.get(family, 'Custom')})"
    sections = [
        f"[SCENARIO]\nFamily: {family_label}\nArchetype: {archetype}\nScenario ID: {inst.name}",
        f"[BUSINESS DESCRIPTION]\n{business_description(inst)}",
    ]
    if prompt_format == SCHEMA_BASED:
        sections.append(f"[DATA SCHEMA]\n{_SCHEMA_BLOCK}")
        sections.append(f"[DATA ACCESS]\n{_DATA_ACCESS_BLOCK}")
        sections.append(f"[OUTPUT FORMAT]\n{_output_format(embed_json=False)}")
        sections.append(f"[TASK]\n{_TASK_SCHEMA}")
    else:
        sections.append(
            "[DATA]\nThe following JSON contains all instance data. Parse it directly\n"
            f"in your code.\n\n```json\n{dumps_instance(inst)}```"
        )
        sections.append(f"[OUTPUT FORMAT]\n{_output_format(embed_json=True)}")
        sections.append(f"[TASK]\n{_TASK_EMBEDDED}")
    return "\n\n".join(sections) + "\n"
