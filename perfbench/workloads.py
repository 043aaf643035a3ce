"""The four workloads: inputs drawn from a seed, one timed call per instance,
and the checks of each instance's output.

A workload object is built from a seed and a scratch directory.  ``prepare``
is its untimed set-up, ``items`` is one round (the same instances in every
round), ``run`` is the timed call into the program, and ``check`` judges the
output of one call, returning error strings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import checks
from optverify import backend, cli, generator, reference, repair, scenario
from optverify.config import DEFAULT_CONFIG
from optverify.llm import REPLAY_CONFIG, CallableTransport, LlmClient, RecordingTransport
from optverify.pipeline import run_instance

# Their reference solves stop at the 60 s limit (status time_limit), so they
# have no certified ground truth yet; see README.md.
UNCERTIFIED_ARCHETYPES = ("f6_moq_binary", "f6_fixed_order_cost", "f6_pack_size_integer")

# Extraction replies of the scripted provider: every governing parameter
# listed here moves the intact program's objective by more than the 5%
# missing-threshold (or makes it infeasible) on every archetype of
# VERIFY_POOL, so each drawn instance ends at the skip guard.
VERIFY_CPT = [
    {"description": "cold storage capacity limit", "type": "capacity", "parameters": ["cold_capacity"]},
    {"description": "production capacity per period", "type": "capacity", "parameters": ["production_cap"]},
    {"description": "demand satisfaction", "type": "demand", "parameters": ["demand_curve"]},
]
VERIFY_OPT = [
    {"description": "unit purchasing cost", "role": "cost", "parameters": ["purchasing"]},
    {"description": "lost sales penalty", "role": "cost", "parameters": ["lost_sales"]},
]
# Repair lists: the storage limit on the CPT side, purchasing plus holding on
# the OPT side.  Dropping storage_capacity silences the first, dropping
# holding_cost the last.
REPAIR_CPT = VERIFY_CPT[:1]
REPAIR_OPT = [VERIFY_OPT[0],
              {"description": "inventory holding cost", "role": "cost", "parameters": ["inventory"]}]

# Archetypes of the standard shape (20 periods, 3 SKUs, 5 DCs, no integer
# variables) on which the verify lists above pass for all five variants.
VERIFY_POOL = (
    "f1_base", "f1_high_waste", "f1_jit_logic", "f2_no_substitution", "f2_circular_sub",
    "f2_cannibalization", "f2_price_band_tight", "f2_promo_budget", "f3_storage_bottleneck",
    "f3_volumetric_constraint", "f3_unbalanced_network", "f4_early_stockout",
    "f4_peak_failure", "f4_demand_surge", "f4_quality_hold", "f4_robust_variance",
    "f4_supply_risk", "f5_impossible_demand", "f5_strict_service_trap", "f5_ultimate_stress",
    "f6_lead_time", "f7_hub_and_spoke", "f7_budget_limit", "f7_multi_sourcing",
    "f7_ring_routing", "f8_reverse_logistics", "f8_labor_constraint", "f8_ship_from_store",
    "f8_sustainability",
)
# storage_capacity dropped: the intact repair moves the objective by 7-17%,
# past the 4% regression guard, so the repair is rolled back.
ROLLBACK_POOL = ("f3_storage_bottleneck", "f3_volumetric_constraint", "f5_ultimate_stress",
                 "f7_hub_and_spoke")
# holding_cost dropped: the intact repair moves the objective by 1.2-2.7%, so
# it is adopted; holding then still moves the objective by less than 5%, the
# second L2 pass warns again and the loop ends on identical_code.
ADOPT_POOL = ("f7_budget_limit", "f5_ultimate_stress", "f6_lead_time")

# Shrunken IIS scenarios: (periods, products, number of DCs).  The seed picks
# the DCs and a demand multiplier in [3.4, 3.6]; periods and products fix the
# row count, so the deletion filter does the same number of solves per seed.
IIS_SHAPES = (
    (4, ("SKU_Basic",), 2),
    (6, ("SKU_Basic", "SKU_Premium"), 2),
    (5, ("SKU_Premium", "SKU_ShortLife"), 2),
    (8, ("SKU_Basic", "SKU_ShortLife"), 1),
)
IIS_ROW = "no_lost_sales"

_JSON_FENCE = re.compile(r"```json\s*\n(.*?)```", re.DOTALL)


def scripted_provider(first_source: str, repair_source: str, cpt: list, opt: list):
    """A deterministic stand-in for the LLM, keyed on the prompt kind."""
    cpt_reply, opt_reply = json.dumps(cpt), json.dumps(opt)

    def reply(payload: dict) -> str:
        user = payload["user"]
        if payload["system"] == repair.REPAIR_SYSTEM_PROMPT:
            return f"```python\n{repair_source}\n```"
        if "Extract all numerical parameters" in user:
            found = _JSON_FENCE.search(user)
            return found.group(1) if found else "no data found"
        if "KEY CONSTRAINTS" in user:
            return cpt_reply
        if "KEY OBJECTIVE" in user:
            return opt_reply
        return f"```python\n{first_source}\n```"

    return reply


def _quiet(fn, *args):
    """Call ``fn`` with its standard streams captured (the CLI prints per instance)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return fn(*args)


class KeepingBackend(backend.HighsBackend):
    """The HiGHS backend, remembering the model and result of its last solve.

    ``reference.ground_truth`` returns only status and objective; the values
    the checks need come from here."""

    def solve(self, model, params=backend.SolveParams()):
        result = super().solve(model, params)
        self.model, self.result = model, result
        return result


@dataclass
class Item:
    key: str
    data: Any


class GroundTruth:
    """``optverify ground-truth`` with one worker, in-process, over the 175
    certified suite instances in a seeded order."""

    setup_reps = 3
    min_rounds = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.verdicts: dict[tuple, list[str]] = {}

    def prepare(self) -> None:
        suite = self.work / "suite"
        shutil.rmtree(suite, ignore_errors=True)
        manifest = generator.generate_suite(suite)
        insts = [
            scenario.validate_instance(json.loads((suite / e["instance_file"]).read_text("utf-8")))
            for e in manifest["instances"]
            if e["archetype"].removeprefix("retail_") not in UNCERTIFIED_ARCHETYPES
        ]
        random.Random(self.seed).shuffle(insts)
        self.items = [Item(inst.name, inst) for inst in insts]

    def run(self, item: Item, round_no: int):
        keeper = KeepingBackend()
        gt = reference.ground_truth(item.data, backend=keeper)
        return gt, keeper

    def check(self, item: Item, round_no: int, output) -> list[str]:
        gt, keeper = output
        if gt["status"] != "optimal":
            return [f"status {gt['status']}, expected optimal"]
        result = keeper.result
        if gt.get("objective") != result.objective:
            return ["ground truth objective is not the solved objective"]
        # A later round that returns the same solution gets the same verdict.
        key = (item.key, result.objective,
               hashlib.sha256(np.array(list(result.values.values())).tobytes()).hexdigest())
        if key not in self.verdicts:
            arr = checks.lp_arrays(keeper.model)
            x = np.array([result.values[name] for name in arr.names])
            self.verdicts[key] = (checks.check_primal(arr, x, result.objective)
                                  or checks.check_dual(arr, x, result.objective))
        return self.verdicts[key]


@dataclass
class Slot:
    """One drawn instance of a replay workload and what its checks expect."""

    inst: Any
    fmt: str
    first_source: str
    expect: str              # "verified", "rollback" or "adopt"
    dir: Path
    z_intact: float = 0.0
    z_mutant: float = 0.0


class _Replay:
    """``optverify run --llm-replay`` then ``optverify evaluate``, per instance.

    Set-up emits the suite, copies each drawn instance into a directory of its
    own, solves its reference model in-process (the ground truth that
    ``evaluate`` reads and the checks compare with) and records the scripted
    provider's replies through ``RecordingTransport``.
    """

    setup_reps = 1
    min_rounds = 2  # a second replay of the same fixtures must be byte-identical
    cpt: list = VERIFY_CPT
    opt: list = VERIFY_OPT

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.first_bytes: dict[str, dict[str, bytes]] = {}

    def draw(self, rng: random.Random) -> list[tuple[str, int, str, tuple[str, ...], str]]:
        raise NotImplementedError

    def prepare(self) -> None:
        suite = self.work / "suite"
        shutil.rmtree(suite, ignore_errors=True)
        generator.generate_suite(suite)
        self.items = []
        for k, (aid, variant, fmt, drop, expect) in enumerate(self.draw(random.Random(self.seed))):
            name = generator.instance_name(aid, variant)
            slot_dir = self.work / f"slot{k}"
            shutil.rmtree(slot_dir, ignore_errors=True)
            (slot_dir / "instances").mkdir(parents=True)
            suffix = ".scenario.txt" if fmt == "schema" else ".full.txt"
            for ext in (".json", suffix):
                shutil.copy(suite / f"{name}{ext}", slot_dir / "instances" / f"{name}{ext}")
            inst = scenario.validate_instance(
                json.loads((suite / f"{name}.json").read_text("utf-8")))
            slot = Slot(inst, fmt, reference.candidate_source(drop=drop), expect, slot_dir)
            slot.z_intact = reference.solve_reference(inst).objective
            slot.z_mutant = reference.solve_reference(inst, drop=drop).objective
            (slot_dir / "gt.json").write_text(json.dumps(
                {name: {"status": "optimal", "objective": slot.z_intact}}), "utf-8")
            client = LlmClient(REPLAY_CONFIG, RecordingTransport(
                slot_dir / "fixtures", CallableTransport(scripted_provider(
                    slot.first_source, reference.candidate_source(), self.cpt, self.opt))))
            problem = (suite / f"{name}{suffix}").read_text("utf-8")
            run_instance(inst, problem, fmt, client)
            self.items.append(Item(f"{name}/{fmt}", slot))

    def run(self, item: Item, round_no: int):
        slot: Slot = item.data
        out = self.work / f"round{round_no}" / slot.dir.name
        rc_run = _quiet(cli.main, [
            "run", "--instances", str(slot.dir / "instances"), "--format", slot.fmt,
            "--out", str(out), "--llm-replay", str(slot.dir / "fixtures")])
        rc_eval = _quiet(cli.main, [
            "evaluate", "--results", str(out), "--ground-truth", str(slot.dir / "gt.json"),
            "--out", str(out / "eval.jsonl")])
        return rc_run, rc_eval, out

    def check(self, item: Item, round_no: int, output) -> list[str]:
        slot: Slot = item.data
        rc_run, rc_eval, out = output
        errors = []
        if rc_run != cli.EXIT_OK or rc_eval != cli.EXIT_OK:
            errors.append(f"exit codes run={rc_run} evaluate={rc_eval}, expected 0")
        run_dir = out / slot.inst.name
        files = {f: (run_dir / f).read_bytes() for f in ("report.json", "result.json", "code.py")
                 if (run_dir / f).exists()}
        first = self.first_bytes.setdefault(item.key, files)
        errors += checks.check_replay_bytes(first, files)
        if errors or len(files) < 3:
            return errors or ["run directory lacks report.json, result.json or code.py"]
        result = json.loads(files["result.json"])
        report = json.loads(files["report.json"])
        errors += self.check_result(slot, result, report, files["code.py"].decode("utf-8"))
        records = [json.loads(line) for line in (out / "eval.jsonl").read_text("utf-8").splitlines()]
        z = result["objective"]
        if len(records) != 1 or records[0]["y_pred"] != z:
            errors.append("evaluate did not judge the run's objective")
        elif z is not None and records[0]["correct_strict"] != (
                checks.relative_gap(z, slot.z_intact) < checks.REPLAY_TOL):
            errors.append("evaluate's strict verdict disagrees with the relative error")
        shutil.rmtree(out, ignore_errors=True)
        return errors

    def check_result(self, slot: Slot, result: dict, report: dict, code: str) -> list[str]:
        raise NotImplementedError


class ReplayVerify(_Replay):
    """Intact programs: every instance ends ``verified`` at the skip guard."""

    def draw(self, rng):
        a, b = rng.sample(VERIFY_POOL, 2)
        return [(a, rng.randrange(5), "schema", (), "verified"),
                (b, rng.randrange(5), "full", (), "verified")]

    def check_result(self, slot, result, report, code):
        errors = []
        if result["status"] != "verified" or report["status"] != "verified":
            errors.append(f"status {result['status']}, expected verified")
        if result["status_code"] != 2:
            errors.append(f"status code {result['status_code']}, expected 2")
        z = result["objective"]
        if z is None or checks.relative_gap(z, slot.z_intact) > checks.REPLAY_TOL:
            errors.append(f"objective {z!r} is not the reference {slot.z_intact!r}")
        return errors


class ReplayRepair(_Replay):
    """Mutant first programs, intact repair replies: one rollback and two
    adoptions per round."""

    cpt = REPAIR_CPT
    opt = REPAIR_OPT

    def draw(self, rng):
        # Two adoptions per rollback, so the median instance is an adoption
        # rather than the midpoint between the two kinds.
        first, second = rng.sample(ADOPT_POOL, 2)
        return [(rng.choice(ROLLBACK_POOL), rng.randrange(5), "schema", ("storage_capacity",), "rollback"),
                (first, rng.randrange(5), "full", ("holding_cost",), "adopt"),
                (second, rng.randrange(5), "schema", ("holding_cost",), "adopt")]

    def check_result(self, slot, result, report, code):
        expected = checks.expected_repair(
            slot.z_intact, slot.z_mutant, DEFAULT_CONFIG.regression_threshold)
        errors = []
        if expected != slot.expect:
            errors.append(f"drawn for {slot.expect}, but the drift calls for {expected}")
        if result["status"] == "failed":
            errors.append("instance ended failed")
        return errors + checks.check_repair(
            expected, code, result["objective"], slot.first_source,
            reference.candidate_source(), slot.z_mutant, slot.z_intact)


class IisDiagnose:
    """``HighsBackend.compute_iis`` on shrunken infeasible reference models."""

    setup_reps = 3
    min_rounds = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.verdicts: dict[tuple[str, frozenset], list[str]] = {}

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.items = []
        for k, (periods, products, n_dcs) in enumerate(IIS_SHAPES):
            raw = shrunken_raw(periods, products, rng.sample(generator.DCS, n_dcs),
                               rng.uniform(3.4, 3.6), f"iis_{k}")
            model = reference.build_reference_model(scenario.validate_instance(raw))
            lost = {v.name: 1.0 for v in model.variables if v.name.startswith("L[")}
            model.constraints.append(backend.Constraint(IIS_ROW, lost, "<=", 0.0))
            self.items.append(Item(raw["name"], model))

    def run(self, item: Item, round_no: int):
        return backend.DEFAULT_BACKEND.compute_iis(item.data)

    def check(self, item: Item, round_no: int, output) -> list[str]:
        key = (item.key, frozenset(output))
        if key not in self.verdicts:
            self.verdicts[key] = checks.check_iis(item.data, output, IIS_ROW)
        return self.verdicts[key]


def shrunken_raw(periods: int, products, dcs, demand_mult: float, name: str) -> dict:
    """The base scenario cut to ``periods``, ``products`` and ``dcs``, with
    demand scaled by ``demand_mult`` past what production can cover."""
    raw = generator.base_raw()
    keep = lambda m: {k: m[k] for k in products}  # noqa: E731
    raw.update(name=name, periods=periods, products=list(products), locations=list(dcs))
    for key in ("shelf_life", "lead_time", "cold_usage", "labor_usage", "return_rate"):
        raw[key] = keep(raw[key])
    for key in ("purchasing", "inventory", "waste", "lost_sales"):
        raw["costs"][key] = keep(raw["costs"][key])
    raw["demand_curve"] = {p: [int(d * demand_mult) for d in raw["demand_curve"][p][:periods]]
                           for p in products}
    raw["production_cap"] = {p: raw["production_cap"][p][:periods] for p in products}
    shares = [raw["demand_share"][dc] for dc in dcs]
    raw["demand_share"] = {dc: s / sum(shares) for dc, s in zip(dcs, shares)}
    raw["demand_share"][dcs[-1]] = 1.0 - sum(raw["demand_share"][dc] for dc in dcs[:-1])
    raw["cold_capacity"] = {dc: raw["cold_capacity"][dc] for dc in dcs}
    raw["labor_cap"] = {dc: raw["labor_cap"][dc][:periods] for dc in dcs}
    raw["network"]["sub_edges"] = [e for e in raw["network"]["sub_edges"]
                                   if e[0] in products and e[1] in products]
    return raw


WORKLOADS = {
    "ground_truth": GroundTruth,
    "replay_verify": ReplayVerify,
    "replay_repair": ReplayRepair,
    "iis_diagnose": IisDiagnose,
}
