"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

The heavyweight criteria (full-suite ground truth, F6 discreteness) share a
module-scoped fixture that solves all 190 instances once, in parallel
worker processes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import random
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from optverify.backend import DEFAULT_BACKEND, ModelSpec, Objective
from optverify.cli import EXIT_OK, main
from optverify.config import PipelineConfig
from optverify.diagnostics import INFO, PASS, WARNING, classify_change_ratio
from optverify.evaluation import aggregate, build_record, silent_failure_metrics
from optverify.generator import build_instance, generate_suite
from optverify.l1 import l1_verify
from optverify.l2 import CPT, OPT, Candidate, run_l2
from optverify.llm import (
    REPLAY_CONFIG,
    CallableTransport,
    LlmClient,
    RecordingTransport,
)
from optverify.pipeline import run_instance
from optverify.prompts import SCHEMA_BASED
from optverify.reference import (
    candidate_source,
    solve_reference,
)
from optverify.repair import repair_loop, safety_check
from optverify.runtime import EXTERNAL_DICT, CandidateProgram, CandidateRuntime
from optverify.scenario import to_json_dict, validate_instance

from .helpers import (
    check_flow_conservation,
    extract_solution,
    random_infeasible_lp,
    scripted_reference_provider,
)

GROUND_TRUTH_BUDGET_S = 20 * 60
PER_SOLVE_BUDGET_S = 70  # 60 s solver limit plus model-build overhead


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {verdict} - {name}{suffix}")
    assert ok, f"{name}{suffix}"


# --------------------------------------------------------------------------
# Shared fixtures
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    generate_suite(out)
    return out


def _solve_summary(path_str: str) -> dict:
    inst = validate_instance(json.loads(Path(path_str).read_text(encoding="utf-8")))
    start = time.monotonic()
    result = solve_reference(inst)
    duration = time.monotonic() - start
    summary = {
        "name": inst.name,
        "status": result.status,
        "objective": result.objective,
        "duration_s": duration,
        "flow_violations": None,
        "min_positive_order": None,
        "max_pack_residual": None,
    }
    if result.values:
        sol = extract_solution(inst, result)
        summary["flow_violations"] = len(check_flow_conservation(inst, sol))
        positive = [q for q in sol.orders.values() if q > 1e-6]
        if positive:
            summary["min_positive_order"] = min(positive)
        pack = inst.constraints.pack_size
        if pack > 1:
            summary["max_pack_residual"] = max(
                min(q % pack, pack - q % pack) for q in sol.orders.values())
    return summary


@pytest.fixture(scope="module")
def suite_ground_truth(suite_dir):
    files = sorted(
        str(p) for p in suite_dir.glob("*.json") if p.name != "manifest.json")
    assert len(files) == 190
    workers = max(1, min(4, os.cpu_count() or 1))
    start = time.monotonic()
    # Spawned, not forked: HiGHS threads started by earlier tests in this
    # process would not survive a fork, and a worker's MIP would wait on them.
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        summaries = {s["name"]: s for s in pool.map(_solve_summary, files)}
    wall = time.monotonic() - start
    return summaries, wall


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------


def test_acceptance_benchmark_determinism(tmp_path):
    start = time.monotonic()
    manifest = generate_suite(tmp_path / "a")
    elapsed = time.monotonic() - start
    counts: dict[str, int] = {}
    for entry in manifest["instances"]:
        counts[entry["family"]] = counts.get(entry["family"], 0) + 1
    generate_suite(tmp_path / "b")

    def digest(root: Path) -> str:
        h = hashlib.sha256()
        for p in sorted(root.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    ok = (
        manifest["count"] == 190
        and counts == {"F1": 20, "F2": 30, "F3": 20, "F4": 30,
                       "F5": 20, "F6": 20, "F7": 30, "F8": 20}
        and digest(tmp_path / "a") == digest(tmp_path / "b")
        and elapsed < 30.0
    )
    _criterion("benchmark determinism", ok,
               f"190 instances, counts ok, byte-identical, {elapsed:.1f}s")


def test_acceptance_demand_formula():
    inst = build_instance("f1_base", 0)
    basic = list(inst.demand_curve["SKU_Basic"][:11])
    ok = (
        basic == [303, 311, 328, 365, 435, 549, 711, 906, 1100, 1245, 1300]
        and inst.demand_curve["SKU_Premium"][0] == 151
    )
    _criterion("demand formula", ok, f"first 11 = {basic}")


def test_acceptance_classifier_boundaries():
    cases = {
        0.003: WARNING,
        0.05: INFO,
        0.30: INFO,
        0.31: PASS,
    }
    ok = all(classify_change_ratio(r) == want for r, want in cases.items())
    _criterion("classifier boundaries", ok)


def test_acceptance_evaluation_arithmetic():
    gap, rate = silent_failure_metrics(72.1, 22.6)
    ok = round(gap, 3) == 49.5 and round(rate, 3) == 0.687

    # Tier nesting on fuzzed record sets.
    rng = random.Random(5150)
    for _ in range(30):
        records = []
        for i in range(rng.randint(1, 40)):
            feasible = rng.random() < 0.7
            err = rng.choice([0.0, 5e-5, 5e-3, 0.05, 0.5])
            records.append(build_record(
                f"i{i}", rng.choice(["F1", "F3", "F6"]),
                executed=feasible,
                pred_status="feasible" if feasible else None,
                y_pred=100.0 * (1 + err) if feasible else None,
                gt_status="optimal", y_ref=100.0))
        report = aggregate(records)
        ok = ok and (
            report.acc_strict_pct <= report.acc_practical_pct + 1e-9
            and report.acc_practical_pct <= report.exec_pct + 1e-9
        )
    _criterion("evaluation arithmetic", ok,
               f"SF_gap={gap:.1f}, SF_rate={rate:.3f}, tier nesting fuzzed")


def _subset_feasible(model: ModelSpec, subset: set[str]) -> bool:
    probe = ModelSpec(
        variables=list(model.variables),
        constraints=[c for c in model.constraints if c.name in subset],
        objective=Objective(),
    )
    return DEFAULT_BACKEND.solve(probe).status != "infeasible"


def test_acceptance_iis_oracle():
    rng = random.Random(321)
    start = time.monotonic()
    irreducible = 0
    cardinality = 0
    n = 50
    for _ in range(n):
        model = random_infeasible_lp(rng)
        iis = DEFAULT_BACKEND.compute_iis(model)
        names = [c.name for c in model.constraints]
        still_infeasible = not _subset_feasible(model, iis)
        deletion_feasible = all(
            _subset_feasible(model, iis - {d}) for d in iis)
        if still_infeasible and deletion_feasible:
            irreducible += 1
        minimum = None
        for size in range(1, len(names) + 1):
            if any(not _subset_feasible(model, set(combo))
                   for combo in itertools.combinations(names, size)):
                minimum = size
                break
        if len(iis) == minimum:
            cardinality += 1
    elapsed = time.monotonic() - start
    ok = irreducible == n and cardinality / n >= 0.9 and elapsed < 10.0
    _criterion(
        "IIS oracle", ok,
        f"irreducible {irreducible}/{n}, min-cardinality {cardinality}/{n}, {elapsed:.1f}s")


def test_acceptance_cpt_mutation_detection():
    runtime = CandidateRuntime(timeout_s=90)
    start = time.monotonic()
    candidates = [Candidate(
        "cold storage capacity limit", "capacity", ("cold_capacity",))]
    hits = 0
    total = 0
    for v in range(5):
        inst = build_instance("f3_storage_bottleneck", v)
        for drop, expect_warning in ((("storage_capacity",), True), ((), False)):
            total += 1
            program = CandidateProgram(candidate_source(drop=drop), to_json_dict(inst))
            l1 = l1_verify(program, runtime)
            assert l1.passed
            diags = run_l2(program, l1.objective, [(CPT, candidates)], runtime)
            severity = diags[0].severity
            if expect_warning and severity == WARNING:
                hits += 1
            elif not expect_warning and severity == PASS:
                hits += 1
    elapsed = time.monotonic() - start
    ok = hits == total == 10 and elapsed < 120.0
    _criterion("CPT mutation detection", ok, f"{hits}/{total} in {elapsed:.1f}s")


def test_acceptance_opt_mutation_detection():
    runtime = CandidateRuntime(timeout_s=90)
    start = time.monotonic()
    terms = [Candidate(
        "inventory holding cost", "cost", ("inventory",))]
    hits = 0
    total = 0
    for v in range(5):
        inst = build_instance("f1_jit_logic", v)
        total += 1
        mutant = CandidateProgram(
            candidate_source(drop=("holding_cost",)), to_json_dict(inst))
        l1_mut = l1_verify(mutant, runtime)
        assert l1_mut.passed
        mut_diags = run_l2(mutant, l1_mut.objective, [(OPT, terms)], runtime)

        intact = CandidateProgram(candidate_source(), to_json_dict(inst))
        l1_ok = l1_verify(intact, runtime)
        assert l1_ok.passed
        ok_diags = run_l2(intact, l1_ok.objective, [(OPT, terms)], runtime)

        if (mut_diags and mut_diags[0].severity == WARNING
                and ok_diags and ok_diags[0].severity in (PASS, INFO)):
            hits += 1
    elapsed = time.monotonic() - start
    ok = hits == total == 5
    _criterion("OPT mutation detection", ok, f"{hits}/{total} in {elapsed:.1f}s")


def test_acceptance_regression_guard():
    base_source = (
        "total = data['unit_cost'] * data['quantity']\n"
        "print('status: 2')\n"
        "print(f\"objective: {total}\")\n"
    )
    record = {"unit_cost": 10.0, "quantity": 10.0, "holding_cost": 1.0}

    def scripted(scale):
        repaired = base_source.replace(
            "data['unit_cost']", f"(data['unit_cost'] * {scale})")

        def fn(payload):
            user = payload["user"]
            if "KEY CONSTRAINTS" in user:
                return "[]"
            if "KEY OBJECTIVE" in user:
                return ('[{"description": "holding cost", "role": "cost", '
                        '"parameters": ["holding_cost"]}]')
            return f"```python\n{repaired}\n```"

        return LlmClient(REPLAY_CONFIG, CallableTransport(fn))

    program = CandidateProgram(base_source, record)
    config = PipelineConfig(timeout_s=30.0)

    runtime = CandidateRuntime(timeout_s=30.0)
    drifted = repair_loop(program, 100.0, "p", scripted(1.10), runtime, config=config)
    rollback_ok = (
        drifted.objective == 100.0  # exactly the pre-repair baseline
        and drifted.program.source == base_source
        and any(e.get("decision") == "rollback" for e in drifted.events)
    )

    nudged = repair_loop(program, 100.0, "p", scripted(1.039), runtime, config=config)
    accepted_ok = (
        nudged.objective == pytest.approx(103.9)
        and any(e.get("decision") == "adopted" for e in nudged.events)
    )
    _criterion("regression guard", rollback_ok and accepted_ok,
               "10% rolled back to exact baseline, 3.9% accepted")


def test_acceptance_safety_validator():
    case1 = safety_check('data = {"capacity": 99}\n', EXTERNAL_DICT)
    case2 = safety_check("data = json.loads(raw)\n", EXTERNAL_DICT)
    case3 = safety_check("import subprocess\n", EXTERNAL_DICT)
    static_ok = (
        [v.rule for v in case1] == ["data_reassignment"]
        and case2 == []
        and [v.rule for v in case3] == ["blocked_import"]
    )

    # Guided-retry flow: the unsafe first repair costs no budget; with a
    # budget of exactly one iteration the safe retry must still be adopted.
    base_source = (
        "total = data['unit_cost'] * data['quantity']\n"
        "print('status: 2')\n"
        "print(f\"objective: {total}\")\n"
    )
    record = {"unit_cost": 10.0, "quantity": 10.0, "holding_cost": 1.0}
    fixed = base_source.replace("total = ", "total = 0 * data['holding_cost'] + ")
    repair_calls = []

    def fn(payload):
        user = payload["user"]
        if "KEY CONSTRAINTS" in user:
            return "[]"
        if "KEY OBJECTIVE" in user:
            return ('[{"description": "holding cost", "role": "cost", '
                    '"parameters": ["holding_cost"]}]')
        repair_calls.append(user)
        if "SAFETY VIOLATIONS DETECTED" in user:
            return f"```python\n{fixed}\n```"
        return '```python\ndata = {"quantity": 1}\n' + base_source + "```"

    out = repair_loop(
        CandidateProgram(base_source, record), 100.0, "p",
        LlmClient(REPLAY_CONFIG, CallableTransport(fn)), CandidateRuntime(timeout_s=30.0),
        config=PipelineConfig(timeout_s=30.0, repair_budget=1))
    retry_ok = (
        len(repair_calls) == 2
        and out.iterations == 1
        and out.program.source.rstrip() == fixed.rstrip()
    )
    _criterion("safety validator", static_ok and retry_ok,
               "3 static cases plus budget-free guided retry")


def test_acceptance_offline_pipeline_replay(suite_dir, tmp_path):
    names = [f"retail_f1_base_v{v}" for v in range(5)]
    mini = tmp_path / "instances"
    mini.mkdir()
    for name in names:
        for suffix in (".json", ".scenario.txt", ".full.txt"):
            shutil.copy(suite_dir / f"{name}{suffix}", mini / f"{name}{suffix}")

    fixtures = tmp_path / "fixtures"
    for name in names:
        inst = validate_instance(
            json.loads((mini / f"{name}.json").read_text(encoding="utf-8")))
        client = LlmClient(REPLAY_CONFIG, RecordingTransport(
            fixtures, CallableTransport(scripted_reference_provider())))
        problem = (mini / f"{name}.scenario.txt").read_text(encoding="utf-8")
        run_instance(inst, problem, SCHEMA_BASED, client)

    codes = []
    for leg in ("r1", "r2"):
        codes.append(main([
            "run", "--instances", str(mini), "--format", "schema",
            "--out", str(tmp_path / leg), "--llm-replay", str(fixtures),
        ]))
    identical = all(
        (tmp_path / "r1" / name / fname).read_bytes()
        == (tmp_path / "r2" / name / fname).read_bytes()
        for name in names
        for fname in ("report.json", "result.json")
    )
    verified = all(
        json.loads((tmp_path / "r1" / name / "result.json").read_text())["status"]
        == "verified"
        for name in names
    )
    ok = codes == [EXIT_OK, EXIT_OK] and identical and verified
    _criterion("offline pipeline replay", ok,
               "5 instances, two runs, byte-identical reports")


def test_acceptance_reference_solver_suite(suite_ground_truth):
    summaries, wall = suite_ground_truth
    ok = len(summaries) == 190
    slow = [s for s in summaries.values() if s["duration_s"] > PER_SOLVE_BUDGET_S]
    no_objective = [s for s in summaries.values() if s["objective"] is None]
    bad_status = [
        s for s in summaries.values() if s["status"] not in ("optimal", "time_limit")]
    f5_not_feasible = [
        s for s in summaries.values()
        if s["name"].startswith("retail_f5_") and s["status"] != "optimal"]
    flow_bad = [
        s for s in summaries.values()
        if s["flow_violations"] not in (0, None)]
    missing_solutions = [s for s in summaries.values() if s["flow_violations"] is None]
    ok = (
        ok
        and not slow
        and not no_objective
        and not bad_status
        and not f5_not_feasible
        and not flow_bad
        and not missing_solutions
        and wall < GROUND_TRUTH_BUDGET_S
    )
    _criterion(
        "reference solver suite", ok,
        f"190 solved, wall {wall:.0f}s, slow={len(slow)}, "
        f"f5_bad={len(f5_not_feasible)}, flow_bad={len(flow_bad)}")


def test_acceptance_f6_discreteness(suite_ground_truth):
    summaries, _ = suite_ground_truth
    moq = summaries["retail_f6_moq_binary_v0"]
    pack = summaries["retail_f6_pack_size_integer_v0"]
    moq_ok = moq["min_positive_order"] is None or \
        moq["min_positive_order"] >= 300 - 1e-6
    pack_ok = pack["max_pack_residual"] is not None and \
        pack["max_pack_residual"] <= 1e-6
    _criterion(
        "F6 discreteness", moq_ok and pack_ok,
        f"min positive order {moq['min_positive_order']:.1f}, "
        f"max pack residual {pack['max_pack_residual']:.2e}")
