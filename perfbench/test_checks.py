"""Self-tests of the benchmark's checkers: each check accepts a right output
and rejects a wrong one.

    python3 perfbench/test_checks.py            # or: python3 -m pytest perfbench/test_checks.py

Run from the repository root; takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from optverify import backend, generator, reference, scenario  # noqa: E402


def _solved(archetype: str = "f2_ultra_fresh"):
    model = reference.build_reference_model(generator.build_instance(archetype, 0))
    result = backend.DEFAULT_BACKEND.solve(model, reference.GROUND_TRUTH_PARAMS)
    arr = checks.lp_arrays(model)
    return arr, np.array([result.values[n] for n in arr.names]), result.objective


def test_ground_truth_checks_accept_the_solved_model():
    arr, x, z = _solved()
    assert checks.check_primal(arr, x, z) == []
    assert checks.check_dual(arr, x, z) == []


def test_shifted_objective_is_rejected():
    arr, x, z = _solved()
    shifted = z * (1 + 1e-3)
    assert any("differs from c.x" in e for e in checks.check_primal(arr, x, shifted))
    assert any("dual objective" in e for e in checks.check_dual(arr, x, shifted))


def test_violated_row_is_rejected():
    arr, x, z = _solved()
    j = arr.names.index(next(n for n in arr.names if n.startswith("Q[")))
    bad = x.copy()
    bad[j] += 1.0
    assert any(e.startswith("row ") for e in checks.check_primal(arr, bad, z))


def test_violated_bound_is_rejected():
    arr, x, z = _solved()
    j = int(np.argmax(x == 0.0))
    bad = x.copy()
    bad[j] = -1e-3
    assert any(e.startswith("bound of") for e in checks.check_primal(arr, bad, z))


def test_fractional_integer_is_rejected():
    arr, x, z = _solved()
    arr.integer[0] = True
    bad = x.copy()
    bad[0] = 0.5
    assert any("fractional" in e for e in checks.check_primal(arr, bad, z))


def _iis_case():
    workload = workloads.IisDiagnose(seed=0, work=ROOT)
    workload.prepare()
    model = workload.items[0].data
    return model, backend.DEFAULT_BACKEND.compute_iis(model)


def test_iis_check_accepts_the_deletion_filter_result():
    model, iis = _iis_case()
    assert checks.check_iis(model, iis, workloads.IIS_ROW) == []


def test_reducible_iis_is_rejected():
    model, iis = _iis_case()
    extra = next(c.name for c in model.constraints if c.name not in iis)
    errors = checks.check_iis(model, iis | {extra}, workloads.IIS_ROW)
    assert any("reducible" in e for e in errors)


def test_feasible_iis_is_rejected():
    model, iis = _iis_case()
    errors = checks.check_iis(model, iis - {workloads.IIS_ROW}, workloads.IIS_ROW)
    assert any("lacks the appended row" in e for e in errors)
    assert any("feasible" in e for e in errors)


def test_replay_differing_by_one_byte_is_rejected():
    first = {"report.json": b'{"status": "verified"}\n', "result.json": b"{}\n"}
    again = dict(first, **{"report.json": b'{"status": "verified"} \n'})
    assert checks.check_replay_bytes(first, dict(first)) == []
    assert checks.check_replay_bytes(first, again) == ["report.json differs from the first replay"]


def test_rollback_where_adoption_was_due_is_rejected():
    inst = generator.build_instance("f7_budget_limit", 0)
    z_intact = reference.solve_reference(inst).objective
    z_mutant = reference.solve_reference(inst, drop=("holding_cost",)).objective
    mutant, intact = reference.candidate_source(drop=("holding_cost",)), reference.candidate_source()
    expected = checks.expected_repair(z_intact, z_mutant, 0.04)
    assert expected == "adopt"
    assert checks.check_repair(expected, intact, z_intact, mutant, intact, z_mutant, z_intact) == []
    errors = checks.check_repair(expected, mutant, z_mutant, mutant, intact, z_mutant, z_intact)
    assert len(errors) == 2


def test_drift_past_the_guard_calls_for_rollback():
    assert checks.expected_repair(110.0, 100.0, 0.04) == "rollback"
    assert checks.expected_repair(103.0, 100.0, 0.04) == "adopt"


def test_shrunken_scenarios_validate_and_are_infeasible_only_with_the_row():
    for k, (periods, products, n_dcs) in enumerate(workloads.IIS_SHAPES):
        raw = workloads.shrunken_raw(periods, products, generator.DCS[:n_dcs], 3.5, f"iis_{k}")
        inst = scenario.validate_instance(raw)
        assert inst.periods == periods and inst.products == tuple(products)
        model = reference.build_reference_model(inst)
        assert backend.DEFAULT_BACKEND.solve(model).status == "optimal"
        lost = {v.name: 1.0 for v in model.variables if v.name.startswith("L[")}
        model.constraints.append(backend.Constraint(workloads.IIS_ROW, lost, "<=", 0.0))
        assert backend.DEFAULT_BACKEND.solve(model).status == "infeasible"


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "instances_per_s", "instance_p50_s", "cpu_s_per_instance", "peak_rss_mb"]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    sys.exit(1 if failed else 0)
