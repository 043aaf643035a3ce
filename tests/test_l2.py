from __future__ import annotations

import pytest

from optverify.diagnostics import INFO, PASS, WARNING, Diagnostic
from optverify.errors import ExtractionError, ParameterNotFound
from optverify.l2 import (
    CPT,
    CPT_FACTORS,
    MAX_CANDIDATES,
    OPT,
    OPT_FACTORS,
    Candidate,
    extract_candidates,
    extract_constraints,
    extract_objective_terms,
    perturb_parameter,
    perturb_record,
    perturb_source,
    probe,
    run_l2,
)
from optverify.llm import CallableTransport, LlmClient, LlmConfig
from optverify.runtime import CandidateProgram, CandidateRuntime


def _client(fn):
    return LlmClient(LlmConfig(), CallableTransport(fn))


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------

_GOOD_ARRAY = """Here you go:
```json
[
  {"description": "minimum protein requirement",
   "type": "demand", "parameters": ["min_protein"]},
  {"description": "capacity limit on production",
   "type": "capacity", "parameters": ["capacity"]}
]
```"""


def test_extract_constraints_parses_reply():
    out = extract_constraints("p", ["capacity"], _client(lambda _: _GOOD_ARRAY))
    assert out == [
        Candidate("minimum protein requirement", "demand", ("min_protein",)),
        Candidate("capacity limit on production", "capacity", ("capacity",)),
    ]


def test_extract_constraints_unparseable():
    with pytest.raises(ExtractionError):
        extract_constraints("p", [], _client(lambda _: "no constraints"))


def test_extract_truncates_to_limit():
    entries = ",".join(
        f'{{"description": "c{i}", "type": "capacity", "parameters": ["k{i}"]}}'
        for i in range(14)
    )
    out = extract_constraints("p", [], _client(lambda _: f"[{entries}]"))
    assert len(out) == 10
    assert out[0].description == "c0"


def test_extract_drops_malformed_entries():
    reply = """[
      {"description": "", "type": "capacity", "parameters": ["a"]},
      {"description": "ok", "type": "capacity", "parameters": []},
      {"description": "keep me", "type": "weird", "parameters": ["x"]},
      "just a string"
    ]"""
    out = extract_constraints("p", [], _client(lambda _: reply))
    assert len(out) == 1
    assert out[0].description == "keep me"
    assert out[0].kind == "weird"


def test_extract_objective_terms():
    reply = """[
      {"description": "unit purchasing cost", "role": "cost", "parameters": ["unit_cost"]},
      {"description": "sales revenue per unit", "role": "revenue", "parameters": ["selling_price"]}
    ]"""
    out = extract_objective_terms("p", [], _client(lambda _: reply))
    assert out[0].kind == "cost"
    assert out[1].kind == "revenue"


def test_extract_empty_array_gives_empty_list():
    assert extract_objective_terms("p", [], _client(lambda _: "[]")) == []


def test_extraction_prompts_carry_problem_and_keys():
    prompts = []

    def capture(payload):
        prompts.append(payload["user"])
        return "[]"

    extract_candidates("THE PROBLEM", ["a", "b"], _client(capture))
    cpt_text, opt_text = prompts
    assert "THE PROBLEM" in cpt_text
    assert "['a', 'b']" in cpt_text
    assert "KEY CONSTRAINTS" in cpt_text
    assert "THE PROBLEM" in opt_text
    assert "KEY OBJECTIVE" in opt_text
    assert "MUST appear in the objective" in opt_text


def test_factor_tables_are_total():
    assert CPT_FACTORS.get("capacity") == 0.001
    assert CPT_FACTORS.get("demand") == 100.0
    assert CPT_FACTORS.get("unknown-kind", CPT_FACTORS["other"]) == 0.01
    assert OPT_FACTORS.get("cost") == 0.001
    assert OPT_FACTORS.get("revenue") == 100.0


# --------------------------------------------------------------------------
# Strategy 1: record perturbation
# --------------------------------------------------------------------------


def test_perturb_record_scales_map_values():
    record = {"cold_capacity": {"DC1": 100.0, "DC2": 50.0}, "other": 1}
    out = perturb_record(record, "cold_capacity", 0.001)
    assert out["cold_capacity"] == {"DC1": 0.1, "DC2": 0.05}
    assert out["other"] == 1
    assert record["cold_capacity"]["DC1"] == 100.0  # original untouched


def test_perturb_record_finds_nested_key():
    record = {"costs": {"inventory": {"A": 2.0}, "waste": {"A": 3.0}}}
    out = perturb_record(record, "inventory", 10.0)
    assert out["costs"]["inventory"]["A"] == 20.0
    assert out["costs"]["waste"]["A"] == 3.0


def test_perturb_record_dotted_path():
    record = {"costs": {"inventory": {"A": 2.0}}}
    out = perturb_record(record, "costs.inventory", 0.5)
    assert out["costs"]["inventory"]["A"] == 1.0


def test_perturb_record_scales_arrays_elementwise():
    record = {"demand": [1.0, 2.0, 3.0]}
    out = perturb_record(record, "demand", 100.0)
    assert out["demand"] == [100.0, 200.0, 300.0]


def test_perturb_record_normalized_match():
    record = {"coldCapacity": 4.0}
    out = perturb_record(record, "cold_capacity", 2.0)
    assert out["coldCapacity"] == 8.0


def test_perturb_record_missing_key():
    assert perturb_record({"a": 1.0}, "nope", 2.0) is None


def test_perturb_record_non_numeric_subtree():
    assert perturb_record({"name": "retail"}, "name", 2.0) is None


# --------------------------------------------------------------------------
# Strategy 2: source perturbation
# --------------------------------------------------------------------------


def test_perturb_source_scalar_literal():
    src = "capacity = 500\nprint(capacity)\n"
    out = perturb_source(src, "capacity", 0.001)
    assert "capacity = 0.5" in out
    assert "print(capacity)" in out


def test_perturb_source_list_literal():
    src = "demand = [10, 20, 30]\n"
    out = perturb_source(src, "demand", 100.0)
    assert "demand = [1000" in out


def test_perturb_source_fuzzy_snake_camel():
    src = "coldCapacity = 40\n"
    out = perturb_source(src, "cold_capacity", 0.5)
    assert "coldCapacity = 20" in out


def test_perturb_source_token_subset():
    src = "max_capacity_per_dc = 100\n"
    out = perturb_source(src, "capacity", 0.01)
    assert "max_capacity_per_dc = 1" in out


def test_perturb_source_prefers_exact_match():
    src = "capacity_limit = 7\ncapacity = 100\n"
    out = perturb_source(src, "capacity", 2.0)
    assert "capacity = 200" in out
    assert "capacity_limit = 7" in out


@pytest.mark.parametrize("src,key,factor,name,expected", [
    ('data = {"cold_capacity": {"DC1": 4000}, "periods": 20}\n', "cold_capacity", 0.001,
     "data", {"cold_capacity": {"DC1": 4000 * 0.001}, "periods": 20}),
    ("production_cap = [800] * 20\n", "production_cap", 0.001,
     "production_cap", [800 * 0.001] * 20),
    ("demand = [100 for _ in range(20)]\n", "demand", 100.0, "demand", [100 * 100.0] * 20),
], ids=["dict_literal_key", "repetition_count", "range_argument"])
def test_perturb_source_scales_data_not_shape(src, key, factor, name, expected):
    scope = {}
    exec(perturb_source(src, key, factor), scope)
    assert scope[name] == expected


def test_perturb_source_no_match():
    assert perturb_source("x = 1\n", "capacity", 2.0) is None


def test_perturb_source_ignores_non_literal_assignments():
    assert perturb_source("capacity = compute()\n", "capacity", 2.0) is None


# --------------------------------------------------------------------------
# perturb_parameter dispatch
# --------------------------------------------------------------------------

# Candidate that honors data["capacity"]: objective shrinks when capacity does.
_USES_DATA = (
    "served = min(data['demand'], data['capacity'])\n"
    "print('status: 2')\n"
    "print(f\"objective: {served}\")\n"
)

# Candidate that reads data but hardcodes the capacity value.
_HARDCODES = (
    "capacity = 50\n"
    "served = min(data['demand'], capacity)\n"
    "print('status: 2')\n"
    "print(f\"objective: {served}\")\n"
)

_RECORD = {"demand": 100.0, "capacity": 50.0}


def test_strategy1_used_for_external_dict(runtime):
    prog = CandidateProgram(_USES_DATA, _RECORD)
    run = perturb_parameter(prog, "capacity", 0.001, runtime,
                            baseline_objective=50.0)
    assert run.strategy == "data"
    assert run.outcome.objective == pytest.approx(0.05)


def test_hybrid_fallback_to_source(runtime):
    prog = CandidateProgram(_HARDCODES, _RECORD)
    run = perturb_parameter(prog, "capacity", 0.001, runtime,
                            baseline_objective=50.0)
    # Data-side change moved nothing; the literal in source was scaled.
    assert run.strategy == "source"
    assert run.outcome.objective == pytest.approx(0.05)


def test_hybrid_keeps_data_result_when_source_lacks_literal(runtime):
    src = "served = data['demand'] * 0 + 7\nprint('status: 2')\nprint(f'objective: {served}')\n"
    prog = CandidateProgram(src, {"demand": 3.0})
    run = perturb_parameter(prog, "demand", 100.0, runtime,
                            baseline_objective=7.0)
    assert run.strategy == "data"
    assert run.outcome.objective == pytest.approx(7.0)


def test_self_contained_uses_source(runtime):
    src = "capacity = 500\nprint('status: 2')\nprint(f'objective: {capacity}')\n"
    prog = CandidateProgram(src)
    run = perturb_parameter(prog, "capacity", 0.001, runtime, baseline_objective=500.0)
    assert run.strategy == "source"
    assert run.outcome.objective == pytest.approx(0.5)


def test_parameter_not_found_anywhere(runtime):
    prog = CandidateProgram("print('status: 2')\nprint('objective: 1')\n")
    with pytest.raises(ParameterNotFound):
        perturb_parameter(prog, "ghost_param", 2.0, runtime, baseline_objective=1.0)


# --------------------------------------------------------------------------
# CPT / OPT classification behaviour
# --------------------------------------------------------------------------


def _constraint(param="capacity", kind="capacity"):
    return [Candidate(f"{param} limit", kind, (param,))]


def test_cpt_missing_constraint_warning(runtime):
    # Ignores capacity entirely: extreme perturbation moves nothing.
    src = "print('status: 2')\nprint(f\"objective: {data['demand']}\")\n"
    prog = CandidateProgram(src, _RECORD)
    diags = probe(CPT, prog, 100.0, _constraint(), runtime)
    assert len(diags) == 1
    assert diags[0].severity == WARNING
    assert diags[0].issue_type == "constraint_missing"
    assert "caused only 0.0% objective change" in diags[0].evidence


def test_cpt_present_constraint_passes(runtime):
    prog = CandidateProgram(_USES_DATA, _RECORD)
    diags = probe(CPT, prog, 50.0, _constraint(), runtime)
    assert diags[0].severity == PASS
    assert diags[0].issue_type == "constraint_present"


def test_pass_evidence_is_not_worded_as_a_shortfall(runtime):
    prog = CandidateProgram(_USES_DATA, _RECORD)
    diags = probe(CPT, prog, 50.0, _constraint(), runtime)
    assert diags[0].severity == PASS
    assert diags[0].evidence == "perturbation x0.001 caused 99.9% objective change"


def test_cpt_infeasible_outcome_passes(runtime):
    src = (
        "print('status: 3' if data['capacity'] < 1 else 'status: 2')\n"
        "print('objective: 10')\n"
    )
    prog = CandidateProgram(src, _RECORD)
    diags = probe(CPT, prog, 10.0, _constraint(), runtime)
    assert diags[0].severity == PASS
    assert "infeasible" in diags[0].evidence


def test_cpt_crash_is_inconclusive_info(runtime):
    src = "assert data['capacity'] >= 1\nprint('status: 2')\nprint('objective: 10')\n"
    prog = CandidateProgram(src, _RECORD)
    diags = probe(CPT, prog, 10.0, _constraint(), runtime)
    assert diags[0].severity == INFO
    assert diags[0].issue_type == "perturbation_inconclusive"


def test_cpt_unknown_parameter_skipped_with_info(runtime):
    prog = CandidateProgram(_USES_DATA, _RECORD)
    diags = probe(CPT, prog, 50.0,
                  [Candidate("phantom", "capacity", ("ghost",))],
                  runtime)
    assert diags[0].severity == INFO
    assert diags[0].issue_type == "parameter_not_found"


def test_cpt_respects_max_candidates(runtime):
    # The cap applies once, at extraction; the tester runs every candidate.
    entries = ",".join(
        f'{{"description": "c{i}", "type": "capacity", "parameters": ["capacity"]}}'
        for i in range(12)
    )
    llm = _client(lambda payload: f"[{entries}]" if "KEY CONSTRAINTS" in payload["user"] else "[]")
    prog = CandidateProgram(_USES_DATA, _RECORD)
    extraction = extract_candidates("p", list(_RECORD), llm)
    diags = run_l2(prog, 50.0, extraction, runtime)
    assert [d.target for d in diags] == [f"c{i}" for i in range(MAX_CANDIDATES)]


def test_opt_missing_term_warning(runtime):
    # Holding cost absent from the "objective": scaling it changes nothing.
    src = "print('status: 2')\nprint(f\"objective: {data['purchase_cost'] * 10}\")\n"
    prog = CandidateProgram(src, {"purchase_cost": 5.0, "holding_cost": 2.0})
    terms = [Candidate("holding cost", "cost", ("holding_cost",))]
    diags = probe(OPT, prog, 50.0, terms, runtime)
    assert diags[0].severity == WARNING
    assert diags[0].issue_type == "objective_term_missing"


def test_opt_present_term_passes(runtime):
    src = "print('status: 2')\nprint(f\"objective: {data['purchase_cost'] * 10}\")\n"
    prog = CandidateProgram(src, {"purchase_cost": 5.0})
    terms = [Candidate("purchasing cost", "cost", ("purchase_cost",))]
    diags = probe(OPT, prog, 50.0, terms, runtime)
    assert diags[0].severity == PASS


def test_opt_infeasible_outcome_skipped(runtime):
    src = "print('status: 3')\n"
    prog = CandidateProgram(src, {"purchase_cost": 1.0})
    terms = [Candidate("cost", "cost", ("purchase_cost",))]
    diags = probe(OPT, prog, 10.0, terms, runtime)
    assert diags == []  # skipped, no diagnostic at all


def test_run_l2_extraction_failure_degrades_to_info(runtime):
    prog = CandidateProgram(_USES_DATA, _RECORD)
    llm = _client(lambda payload: "I cannot help with that")
    extraction = extract_candidates("problem", list(_RECORD), llm)
    diags = run_l2(prog, 50.0, extraction, runtime)
    assert {d.issue_type for d in diags} == {"extraction_failed"}
    assert all(d.severity == INFO for d in diags)


def test_run_l2_full_pass(runtime):
    def scripted(payload):
        if "KEY CONSTRAINTS" in payload["user"]:
            return '[{"description": "capacity limit", "type": "capacity", "parameters": ["capacity"]}]'
        return '[{"description": "demand value", "role": "cost", "parameters": ["demand"]}]'

    prog = CandidateProgram(_USES_DATA, _RECORD)
    extraction = extract_candidates("problem", list(_RECORD), _client(scripted))
    diags = run_l2(prog, 50.0, extraction, runtime)
    layers = {d.layer for d in diags}
    assert layers == {"L2_CPT", "L2_OPT"}


# Reads the record, but ``shelf`` is hardcoded: only its source literal moves
# the objective.  A ``floor`` below 1 makes the model infeasible.
_MIXED = (
    "shelf = 60\n"
    "if data['floor'] < 1:\n"
    "    print('status: 3')\n"
    "else:\n"
    "    print('status: 2')\n"
    "    print(f\"objective: {min(data['demand'], data['capacity']) + shelf}\")\n"
)
_MIXED_RECORD = {"demand": 100.0, "capacity": 80.0, "shelf": 60.0, "floor": 5.0}


def test_run_l2_mixed_pass_matches_sequential_diagnostics(tmp_path):
    failed = Diagnostic("L2_OPT", INFO, "extraction_failed", "objective terms",
                        "objective-term extraction produced no usable list (no reply); OPT skipped")
    extraction = [
        (CPT, [
            Candidate("capacity limit", "capacity", ("ghost_cap", "capacity")),
            Candidate("shelf space", "other", ("shelf",)),
            Candidate("phantom limit", "capacity", ("ghost",)),
            Candidate("floor space", "capacity", ("floor",)),
        ]),
        (OPT, failed),
    ]
    runtime = CandidateRuntime(artifact_root=tmp_path)
    diags = run_l2(CandidateProgram(_MIXED, _MIXED_RECORD), 140.0, extraction, runtime)
    assert diags == [
        Diagnostic("L2_CPT", PASS, "constraint_present", "capacity limit",
                   "perturbation x0.001 caused 57.1% objective change"),
        Diagnostic("L2_CPT", PASS, "constraint_present", "shelf space",
                   "perturbation x0.01 caused 42.4% objective change"),
        Diagnostic("L2_CPT", INFO, "parameter_not_found", "phantom limit",
                   "none of the listed parameters ['ghost'] could be located; test skipped"),
        Diagnostic("L2_CPT", PASS, "constraint_present", "floor space",
                   "perturbation x0.001 made the model infeasible; component is enforced"),
        failed,
    ]
    assert sorted(d.name for d in tmp_path.iterdir()) == [
        "l2_cpt_0", "l2_cpt_1", "l2_cpt_1_src", "l2_cpt_3"]
