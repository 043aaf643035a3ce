from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from optverify.diagnostics import (
    FAILED,
    FATAL,
    INFO,
    LAYER_CPT,
    LAYER_L1,
    NEEDS_REPAIR,
    PASS,
    VERIFIED,
    WARNING,
    Diagnostic,
    VerificationReport,
    change_ratio,
    classify_change_ratio,
)


@pytest.mark.parametrize("r,expected", [
    (0.003, WARNING),
    (0.0499, WARNING),
    (0.05, INFO),     # closed buffer edge
    (0.10, INFO),
    (0.30, INFO),     # closed buffer edge
    (0.31, PASS),
    (5.0, PASS),
    (0.0, WARNING),
])
def test_classifier_table(r, expected):
    assert classify_change_ratio(r) == expected


def test_negative_ratio_rejected():
    with pytest.raises(ValueError):
        classify_change_ratio(-0.1)


_RANK = {WARNING: 0, INFO: 1, PASS: 2}


@given(st.floats(min_value=0, max_value=2), st.floats(min_value=0, max_value=2))
def test_classifier_monotone(r1, r2):
    lo, hi = sorted((r1, r2))
    assert _RANK[classify_change_ratio(lo)] <= _RANK[classify_change_ratio(hi)]


def test_change_ratio_relative_and_absolute():
    assert change_ratio(110.0, 100.0) == pytest.approx(0.1)
    # Near-zero baselines switch to absolute change.
    assert change_ratio(0.5, 1e-9) == pytest.approx(0.5)
    assert change_ratio(0.5, 0.0) == pytest.approx(0.5)


def test_triggers_repair_derived():
    warn = Diagnostic(LAYER_CPT, WARNING, "constraint_missing", "cap", "r=0.1%")
    info = Diagnostic(LAYER_CPT, INFO, "constraint_uncertain", "cap", "r=10%")
    fatal = Diagnostic(LAYER_L1, FATAL, "infeasible", "model", "IIS: a, b")
    ok = Diagnostic(LAYER_CPT, PASS, "constraint_present", "cap", "r=50%")
    assert warn.triggers_repair
    assert not info.triggers_repair
    assert not fatal.triggers_repair  # Fatal regenerates, never repairs
    assert not ok.triggers_repair


def test_unknown_severity_rejected():
    with pytest.raises(ValueError):
        Diagnostic(LAYER_CPT, "catastrophic", "x", "y", "z")


def test_report_status_derivation():
    warn = Diagnostic(LAYER_CPT, WARNING, "t", "x", "e")
    info = Diagnostic(LAYER_CPT, INFO, "t", "x", "e")
    fatal = Diagnostic(LAYER_L1, FATAL, "t", "x", "e")
    assert VerificationReport([], 1.0).status == VERIFIED
    assert VerificationReport([info], 1.0).status == VERIFIED
    assert VerificationReport([info, warn], 1.0).status == NEEDS_REPAIR
    assert VerificationReport([warn, fatal], None).status == FAILED


def test_report_serialization_stable():
    report = VerificationReport(
        [Diagnostic(LAYER_CPT, WARNING, "constraint_missing", "storage",
                    "perturbation x0.001 caused only 0.3% objective change")],
        1234.5,
    )
    payload = report.to_json_dict()
    assert payload["status"] == NEEDS_REPAIR
    assert payload["objective"] == 1234.5
    diag = payload["diagnostics"][0]
    assert set(diag) == {"layer", "severity", "issue_type", "target",
                         "evidence", "triggers_repair"}
    assert json.loads(json.dumps(payload)) == payload == report.to_json_dict()
