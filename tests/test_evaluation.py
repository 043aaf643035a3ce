from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from optverify.errors import EmptySuite
from optverify.evaluation import (
    EvalRecord,
    aggregate,
    build_record,
    judge,
    normalize_pred_status,
    read_records,
    render_table,
    silent_failure_metrics,
    tolerance_for,
    write_records,
)


def test_judge_basic_cases():
    assert judge("feasible", 100.5, "optimal", 100.0, 1e-2) is True   # 0.5% < 1%
    assert judge("infeasible", None, "infeasible", None, 1e-4) is True
    assert judge("feasible", 100.0, "infeasible", None, 1e-2) is False
    assert judge("infeasible", None, "optimal", 100.0, 1e-2) is False
    assert judge("feasible", 102.0, "optimal", 100.0, 1e-2) is False  # 2% >= 1%
    assert judge(None, None, "optimal", 100.0, 1e-2) is False


def test_judge_zero_reference_uses_absolute():
    assert judge("feasible", 5e-5, "optimal", 0.0, 1e-4) is True
    assert judge("feasible", 0.5, "optimal", 0.0, 1e-4) is False


def test_tolerance_table():
    assert tolerance_for("F3", "strict") == 1e-4
    assert tolerance_for("F3", "practical") == 1e-2
    assert tolerance_for("F6", "strict") == 1e-2
    assert tolerance_for("F6", "practical") == 1e-2


def test_normalize_pred_status():
    assert normalize_pred_status(2, 10.0) == "feasible"
    assert normalize_pred_status(2, None) is None
    assert normalize_pred_status(3, None) == "infeasible"
    assert normalize_pred_status(9, 10.0) is None
    assert normalize_pred_status(None, None) is None


def test_silent_failure_metrics_published_example():
    gap, rate = silent_failure_metrics(72.1, 22.6)
    assert gap == pytest.approx(49.5, abs=1e-9)
    assert rate == pytest.approx(0.687, abs=5e-4)


def test_silent_failure_zero_exec():
    gap, rate = silent_failure_metrics(0.0, 0.0)
    assert gap == 0.0
    assert rate is None


def _record(name, family, *, execd=True, pred="feasible", y_pred=100.0,
            gt="optimal", y_ref=100.0):
    return build_record(
        name, family,
        executed=execd, pred_status=pred, y_pred=y_pred,
        gt_status=gt, y_ref=y_ref)


def test_build_record_tiers_differ():
    # 0.5% error: wrong at strict 1e-4, right at practical 1e-2.
    r = _record("i1", "F1", y_pred=100.5)
    assert r.rel_err == pytest.approx(0.005)
    assert not r.correct_strict
    assert r.correct_practical


def test_build_record_f6_uses_loose_tier_for_both():
    r = build_record("i2", "F6", executed=True,
                     pred_status="feasible", y_pred=100.5,
                     gt_status="time_limit", y_ref=100.0)
    assert r.correct_strict and r.correct_practical


def test_aggregate_counts_and_families():
    records = (
        [_record(f"a{i}", "F1") for i in range(3)]
        + [_record(f"b{i}", "F2", y_pred=150.0) for i in range(2)]  # silent failures
        + [_record("c0", "F2", execd=False, pred=None, y_pred=None)]
    )
    report = aggregate(records)
    assert report.count == 6
    assert report.exec_pct == pytest.approx(100 * 5 / 6)
    assert report.acc_strict_pct == pytest.approx(50.0)
    fam = {row.family: row for row in report.families}
    assert fam["F1"].count == 3
    assert fam["F2"].count == 3
    assert sum(row.count for row in report.families) == report.count
    assert report.sf_gap_strict == pytest.approx(report.exec_pct - 50.0)


def test_aggregate_all_correct():
    report = aggregate([_record(f"x{i}", "F1") for i in range(4)])
    assert report.sf_gap_strict == 0.0
    assert report.sf_rate_strict == 0.0


def test_aggregate_empty():
    with pytest.raises(EmptySuite):
        aggregate([])


def test_aggregate_zero_exec_rate_absent():
    records = [_record("x", "F1", execd=False, pred=None, y_pred=None)]
    report = aggregate(records)
    assert report.exec_pct == 0.0
    assert report.sf_rate_strict is None


@given(st.lists(
    st.tuples(
        st.booleans(),                                  # executed+feasible
        st.floats(min_value=0, max_value=0.2),          # relative error
    ),
    min_size=1, max_size=60,
))
def test_tier_nesting_property(cases):
    records = []
    for i, (feasible, err) in enumerate(cases):
        records.append(build_record(
            f"i{i}", "F1",
            executed=feasible,
            pred_status="feasible" if feasible else None,
            y_pred=100.0 * (1 + err) if feasible else None,
            gt_status="optimal", y_ref=100.0,
        ))
    report = aggregate(records)
    assert report.acc_strict_pct <= report.acc_practical_pct + 1e-9
    assert report.acc_practical_pct <= report.exec_pct + 1e-9


def test_judging_order_independent():
    records = [_record(f"i{k}", "F1", y_pred=100.0 + k) for k in range(5)]
    a = aggregate(records)
    b = aggregate(list(reversed(records)))
    assert a.exec_pct == b.exec_pct
    assert a.acc_strict_pct == b.acc_strict_pct


def test_jsonl_roundtrip(tmp_path):
    records = [_record("i1", "F1"), _record("i2", "F6", y_pred=101.0)]
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    back = read_records(path)
    assert back == records


def test_render_table_layout():
    records = [_record("i1", "F1"), _record("i2", "F2", y_pred=130.0)]
    text = render_table(aggregate(records))
    assert "Family" in text and "Total" in text
    assert "F1" in text and "F2" in text
    assert "Silent failures" in text


def test_render_table_eight_family_rows():
    sizes = {"F1": 20, "F2": 30, "F3": 20, "F4": 30,
             "F5": 20, "F6": 20, "F7": 30, "F8": 20}
    records = [
        _record(f"{fam}_{i}", fam, y_pred=100.0 if i % 2 else 140.0)
        for fam, n in sizes.items() for i in range(n)
    ]
    report = aggregate(records)
    assert [row.family for row in report.families] == list(sizes)
    assert {row.family: row.count for row in report.families} == sizes
    table = render_table(report)
    body = [ln for ln in table.splitlines() if ln[:2] in sizes or ln.startswith("Total")]
    assert len(body) == 9  # eight family rows plus the totals row
