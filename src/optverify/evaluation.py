"""Judging and aggregation of candidate outcomes against ground truth.

An instance counts as correct when the feasibility status matches ground
truth and (for feasible pairs) the relative objective error clears the
tier's tolerance.  Two silent-failure metrics are reported side by side
because both are in circulation: the gap (Exec% minus Acc%, percentage
points) and the rate (gap divided by Exec%, a fraction of seemingly
successful runs).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from .backend import MIP_GAP
from .errors import ConfigError, EmptySuite

STRICT = "strict"
PRACTICAL = "practical"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8")

# Retail tiers; the discrete-logistics family is judged at the solver's MIP
# gap at both tiers, because its ground truth is certified to no closer.
_RETAIL_TOLERANCES = {STRICT: 1e-4, PRACTICAL: 1e-2}
_RETAIL_MIP_FAMILY = "F6"

ZERO_REF_EPS = 1e-9


@dataclass
class EvalRecord:
    """What one run and its ground truth observed; the relative error and
    both verdicts are derived."""

    instance: str
    family: str
    executed: bool
    pred_status: str | None
    y_pred: float | None
    gt_status: str
    y_ref: float | None

    @property
    def rel_err(self) -> float | None:
        if self.y_pred is None or self.y_ref is None:
            return None
        return relative_error(self.y_pred, self.y_ref)

    @property
    def correct_strict(self) -> bool:
        return judge(self.pred_status, self.y_pred, self.gt_status, self.y_ref,
                     tolerance_for(self.family, STRICT))

    @property
    def correct_practical(self) -> bool:
        return judge(self.pred_status, self.y_pred, self.gt_status, self.y_ref,
                     tolerance_for(self.family, PRACTICAL))

    def to_json_dict(self) -> dict[str, Any]:
        return {**asdict(self), "rel_err": self.rel_err,
                "correct_strict": self.correct_strict,
                "correct_practical": self.correct_practical}


def tolerance_for(family: str | None, tier: str) -> float:
    """Tolerance epsilon for (family, tier): strict 1e-4 / practical 1e-2,
    except the MIP family F6 at ``backend.MIP_GAP`` for both tiers."""
    if tier not in (STRICT, PRACTICAL):
        raise ValueError(f"unknown tier {tier!r}")
    if family == _RETAIL_MIP_FAMILY:
        return MIP_GAP
    return _RETAIL_TOLERANCES[tier]


def is_objective(value: Any) -> bool:
    """Whether ``value`` can stand for an objective: None or a number, not a bool."""
    return value is None or isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_error(y_pred: float, y_ref: float) -> float:
    """|y_pred - y_ref| / |y_ref|; absolute error when the reference is ~0."""
    if abs(y_ref) < ZERO_REF_EPS:
        return abs(y_pred - y_ref)
    return abs(y_pred - y_ref) / abs(y_ref)


def judge(
    pred_status: str | None,
    y_pred: float | None,
    gt_status: str,
    y_ref: float | None,
    eps: float,
) -> bool:
    """True iff status matches and, for feasible pairs, rel. error < eps."""
    gt_feasible = gt_status != INFEASIBLE
    if pred_status == INFEASIBLE and not gt_feasible:
        return True
    if pred_status != FEASIBLE or not gt_feasible:
        return False
    if y_pred is None or y_ref is None:
        return False
    return relative_error(y_pred, y_ref) < eps


def normalize_pred_status(status_code: int | None, objective: float | None) -> str | None:
    """Candidate contract integers to judge-side statuses."""
    if status_code == 2 and objective is not None:
        return FEASIBLE
    if status_code == 3:
        return INFEASIBLE
    return None


def build_record(
    instance: str,
    family: str,
    *,
    executed: bool,
    pred_status: str | None,
    y_pred: float | None,
    gt_status: str,
    y_ref: float | None,
) -> EvalRecord:
    return EvalRecord(instance, family, executed, pred_status, y_pred, gt_status, y_ref)


def silent_failure_metrics(exec_pct: float, acc_pct: float) -> tuple[float, float | None]:
    """(gap, rate): gap = Exec% - Acc%; rate = gap / Exec% (None when Exec 0)."""
    gap = exec_pct - acc_pct
    rate = gap / exec_pct if exec_pct > 0 else None
    return gap, rate


@dataclass
class FamilyRow:
    family: str
    count: int
    exec_pct: float
    acc_strict_pct: float
    acc_practical_pct: float


@dataclass
class SuiteReport:
    """Suite-level Exec% and Acc% plus the per-family table; the
    silent-failure gap and rate are derived."""

    count: int
    exec_pct: float
    acc_strict_pct: float
    acc_practical_pct: float
    families: list[FamilyRow]

    @property
    def sf_gap_strict(self) -> float:
        return silent_failure_metrics(self.exec_pct, self.acc_strict_pct)[0]

    @property
    def sf_gap_practical(self) -> float:
        return silent_failure_metrics(self.exec_pct, self.acc_practical_pct)[0]

    @property
    def sf_rate_strict(self) -> float | None:
        return silent_failure_metrics(self.exec_pct, self.acc_strict_pct)[1]

    @property
    def sf_rate_practical(self) -> float | None:
        return silent_failure_metrics(self.exec_pct, self.acc_practical_pct)[1]


def _percentages(group: list[EvalRecord]) -> tuple[float, float, float]:
    """Exec%, strict Acc% and practical Acc% of ``group``."""
    m = len(group)
    return (100.0 * sum(1 for r in group if r.executed and r.pred_status == FEASIBLE) / m,
            100.0 * sum(1 for r in group if r.correct_strict) / m,
            100.0 * sum(1 for r in group if r.correct_practical) / m)


def aggregate(records: Iterable[EvalRecord]) -> SuiteReport:
    """Suite-level metrics plus the per-family table."""
    records = list(records)
    if not records:
        raise EmptySuite("no evaluation records to aggregate")
    rows = []
    present = sorted({r.family for r in records},
                     key=lambda f: (FAMILIES.index(f) if f in FAMILIES else 99, f))
    for fam in present:
        group = [r for r in records if r.family == fam]
        rows.append(FamilyRow(fam, len(group), *_percentages(group)))
    return SuiteReport(len(records), *_percentages(records), rows)


def render_table(report: SuiteReport) -> str:
    """Plain-text per-family table with a totals row."""
    header = f"{'Family':<10}{'#':>5}{'Exec%':>9}{'Acc%(1e-4)':>12}{'Acc%(1e-2)':>12}"
    lines = [header, "-" * len(header)]
    for row in report.families:
        lines.append(
            f"{row.family:<10}{row.count:>5}{row.exec_pct:>9.1f}"
            f"{row.acc_strict_pct:>12.1f}{row.acc_practical_pct:>12.1f}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<10}{report.count:>5}{report.exec_pct:>9.1f}"
        f"{report.acc_strict_pct:>12.1f}{report.acc_practical_pct:>12.1f}"
    )
    rate_s = "n/a" if report.sf_rate_strict is None else f"{report.sf_rate_strict:.3f}"
    rate_p = "n/a" if report.sf_rate_practical is None else f"{report.sf_rate_practical:.3f}"
    lines.append("")
    lines.append(
        f"Silent failures: gap {report.sf_gap_strict:.1f}pp (strict) / "
        f"{report.sf_gap_practical:.1f}pp (practical); "
        f"rate {rate_s} (strict) / {rate_p} (practical)"
    )
    return "\n".join(lines) + "\n"


def write_records(records: Iterable[EvalRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")


def read_records(path: str | Path) -> list[EvalRecord]:
    """The records of an ``eval.jsonl``; an unreadable file or line raises
    ``ConfigError`` naming it."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            # The stored rel_err and verdicts are not read: they are judged again.
            raw: Mapping[str, Any] = json.loads(line)
            record = EvalRecord(**{f.name: raw[f.name] for f in fields(EvalRecord)})
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}, line {n}: not an evaluation record: {exc!r}") from None
        for name in ("y_pred", "y_ref"):
            if not is_objective(raw[name]):
                raise ConfigError(f"{path}, line {n}: instance {record.instance}: "
                                  f"{name} is not a number: {raw[name]!r}")
        records.append(record)
    return records
