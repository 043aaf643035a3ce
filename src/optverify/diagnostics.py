"""Unified diagnostics: severity semantics and the graduated classifier.

Severity drives action: Fatal means the program cannot be trusted at all and
is handled by regeneration; Warning means a component is likely missing and
triggers targeted repair; Info is logged for reference only; Pass confirms a
component responded.  ``triggers_repair`` is derived, never set by hand:
exactly the Warnings repair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

FATAL = "fatal"
WARNING = "warning"
INFO = "info"
PASS = "pass"
SEVERITIES = (FATAL, WARNING, INFO, PASS)

LAYER_L1 = "L1"
LAYER_CPT = "L2_CPT"
LAYER_OPT = "L2_OPT"

VERIFIED = "verified"
NEEDS_REPAIR = "needs_repair"
FAILED = "failed"

MISSING_THRESHOLD = 0.05   # below: component likely missing
UNCERTAIN_THRESHOLD = 0.30  # buffer zone upper edge (inclusive)

SMALL_OBJECTIVE_EPS = 1e-6


@dataclass(frozen=True)
class Diagnostic:
    layer: str
    severity: str
    issue_type: str
    target: str
    evidence: str
    triggers_repair: bool = field(init=False)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        object.__setattr__(self, "triggers_repair", self.severity == WARNING)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "layer": self.layer,
            "severity": self.severity,
            "issue_type": self.issue_type,
            "target": self.target,
            "evidence": self.evidence,
            "triggers_repair": self.triggers_repair,
        }


def classify_change_ratio(
    r: float,
    caused_infeasible: bool = False,
    tau_low: float = MISSING_THRESHOLD,
    tau_high: float = UNCERTAIN_THRESHOLD,
) -> str:
    """Map an objective change ratio to a severity.

    Infeasibility under perturbation proves the component is enforced, so it
    passes outright.  Otherwise: r < tau_low means the perturbed parameter
    barely moved the objective (component likely missing, Warning); the
    closed buffer tau_low <= r <= tau_high is uncertain (Info); anything
    larger confirms presence (Pass).
    """
    if r < 0:
        raise ValueError("change ratio must be non-negative")
    if caused_infeasible:
        return PASS
    if r < tau_low:
        return WARNING
    if r <= tau_high:
        return INFO
    return PASS


def change_ratio(z_new: float, z_base: float) -> float:
    """|z_new - z_base| / |z_base|, falling back to absolute change near zero."""
    delta = abs(z_new - z_base)
    if abs(z_base) < SMALL_OBJECTIVE_EPS:
        return delta
    return delta / abs(z_base)


@dataclass
class VerificationReport:
    diagnostics: list[Diagnostic]
    baseline_objective: float | None
    status: str = field(init=False)

    def __post_init__(self):
        self.status = self._derive_status()

    def _derive_status(self) -> str:
        severities = {d.severity for d in self.diagnostics}
        if FATAL in severities:
            return FAILED
        if WARNING in severities:
            return NEEDS_REPAIR
        return VERIFIED

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "baseline_objective": self.baseline_objective,
            "diagnostics": [d.to_json_dict() for d in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"
