"""Unified diagnostics: severity semantics and the graduated classifier.

Severity drives action: Fatal means the program cannot be trusted at all and
is handled by regeneration; Warning means a component is likely missing and
triggers targeted repair; Info is logged for reference only; Pass confirms a
component responded.  ``triggers_repair`` is derived, never set by hand:
exactly the Warnings repair.  So is a report's status: its worst severity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def triggers_repair(self) -> bool:
        return self.severity == WARNING

    def to_json_dict(self) -> dict[str, Any]:
        return {**asdict(self), "triggers_repair": self.triggers_repair}


def classify_change_ratio(r: float) -> str:
    """Map an objective change ratio to a severity.

    r < MISSING_THRESHOLD means the perturbed parameter barely moved the
    objective (component likely missing, Warning); the closed buffer up to
    UNCERTAIN_THRESHOLD is uncertain (Info); anything larger confirms
    presence (Pass).  The thresholds are constants: a pure function of the
    recorded ratio can be swept offline, and the constants edited after.
    """
    if r < 0:
        raise ValueError("change ratio must be non-negative")
    if r < MISSING_THRESHOLD:
        return WARNING
    if r <= UNCERTAIN_THRESHOLD:
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
    objective: float | None

    @property
    def status(self) -> str:
        severities = {d.severity for d in self.diagnostics}
        if FATAL in severities:
            return FAILED
        if WARNING in severities:
            return NEEDS_REPAIR
        return VERIFIED

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "objective": self.objective,
            "diagnostics": [d.to_json_dict() for d in self.diagnostics],
        }
