"""Pipeline configuration: one record holding every tunable threshold.

Defaults are the reference operating point: 60 s candidate timeout, 3
regeneration attempts, 5%/30% graduated thresholds, 10 candidates per
extraction (each defined by the layer that uses it), repair budget 3, 4%
regression guard.  The regression guard must stay strictly below the
missing-threshold so repair drift is caught before it reaches the detection
boundary.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .diagnostics import MISSING_THRESHOLD, UNCERTAIN_THRESHOLD
from .errors import ConfigError
from .l1 import MAX_REGENERATIONS
from .l2 import MAX_CANDIDATES
from .runtime import DEFAULT_TIMEOUT_S


@dataclass(frozen=True)
class PipelineConfig:
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_regenerations: int = MAX_REGENERATIONS
    missing_threshold: float = MISSING_THRESHOLD
    uncertain_threshold: float = UNCERTAIN_THRESHOLD
    max_candidates: int = MAX_CANDIDATES
    repair_budget: int = 3
    regression_threshold: float = 0.04
    workers: int = 1

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        if self.max_regenerations < 0 or self.repair_budget < 0:
            raise ConfigError("budgets must be non-negative")
        if not 0 < self.missing_threshold <= self.uncertain_threshold:
            raise ConfigError(
                "thresholds must satisfy 0 < missing_threshold <= uncertain_threshold")
        if not 0 < self.regression_threshold < self.missing_threshold:
            raise ConfigError(
                "regression_threshold must lie strictly below missing_threshold")
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown configuration key: {key}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        text = Path(path).read_text(encoding="utf-8")
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(raw)

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)

    def override(self, **kwargs: Any) -> "PipelineConfig":
        merged = asdict(self)
        merged.update({k: v for k, v in kwargs.items() if v is not None})
        return PipelineConfig(**merged)


DEFAULT_CONFIG = PipelineConfig()
