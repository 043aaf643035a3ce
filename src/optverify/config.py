"""Pipeline configuration: the settings a caller may change per run.

Defaults are the reference operating point: 60 s candidate timeout, 3
regeneration attempts, repair budget 3, 4% regression guard, one worker.
The graduated L2 thresholds and the candidate cap are fixed constants of
the layers that use them (``diagnostics.MISSING_THRESHOLD``,
``diagnostics.UNCERTAIN_THRESHOLD``, ``l2.MAX_CANDIDATES``).  The regression
guard must stay strictly below the missing-threshold so repair drift is
caught before it reaches the detection boundary.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .diagnostics import MISSING_THRESHOLD
from .errors import ConfigError
from .runtime import DEFAULT_TIMEOUT_S

# Accepted value types per annotation; bool is rejected although it is an int.
_FIELD_TYPES = {"int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class PipelineConfig:
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_regenerations: int = 3
    repair_budget: int = 3
    regression_threshold: float = 0.04
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, not {type(value).__name__}")
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        if self.max_regenerations < 0 or self.repair_budget < 0:
            raise ConfigError("budgets must be non-negative")
        if not 0 < self.regression_threshold < MISSING_THRESHOLD:
            raise ConfigError(
                f"regression_threshold must lie in (0, {MISSING_THRESHOLD})")
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
