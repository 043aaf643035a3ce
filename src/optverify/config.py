"""Pipeline configuration: the settings a caller may change per run.

Defaults are the reference operating point: 60 s candidate timeout, 3
regeneration attempts, repair budget 3, 4% regression guard.
The graduated L2 thresholds and the candidate cap are fixed constants of
the layers that use them (``diagnostics.MISSING_THRESHOLD``,
``diagnostics.UNCERTAIN_THRESHOLD``, ``l2.MAX_CANDIDATES``).  The regression
guard must stay strictly below the missing-threshold so repair drift is
caught before it reaches the detection boundary.

:func:`read_settings` loads this config's ``--config`` file and the
provider's ``--provider`` file alike.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, TypeVar

from .diagnostics import MISSING_THRESHOLD
from .errors import ConfigError
from .runtime import DEFAULT_TIMEOUT_S

_Settings = TypeVar("_Settings")


def read_settings(cls: type[_Settings], path: str | Path, kind: str) -> _Settings:
    """``cls`` built from the JSON object in ``path``, over its defaults.

    Each key must name a field of ``cls`` ("unknown <kind> key" otherwise)
    and each value have its default's type: an int is accepted for a float,
    a bool for neither.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{kind} file must hold a JSON object")
    defaults = asdict(cls())
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown {kind} key: {key}")
        expected = type(defaults[key])
        accepted = (int, float) if expected is float else (expected,)
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(
                f"{key} must be {expected.__name__}, not {type(value).__name__}")
    return cls(**raw)


@dataclass(frozen=True)
class PipelineConfig:
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_regenerations: int = 3
    repair_budget: int = 3
    regression_threshold: float = 0.04

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive")
        if self.max_regenerations < 0 or self.repair_budget < 0:
            raise ConfigError("budgets must be non-negative")
        if not 0 < self.regression_threshold < MISSING_THRESHOLD:
            raise ConfigError(
                f"regression_threshold must lie in (0, {MISSING_THRESHOLD})")

    def override(self, **kwargs: Any) -> "PipelineConfig":
        merged = asdict(self)
        merged.update({k: v for k, v in kwargs.items() if v is not None})
        return PipelineConfig(**merged)


DEFAULT_CONFIG = PipelineConfig()
