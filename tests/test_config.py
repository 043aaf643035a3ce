from __future__ import annotations

import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from optverify.config import DEFAULT_CONFIG, PipelineConfig, read_settings
from optverify.diagnostics import MISSING_THRESHOLD, UNCERTAIN_THRESHOLD
from optverify.errors import ConfigError
from optverify.l2 import MAX_CANDIDATES


def test_defaults_mirror_reference_operating_point():
    c = DEFAULT_CONFIG
    assert c.timeout_s == 60.0
    assert c.max_regenerations == 3
    assert c.repair_budget == 3
    assert c.regression_threshold == 0.04
    # Fixed by the layers that use them, not set per run.
    assert MISSING_THRESHOLD == 0.05
    assert UNCERTAIN_THRESHOLD == 0.30
    assert MAX_CANDIDATES == 10


def _load(tmp_path, raw) -> PipelineConfig:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return read_settings(PipelineConfig, path, "configuration")


def test_from_dict_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        _load(tmp_path, {"timeout_secs": 45})


def test_from_file(tmp_path):
    c = _load(tmp_path, {"repair_budget": 1, "max_regenerations": 2})
    assert c.repair_budget == 1
    assert c.max_regenerations == 2


def test_from_file_rejects_non_object(tmp_path):
    with pytest.raises(ConfigError):
        _load(tmp_path, [1, 2])


def test_validation_guards(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig(timeout_s=0)
    with pytest.raises(ConfigError):
        PipelineConfig(repair_budget=-1)
    with pytest.raises(ConfigError, match="unknown configuration key"):
        _load(tmp_path, {"max_candidates": 0})


@pytest.mark.parametrize("raw", [
    {"timeout_s": "60"},
    {"repair_budget": None},
    {"max_regenerations": 2.5},
    {"repair_budget": True},
    {"regression_threshold": False},
], ids=["str_float", "null_int", "float_int", "bool_int", "bool_float"])
def test_from_dict_rejects_wrong_types(tmp_path, raw):
    with pytest.raises(ConfigError, match=f"{next(iter(raw))} must be"):
        _load(tmp_path, raw)


def test_int_accepted_for_float_field(tmp_path):
    assert _load(tmp_path, {"timeout_s": 45}).timeout_s == 45


def test_override_returns_new_config():
    c = DEFAULT_CONFIG.override(repair_budget=5, max_regenerations=None)
    assert c.repair_budget == 5
    assert c.max_regenerations == DEFAULT_CONFIG.max_regenerations
    assert DEFAULT_CONFIG.repair_budget == 3


def test_readme_config_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Pipeline config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == asdict(DEFAULT_CONFIG)


def test_every_config_field_is_read():
    # A setting that no layer reads is a knob that does nothing.
    src = Path(__file__).resolve().parents[1] / "src" / "optverify"
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted(src.glob("*.py")) if p.name != "config.py")
    unread = [f.name for f in fields(PipelineConfig)
              if not re.search(rf"\bconfig\.{f.name}\b", text)]
    assert unread == []
