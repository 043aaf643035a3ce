from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from optverify.config import DEFAULT_CONFIG, PipelineConfig
from optverify.errors import ConfigError


def test_defaults_mirror_reference_operating_point():
    c = DEFAULT_CONFIG
    assert c.timeout_s == 60.0
    assert c.max_regenerations == 3
    assert c.missing_threshold == 0.05
    assert c.uncertain_threshold == 0.30
    assert c.max_candidates == 10
    assert c.repair_budget == 3
    assert c.regression_threshold == 0.04


def test_from_dict_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        PipelineConfig.from_dict({"timeout_secs": 45})


def test_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"repair_budget": 1, "workers": 2}))
    c = PipelineConfig.from_file(path)
    assert c.repair_budget == 1
    assert c.workers == 2


def test_from_file_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(path)


def test_validation_guards():
    with pytest.raises(ConfigError):
        PipelineConfig(timeout_s=0)
    with pytest.raises(ConfigError):
        PipelineConfig(repair_budget=-1)
    with pytest.raises(ConfigError):
        PipelineConfig(max_candidates=0)


@pytest.mark.parametrize("raw", [
    {"timeout_s": "60"},
    {"repair_budget": None},
    {"workers": 2.5},
    {"workers": True},
    {"missing_threshold": False},
], ids=["str_float", "null_int", "float_int", "bool_int", "bool_float"])
def test_from_dict_rejects_wrong_types(raw):
    with pytest.raises(ConfigError, match=f"{next(iter(raw))} must be"):
        PipelineConfig.from_dict(raw)


def test_int_accepted_for_float_field():
    assert PipelineConfig.from_dict({"timeout_s": 45}).timeout_s == 45


def test_override_returns_new_config():
    c = DEFAULT_CONFIG.override(repair_budget=5, workers=None)
    assert c.repair_budget == 5
    assert c.workers == DEFAULT_CONFIG.workers
    assert DEFAULT_CONFIG.repair_budget == 3


def test_readme_config_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Pipeline config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert json.loads(block) == DEFAULT_CONFIG.to_json_dict()
