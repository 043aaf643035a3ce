"""The benchmark's tracer wraps program functions at the names their callers
look up; every one of those names must still be an attribute of its owner,
or ``perfbench/run.py --trace 1`` fails at install time."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("owner,attr,name,site", TARGETS,
                         ids=[f"{name}@{site}" for _, _, name, site in TARGETS])
def test_traced_name_is_owned(owner, attr, name, site):
    assert attr in owner.__dict__, f"{owner.__name__} has no attribute {attr!r} of its own"
