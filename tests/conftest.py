from __future__ import annotations

import pytest

from optverify.generator import base_raw, build_instance
from optverify.runtime import CandidateRuntime
from optverify.scenario import validate_instance


@pytest.fixture(scope="session")
def base():
    return validate_instance(base_raw())


@pytest.fixture()
def raw_base():
    return base_raw()


@pytest.fixture(scope="session")
def runtime():
    return CandidateRuntime()


@pytest.fixture(scope="session")
def f3_bottleneck_v0():
    return build_instance("f3_storage_bottleneck", 0)
