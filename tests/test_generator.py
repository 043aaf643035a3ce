from __future__ import annotations

import hashlib
import json
import math
import time

import pytest

from optverify.errors import BadVariantIndex, UnknownArchetype
from optverify.generator import (
    ARCHETYPES,
    VARIANTS,
    archetype_name,
    base_raw,
    build_instance,
    generate_suite,
    variant_seed,
)
from optverify.scenario import to_json_dict, validate_instance

from .helpers import tree_digest

# Computed once with a standalone SHA-256 oracle:
#   uint32-LE of sha256(b"retail_f1_base|1")[:4]
GOLDEN_SEED_F1_BASE_V1 = 1290969454

# SHA-256 of the ``generate_suite`` tree (``tree_digest``), recorded with
# numpy 2.4.6.  The v1..v4 draws come from numpy's PCG64 ``uniform``, so a
# numpy that changes that stream changes this digest.
SUITE_DIGEST = "8eb2f5187329af4af8f0f626d13c60e8c0da9c730bdb70dc4e0739ab69c88968"

# The same over the instance records alone: the 190 ``.json`` files and
# ``manifest.json``.  A prompt change moves ``SUITE_DIGEST`` but not this
# one, and so no ground truth.
INSTANCE_DIGEST = "c91f4b2d00be704134c961c327ba7dc760ad4c3e89fb60afc0781f0c0f4c6959"

LISTING_FIRST_11 = [303, 311, 328, 365, 435, 549, 711, 906, 1100, 1245, 1300]

FAMILY_ARCHETYPE_COUNTS = {"F1": 4, "F2": 6, "F3": 4, "F4": 6, "F5": 4, "F6": 4, "F7": 6, "F8": 4}


def test_base_demand_curve_matches_published_values(base):
    assert list(base.demand_curve["SKU_Basic"][:11]) == LISTING_FIRST_11
    assert base.demand_curve["SKU_Premium"][0] == 151
    assert base.demand_curve["SKU_Premium"][10] == 650
    assert base.demand_curve["SKU_ShortLife"][0] == 121
    assert base.demand_curve["SKU_ShortLife"][10] == 520


def test_base_mid_horizon_peak(base):
    curve = base.demand_curve["SKU_Basic"]
    assert curve[10] == 1300
    assert max(curve) == 1300


def test_registry_shape():
    assert len(ARCHETYPES) == 38
    counts = {}
    for arch in ARCHETYPES.values():
        counts[arch.family] = counts.get(arch.family, 0) + 1
    assert counts == FAMILY_ARCHETYPE_COUNTS


def test_f1_base_is_identity(base):
    inst = build_instance("f1_base", 0)
    assert to_json_dict(inst)["demand_curve"] == to_json_dict(base)["demand_curve"]
    assert inst.cold_capacity == base.cold_capacity


def test_f3_storage_bottleneck_values():
    inst = build_instance("f3_storage_bottleneck", 0)
    assert inst.cold_capacity == {
        "DC1": pytest.approx(1200),
        "DC2": pytest.approx(1050),
        "DC3": pytest.approx(900),
        "DC4": pytest.approx(900),
        "DC5": pytest.approx(750),
    }


def test_f6_moq_binary_value():
    inst = build_instance("f6_moq_binary", 0)
    assert inst.constraints.moq == 300


def test_f1_52_weeks_tiling():
    inst = build_instance("f1_52_weeks", 0)
    assert inst.periods == 52
    base_curve = validate_instance(base_raw()).demand_curve["SKU_Basic"]
    curve = inst.demand_curve["SKU_Basic"]
    assert len(curve) == 52
    assert list(curve[:20]) == list(base_curve)
    assert list(curve[20:40]) == list(base_curve)
    assert list(curve[40:]) == list(base_curve[:12])
    assert list(curve[-2:]) == [1300, 1245]


def test_unknown_archetype():
    with pytest.raises(UnknownArchetype):
        build_instance("f9_nonexistent", 0)
    with pytest.raises(UnknownArchetype):
        build_instance("f9_nonexistent", 5)


def _diff_paths(a: dict, b: dict) -> set[str]:
    """Top-level field paths that differ, one nested level for sub-records."""
    nested = {"costs", "constraints", "network"}
    paths = set()
    for key in set(a) | set(b):
        if key in ("name", "description"):
            continue
        if key in nested:
            sub_a, sub_b = a.get(key, {}), b.get(key, {})
            for sub in set(sub_a) | set(sub_b):
                if sub_a.get(sub) != sub_b.get(sub):
                    paths.add(f"{key}.{sub}")
        elif a.get(key) != b.get(key):
            paths.add(key)
    return paths


@pytest.mark.parametrize("archetype_id", sorted(ARCHETYPES))
def test_archetype_touches_only_declared_fields(archetype_id):
    arch = ARCHETYPES[archetype_id]
    base = base_raw()
    modified = to_json_dict(build_instance(archetype_id, 0))
    assert _diff_paths(base, modified) <= set(arch.touched)


def test_variant_seed_golden_value():
    assert variant_seed("retail_f1_base", 1) == GOLDEN_SEED_F1_BASE_V1
    digest = hashlib.sha256(b"retail_f1_base|1").digest()
    assert variant_seed("retail_f1_base", 1) == int.from_bytes(digest[:4], "little")


def test_variant_zero_is_unperturbed(base):
    v0 = build_instance("f1_base", 0)
    assert v0.name == "retail_f1_base_v0"
    assert to_json_dict(v0) == {**to_json_dict(base), "name": v0.name,
                                "description": v0.description}


def test_variant_determinism():
    assert build_instance("f1_base", 2) == build_instance("f1_base", 2)


def test_variants_differ_from_each_other():
    v1 = build_instance("f1_base", 1)
    v2 = build_instance("f1_base", 2)
    assert v1.demand_curve != v2.demand_curve


def test_bad_variant_index():
    with pytest.raises(BadVariantIndex):
        build_instance("f1_base", 5)


def test_perturbation_bounds_and_structure():
    base = build_instance("f1_base", 0)
    pert = build_instance("f1_base", 3)
    for p in base.products:
        for orig, new in zip(base.demand_curve[p], pert.demand_curve[p]):
            assert math.floor(0.85 * orig) <= new <= math.floor(1.15 * orig)
            assert new == int(new)
    for l in base.locations:
        assert 0.85 * base.cold_capacity[l] <= pert.cold_capacity[l] <= 1.15 * base.cold_capacity[l]
    # Structural skeleton untouched.
    assert pert.shelf_life == base.shelf_life
    assert pert.costs == base.costs
    assert pert.network == base.network
    assert pert.production_cap == base.production_cap


@pytest.mark.parametrize("archetype_id,variant",
                         [(a, v) for a in sorted(ARCHETYPES) for v in VARIANTS[1:]])
def test_perturbation_changes_only_demand_and_storage(archetype_id, variant):
    base = build_instance(archetype_id, 0)
    pert = build_instance(archetype_id, variant)
    diff = _diff_paths(to_json_dict(base), to_json_dict(pert))
    assert diff <= {"demand_curve", "cold_capacity"}
    assert diff  # something did change


def test_build_instance_names():
    inst = build_instance("f2_ultra_fresh", 3)
    assert inst.name == "retail_f2_ultra_fresh_v3"
    assert archetype_name("f2_ultra_fresh") == "retail_f2_ultra_fresh"


def test_multiechelon_rewrite_consistency():
    inst = build_instance("f7_multiechelon_chain", 0)
    assert len(inst.locations) == 6
    zero_demand = [l for l in inst.locations if inst.demand_share[l] == 0]
    assert set(zero_demand) == {"Plant", "DC_A", "DC_B"}
    assert abs(sum(inst.demand_share.values()) - 1.0) < 1e-9
    froms = {e[0] for e in inst.network.trans_edges}
    assert "Plant" in froms


def test_generate_suite_deterministic_and_complete(tmp_path):
    start = time.monotonic()
    manifest = generate_suite(tmp_path / "a")
    elapsed = time.monotonic() - start
    assert manifest["count"] == 190
    assert elapsed < 30.0

    counts = {}
    for entry in manifest["instances"]:
        counts[entry["family"]] = counts.get(entry["family"], 0) + 1
    assert counts == {"F1": 20, "F2": 30, "F3": 20, "F4": 30,
                      "F5": 20, "F6": 20, "F7": 30, "F8": 20}

    files = list((tmp_path / "a").iterdir())
    assert len([f for f in files if f.suffix == ".json" and f.name != "manifest.json"]) == 190
    assert len([f for f in files if f.name.endswith(".scenario.txt")]) == 190
    assert len([f for f in files if f.name.endswith(".full.txt")]) == 190

    generate_suite(tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") == SUITE_DIGEST


def test_instance_records_are_pinned(tmp_path):
    generate_suite(tmp_path)
    assert tree_digest(tmp_path, "*.json") == INSTANCE_DIGEST


def test_emitted_instance_file_schema(tmp_path):
    generate_suite(tmp_path)
    payload = json.loads((tmp_path / "retail_f1_base_v0.json").read_text())
    assert payload["name"] == "retail_f1_base_v0"
    assert payload["constraints"]["budget_per_period"] is None
    assert payload["network"]["sub_edges"] == [["SKU_Basic", "SKU_Premium"]]
    assert payload["demand_curve"]["SKU_Basic"][:3] == [303, 311, 328]
