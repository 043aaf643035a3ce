"""Canonical data model for retail scenario instances.

A scenario instance describes one multi-period perishable-inventory problem:
dimensions (periods, products, locations), demand, capacities, costs, and the
substitution/transshipment network.  Instances are validated once and are
immutable afterwards, so they can be shared freely across pipeline workers.

The frozen dataclasses below are the instance schema, and the only copy of
it.  :func:`validate_instance` refuses a key that they do not declare and a
map entry for an undeclared product or location, and the on-disk file
(:func:`dumps_instance`) is their fields in declaration order.  A keyed map
field (one entry per product or location) states its rule where it is
declared, with ``_keyed``, and validation reads every such field's rule
from there, in declaration order.

Two conventions matter everywhere downstream:

* Periods are 1-indexed in the model (``t = 1..T``) but stored 0-indexed in
  arrays; :func:`demand_at` owns the conversion.
* Optional side constraints use an explicit tri-state: an active numeric
  value, or ``None`` for "inactive".  A waste cap of ``0.0`` and "no waste
  cap" mean different things.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from .errors import SchemaError

SHARE_SUM_TOLERANCE = 1e-9


def _keyed(ids: str, **rule: Any) -> Any:
    """A map with one entry per id of ``ids``, checked by ``rule`` (the
    options of :func:`_per_key_map`)."""
    return field(metadata={"ids": ids, "rule": rule})


@dataclass(frozen=True)
class Costs:
    purchasing: dict[str, float] = _keyed("products", minimum=0.0)
    inventory: dict[str, float] = _keyed("products", minimum=0.0)
    waste: dict[str, float] = _keyed("products", minimum=0.0)
    lost_sales: dict[str, float] = _keyed("products", minimum=0.0)
    fixed_order: float
    transshipment: float


@dataclass(frozen=True)
class SideConstraints:
    moq: float = 0.0
    pack_size: int = 1
    budget_per_period: float | None = None
    waste_limit_pct: float | None = None


@dataclass(frozen=True)
class Network:
    sub_edges: tuple[tuple[str, str], ...] = ()
    trans_edges: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ScenarioInstance:
    name: str
    description: str
    periods: int
    products: tuple[str, ...]
    locations: tuple[str, ...]
    shelf_life: dict[str, int] = _keyed("products", minimum=1, integral=True)
    lead_time: dict[str, int] = _keyed("products", minimum=0, integral=True)
    demand_curve: dict[str, tuple[float, ...]] = _keyed("products", per_period=True, minimum=0)
    demand_share: dict[str, float] = _keyed("locations", minimum=0.0, maximum=1.0, total=1.0)
    production_cap: dict[str, tuple[float, ...]] = _keyed("products", per_period=True, minimum=0)
    cold_capacity: dict[str, float] = _keyed("locations", minimum=0.0)
    cold_usage: dict[str, float] = _keyed("products", minimum=0.0)
    labor_cap: dict[str, tuple[float, ...]] = _keyed("locations", per_period=True, minimum=0)
    labor_usage: dict[str, float] = _keyed("products", minimum=0.0)
    return_rate: dict[str, float] = _keyed("products", minimum=0.0, below=1.0)
    costs: Costs
    constraints: SideConstraints = field(default_factory=SideConstraints)
    network: Network = field(default_factory=Network)


def _require(raw: Mapping[str, Any], path: str) -> Any:
    key = path.rpartition(".")[2]
    if key not in raw or raw[key] is None:
        raise SchemaError(f"{path}: missing required field")
    return raw[key]


def _block(raw: Any, path: str, schema: type) -> Mapping[str, Any]:
    """``raw``, refused unless it is a mapping of ``schema``'s fields."""
    if not isinstance(raw, Mapping):
        raise SchemaError(f"{path}: expected a mapping")
    declared = {f.name for f in fields(schema)}
    unknown = sorted(str(k) for k in raw if k not in declared)
    if unknown:
        raise SchemaError(f"{path}: unknown keys {unknown}")
    return raw


def _as_str(value: Any, field_name: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{field_name}: expected a string, got {value!r}")
    return value


def _as_number(value: Any, field_name: str) -> float:
    # Returns the value unchanged (int stays int) so serialization
    # round-trips byte-exactly; callers only rely on numeric semantics.
    # Ints are always finite, and math.isfinite overflows on huge ones.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{field_name}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{field_name}: expected a finite number, got {value!r}")
    return value


def _id_list(raw: Mapping[str, Any], key: str) -> tuple[str, ...]:
    value = _require(raw, key)
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(f"{key}: expected a non-empty list of identifiers")
    ids = tuple(_as_str(v, f"{key}[{i}]") for i, v in enumerate(value))
    if len(set(ids)) != len(ids):
        raise SchemaError(f"{key}: identifiers must be unique")
    return ids


def _per_key_map(
    raw: Mapping[str, Any],
    path: str,
    keys: tuple[str, ...],
    periods: int,
    *,
    per_period: bool = False,
    minimum: float | None = None,
    maximum: float | None = None,
    integral: bool = False,
    total: float | None = None,
    below: float | None = None,
) -> dict[str, Any]:
    """Validate the {product-or-location: value} map keyed by ``path``'s
    last part, with exactly one entry per id in ``keys``.

    ``per_period`` turns the values into numeric arrays of ``periods``
    entries; otherwise the values are scalars.  ``minimum`` and ``maximum``
    are inclusive.  Once every entry passes, ``total`` is what the values
    must sum to and ``below`` an exclusive bound on each value.
    """
    value = _require(raw, path)
    if not isinstance(value, Mapping):
        raise SchemaError(f"{path}: expected a mapping")
    undeclared = sorted(str(k) for k in value if k not in keys)
    if undeclared:
        raise SchemaError(f"{path}: entries for undeclared {undeclared}")
    out: dict[str, Any] = {}
    for k in keys:
        if k not in value:
            raise SchemaError(f"{path}: missing entry for {k!r}")
        entry = value[k]
        if per_period:
            if not isinstance(entry, (list, tuple)):
                raise SchemaError(f"{path}[{k}]: expected an array")
            if len(entry) != periods:
                raise SchemaError(
                    f"{path}[{k}]: expected {periods} entries, got {len(entry)}"
                )
            nums = tuple(_as_number(v, f"{path}[{k}]") for v in entry)
            for v in nums:
                if minimum is not None and v < minimum:
                    raise SchemaError(f"{path}[{k}]: value {v} below {minimum}")
            out[k] = nums
        else:
            num = _as_number(entry, f"{path}[{k}]")
            if integral and num != int(num):
                raise SchemaError(f"{path}[{k}]: expected an integer, got {num}")
            if minimum is not None and num < minimum:
                raise SchemaError(f"{path}[{k}]: value {num} below {minimum}")
            if maximum is not None and num > maximum:
                raise SchemaError(f"{path}[{k}]: value {num} above {maximum}")
            out[k] = int(num) if integral else num
    if total is not None and abs(sum(out.values()) - total) > SHARE_SUM_TOLERANCE:
        raise SchemaError(f"{path}: shares sum to {sum(out.values())!r}, expected {total}")
    for k, v in out.items():
        if below is not None and v >= below:
            raise SchemaError(f"{path}[{k}]: value {v} must be below {below}")
    return out


def _keyed_maps(
    raw: Mapping[str, Any], prefix: str, schema: type, dims: Mapping[str, Any]
) -> dict[str, Any]:
    """Every keyed map field of ``schema``, in declaration order, validated
    by the rule on its field against the ids and periods in ``dims``."""
    return {
        f.name: _per_key_map(raw, prefix + f.name, dims[f.metadata["ids"]],
                             dims["periods"], **f.metadata["rule"])
        for f in fields(schema) if "ids" in f.metadata
    }


def _edges(block: Any, key: str, valid_ids: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    if block is None:
        return ()
    if not isinstance(block, (list, tuple)):
        raise SchemaError(f"{key}: expected a list of [from, to] pairs")
    id_set = set(valid_ids)
    edges: list[tuple[str, str]] = []
    for i, pair in enumerate(block):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError(f"{key}[{i}]: expected a [from, to] pair")
        a, b = _as_str(pair[0], f"{key}[{i}]"), _as_str(pair[1], f"{key}[{i}]")
        if a not in id_set or b not in id_set:
            raise SchemaError(f"{key}[{i}]: edge [{a}, {b}] references an undeclared id")
        if a == b:
            raise SchemaError(f"{key}[{i}]: self-loop [{a}, {b}] not allowed")
        # The models name each edge's variables by its pair.
        if (a, b) in edges:
            raise SchemaError(f"{key}[{i}]: duplicate edge [{a}, {b}]")
        edges.append((a, b))
    return tuple(edges)


def validate_instance(raw: Mapping[str, Any]) -> ScenarioInstance:
    """Validate a raw instance record and return the immutable instance.

    Raises :class:`SchemaError` naming the first offending field, or the
    keys and map entries the dataclasses above do not declare.  Absent
    optional side constraints (budget, waste cap) normalize to ``None``;
    an absent ``network`` block normalizes to empty edge lists.
    """
    if not isinstance(raw, Mapping):
        raise SchemaError("instance: expected a mapping at top level")
    _block(raw, "instance", ScenarioInstance)

    values: dict[str, Any] = {
        "name": _as_str(_require(raw, "name"), "name"),
        "description": _as_str(raw.get("description", ""), "description"),
    }
    periods = _require(raw, "periods")
    if not isinstance(periods, int) or isinstance(periods, bool) or periods < 1:
        raise SchemaError(f"periods: expected a positive integer, got {periods!r}")
    values["periods"] = periods
    values["products"] = _id_list(raw, "products")
    values["locations"] = _id_list(raw, "locations")
    values.update(_keyed_maps(raw, "", ScenarioInstance, values))

    costs_raw = _block(_require(raw, "costs"), "costs", Costs)
    values["costs"] = Costs(
        **_keyed_maps(costs_raw, "costs.", Costs, values),
        fixed_order=_nonneg_scalar(costs_raw, "costs.fixed_order"),
        transshipment=_nonneg_scalar(costs_raw, "costs.transshipment"),
    )

    cons_raw = _block(raw.get("constraints") or {}, "constraints", SideConstraints)
    pack = cons_raw.get("pack_size", 1)
    pack_num = _as_number(pack, "constraints.pack_size")
    if pack_num != int(pack_num) or pack_num < 1:
        raise SchemaError(f"constraints.pack_size: expected an integer >= 1, got {pack!r}")
    values["constraints"] = SideConstraints(
        moq=_nonneg_scalar(cons_raw, "constraints.moq", 0),
        pack_size=int(pack_num),
        budget_per_period=_nonneg_scalar(cons_raw, "constraints.budget_per_period", None),
        waste_limit_pct=_nonneg_scalar(cons_raw, "constraints.waste_limit_pct", None),
    )

    net_raw = _block(raw.get("network") or {}, "network", Network)
    values["network"] = Network(
        sub_edges=_edges(net_raw.get("sub_edges"), "network.sub_edges", values["products"]),
        trans_edges=_edges(net_raw.get("trans_edges"), "network.trans_edges",
                           values["locations"]),
    )
    return ScenarioInstance(**values)


def _nonneg_scalar(raw: Mapping[str, Any], label: str, default: Any = ...) -> float | None:
    """The number >= 0 keyed by ``label``'s last part: required unless a
    ``default`` is given, and a ``None`` default lets absent or null mean
    inactive."""
    key = label.rpartition(".")[2]
    value = _require(raw, label) if default is ... else raw.get(key, default)
    if value is None and default is None:
        return None
    value = _as_number(value, label)
    if value < 0:
        raise SchemaError(f"{label}: value {value} below 0")
    return value


def demand_at(inst: ScenarioInstance, product: str, location: str, t: int) -> float:
    """Model demand for (product, location) in 1-indexed period ``t``.

    ``demand_curve`` arrays are 0-indexed; the model period ``t`` reads index
    ``t - 1``, scaled by the location's demand share.
    """
    if not 1 <= t <= inst.periods:
        raise IndexError(f"period {t} outside 1..{inst.periods}")
    return inst.demand_curve[product][t - 1] * inst.demand_share[location]


def substitution_neighbors(inst: ScenarioInstance, product: str) -> tuple[set[str], set[str]]:
    """Return ``(n_out, n_in)`` for the product.

    An edge ``(p_from, p_to)`` is upward substitution: ``p_from``'s demand can
    be served by ``p_to``'s inventory.  ``n_out(p)`` holds products whose
    inventory can serve ``p``'s demand; ``n_in(p)`` holds products whose
    demand ``p``'s inventory serves.
    """
    n_out = {b for a, b in inst.network.sub_edges if a == product}
    n_in = {a for a, b in inst.network.sub_edges if b == product}
    return n_out, n_in


def to_json_dict(inst: ScenarioInstance) -> dict[str, Any]:
    """The instance as its file's JSON: the parse of :func:`dumps_instance`."""
    return json.loads(dumps_instance(inst))


def dumps_instance(inst: ScenarioInstance) -> str:
    """The on-disk format: UTF-8 JSON, 2-space indent, fields in declaration order."""
    return json.dumps(inst, default=vars, indent=2, ensure_ascii=False) + "\n"
