"""Chaos report JSON: the declared schema and its validation.

The chaos document (version ``1.0``) mirrors the ``repro.lint`` /
``repro.obs`` / ``repro.runner`` report conventions — small, flat,
stable.  :data:`SCHEMA` below declares every key of it for
:mod:`repro.core.schema`; :func:`validate_chaos_dict` checks a parsed
document against it plus the count and summary cross-checks and raises
:class:`~repro.core.schema.SchemaError` on any violation — the CI chaos
gate and the round-trip tests both call it.  :mod:`repro.sentinel.report`
reuses the :data:`PLAN`, :data:`WINDOW`, :data:`FAULTS` and
:data:`DEGRADATION` sub-schemas and their cross-checks.
"""

from __future__ import annotations

from repro.core.layers import Layer
from repro.core.schema import (BOOLEAN, COUNT, INTEGER, NON_EMPTY,
                               NON_NEGATIVE, NULLABLE_NUMBER, NUMBER, UNIT,
                               Schema, SchemaError, header, require,
                               string_list, validate)
from repro.faults.plan import FaultKind

__all__ = ["SchemaError", "validate_chaos_dict", "check_plan",
           "check_window", "check_faults", "SCHEMA_VERSION", "TOOL_NAME"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-chaos"

LAYER: Schema = {"enum": [layer.name.lower() for layer in Layer]}
KIND: Schema = {"enum": [kind.value for kind in FaultKind]}
LEVEL: Schema = {"enum": ["full", "degraded", "minimal_risk", "safe_stop"]}

WINDOW: Schema = {"type": "object",
                  "properties": {"start": NUMBER, "end": NUMBER}}

PLAN: Schema = {"type": "object", "properties": {
    "name": NON_EMPTY,
    "window": WINDOW,
    "faults": {"type": "array", "minItems": 1, "items": {
        "type": "object", "properties": {
            "kind": KIND, "target": NON_EMPTY, "layer": LAYER,
            "start": NUMBER, "end": NUMBER, "probability": UNIT,
            "magnitude": NON_NEGATIVE}}},
}}

FAULTS: Schema = {"type": "object", "properties": {
    "injected": COUNT,
    "byKind": {"type": "object", "keys": KIND,
               "values": {"type": "integer", "minimum": 1}},
}}

DEGRADATION: Schema = {"type": "object", "properties": {
    "finalLevel": LEVEL,
    "minLevel": LEVEL,
    "changes": {"type": "array", "items": {"type": "object", "properties": {
        "t": NUMBER, "level": LEVEL, "reason": NON_EMPTY}}},
    "timeToDegradeS": NULLABLE_NUMBER,
    "timeToRecoverS": NULLABLE_NUMBER,
}}

SCHEMA: Schema = {"type": "object", "properties": {
    **header(SCHEMA_VERSION, TOOL_NAME),
    "plan": PLAN,
    "baseSeed": INTEGER,
    "scenarios": {"type": "array", "minItems": 1, "unique": "scenario",
                  "items": {"type": "object", "properties": {
        "scenario": NON_EMPTY,
        "description": NON_EMPTY,
        "resilient": BOOLEAN,
        "durationTicks": {"type": "integer", "minimum": 1},
        "window": WINDOW,
        "layers": {"type": "array", "minItems": 1, "unique": "layer",
                   "items": {"type": "object", "properties": {
            "layer": LAYER, "attempts": COUNT, "successes": COUNT,
            "availability": UNIT, "windowAttempts": COUNT,
            "windowSuccesses": COUNT, "windowAvailability": UNIT}}},
        "faults": FAULTS,
        "retry": {"type": "object", "properties": {
            key: COUNT for key in ("calls", "attempts", "retries",
                                   "recovered", "exhausted")}},
        "breakers": {"type": "array", "items": {
            "type": "object", "properties": {
                "name": NON_EMPTY, "opens": COUNT, "rejections": COUNT,
                "finalState": {"enum": ["closed", "open", "half-open"]}}}},
        "ssi": {"type": ["object", "null"], "properties": {
            key: COUNT for key in ("hits", "staleHits", "failures",
                                   "cached")}},
        "alerts": COUNT,
        "degradation": DEGRADATION,
    }}},
    "summary": {"type": "object", "properties": {
        "scenarioCount": COUNT,
        "faultsInjected": COUNT,
        "layersSustained": string_list(),
        "scenariosAtMinimalRiskOrBelow": string_list(),
    }},
}}


def check_window(window: dict, where: str) -> None:
    """Cross-check a schema-valid ``{start, end}`` window."""
    require(window["start"] <= window["end"],
            f"{where}: window start must not exceed end")


def check_plan(plan: dict) -> None:
    """Cross-check a schema-valid :data:`PLAN`: every window is ordered."""
    check_window(plan["window"], "plan")
    for index, spec in enumerate(plan["faults"]):
        require(spec["start"] < spec["end"],
                f"plan.faults[{index}]: window must satisfy start < end")


def check_faults(faults: dict, where: str) -> None:
    """Cross-check a schema-valid :data:`FAULTS` block: byKind sums up."""
    require(sum(faults["byKind"].values()) == faults["injected"],
            f"{where}: byKind must sum to faults.injected")


def _check_layer(entry: dict, where: str) -> None:
    require(entry["successes"] <= entry["attempts"],
            f"{where}: successes must not exceed attempts")
    require(entry["windowSuccesses"] <= entry["windowAttempts"],
            f"{where}: windowSuccesses must not exceed windowAttempts")
    require(entry["windowAttempts"] <= entry["attempts"],
            f"{where}: windowAttempts must not exceed attempts")


def validate_chaos_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches."""
    validate(document, SCHEMA)
    check_plan(document["plan"])
    sustained: set[str] = set()
    at_floor: set[str] = set()
    for index, scenario in enumerate(document["scenarios"]):
        where = f"scenarios[{index}]"
        check_window(scenario["window"], where)
        for layer_index, entry in enumerate(scenario["layers"]):
            _check_layer(entry, f"{where}.layers[{layer_index}]")
            if entry["windowAttempts"] > 0 \
                    and entry["windowAvailability"] > 0.0:
                sustained.add(entry["layer"])
        check_faults(scenario["faults"], where)
        if scenario["degradation"]["minLevel"] in ("minimal_risk",
                                                   "safe_stop"):
            at_floor.add(scenario["scenario"])

    summary = document["summary"]
    require(summary["scenarioCount"] == len(document["scenarios"]),
            "summary.scenarioCount must equal len(scenarios)")
    require(summary["faultsInjected"]
            == sum(s["faults"]["injected"] for s in document["scenarios"]),
            "summary.faultsInjected must sum the per-scenario totals")
    require(summary["layersSustained"] == sorted(sustained),
            "summary.layersSustained must list layers with in-window "
            "availability > 0, sorted")
    require(summary["scenariosAtMinimalRiskOrBelow"] == sorted(at_floor),
            "summary.scenariosAtMinimalRiskOrBelow must list scenarios "
            "whose minLevel reached minimal_risk/safe_stop, sorted")
