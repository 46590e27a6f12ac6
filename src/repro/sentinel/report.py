"""Sentinel report JSON: the declared schema and its validation.

The sentinel document (version ``1.0``) follows the ``repro.faults``
chaos-report conventions — small, flat, stable.  :data:`SCHEMA` below
declares every key of it for :mod:`repro.core.schema`, reusing the chaos
report's ``plan``, ``window``, ``faults`` and ``degradation``
sub-schemas.  :func:`validate_sentinel_dict` checks a parsed document
against it plus the recomputable cross-checks (detection fields derive
from the sentinel block, summary fields from the scenarios) and raises
:class:`~repro.core.schema.SchemaError` on any violation.  The CI
sentinel gate and the round-trip tests both call it.
"""

from __future__ import annotations

from repro.core.schema import (BOOLEAN, COUNT, INTEGER, NON_EMPTY,
                               NULLABLE_NUMBER, NUMBER, UNIT, Schema,
                               SchemaError, header, require, string_list,
                               validate)
from repro.faults.report import (DEGRADATION, FAULTS, PLAN, WINDOW,
                                 check_faults, check_plan, check_window)

__all__ = ["SchemaError", "validate_sentinel_dict",
           "SCHEMA_VERSION", "TOOL_NAME"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-sentinel"

_SENTINEL: Schema = {"type": "object", "properties": {
    "eventsConsumed": COUNT,
    "eventsEmitted": COUNT,
    "firstAlarmT": NULLABLE_NUMBER,
    "alarmTransitions": COUNT,
    "alarmedSources": string_list(),
    "machines": {"type": "array", "unique": ["source", "detector"],
                 "items": {"type": "object", "properties": {
        "source": NON_EMPTY,
        "detector": NON_EMPTY,
        "finalState": {"enum": ["idle", "suspect", "alarm", "cleared"]},
        "transitions": COUNT,
        "firstAlarmT": NULLABLE_NUMBER}}},
    "incidents": {"type": "array", "items": {"type": "object", "properties": {
        "id": {"type": "integer", "minimum": 1},
        "openedT": NUMBER,
        "closedT": NULLABLE_NUMBER,
        "sources": string_list(minItems=1, sorted=True),
        "alarmCount": COUNT,
        "crossLayer": BOOLEAN}}},
    "trust": {"type": "array", "minItems": 1, "sorted": "source",
              "unique": "source", "items": {"type": "object", "properties": {
        "source": NON_EMPTY,
        "score": UNIT,
        "minScore": UNIT,
        "phase": {"enum": ["cold-start", "verifying", "trusted"]},
        "observations": COUNT,
        "hardHits": COUNT,
        "collapsedT": NULLABLE_NUMBER}}},
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
        "faults": FAULTS,
        "sentinel": _SENTINEL,
        "response": {"type": "object", "properties": {
            "alerts": COUNT, "isolated": string_list(sorted=True)}},
        "degradation": DEGRADATION,
        "detection": {"type": "object", "properties": {
            "alarmRaised": BOOLEAN,
            "firstAlarmT": NULLABLE_NUMBER,
            "alarmIncidents": COUNT,
            "trustCollapsed": string_list(),
            "safeStopT": NULLABLE_NUMBER,
            "leadTicks": NULLABLE_NUMBER,
            "detectedBeforeSafeStop": BOOLEAN}},
    }}},
    "summary": {"type": "object", "properties": {
        "scenarioCount": COUNT,
        "alarmIncidents": COUNT,
        "scenariosDetected": string_list(),
        "scenariosClean": string_list(),
        "trustCollapsed": string_list(),
    }},
}}


def _check_sentinel(entry: dict, where: str) -> None:
    alarmed = {machine["source"] for machine in entry["machines"]
               if machine["firstAlarmT"] is not None}
    require(entry["alarmTransitions"]
            == sum(machine["transitions"] for machine in entry["machines"]),
            f"{where}: alarmTransitions must sum machine transitions")
    require(entry["alarmedSources"] == sorted(alarmed),
            f"{where}: alarmedSources must list machines that alarmed, sorted")
    for index, incident in enumerate(entry["incidents"]):
        inner = f"{where}.incidents[{index}]"
        require(incident["id"] == index + 1,
                f"{inner}: ids must be dense and 1-based")
        require(incident["closedT"] is None
                or incident["closedT"] >= incident["openedT"],
                f"{inner}: closedT must be null or >= openedT")
        require(incident["alarmCount"] >= len(incident["sources"]),
                f"{inner}: alarmCount must cover every source")
        require(incident["crossLayer"] == (len(incident["sources"]) > 1),
                f"{inner}: crossLayer must mean 'more than one source'")
    for index, trust in enumerate(entry["trust"]):
        inner = f"{where}.trust[{index}]"
        require(trust["minScore"] <= trust["score"],
                f"{inner}: minScore must not exceed score")
        require(trust["hardHits"] <= trust["observations"],
                f"{inner}: hardHits must not exceed observations")


def _check_detection(entry: dict, sentinel: dict, degradation: dict,
                     where: str) -> None:
    require(entry["alarmRaised"] == (sentinel["firstAlarmT"] is not None),
            f"{where}: alarmRaised must mirror sentinel.firstAlarmT")
    require(entry["firstAlarmT"] == sentinel["firstAlarmT"],
            f"{where}: firstAlarmT must equal sentinel.firstAlarmT")
    require(entry["alarmIncidents"] == len(sentinel["incidents"]),
            f"{where}: alarmIncidents must count sentinel.incidents")
    collapsed = sorted(trust["source"] for trust in sentinel["trust"]
                       if trust["collapsedT"] is not None)
    require(entry["trustCollapsed"] == collapsed,
            f"{where}: trustCollapsed must list collapsed trust sources")
    safe_stop = next((change["t"] for change in degradation["changes"]
                      if change["level"] == "safe_stop"), None)
    require(entry["safeStopT"] == safe_stop,
            f"{where}: safeStopT must be the first safe_stop change")
    if entry["safeStopT"] is not None and entry["firstAlarmT"] is not None:
        lead = entry["safeStopT"] - entry["firstAlarmT"]
        require(entry["leadTicks"] == lead,
                f"{where}: leadTicks must be safeStopT - firstAlarmT")
    else:
        require(entry["leadTicks"] is None,
                f"{where}: leadTicks must be null without both endpoints")
    expected = (entry["alarmRaised"]
                and (entry["safeStopT"] is None
                     or entry["firstAlarmT"] < entry["safeStopT"]))
    require(entry["detectedBeforeSafeStop"] == expected,
            f"{where}: detectedBeforeSafeStop is inconsistent")


def validate_sentinel_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches."""
    validate(document, SCHEMA)
    check_plan(document["plan"])
    scenarios = document["scenarios"]
    for index, scenario in enumerate(scenarios):
        where = f"scenarios[{index}]"
        check_window(scenario["window"], where)
        check_faults(scenario["faults"], where)
        _check_sentinel(scenario["sentinel"], f"{where}.sentinel")
        _check_detection(scenario["detection"], scenario["sentinel"],
                         scenario["degradation"], f"{where}.detection")

    detections = [scenario["detection"] for scenario in scenarios]
    summary = document["summary"]
    require(summary["scenarioCount"] == len(scenarios),
            "summary.scenarioCount must equal len(scenarios)")
    require(summary["alarmIncidents"]
            == sum(detection["alarmIncidents"] for detection in detections),
            "summary.alarmIncidents must sum the per-scenario totals")
    require(summary["scenariosDetected"]
            == sorted(s["scenario"] for s in scenarios
                      if s["detection"]["alarmRaised"]),
            "summary.scenariosDetected must list alarmed scenarios, sorted")
    require(summary["scenariosClean"]
            == sorted(s["scenario"] for s in scenarios
                      if not s["detection"]["alarmRaised"]),
            "summary.scenariosClean must list alarm-free scenarios, sorted")
    collapsed = {source for detection in detections
                 for source in detection["trustCollapsed"]}
    require(summary["trustCollapsed"] == sorted(collapsed),
            "summary.trustCollapsed must union the per-scenario lists, sorted")
