"""Red-team campaign reports: renderers and a schema-validated document.

The JSON schema (version ``1.0``) mirrors the conventions of the other
static analyzers (:mod:`repro.lint.report`, flow's SARIF-lite)::

    {
      "version": "1.0",
      "tool": {"name": "repro-redteam", "version": "<package version>"},
      "baseSeed": <int>,
      "scenarios": [
        {
          "scenario": "<name>",
          "library": {"attacks": <int>, "entry": <int>,
                      "techniques": ["<technique>", ...]},
          "defeated": <bool>,
          "campaigns": [
            {"rank", "sink", "sinkKind", "entry", "totalCost",
             "multiStage", "layers",
             "steps": [{"attackId", "technique", "name", "layer",
                        "paperRef", "cost", "defense", "detail",
                        "grants"}]}
          ],
          "disruptions": [ <same shape as campaigns> ]
        }
      ],
      "summary": {"scenarioCount", "campaignCount",
                  "defeatedScenarios", "cheapest"}
    }

``baseSeed`` is carried verbatim: the planner is purely static, so the
seed never perturbs the output — BENCH-REDTEAM pins exactly that
(byte-identical documents per (scenario, base seed)).

:data:`SCHEMA` declares that shape for :mod:`repro.core.schema`;
:func:`validate_redteam_dict` checks a parsed document against it plus
the rank, cost and summary cross-checks and raises
:class:`~repro.core.schema.SchemaError` on any violation, the same
contract the CI gates rely on for lint and runner reports.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schema import (BOOLEAN, COUNT, INTEGER, NON_EMPTY, NUMBER,
                               STRING, Schema, header, require, string_list,
                               validate)
from repro.lint.report import LAYER

from repro.redteam.planner import Campaign, PlanResult, plan_scenario

__all__ = ["REDTEAM_SCHEMA_VERSION", "REDTEAM_TOOL_NAME",
           "campaign_to_dict", "run_redteam_campaign",
           "validate_redteam_dict", "render_summary", "render_campaigns"]

REDTEAM_SCHEMA_VERSION = "1.0"
REDTEAM_TOOL_NAME = "repro-redteam"


# --------------------------------------------------------------------------
# document construction
# --------------------------------------------------------------------------

def campaign_to_dict(campaign: Campaign, result: PlanResult,
                     rank: int) -> dict:
    """One ranked campaign as a JSON-ready object."""
    return {
        "rank": rank,
        "sink": campaign.sink,
        "sinkKind": result.graph.node(campaign.sink).kind,
        "entry": campaign.entry_node,
        "totalCost": campaign.total_cost,
        "multiStage": campaign.multi_stage,
        "layers": list(campaign.layers),
        "steps": [
            {
                "attackId": step.attack_id,
                "technique": step.technique,
                "name": step.name,
                "layer": step.layer.name.lower(),
                "paperRef": step.paper_ref,
                "cost": step.cost,
                "defense": step.defense,
                "detail": step.detail,
                "grants": [c.label for c in sorted(step.grants)],
            }
            for step in campaign.steps
        ],
    }


def _scenario_to_dict(result: PlanResult) -> dict:
    return {
        "scenario": result.scenario,
        "library": {
            "attacks": len(result.library),
            "entry": sum(1 for a in result.library if a.is_entry),
            "techniques": sorted({a.technique for a in result.library}),
        },
        "defeated": result.defeated,
        "campaigns": [campaign_to_dict(c, result, rank)
                      for rank, c in enumerate(result.campaigns, start=1)],
        "disruptions": [campaign_to_dict(c, result, rank)
                        for rank, c in enumerate(result.disruptions, start=1)],
    }


def run_redteam_campaign(names: Sequence[str], *,
                         base_seed: int = 0) -> dict:
    """Plan every named scenario and build the full campaign document."""
    from repro import __version__

    results = [plan_scenario(name) for name in names]
    campaign_count = sum(len(r.campaigns) for r in results)
    cheapest: dict | None = None
    for result in results:
        for campaign in result.campaigns:
            if cheapest is None or ((campaign.total_cost, result.scenario,
                                     campaign.sink)
                                    < (cheapest["totalCost"],
                                       cheapest["scenario"],
                                       cheapest["sink"])):
                cheapest = {"scenario": result.scenario,
                            "sink": campaign.sink,
                            "totalCost": campaign.total_cost}
    return {
        "version": REDTEAM_SCHEMA_VERSION,
        "tool": {"name": REDTEAM_TOOL_NAME, "version": __version__},
        "baseSeed": base_seed,
        "scenarios": [_scenario_to_dict(r) for r in results],
        "summary": {
            "scenarioCount": len(results),
            "campaignCount": campaign_count,
            "defeatedScenarios": sorted(r.scenario for r in results
                                        if r.defeated),
            "cheapest": cheapest,
        },
    }


# --------------------------------------------------------------------------
# plain-text renderers (CLI output)
# --------------------------------------------------------------------------

def render_summary(result: PlanResult) -> str:
    """One-paragraph overview: library size, verdict, cheapest campaign."""
    entry = sum(1 for a in result.library if a.is_entry)
    lines = [
        f"red-team plan for {result.scenario!r}:",
        f"  attack library: {len(result.library)} attack(s) "
        f"({entry} entry), "
        f"{len({a.technique for a in result.library})} technique(s)",
        f"  capabilities acquired: {len(result.acquired)}",
    ]
    if result.defeated:
        lines.append("  verdict: DEFEATED — no campaign reaches any sink")
    else:
        best = result.campaigns[0]
        lines.append(f"  verdict: {len(result.campaigns)} campaign(s), "
                     f"{len(result.disruptions)} disruption(s)")
        lines.append(f"  cheapest: {best.entry_node} => {best.sink} "
                     f"({len(best.steps)} step(s), cost {best.total_cost:g})")
    return "\n".join(lines)


def render_campaigns(result: PlanResult, *, top: int | None = None) -> str:
    """Every ranked campaign, hop by hop with the breaking defense."""
    if result.defeated and not result.disruptions:
        return (f"{result.scenario}: defeated — the full attack library "
                f"yields no campaign")
    blocks = []
    campaigns = result.campaigns if top is None else result.campaigns[:top]
    for rank, campaign in enumerate(campaigns, start=1):
        lines = [f"#{rank} {campaign.entry_node} => {campaign.sink} "
                 f"(cost {campaign.total_cost:g}, "
                 f"{len(campaign.steps)} step(s), "
                 f"layers: {', '.join(campaign.layers)})"]
        lines += [f"  {line}" for line in campaign.describe()]
        blocks.append("\n".join(lines))
    disruptions = (result.disruptions if top is None
                   else result.disruptions[:top])
    for rank, campaign in enumerate(disruptions, start=1):
        lines = [f"D{rank} {campaign.entry_node} =/> {campaign.sink} "
                 f"(availability, cost {campaign.total_cost:g})"]
        lines += [f"  {line}" for line in campaign.describe()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

_POSITIVE: Schema = {"type": "number", "exclusiveMinimum": 0}

_CAMPAIGN: Schema = {"type": "object", "properties": {
    "rank": {"type": "integer", "minimum": 1},
    "sink": NON_EMPTY,
    "sinkKind": {"enum": ["component", "service", "endpoint", "datastore",
                          "actor", "channel"]},
    "entry": NON_EMPTY,
    "totalCost": _POSITIVE,
    "multiStage": BOOLEAN,
    "layers": {"type": "array", "minItems": 1, "items": LAYER},
    "steps": {"type": "array", "minItems": 1, "items": {
        "type": "object", "properties": {
            "attackId": STRING, "technique": STRING, "name": STRING,
            "layer": LAYER, "paperRef": STRING, "cost": _POSITIVE,
            "defense": STRING, "detail": STRING,
            "grants": {"type": "array", "minItems": 1,
                       "items": {"type": "string", "pattern": ":"}}}}},
}}

SCHEMA: Schema = {"type": "object", "properties": {
    **header(REDTEAM_SCHEMA_VERSION, REDTEAM_TOOL_NAME),
    "baseSeed": INTEGER,
    "scenarios": {"type": "array", "minItems": 1, "items": {
        "type": "object", "properties": {
            "scenario": NON_EMPTY,
            "library": {"type": "object", "properties": {
                "attacks": COUNT, "entry": COUNT,
                "techniques": {"type": "array", "items": STRING}}},
            "defeated": BOOLEAN,
            "campaigns": {"type": "array", "items": _CAMPAIGN},
            "disruptions": {"type": "array", "items": _CAMPAIGN},
        }}},
    "summary": {"type": "object", "properties": {
        "scenarioCount": COUNT,
        "campaignCount": COUNT,
        "defeatedScenarios": string_list(),
        "cheapest": {"type": ["object", "null"], "properties": {
            "scenario": NON_EMPTY, "sink": NON_EMPTY, "totalCost": NUMBER}},
    }},
}}


def _check_campaigns(campaigns: list[dict], where: str) -> None:
    for index, entry in enumerate(campaigns):
        inner = f"{where}[{index}]"
        require(entry["rank"] == index + 1,
                f"{inner}: rank must be {index + 1}")
        require(entry["multiStage"] == (len(entry["steps"]) > 1),
                f"{inner}: multiStage inconsistent with len(steps)")
        total = sum(step["cost"] for step in entry["steps"])
        require(abs(total - entry["totalCost"]) < 1e-9,
                f"{inner}: totalCost must equal the sum of step costs")


def validate_redteam_dict(document: dict) -> None:
    """Raise :class:`~repro.core.schema.SchemaError` unless ``document``
    matches the schema."""
    validate(document, SCHEMA)
    scenarios = document["scenarios"]
    for index, entry in enumerate(scenarios):
        where = f"scenarios[{index}]"
        require(entry["defeated"] == (not entry["campaigns"]),
                f"{where}: defeated inconsistent with campaigns")
        _check_campaigns(entry["campaigns"], f"{where}.campaigns")
        _check_campaigns(entry["disruptions"], f"{where}.disruptions")

    summary = document["summary"]
    require(summary["scenarioCount"] == len(scenarios),
            "summary.scenarioCount must equal len(scenarios)")
    campaign_count = sum(len(s["campaigns"]) for s in scenarios)
    require(summary["campaignCount"] == campaign_count,
            "summary.campaignCount must equal the total campaign count")
    expected = sorted(s["scenario"] for s in scenarios if s["defeated"])
    require(summary["defeatedScenarios"] == expected,
            "defeatedScenarios must list the defeated scenarios, sorted")
    require((summary["cheapest"] is None) == (campaign_count == 0),
            "cheapest must be null exactly when there are no campaigns")
