"""Correctness oracle: verdict fields and the reference table.

A *verdict* is the part of a tool's JSON document that says what the
tool concluded — finding rule ids, alarmed sources, whether SAFE_STOP
was reached, the cheapest attack cost — as opposed to bookkeeping.
``reference.json`` holds the expected exit code and verdict of every
``(tool, scenario, plan, base seed)`` cell the request generator can
draw; ``make_reference.py`` rebuilds it from the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

TOOLS = ("lint", "flow", "redteam", "sentinel", "chaos")
#: Tools that take ``--plan`` and ``--base-seed``.
PLAN_TOOLS = ("sentinel", "chaos")
SCENARIOS = ("cariad-breach", "maas-platform", "onboard-hardened",
             "onboard-insecure", "pkes-legacy")
PLANS = ("baseline", "severe")
#: Base seeds the generators draw from; the reference covers each one.
BASE_SEEDS = (0, 1, 2, 3)
#: Virtual-clock ticks of every sentinel and chaos run the reference
#: covers: the CLI's default ``--duration``.
DURATION = 30


def reference_key(tool: str, scenario: str, plan: str = "",
                  seed: int = 0) -> str:
    if tool in PLAN_TOOLS:
        return f"{tool}/{scenario}/{plan}/s{seed}"
    return f"{tool}/{scenario}"


def domain() -> list[tuple[str, str, str, int]]:
    """Every ``(tool, scenario, plan, seed)`` cell a generator can draw."""
    cells = []
    for tool in TOOLS:
        for scenario in SCENARIOS:
            if tool in PLAN_TOOLS:
                cells += [(tool, scenario, plan, seed)
                          for plan in PLANS for seed in BASE_SEEDS]
            else:
                cells.append((tool, scenario, "", 0))
    return cells


def cli_argv(tool: str, scenario: str, plan: str = "",
             seed: int = 0) -> list[str]:
    """Arguments after ``python -m repro`` for one request."""
    argv = [tool, scenario, "--json"]
    if tool in PLAN_TOOLS:
        argv += ["--plan", plan, "--base-seed", str(seed)]
    return argv


# -- verdict extraction --------------------------------------------------------

def _findings_verdict(document: dict) -> dict:
    return {"findings": sorted(f"{f['ruleId']}@{f['subject']}"
                               for f in document["findings"]),
            "total": document["summary"]["total"]}


def _redteam_verdict(entry: dict) -> dict:
    costs = [campaign["totalCost"] for campaign in entry["campaigns"]]
    return {"defeated": entry["defeated"],
            "campaigns": len(costs),
            "cheapestCost": min(costs) if costs else None,
            "sinks": sorted(c["sink"] for c in entry["campaigns"])}


def _sentinel_verdict(entry: dict) -> dict:
    detection = entry["detection"]
    return {"alarmedSources": sorted(entry["sentinel"]["alarmedSources"]),
            "alarmRaised": detection["alarmRaised"],
            "safeStopReached": detection["safeStopT"] is not None,
            "trustCollapsed": sorted(detection["trustCollapsed"]),
            "finalLevel": entry["degradation"]["finalLevel"],
            "faultsInjected": entry["faults"]["injected"]}


def _chaos_verdict(entry: dict) -> dict:
    return {"resilient": entry["resilient"],
            "faultsInjected": entry["faults"]["injected"],
            "minLevel": entry["degradation"]["minLevel"],
            "finalLevel": entry["degradation"]["finalLevel"],
            "windowAvailability": {layer["layer"]: layer["windowAvailability"]
                                   for layer in entry["layers"]}}


#: Verdict of one scenario-level result, as a campaign shard returns it.
SHARD_VERDICT = {"lint": _findings_verdict, "flow": _findings_verdict,
                 "redteam": _redteam_verdict, "sentinel": _sentinel_verdict,
                 "chaos": _chaos_verdict}


def document_verdict(tool: str, document: dict) -> dict:
    """Verdict of a whole CLI document for a single scenario."""
    if tool in ("lint", "flow"):
        return _findings_verdict(document)
    (entry,) = document["scenarios"]
    return SHARD_VERDICT[tool](entry)


# -- checks --------------------------------------------------------------------

def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def check_cli(reference: dict, cell: tuple[str, str, str, int],
              returncode: int, stdout: str) -> str | None:
    """``None`` when a CLI request is correct, else why it is not.

    ``lint``, ``flow`` and ``redteam`` exit 1 on insecure scenarios by
    design: the expected exit code comes from the reference, so that is
    a verdict, not a failure.
    """
    tool = cell[0]
    expected = reference[reference_key(*cell)]
    if returncode != expected["exit"]:
        return f"exit code {returncode}, expected {expected['exit']}"
    try:
        document = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        verdict = document_verdict(tool, document)
    except (KeyError, TypeError, ValueError) as exc:
        return f"document lacks verdict fields: {exc!r}"
    if verdict != expected["verdict"]:
        return f"verdict differs from the reference: {verdict!r}"
    return None


def check_shard(reference: dict, entry: dict) -> str | None:
    """``None`` when one campaign report shard carries the reference
    verdict for its cell, else why it does not."""
    if entry["status"] != "ok":
        return f"{entry['id']}: status {entry['status']} {entry['error']}"
    key = reference_key(entry["tool"], entry["scenario"], entry["plan"],
                        entry["seed"])
    verdict = SHARD_VERDICT[entry["tool"]](entry["result"])
    if verdict != reference[key]["verdict"]:
        return f"{entry['id']}: verdict differs from the reference"
    return None
