"""Renderers for flow-analysis results: CLI text and versioned JSON.

The JSON document (schema version ``1.0``) carries everything the
taint analysis proved — graph size, tainted set, hop-by-hop witnesses,
and the hardening cut per sink — in the shape :data:`SCHEMA` declares,
which :func:`validate_flow_dict` checks, so downstream consumers detect
schema drift instead of silently misparsing.
"""

from __future__ import annotations

from repro.core.schema import (BOOLEAN, COUNT, NON_EMPTY, STRING, Schema,
                               header, require, string_list, validate)
from repro.flow.taint import FlowResult

__all__ = ["render_summary", "render_witnesses", "render_cut",
           "to_json_dict", "validate_flow_dict",
           "FLOW_SCHEMA_VERSION", "FLOW_TOOL_NAME"]

FLOW_SCHEMA_VERSION = "1.0"
FLOW_TOOL_NAME = "repro-flow"


def render_summary(result: FlowResult) -> str:
    """One-paragraph overview: graph size, sources, sinks, verdict."""
    graph = result.graph
    lines = [
        f"flow analysis of {result.target_name!r}:",
        f"  graph: {len(graph.nodes())} node(s), {len(graph.edges())} edge(s), "
        f"{sum(1 for _ in graph.open_edges())} open",
        f"  sources: {', '.join(sorted(n.name for n in graph.sources())) or '-'}",
        f"  sinks: {', '.join(sorted(n.name for n in graph.sinks())) or '-'}",
        f"  tainted nodes: {len(result.tainted)}",
    ]
    if result.path_clean:
        lines.append("  verdict: PATH-CLEAN — no untrusted source reaches a sink")
    else:
        lines.append(f"  verdict: {len(result.witnesses)} unprotected "
                     f"source->sink path(s)")
    return "\n".join(lines)


def render_witnesses(result: FlowResult) -> str:
    """Every witness, hop by hop with the missing boundary per hop."""
    if result.path_clean:
        return "no unprotected paths"
    blocks = []
    for witness in result.witnesses:
        lines = [f"{witness.source} => {witness.sink} "
                 f"({len(witness.hops)} hop(s)):"]
        lines += [f"  [{i}] {line}"
                  for i, line in enumerate(witness.describe(), start=1)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def render_cut(result: FlowResult) -> str:
    """The hardening cut per reached sink."""
    if result.path_clean:
        return "no unprotected paths; nothing to cut"
    lines = []
    for sink in sorted(result.cuts):
        cut = result.cuts[sink]
        if cut:
            pretty = ", ".join(f"{u}->{v}" for u, v in sorted(cut))
            lines.append(f"{sink}: secure {len(cut)} edge(s): {pretty}")
        else:
            lines.append(f"{sink}: sink is itself an untrusted source; "
                         f"no edge cut applies")
    return "\n".join(lines)


def to_json_dict(result: FlowResult) -> dict:
    """The flow document (see module docstring)."""
    from repro import __version__

    graph = result.graph
    return {
        "version": FLOW_SCHEMA_VERSION,
        "tool": {"name": FLOW_TOOL_NAME, "version": __version__},
        "target": result.target_name,
        "graph": {
            "nodes": len(graph.nodes()),
            "edges": len(graph.edges()),
            "open": sum(1 for _ in graph.open_edges()),
        },
        "tainted": sorted(result.tainted),
        "pathClean": result.path_clean,
        "witnesses": [
            {
                "source": witness.source,
                "sink": witness.sink,
                "hops": [
                    {"src": edge.src, "dst": edge.dst,
                     "missingBoundary": edge.missing_boundary}
                    for edge in witness.hops
                ],
            }
            for witness in result.witnesses
        ],
        "cuts": {
            sink: [list(pair) for pair in sorted(result.cuts[sink])]
            for sink in sorted(result.cuts)
        },
    }


SCHEMA: Schema = {"type": "object", "properties": {
    **header(FLOW_SCHEMA_VERSION, FLOW_TOOL_NAME),
    "target": NON_EMPTY,
    "graph": {"type": "object", "properties": {
        "nodes": COUNT, "edges": COUNT, "open": COUNT}},
    "tainted": {"type": "array", "items": STRING},
    "pathClean": BOOLEAN,
    "witnesses": {"type": "array", "items": {"type": "object", "properties": {
        "source": NON_EMPTY,
        "sink": NON_EMPTY,
        "hops": {"type": "array", "minItems": 1, "items": {
            "type": "object", "properties": {
                "src": NON_EMPTY, "dst": NON_EMPTY,
                "missingBoundary": NON_EMPTY}}},
    }}},
    "cuts": {"type": "object", "keys": NON_EMPTY, "values": {
        "type": "array", "items": string_list(minItems=2, maxItems=2)}},
}}


def validate_flow_dict(document: dict) -> None:
    """Raise :class:`~repro.core.schema.SchemaError` unless ``document``
    matches the schema."""
    validate(document, SCHEMA)
    require(document["graph"]["open"] <= document["graph"]["edges"],
            "graph.open cannot exceed graph.edges")
    require(document["pathClean"] == (not document["witnesses"]),
            "pathClean must mean exactly zero witnesses")
    for index, witness in enumerate(document["witnesses"]):
        require(witness["hops"][-1]["dst"] == witness["sink"],
                f"witnesses[{index}]: last hop must land on the sink")
