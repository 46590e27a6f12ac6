"""Sweep reports: summary table / timeline text and a validated JSON doc.

The JSON schema (version ``1.0``) mirrors the ``repro.lint`` and
``repro.obs`` report conventions — small, flat, stable::

    {
      "version": "1.0",
      "tool": {"name": "repro-runner", "version": "<package version>"},
      "sweep": {"jobs", "cache", "baseSeed", "wallS", "treeDigest",
                "interrupted"},
      "experiments": [
        {"id", "status", "exitCode", "durationS", "seed", "retries",
         "cached", "cacheKey", "artifacts": [{"title", "rows"}], "error"}
      ],
      "summary": {"total", "passed", "failed", "errors", "timeouts",
                  "cached", "ok"}
    }

:data:`SCHEMA` declares that shape for :mod:`repro.core.schema`;
:func:`validate_sweep_dict` checks a parsed document against it plus the
status counts and raises :class:`~repro.core.schema.SchemaError` on any
violation — the CI gate and the round-trip tests both call it.
"""

from __future__ import annotations

from repro.core.schema import (BOOLEAN, COUNT, INTEGER, NON_EMPTY,
                               NON_NEGATIVE, STRING, Schema, SchemaError,
                               header, require, validate)
from repro.obs.events import SimEvent
from repro.obs.timeline import Timeline, render_timeline
from repro.runner.engine import ExperimentResult

__all__ = ["SweepReport", "SchemaError", "validate_sweep_dict"]

SCHEMA_VERSION = "1.0"
TOOL_NAME = "repro-runner"

STATUSES = ("passed", "failed", "error", "timeout", "cached")

_STATUS_TO_SUMMARY = {"passed": "passed", "failed": "failed",
                      "error": "errors", "timeout": "timeouts",
                      "cached": "cached"}


class SweepReport:
    """Everything one sweep produced, ready to render/export."""

    def __init__(self, results: list[ExperimentResult], *, jobs: int,
                 cache_enabled: bool, base_seed: int, wall_s: float,
                 tree: str, events: list[SimEvent] | None = None,
                 interrupted: bool = False) -> None:
        self.results = list(results)
        self.jobs = jobs
        self.cache_enabled = cache_enabled
        self.base_seed = base_seed
        self.wall_s = wall_s
        self.tree = tree
        self.events = list(events or [])
        #: The sweep stopped early on KeyboardInterrupt; ``results``
        #: holds only the experiments that completed before the signal.
        self.interrupted = interrupted

    # -- verdicts ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def exit_code(self) -> int:
        """130 for an interrupted sweep (signal convention), else 0/1."""
        if self.interrupted:
            return 130
        return 0 if self.ok else 1

    def counts(self) -> dict[str, int]:
        counts = {name: 0 for name in _STATUS_TO_SUMMARY.values()}
        for result in self.results:
            counts[_STATUS_TO_SUMMARY[result.status]] += 1
        return counts

    # -- rendering -----------------------------------------------------------

    def timeline(self) -> Timeline:
        """The sweep's dispatch/completion events as a Timeline."""
        return Timeline().add(self.events)

    def render_timeline(self) -> str:
        return render_timeline(self.events)

    def to_table(self) -> str:
        """Aligned per-experiment summary plus a totals line."""
        width = max([len(r.exp_id) for r in self.results] + [len("id")])
        lines = [f"{'id'.ljust(width)}  {'status':8s}  {'time':>8s}  note",
                 f"{'-' * width}  {'-' * 8}  {'-' * 8}  {'-' * 30}"]
        for result in self.results:
            note = ""
            if result.cached:
                note = "cache hit"
            elif result.retries:
                note = f"after {result.retries} retry"
            if result.error:
                note = (note + "; " if note else "") + result.error
            lines.append(f"{result.exp_id.ljust(width)}  {result.status:8s}  "
                         f"{result.duration_s:7.2f}s  {note}")
        counts = self.counts()
        lines.append(
            f"sweep: {len(self.results)} experiment(s) in {self.wall_s:.2f}s "
            f"with {self.jobs} job(s) — {counts['passed']} passed, "
            f"{counts['cached']} cached, {counts['failed']} failed, "
            f"{counts['errors']} error(s), {counts['timeouts']} timeout(s)"
            + (" [interrupted — partial results]" if self.interrupted
               else ""))
        return "\n".join(lines)

    # -- export --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The sweep document (see module docstring for the schema)."""
        from repro import __version__

        counts = self.counts()
        return {
            "version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "sweep": {
                "jobs": self.jobs,
                "cache": self.cache_enabled,
                "baseSeed": self.base_seed,
                "wallS": self.wall_s,
                "treeDigest": self.tree,
                "interrupted": self.interrupted,
            },
            "experiments": [result.to_dict() for result in self.results],
            "summary": {"total": len(self.results), **counts, "ok": self.ok},
        }


# --------------------------------------------------------------------------
# schema validation
# --------------------------------------------------------------------------

SCHEMA: Schema = {"type": "object", "properties": {
    **header(SCHEMA_VERSION, TOOL_NAME),
    "sweep": {"type": "object", "properties": {
        "jobs": {"type": "integer", "minimum": 1},
        "cache": BOOLEAN,
        "baseSeed": INTEGER,
        "wallS": NON_NEGATIVE,
        "treeDigest": NON_EMPTY,
        "interrupted": BOOLEAN}},
    "experiments": {"type": "array", "unique": "id", "items": {
        "type": "object", "properties": {
            "id": NON_EMPTY,
            "status": {"enum": list(STATUSES)},
            "exitCode": INTEGER,
            "durationS": NON_NEGATIVE,
            "seed": COUNT,
            "retries": COUNT,
            "cached": BOOLEAN,
            "cacheKey": STRING,
            "artifacts": {"type": "array", "items": {
                "type": "object", "properties": {
                    "title": NON_EMPTY,
                    "rows": {"type": "array", "items": STRING}}}},
            "error": STRING}}},
    "summary": {"type": "object", "properties": {
        **{key: COUNT for key in ("total", "passed", "failed", "errors",
                                  "timeouts", "cached")},
        "ok": BOOLEAN}},
}}


def validate_sweep_dict(document: dict) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches."""
    validate(document, SCHEMA)
    counts = {name: 0 for name in _STATUS_TO_SUMMARY.values()}
    for index, entry in enumerate(document["experiments"]):
        require(entry["cached"] == (entry["status"] == "cached"),
                f"experiments[{index}]: cached flag must match "
                f"status == 'cached'")
        counts[_STATUS_TO_SUMMARY[entry["status"]]] += 1
    summary = document["summary"]
    require(summary["total"] == len(document["experiments"]),
            "summary.total must equal len(experiments)")
    for name, value in counts.items():
        require(summary[name] == value,
                f"summary.{name} must count statuses (expected {value})")
    ok = counts["failed"] == counts["errors"] == counts["timeouts"] == 0
    require(summary["ok"] == ok,
            "summary.ok must be true iff no failed/error/timeout entries")
