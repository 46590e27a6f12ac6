"""``campaign-sweep``: warm campaign cycles through the public ``CampaignEngine``.

One request is one cycle on a fresh journal root:

1. ``run()`` executes a fresh seeded matrix — 5 tools x 5 scenarios x
   {baseline, severe} x 2 seeds, 70 shards — on one supervised worker;
2. the report is serialized and validated (``validate_campaign_dict``);
3. ``run(resume=True)`` replays the settled journal: it must execute
   nothing and produce a byte-identical report.

Every shard must settle ``ok`` with the reference verdict for its cell,
and none may be quarantined.  Imports happen in set-up, and the set-up
runs one shard per tool in this process before any worker is forked, so
forked workers inherit filled lazy caches.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import sys
import tempfile

from perfbench.common import WORK, Tracer, median, no_span, peak_rss_mb
from perfbench.oracle import DURATION, PLANS, SCENARIOS, TOOLS, check_shard

#: One worker process (``jobs`` <= ``nproc`` on any host): the cycle then
#: keeps one CPU busy, like the other workloads, instead of also feeling
#: whatever else runs on the second CPU of a small host.
JOBS = 1
TOOL_PACKAGES = ("repro.faults", "repro.flow", "repro.lint", "repro.redteam",
                 "repro.sentinel")


class CampaignSweep:
    name = "campaign-sweep"
    unit = "shards"

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.entries: list[dict] = []
        self.journal_s = 0.0
        self.journal_records = 0
        self.orchestration_ms: list[float] = []

    def setup(self, tracer: Tracer | None) -> None:
        span = tracer.span if tracer is not None else no_span
        with span("import"):
            # every tool package, so forked workers inherit them loaded
            for package in TOOL_PACKAGES:
                importlib.import_module(package)
            from repro.campaign import (CampaignEngine, CampaignSpec,
                                        replay, validate_campaign_dict)
            from repro.campaign.shard import execute_shard
        self.modules_loaded = len(sys.modules)
        self.engine_cls, self.spec_cls = CampaignEngine, CampaignSpec
        self.replay, self.validate = replay, validate_campaign_dict
        (WORK / "campaigns").mkdir(parents=True, exist_ok=True)
        with span("campaign.warm_shards"):
            for shard in CampaignSpec.matrix(
                    tools=TOOLS, scenarios=["onboard-insecure"],
                    plans=["severe"], seeds=[0], duration=DURATION).shards:
                payload = execute_shard(shard.to_dict())
                if payload["status"] != "ok":
                    raise RuntimeError(f"warm-up shard {shard.shard_id} "
                                       f"failed: {payload['error']}")

    def warmup_requests(self, requests) -> list:
        return [next(requests)]

    def request(self, cycle: dict, tracer: Tracer | None
                ) -> tuple[str | None, int]:
        span = tracer.span if tracer is not None else no_span
        spec = self.spec_cls.matrix(tools=TOOLS, scenarios=SCENARIOS,
                                    plans=PLANS, seeds=cycle["seeds"],
                                    duration=DURATION)
        root = tempfile.mkdtemp(prefix="campaign-", dir=WORK / "campaigns")
        try:
            engine = self.engine_cls(spec, jobs=JOBS, journal_root=root)
            with span("campaign.run"):
                report = engine.run()
            with span("report.serialize"):
                document = report.to_json_dict()
                text = json.dumps(document, indent=2)
            with span("report.validate"):
                self.validate(document)
            with span("campaign.resume"):
                resumed = self.engine_cls(spec, jobs=JOBS,
                                          journal_root=root).run(resume=True)
            with span("campaign.journal_replay"):
                state = self.replay(engine.journal_file)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if tracer is not None:
            self._account(report, resumed)
        error = self._check(spec, document, text, resumed, state)
        return (None if error is None else f"seeds {cycle['seeds']}: {error}",
                len(spec))

    def _check(self, spec, document: dict, text: str, resumed, state
               ) -> str | None:
        summary = document["summary"]
        if summary["quarantined"] or summary["ok"] != len(spec):
            return f"summary {summary}"
        for entry in document["shards"]:
            error = check_shard(self.reference, entry)
            if error is not None:
                return error
        if resumed.resumed_shards != len(spec):
            return (f"resume replayed {resumed.resumed_shards} of "
                    f"{len(spec)} shards")
        if json.dumps(resumed.to_json_dict(), indent=2) != text:
            return "resumed report is not byte-identical"
        if not state.ended or state.in_flight:
            return "journal is not settled after the cycle"
        return None

    def _account(self, report, resumed) -> None:
        entries = list(report.entries.values())
        self.entries += [{"tool": e.shard["tool"], "status": e.status,
                          "attempts": e.attempts, "durationS": e.duration_s}
                         for e in entries]
        self.journal_s += report.journal_write_s + resumed.journal_write_s
        self.journal_records += (report.journal_records
                                 + resumed.journal_records)
        exec_s = sum(e.duration_s for e in entries)
        self.orchestration_ms.append(
            (report.wall_s - exec_s / JOBS) * 1e3)

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        metrics = {
            f"campaign.shard_exec_ms.{tool}": median(
                [e["durationS"] * 1e3 for e in self.entries
                 if e["tool"] == tool])
            for tool in TOOLS}
        metrics.update({
            "import.ms": tracer.per_item_ms("import"),
            "import.modules_loaded": self.modules_loaded,
            "campaign.run_ms": tracer.per_item_ms("campaign.run"),
            "campaign.resume_ms": tracer.per_item_ms("campaign.resume"),
            "campaign.journal_replay_ms": tracer.per_item_ms(
                "campaign.journal_replay"),
            "campaign.journal_append_us": (
                self.journal_s * 1e6 / self.journal_records
                if self.journal_records else 0.0),
            "campaign.orchestration_ms": median(self.orchestration_ms),
            "campaign.shards_attempted": sum(e["attempts"]
                                             for e in self.entries),
            "campaign.shards_ok": sum(e["status"] == "ok"
                                      for e in self.entries),
            "campaign.worker_restarts": sum(max(0, e["attempts"] - 1)
                                            for e in self.entries),
            "campaign.quarantined": sum(e["status"] == "quarantined"
                                        for e in self.entries),
            "report.serialize_ms": tracer.per_item_ms("report.serialize"),
            "report.validate_ms": tracer.per_item_ms("report.validate"),
        })
        return metrics

