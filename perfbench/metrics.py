"""The metric catalog: every name the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; a test
keeps the two in step.
"""

from __future__ import annotations

#: Printed by every workload with ``--trace 0``.
END_TO_END = {
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_TOOLS = ("lint", "flow", "redteam", "sentinel", "chaos")

#: Printed by every workload with ``--trace 1``.  A workload whose own
#: code makes no timed call into a layer reports 0 for that layer.
PER_LAYER = {
    "host.canary_ms": "ms",
    "trace.overhead_ms": "ms",
    "import.ms": "ms",
    "import.modules_loaded": "count",
    "lint.build_scenario_ms": "ms",
    "lint.analyze_ms": "ms",
    "flow.analyze_ms": "ms",
    "redteam.analyze_ms": "ms",
    "faults.chaos_ms": "ms",
    "sentinel.run_ms": "ms",
    "sentinel.tick_us": "us",
    "report.serialize_ms": "ms",
    "report.validate_ms": "ms",
    "campaign.run_ms": "ms",
    "campaign.resume_ms": "ms",
    **{f"campaign.shard_exec_ms.{tool}": "ms" for tool in _TOOLS},
    "campaign.journal_append_us": "us",
    "campaign.journal_replay_ms": "ms",
    "campaign.orchestration_ms": "ms",
    "campaign.shards_attempted": "count",
    "campaign.shards_ok": "count",
    "campaign.worker_restarts": "count",
    "campaign.quarantined": "count",
    "phy.ds_twr_batch_us": "us",
    "phy.pkes_unlock_us": "us",
    "ivn.secoc_secure_us": "us",
    "ivn.secoc_verify_us": "us",
    "ivn.can_frame_us": "us",
    "ivn.frames_verified": "count",
    "ivn.macs_rejected": "count",
    "ssi.vc_issue_ms": "ms",
    "ssi.vc_verify_ms": "ms",
    "datalayer.killchain_ms": "ms",
    "datalayer.stages_run": "count",
}
