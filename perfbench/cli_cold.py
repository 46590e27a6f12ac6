"""``cli-cold``: one cold ``python -m repro <tool> <scenario> --json`` per request.

Latency runs from spawn to exit, with stdout parsed as JSON and checked
against the reference.  Each request runs in a fresh working directory
inside the checkout, so no ``.repro-cache/`` carries over.  In a traced
request ``cli_driver.py`` replaces ``python -m repro`` and reports the
spans of its import, scenario build, analyze, serialize and validate
steps.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench.common import WORK, Tracer, median, peak_rss_mb, pinned_env
from perfbench.oracle import DURATION, check_cli, cli_argv

DRIVER = Path(__file__).with_name("cli_driver.py")
REQUEST_TIMEOUT_S = 150
WARMUP_CELL = ("lint", "pkes-legacy", "", 0)

#: Driver span name -> per-layer metric (milliseconds, median per call).
ANALYZE_METRICS = {"lint.analyze": "lint.analyze_ms",
                   "flow.analyze": "flow.analyze_ms",
                   "redteam.analyze": "redteam.analyze_ms",
                   "faults.chaos": "faults.chaos_ms",
                   "sentinel.run": "sentinel.run_ms"}


class CliCold:
    name = "cli-cold"
    unit = "commands"

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.env = pinned_env()
        self.modules_loaded: list[int] = []

    def setup(self, tracer: Tracer | None) -> None:
        (WORK / "requests").mkdir(parents=True, exist_ok=True)

    def warmup_requests(self, requests) -> list:
        """One fixed call, so set-up costs the same whatever the seed."""
        return [WARMUP_CELL]

    def request(self, cell: tuple[str, str, str, int], tracer: Tracer | None
                ) -> tuple[str | None, int]:
        program = [str(DRIVER)] if tracer is not None else ["-m", "repro"]
        cwd = tempfile.mkdtemp(prefix="req-", dir=WORK / "requests")
        try:
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *program, *cli_argv(*cell)],
                                  cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=REQUEST_TIMEOUT_S)
            end = time.perf_counter()
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        stdout = done.stdout
        if tracer is not None:
            stdout, _, tail = stdout.rstrip("\n").rpartition("\n")
            try:
                trace = json.loads(tail)
            except ValueError:
                return f"{cell}: driver printed no span record", 1
            process = tracer.add("cli.process", start, end, tracer.current)
            for name, t0, t1 in trace["spans"]:
                tracer.add(name, t0, t1, process)
            self.modules_loaded.append(trace["modules"])
        error = check_cli(self.reference, cell, done.returncode, stdout)
        return (None if error is None else f"{cell}: {error}"), 1

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        metrics = {metric: tracer.per_item_ms(span)
                   for span, metric in ANALYZE_METRICS.items()}
        metrics["sentinel.tick_us"] = (metrics["sentinel.run_ms"] * 1e3
                                       / DURATION)
        metrics.update({
            "import.ms": tracer.per_item_ms("import"),
            "import.modules_loaded": median(self.modules_loaded),
            "lint.build_scenario_ms": tracer.per_item_ms("lint.build_scenario"),
            "report.serialize_ms": tracer.per_item_ms("report.serialize"),
            "report.validate_ms": tracer.per_item_ms("report.validate"),
        })
        return metrics

