"""Tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke tests start real benchmark runs of a few seconds each.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys

import pytest

from perfbench.common import REF_CANARY_MS, ROOT, HostCanary, Tracer
from perfbench.gen import GENERATORS
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.oracle import (check_cli, check_shard, domain, load_reference,
                              reference_key)

RUN = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def reference() -> dict:
    return load_reference()


def _take(workload: str, seed: int, n: int = 40) -> list:
    return list(itertools.islice(GENERATORS[workload](seed), n))


# -- the seed -> request generators ---------------------------------------------

@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    assert _take(workload, 7) == _take(workload, 7)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_changes_with_the_seed(workload):
    assert _take(workload, 7) != _take(workload, 8)


def test_cli_cold_visits_every_tool_once_per_cycle():
    cells = _take("cli-cold", 3, 25)
    for cycle in range(5):
        tools = [cell[0] for cell in cells[cycle * 5:(cycle + 1) * 5]]
        assert sorted(tools) == sorted({"lint", "flow", "redteam",
                                         "sentinel", "chaos"})


def test_every_drawn_mitigation_has_a_known_verdict():
    from perfbench.gen import MITIGATIONS
    from perfbench.vehicle_stack import BLOCKED_AT

    assert set(BLOCKED_AT) == set(MITIGATIONS)


def test_reference_covers_every_cell_a_generator_draws(reference):
    assert {reference_key(*cell) for cell in domain()} == set(reference)
    for cell in _take("cli-cold", 11, 200):
        assert reference_key(*cell) in reference
    for session in _take("vehicle-stack", 11, 200):
        sentinel = session["sentinel"]
        assert reference_key("sentinel", sentinel["scenario"],
                             sentinel["plan"], sentinel["seed"]) in reference


# -- the oracle -------------------------------------------------------------------

def _lint_document(verdict: dict) -> dict:
    """A minimal lint document carrying exactly ``verdict``."""
    findings = [dict(zip(("ruleId", "subject"), item.split("@", 1)))
                for item in verdict["findings"]]
    return {"findings": findings, "summary": {"total": verdict["total"]}}


def test_oracle_accepts_the_reference_verdict(reference):
    cell = ("lint", "pkes-legacy", "", 0)
    expected = reference[reference_key(*cell)]
    stdout = json.dumps(_lint_document(expected["verdict"]))
    assert check_cli(reference, cell, expected["exit"], stdout) is None


def test_oracle_rejects_a_wrong_exit_code(reference):
    cell = ("lint", "pkes-legacy", "", 0)
    expected = reference[reference_key(*cell)]
    stdout = json.dumps(_lint_document(expected["verdict"]))
    error = check_cli(reference, cell, 1 - expected["exit"], stdout)
    assert error is not None and "exit code" in error


def test_oracle_rejects_a_tampered_verdict(reference):
    cell = ("lint", "pkes-legacy", "", 0)
    expected = reference[reference_key(*cell)]
    tampered = copy.deepcopy(expected["verdict"])
    tampered["findings"] = tampered["findings"][1:]
    stdout = json.dumps(_lint_document(tampered))
    error = check_cli(reference, cell, expected["exit"], stdout)
    assert error is not None and "verdict" in error


def test_oracle_rejects_output_that_is_not_json(reference):
    cell = ("chaos", "maas-platform", "severe", 2)
    expected = reference[reference_key(*cell)]
    assert check_cli(reference, cell, expected["exit"], "Traceback") \
        == "stdout is not JSON"


def test_oracle_rejects_a_tampered_campaign_shard(reference):
    from repro.campaign.shard import execute_shard

    shard = {"id": "sentinel/cariad-breach/severe/s1", "tool": "sentinel",
             "scenario": "cariad-breach", "plan": "severe", "seed": 1,
             "duration": 30}
    payload = execute_shard(shard)
    entry = {**shard, "status": payload["status"], "error": payload["error"],
             "result": payload["result"]}
    assert check_shard(reference, entry) is None
    entry["result"]["detection"]["alarmRaised"] = \
        not entry["result"]["detection"]["alarmRaised"]
    assert check_shard(reference, entry) is not None


def test_a_wrong_reference_verdict_fails_the_request(reference):
    """A request whose verdict differs from the reference is a failure."""
    from perfbench.vehicle_stack import VehicleStack

    first, second = _take("vehicle-stack", 5, 2)
    workload = VehicleStack(reference)
    workload.setup(None)
    assert workload.request(first, None) == (None, 1)

    sentinel = second["sentinel"]
    key = reference_key("sentinel", sentinel["scenario"], sentinel["plan"],
                        sentinel["seed"])
    tampered = copy.deepcopy(reference)
    tampered[key]["verdict"]["faultsInjected"] += 1
    workload.reference = tampered
    error, _units = workload.request(second, None)
    assert error is not None and key in error


# -- tracing ----------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.request = 0
    root = tracer.add("request", 0.0, 10.0, None)
    child = tracer.add("import", 1.0, 4.0, root)
    tracer.add("import.inner", 2.0, 3.0, child)
    tracer.add("analyze", 3.5, 6.0, root)  # overlaps the first child
    times = tracer.self_times()
    assert times["request"] == [pytest.approx(5.0)]
    assert times["import"] == [pytest.approx(2.0)]
    assert times["analyze"] == [pytest.approx(2.5)]


# -- host normalization -----------------------------------------------------------

def test_host_factor_is_the_median_canary_around_a_request():
    host = HostCanary()
    ref = REF_CANARY_MS
    host.samples = [(0.0, ref), (0.5, 2 * ref), (1.0, ref), (6.0, 1.5 * ref),
                    (9.0, ref)]
    assert host.factors([(0.6, 0.1)]) == [1.0]       # 0.0, 0.5, 1.0
    assert host.factors([(2.0, 3.0)]) == [1.25]      # 0.0 .. 6.0
    # beyond the last sample the nearest one still counts
    assert host.factors([(10.0, 1.0)]) == [1.0]


def test_a_slower_host_gives_the_same_normalized_latency():
    fast, slow = HostCanary(), HostCanary()
    fast.samples = [(0.0, REF_CANARY_MS), (1.0, REF_CANARY_MS)]
    slow.samples = [(0.0, 1.5 * REF_CANARY_MS), (1.0, 1.5 * REF_CANARY_MS)]
    (f_fast,) = fast.factors([(0.1, 0.2)])
    (f_slow,) = slow.factors([(0.1, 0.3)])
    assert 0.2 / f_fast == pytest.approx(0.3 / f_slow)


# -- the catalog against BENCHMARK.json -------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(GENERATORS)


# -- smoke runs -------------------------------------------------------------------

def _run(workload: str, trace: int, seconds: str = "2") -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(GENERATORS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_has_no_failures(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalog = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == catalog
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
