"""Run one workload of the benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Workloads: ``cli-cold``, ``campaign-sweep``, ``vehicle-stack`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  An environment record and run details go to
standard error and to ``.perfbench-work/results/``.

The run re-executes itself once in the pinned environment (see
``common.pinned_env``), sets up, discards warm-up requests, then runs a
closed loop with one client for ``--seconds`` seconds.  Set-up is timed
from the start of the process to the first timed request; it is sampled
three times per run (this process and two fresh set-up-only processes)
and reported as the median.  End-to-end times are host-normalized by a
canary loop sampled between requests; the raw times are in the run
record (see "Host-normalized times" in the README).
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.campaign_sweep import CampaignSweep  # noqa: E402
from perfbench.cli_cold import CliCold  # noqa: E402
from perfbench.common import (REF_CANARY_MS, WORK,  # noqa: E402
                              HostCanary, Tracer, canary_ms, env_is_pinned,
                              environment, median, percentile, pinned_env,
                              program_present)
from perfbench.gen import GENERATORS  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.oracle import load_reference  # noqa: E402
from perfbench.vehicle_stack import VehicleStack  # noqa: E402

WORKLOADS = {cls.name: cls for cls in (CliCold, CampaignSweep, VehicleStack)}
#: Set-ups per run: this process plus SETUP_SAMPLES - 1 fresh processes.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
#: Percentiles are reported only with at least ten samples beyond them.
P90_MIN_SAMPLES = 100
#: Request errors kept in the run record.
ERRORS_KEPT = 5
#: Host canary sampling interval during the timed loop, and loops per
#: sample (one sample costs about 5 ms, so about 1 % of the loop).
CANARY_EVERY_S = 0.5
CANARY_REPEATS = 1
#: Width of one run-record timeline bucket.
TIMELINE_BUCKET_S = 5.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_s\": ...} and exit")
    return parser.parse_args(argv)


def _setup_probe(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """One more set-up in a fresh interpreter: its set-up record, errors."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        env=pinned_env(), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        return {}, [f"set-up probe exited {done.returncode}: "
                    f"{done.stderr.strip()[-500:]}"]
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return record, record["errors"]


def _request(workload, request, tracer: Tracer | None
             ) -> tuple[str | None, int]:
    try:
        if tracer is None:
            return workload.request(request, None)
        with tracer.span("request"):
            return workload.request(request, tracer)
    except Exception as exc:  # a crashing request is a failed request
        return f"{type(exc).__name__}: {exc}", 0


def run(args: argparse.Namespace) -> dict:
    reference = load_reference()
    workload = WORKLOADS[args.workload](reference)
    canary_start = canary_ms()
    tracer = Tracer() if args.trace else None
    workload.setup(tracer)
    requests = GENERATORS[args.workload](args.seed)
    errors = [error for error, _units in
              (_request(workload, request, None)
               for request in workload.warmup_requests(requests))
              if error is not None]
    setup_raw_s = time.perf_counter() - _T_START
    canary_ready = canary_ms()
    setup = {"setupRawS": setup_raw_s, "errors": errors,
             "setup_s": setup_raw_s * 2 * REF_CANARY_MS
             / (canary_start + canary_ready)}
    if args.setup_only:
        return setup
    setup_failed = bool(errors)

    # The closed loop: one client, next request after the previous one.
    # Between requests the host canary is sampled every CANARY_EVERY_S;
    # each request's latency is divided by the host factor around it.
    # A traced run alternates traced and untraced requests, so the two
    # latency medians share the host's phases and their difference is
    # the tracing overhead.
    timed: list[tuple[float, float]] = []
    traced_flags: list[bool] = []
    attempted = failed = units = 0
    host = HostCanary()
    t0 = host.t0
    deadline = t0 + args.seconds
    next_canary = t0
    while (start := time.perf_counter()) < deadline:
        if start >= next_canary:
            host.sample(CANARY_REPEATS)
            next_canary = start + CANARY_EVERY_S
            start = time.perf_counter()
        traced = tracer is not None and attempted % 2 == 0
        if traced:
            tracer.request = attempted
        error, done = _request(workload, next(requests),
                               tracer if traced else None)
        timed.append((start - t0, time.perf_counter() - start))
        traced_flags.append(traced)
        attempted += 1
        if error is None:
            units += done
        else:
            failed += 1
            errors.append(error)
    wall_s = time.perf_counter() - t0
    peak_rss = workload.peak_rss_mb()
    host.sample(repeats=7)
    canary_end = host.samples[-1][1]
    factors = host.factors(timed)
    latencies = [duration / factor
                 for (_start, duration), factor in zip(timed, factors)]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "host": {"canaryStartMs": canary_start, "canaryEndMs": canary_end,
                 "canaryMedianMs": median([c for _t, c in host.samples]),
                 "canarySamples": len(host.samples),
                 "refCanaryMs": REF_CANARY_MS,
                 "factorMedian": median(factors)},
        "attempted": attempted, "failed": failed, "wallS": wall_s,
        "completed": {workload.unit: units},
        "errors": errors[:ERRORS_KEPT],
        "timeline": _timeline(timed, host.samples),
    }
    if tracer is None:
        setups = [setup]
        for _ in range(SETUP_SAMPLES - 1):
            probe, probe_errors = _setup_probe(args)
            setups.append(probe)
            setup_failed = setup_failed or bool(probe_errors)
            record["errors"] += probe_errors[:ERRORS_KEPT]
        setups = [sample for sample in setups if sample]
        values = {
            "latency_p50_ms": median(latencies) * 1e3,
            "throughput_per_s": units / sum(latencies),
            "setup_s": median([sample["setup_s"] for sample in setups]),
            "peak_rss_mb": peak_rss,
        }
        raw = [duration for _start, duration in timed]
        record["raw"] = {
            "latencyP50Ms": median(raw) * 1e3,
            "throughputPerS": units / wall_s,
            "setupS": median([sample["setupRawS"] for sample in setups]),
        }
        record["setupSamples"] = setups
        record["latencyP90Ms"] = (percentile(latencies, 90) * 1e3
                                  if attempted >= P90_MIN_SAMPLES else None)
        units_of = END_TO_END
    else:
        traced_ms = [lat * 1e3 for lat, flag in zip(latencies, traced_flags)
                     if flag]
        untraced_ms = [lat * 1e3 for lat, flag
                       in zip(latencies, traced_flags) if not flag]
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(workload.layer_metrics(tracer))
        values["host.canary_ms"] = record["host"]["canaryMedianMs"]
        values["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms)
        record["selfTimeShare"] = _self_time_share(tracer)
        trace_path = (WORK / "traces"
                      / f"{args.workload}-s{args.seed}.json")
        tracer.dump(trace_path)
        record["traceFile"] = str(trace_path.relative_to(WORK.parent))
        units_of = PER_LAYER
    unknown = set(values) - set(units_of)
    if unknown:
        raise KeyError(f"metrics missing from the catalog: {sorted(unknown)}")
    record["result"] = {
        "correct": failed == 0 and not setup_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]}
                    for name in units_of},
    }
    return record


def _timeline(latencies: list[tuple[float, float]],
              canaries: list[tuple[float, float]]) -> list[dict]:
    """Median request latency and host canary per TIMELINE_BUCKET_S, so a
    run's spread can be set against the host's phases."""
    buckets: dict[int, tuple[list[float], list[float]]] = {}
    for series, points in enumerate((latencies, canaries)):
        for offset, value in points:
            bucket = buckets.setdefault(int(offset // TIMELINE_BUCKET_S),
                                        ([], []))
            bucket[series].append(value)
    return [{"startS": index * TIMELINE_BUCKET_S,
             "requests": len(lat),
             "latencyP50Ms": median(lat) * 1e3 if lat else None,
             "canaryMs": median(can) if can else None}
            for index, (lat, can) in sorted(buckets.items())]


def _self_time_share(tracer: Tracer) -> dict[str, float]:
    """Each span name's share of the traced requests' total self time."""
    totals = {name: sum(times) for name, times in tracer.self_times().items()}
    total = sum(totals.values()) or 1.0
    return {name: round(value / total, 4)
            for name, value in sorted(totals.items(), key=lambda kv: -kv[1])}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not program_present():
        print("perfbench: src/repro is missing; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not env_is_pinned():
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *argv],
                  pinned_env())
    record = run(args)
    if args.setup_only:
        print(json.dumps(record))
        return 0
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(results / name, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}),
          file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
