"""Traced stand-in for ``python -m repro <tool> <scenario> --json``.

Usage::

    PYTHONPATH=src python3 perfbench/cli_driver.py <tool> <scenario> --json \\
        [--plan PLAN --base-seed N]

In a fresh interpreter it times, in order: ``import repro.<tool>``, the
scenario build (``repro.lint.build_scenario``, for the tools that use
one), the tool's analyze call, serialization, and the tool's validator.
It prints the same JSON document and exits with the same code as the
CLI, then one more line: ``{"spans": [[name, start, end], ...],
"modules": <len(sys.modules) after the import>}``, with
``time.perf_counter`` stamps.
"""

import argparse
import importlib
import json
import sys
import time

#: Tool -> (package imported, analyze span name).
TOOLS = {"lint": ("repro.lint", "lint.analyze"),
         "flow": ("repro.flow", "flow.analyze"),
         "redteam": ("repro.redteam", "redteam.analyze"),
         "sentinel": ("repro.sentinel", "sentinel.run"),
         "chaos": ("repro.faults", "faults.chaos")}
#: The CLI's default gate and virtual-clock duration.
GATE = "low"
DURATION = 30


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="cli_driver.py")
    parser.add_argument("tool", choices=sorted(TOOLS))
    parser.add_argument("scenario")
    parser.add_argument("--json", action="store_true", required=True)
    parser.add_argument("--plan", default="baseline")
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args(argv)
    package, analyze_span = TOOLS[args.tool]
    spans: list[tuple[str, float, float]] = []

    def timed(name, call, *call_args, **kwargs):
        t0 = time.perf_counter()
        result = call(*call_args, **kwargs)
        spans.append((name, t0, time.perf_counter()))
        return result

    t0 = time.perf_counter()
    tool = importlib.import_module(package)
    lint = importlib.import_module("repro.lint")
    spans.append(("import", t0, time.perf_counter()))
    modules = len(sys.modules)

    exit_code = 0
    if args.tool in ("lint", "flow", "redteam"):
        target = timed("lint.build_scenario", lint.build_scenario,
                       args.scenario)
        gate = lint.Severity.from_name(GATE)
    if args.tool in ("lint", "flow"):
        linter = tool.flow_linter() if args.tool == "flow" else lint.Linter()
        report = timed(analyze_span, linter.run, target)
        document = report.to_json_dict(linter.enabled_rules())
        validate = lint.validate_report_dict
        exit_code = report.exit_code(gate)
    elif args.tool == "redteam":
        document = timed(analyze_span, tool.run_redteam_campaign,
                         [args.scenario], base_seed=args.base_seed)
        validate = tool.validate_redteam_dict
        exit_code = lint.Linter(tool.RT_RULES).run(target).exit_code(gate)
    elif args.tool == "sentinel":
        document = timed(analyze_span, tool.run_sentinel_campaign,
                         [args.scenario], args.plan,
                         base_seed=args.base_seed, duration=DURATION)
        validate = tool.validate_sentinel_dict
    else:
        document = timed(analyze_span, tool.run_chaos_campaign,
                         [args.scenario], args.plan,
                         base_seed=args.base_seed, duration=DURATION)
        validate = tool.validate_chaos_dict
    text = timed("report.serialize", json.dumps, document, indent=2)
    timed("report.validate", validate, document)
    print(text)
    print(json.dumps({"spans": spans, "modules": modules}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
