"""Command-line experiment runner and static analyzer.

Usage::

    python -m repro list                 # enumerate all experiments
    python -m repro run FIG2             # regenerate one figure/table
    python -m repro run all --jobs 4     # the full sweep, parallel + cached
    python -m repro run FIG1 TAB1 --json # a sub-sweep, machine-readable
    python -m repro lint SCENARIO        # static security analysis
    python -m repro lint --rules         # the seclint rule catalog
    python -m repro flow SCENARIO        # taint/reachability analysis
    python -m repro flow SCENARIO --paths --cut   # witnesses + hardening cut
    python -m repro trace SCENARIO       # instrumented simulation trace
    python -m repro chaos SCENARIO       # fault campaign + resilience report
    python -m repro chaos all --plan severe --json   # machine-readable
    python -m repro redteam SCENARIO --campaigns     # ranked attack campaigns
    python -m repro redteam all --differential       # analyzer-agreement gate
    python -m repro sentinel SCENARIO    # streaming detection + trust report
    python -m repro sentinel all --plan severe --gate detect   # detection gate
    python -m repro audit                # self-audit the shipped source tree
    python -m repro audit --gate high --sarif   # CI gate, SARIF output
    python -m repro campaign run --tools chaos,lint --scenarios all
    python -m repro campaign resume <id> # re-execute only unfinished shards
    python -m repro campaign list        # journaled campaigns and their state
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import EXPERIMENTS, find

#: Every registered subcommand with its one-line description.  The
#: ``--help`` listing is generated from this table and a smoke test
#: asserts it stays in sync with the registered subparsers, so adding a
#: subcommand without describing it here fails CI.
SUBCOMMANDS: dict[str, str] = {
    "list": "enumerate experiments",
    "run": "run experiments (parallel, cached sweep)",
    "lint": "static security-configuration analysis",
    "flow": "static cross-layer taint/reachability analysis",
    "trace": "run an instrumented simulation and show its trace",
    "chaos": "run a scenario under an injected fault campaign",
    "redteam": "plan ranked attack campaigns (static red team)",
    "sentinel": "stream a fault campaign into the online alarm engine",
    "audit": "statically self-audit the shipped source tree",
    "campaign": "crash-safe resumable campaigns over the tool fleet",
}


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def positive_int(text: str) -> int:
    """``argparse`` type for a count that must be at least 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """``argparse`` type for a count where 0 is meaningful."""
    return _int_at_least(text, 0)


def _cmd_list() -> int:
    width = max(len(e.exp_id) for e in EXPERIMENTS)
    print(f"{'id'.ljust(width)}  artifact   description")
    print(f"{'-' * width}  ---------  {'-' * 50}")
    for experiment in EXPERIMENTS:
        print(f"{experiment.exp_id.ljust(width)}  {experiment.paper_artifact:9s}  "
              f"{experiment.description}")
    return 0


def _render_artifacts(artifacts: list[dict]) -> str:
    sections = []
    for artifact in artifacts:
        sections.append("\n".join([f"=== {artifact['title']} ==="]
                                  + list(artifact["rows"])))
    return "\n\n".join(sections)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import SweepRunner, validate_sweep_dict

    if any(exp_id.lower() == "all" for exp_id in args.exp_ids):
        experiments = list(EXPERIMENTS)
    else:
        experiments = []
        for exp_id in args.exp_ids:
            try:
                experiment = find(exp_id)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            if experiment not in experiments:
                experiments.append(experiment)

    def _stream(result) -> None:
        if args.json:
            return
        header = (f"--- {result.exp_id}: {result.status} "
                  f"({result.duration_s:.2f}s"
                  f"{', cached' if result.cached else ''}) ---")
        print(header)
        if result.cached:
            body = _render_artifacts(result.artifacts)
        else:
            body = result.output_tail.rstrip()
        if body:
            print(body)
        if result.error:
            print(f"error: {result.error}", file=sys.stderr)

    runner = SweepRunner(
        experiments, jobs=args.jobs, use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries or None,
        base_seed=args.base_seed,
        timeout_s=args.timeout, on_result=_stream)
    report = runner.run()

    if args.json:
        document = report.to_json_dict()
        validate_sweep_dict(document)
        print(json.dumps(document, indent=2))
    else:
        print()
        print(report.to_table())
        if args.timeline:
            print()
            print(report.render_timeline())
    return report.exit_code()


def _cmd_lint_rules() -> int:
    from repro.lint import full_catalog

    print(f"{'id':8s} {'layer':18s} {'severity':9s} {'paper':16s} title")
    print(f"{'-' * 8} {'-' * 18} {'-' * 9} {'-' * 16} {'-' * 40}")
    for rule in sorted(full_catalog(), key=lambda r: r.rule_id):
        print(f"{rule.rule_id:8s} {rule.layer.name.lower():18s} "
              f"{rule.severity.name.lower():9s} {rule.paper_ref:16s} {rule.title}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (Baseline, Linter, Severity, build_scenario,
                            scenario_names, validate_report_dict)

    if args.rules:
        return _cmd_lint_rules()
    if args.scenario is None:
        print("a scenario name (or 'all') is required; available: "
              + ", ".join(scenario_names()), file=sys.stderr)
        return 2

    names = scenario_names() if args.scenario == "all" else [args.scenario]
    gate = None if args.gate == "none" else Severity.from_name(args.gate)

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2

    linter = Linter()
    if args.disable:
        try:
            linter.disable(*[r.strip() for r in args.disable.split(",")
                             if r.strip()])
        except KeyError as exc:
            print(f"--disable: {exc.args[0]}; see --rules for the catalog",
                  file=sys.stderr)
            return 2

    if args.write_baseline:
        # One baseline file for the whole invocation: findings from every
        # scenario are merged (a per-scenario loop writing to the same
        # path would keep only the last scenario's suppressions).
        combined: Baseline | None = None
        for name in names:
            try:
                target = build_scenario(name)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            report = linter.run(target, baseline=baseline)
            captured = Baseline.from_report(report,
                                            comment=args.baseline_comment)
            if combined is None:
                combined = captured
            else:
                combined.target = "all"
                combined.entries.update(captured.entries)
        assert combined is not None
        combined.save(args.write_baseline)
        print(f"wrote baseline with {len(combined)} suppression(s) "
              f"from {len(names)} scenario(s) to {args.write_baseline}")
        return 0

    exit_code = 0
    for name in names:
        try:
            target = build_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        report = linter.run(target, baseline=baseline)
        if args.sarif:
            from repro.lint.sarif import to_sarif_dict, validate_sarif_dict

            document = to_sarif_dict(report, linter.enabled_rules())
            validate_sarif_dict(document)
            print(json.dumps(document, indent=2))
        elif args.json:
            document = report.to_json_dict(linter.enabled_rules())
            validate_report_dict(document)
            print(json.dumps(document, indent=2))
        else:
            print(report.to_table())
        exit_code = max(exit_code, report.exit_code(gate))
    return exit_code


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.flow import (analyze, flow_linter, render_cut, render_summary,
                            render_witnesses)
    from repro.lint import (Baseline, Severity, build_scenario, scenario_names,
                            validate_report_dict)

    if args.scenario is None:
        print("a scenario name (or 'all') is required; available: "
              + ", ".join(scenario_names()), file=sys.stderr)
        return 2
    names = scenario_names() if args.scenario == "all" else [args.scenario]
    gate = None if args.gate == "none" else Severity.from_name(args.gate)

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2

    linter = flow_linter()
    if args.write_baseline:
        # Mirror `lint --write-baseline`: one merged file per invocation.
        combined: Baseline | None = None
        for name in names:
            try:
                target = build_scenario(name)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            report = linter.run(target, baseline=baseline)
            captured = Baseline.from_report(report)
            if combined is None:
                combined = captured
            else:
                combined.target = "all"
                combined.entries.update(captured.entries)
        assert combined is not None
        combined.save(args.write_baseline)
        print(f"wrote baseline with {len(combined)} suppression(s) "
              f"from {len(names)} scenario(s) to {args.write_baseline}")
        return 0

    exit_code = 0
    for name in names:
        try:
            target = build_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        report = linter.run(target, baseline=baseline)
        if args.sarif:
            from repro.lint.sarif import to_sarif_dict, validate_sarif_dict

            document = to_sarif_dict(report, linter.enabled_rules())
            validate_sarif_dict(document)
            print(json.dumps(document, indent=2))
        elif args.json:
            document = report.to_json_dict(linter.enabled_rules())
            validate_report_dict(document)
            print(json.dumps(document, indent=2))
        else:
            result = analyze(target)
            print(render_summary(result))
            if args.paths:
                print()
                print(render_witnesses(result))
            if args.cut:
                print()
                print(render_cut(result))
        exit_code = max(exit_code, report.exit_code(gate))
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (TraceReport, instrumented, render_metrics_table,
                           run_trace_scenario, trace_scenario_names,
                           validate_trace_dict)
    from repro.obs.runtime import OBS
    from repro.obs.timeline import render_timeline

    if args.scenario is None:
        print("a scenario name (or 'all') is required; available: "
              + ", ".join(trace_scenario_names()), file=sys.stderr)
        return 2
    names = (trace_scenario_names() if args.scenario == "all"
             else [args.scenario])

    documents = []
    for name in names:
        try:
            with instrumented(capacity=args.events):
                result = run_trace_scenario(name)
                report = TraceReport.from_instrumentation(name, result=result)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if args.jsonl:
            written = OBS.events.write_jsonl(args.jsonl)
            print(f"wrote {written} event(s) to {args.jsonl}", file=sys.stderr)
        if args.json:
            document = report.to_json_dict()
            validate_trace_dict(document)
            documents.append(document)
            continue
        if args.timeline:
            print(f"=== timeline: {name} ===")
            print(render_timeline(report.events))
        else:
            print(report.to_table())
        if args.metrics:
            print(render_metrics_table(report.metrics))
    if args.json:
        payload = documents[0] if len(documents) == 1 else documents
        print(json.dumps(payload, indent=2))
    return 0


def _render_chaos_scenario(result: dict) -> str:
    """Human-readable block for one chaos scenario result."""
    lines = [f"=== chaos: {result['scenario']} "
             f"({'resilient' if result['resilient'] else 'no resilience'}) ==="]
    window = result["window"]
    lines.append(f"fault window [{window['start']:g}, {window['end']:g}) over "
                 f"{result['durationTicks']} ticks — "
                 f"{result['faults']['injected']} fault(s) injected")
    lines.append(f"{'layer':18s}  {'avail':>6s}  {'in-window':>9s}")
    for entry in result["layers"]:
        lines.append(f"{entry['layer']:18s}  {entry['availability']:6.2%}  "
                     f"{entry['windowAvailability']:9.2%}")
    degradation = result["degradation"]
    ttd, ttr = degradation["timeToDegradeS"], degradation["timeToRecoverS"]
    lines.append(
        f"service level: min={degradation['minLevel']} "
        f"final={degradation['finalLevel']} "
        f"degraded@{'never' if ttd is None else f'{ttd:g}s'} "
        f"recovered@{'never' if ttr is None else f'{ttr:g}s'}")
    retry = result["retry"]
    if retry["calls"]:
        lines.append(f"retries: {retry['retries']} across {retry['calls']} "
                     f"call(s), {retry['recovered']} recovered, "
                     f"{retry['exhausted']} exhausted")
    for breaker in result["breakers"]:
        lines.append(f"breaker {breaker['name']}: {breaker['opens']} open(s), "
                     f"{breaker['rejections']} rejection(s), "
                     f"final {breaker['finalState']}")
    if result["ssi"] is not None:
        ssi = result["ssi"]
        lines.append(f"ssi resolver: {ssi['hits']} fresh, {ssi['staleHits']} "
                     f"stale-cache, {ssi['failures']} failure(s)")
    if result["alerts"]:
        lines.append(f"ids alerts handled: {result['alerts']}")
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import (chaos_scenario_names, plan_names,
                              run_chaos_campaign, validate_chaos_dict)

    if args.scenario is None:
        print("a scenario name (or 'all') is required; available: "
              + ", ".join(chaos_scenario_names()), file=sys.stderr)
        return 2
    if args.plan not in plan_names():
        print(f"unknown fault plan {args.plan!r}; available: "
              + ", ".join(plan_names()), file=sys.stderr)
        return 2
    names = (chaos_scenario_names() if args.scenario == "all"
             else [args.scenario])
    try:
        document = run_chaos_campaign(names, args.plan,
                                      base_seed=args.base_seed,
                                      duration=args.duration)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    validate_chaos_dict(document)

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote chaos report to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        blocks = [_render_chaos_scenario(result)
                  for result in document["scenarios"]]
        summary = document["summary"]
        blocks.append(
            f"campaign '{args.plan}': {summary['scenarioCount']} scenario(s), "
            f"{summary['faultsInjected']} fault(s) injected; layers sustained "
            f"in-window: {', '.join(summary['layersSustained']) or 'none'}; "
            f"at minimal-risk or below: "
            f"{', '.join(summary['scenariosAtMinimalRiskOrBelow']) or 'none'}")
        print("\n\n".join(blocks))
    return 0


def _cmd_redteam(args: argparse.Namespace) -> int:
    from repro.lint import Severity, build_scenario, scenario_names
    from repro.lint.engine import Linter
    from repro.redteam import (RT_RULES, plan, render_campaigns,
                               render_summary, run_differential,
                               run_redteam_campaign, validate_redteam_dict)

    if args.scenario is None:
        print("a scenario name (or 'all') is required; available: "
              + ", ".join(scenario_names()), file=sys.stderr)
        return 2
    names = scenario_names() if args.scenario == "all" else [args.scenario]
    for name in names:
        if name not in scenario_names():
            print(f"unknown scenario {name!r}; available: "
                  + ", ".join(scenario_names()), file=sys.stderr)
            return 2
    gate = None if args.gate == "none" else Severity.from_name(args.gate)

    if args.differential:
        violations_by_scenario = run_differential(names)
        failed = False
        for name in names:
            violations = violations_by_scenario[name]
            if violations:
                failed = True
                print(f"{name}: {len(violations)} analyzer "
                      f"disagreement(s)")
                for violation in violations:
                    print(f"  {violation}")
            else:
                print(f"{name}: analyzers agree (lint/flow/redteam)")
        return 1 if failed else 0

    if args.json:
        document = run_redteam_campaign(names, base_seed=args.base_seed)
        validate_redteam_dict(document)
        print(json.dumps(document, indent=2))
        # the gate still applies to machine-readable runs
        exit_code = 0
        for name in names:
            report = Linter(RT_RULES).run(build_scenario(name))
            exit_code = max(exit_code, report.exit_code(gate))
        return exit_code

    exit_code = 0
    for name in names:
        target = build_scenario(name)
        report = Linter(RT_RULES).run(target)
        if args.sarif:
            from repro.lint.sarif import to_sarif_dict, validate_sarif_dict

            document = to_sarif_dict(report, RT_RULES)
            validate_sarif_dict(document)
            print(json.dumps(document, indent=2))
        else:
            result = plan(target)
            print(render_summary(result))
            if args.campaigns:
                print()
                print(render_campaigns(result, top=args.top))
        exit_code = max(exit_code, report.exit_code(gate))
    return exit_code


def _render_sentinel_scenario(result: dict, *, trust: bool = False,
                              alarms: bool = False) -> str:
    """Human-readable block for one sentinel scenario result."""
    sentinel = result["sentinel"]
    detection = result["detection"]
    lines = [f"=== sentinel: {result['scenario']} "
             f"({'resilient' if result['resilient'] else 'no resilience'}) ==="]
    window = result["window"]
    lines.append(f"fault window [{window['start']:g}, {window['end']:g}) over "
                 f"{result['durationTicks']} ticks — "
                 f"{result['faults']['injected']} fault(s) injected, "
                 f"{sentinel['eventsConsumed']} event(s) streamed")
    first = detection["firstAlarmT"]
    safe_stop = detection["safeStopT"]
    lines.append(
        f"first alarm: {'never' if first is None else f't={first:g}'}; "
        f"safe stop: {'never' if safe_stop is None else f't={safe_stop:g}'}; "
        f"lead: " + ("n/a" if detection["leadTicks"] is None
                     else f"{detection['leadTicks']:g} tick(s)"))
    for incident in sentinel["incidents"]:
        closed = incident["closedT"]
        lines.append(
            f"incident #{incident['id']}: opened t={incident['openedT']:g}, "
            f"{'open' if closed is None else f'closed t={closed:g}'}, "
            f"{incident['alarmCount']} alarm(s) across "
            f"{', '.join(incident['sources'])}"
            f"{' [cross-layer]' if incident['crossLayer'] else ''}")
    if detection["trustCollapsed"]:
        lines.append("trust collapsed: " + ", ".join(detection["trustCollapsed"]))
    if result["response"]["isolated"]:
        lines.append("isolated: " + ", ".join(result["response"]["isolated"]))
    degradation = result["degradation"]
    lines.append(f"service level: min={degradation['minLevel']} "
                 f"final={degradation['finalLevel']}")
    if alarms:
        lines.append(f"{'source':18s} {'detector':17s} {'state':8s} "
                     f"{'moves':>5s}  first alarm")
        for machine in sentinel["machines"]:
            first_alarm = machine["firstAlarmT"]
            lines.append(
                f"{machine['source']:18s} {machine['detector']:17s} "
                f"{machine['finalState']:8s} {machine['transitions']:5d}  "
                f"{'-' if first_alarm is None else f't={first_alarm:g}'}")
    if trust:
        lines.append(f"{'source':18s} {'phase':10s} {'score':>6s} "
                     f"{'min':>6s} {'hard':>4s}  collapsed")
        for entry in sentinel["trust"]:
            collapsed_t = entry["collapsedT"]
            lines.append(
                f"{entry['source']:18s} {entry['phase']:10s} "
                f"{entry['score']:6.3f} {entry['minScore']:6.3f} "
                f"{entry['hardHits']:4d}  "
                f"{'-' if collapsed_t is None else f't={collapsed_t:g}'}")
    return "\n".join(lines)


def _sentinel_gate_failures(document: dict, gate: str) -> list[str]:
    """The twin CI gates: 'clean' (no alarms) and 'detect' (alarm in time)."""
    failures = []
    for result in document["scenarios"]:
        name = result["scenario"]
        detection = result["detection"]
        if gate == "clean":
            if detection["alarmIncidents"]:
                failures.append(
                    f"{name}: {detection['alarmIncidents']} ALARM incident(s) "
                    f"on a scenario expected to stay clean")
        elif gate == "detect":
            if not detection["alarmRaised"]:
                failures.append(f"{name}: no ALARM raised")
            elif not detection["detectedBeforeSafeStop"]:
                failures.append(
                    f"{name}: first alarm t={detection['firstAlarmT']:g} "
                    f"missed safe stop t={detection['safeStopT']:g}")
            if not detection["trustCollapsed"]:
                failures.append(f"{name}: no trust score collapsed")
    return failures


def _cmd_sentinel(args: argparse.Namespace) -> int:
    from repro.faults import plan_names
    from repro.sentinel import (run_sentinel_campaign, sentinel_scenario_names,
                                validate_sentinel_dict)

    if args.scenario is None:
        print("a scenario name (or 'all') is required; available: "
              + ", ".join(sentinel_scenario_names()), file=sys.stderr)
        return 2
    if args.plan not in plan_names():
        print(f"unknown fault plan {args.plan!r}; available: "
              + ", ".join(plan_names()), file=sys.stderr)
        return 2
    names = (sentinel_scenario_names() if args.scenario == "all"
             else [args.scenario])
    try:
        document = run_sentinel_campaign(names, args.plan,
                                         base_seed=args.base_seed,
                                         duration=args.duration)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    validate_sentinel_dict(document)

    if args.report:
        with open(args.report, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote sentinel report to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        blocks = [_render_sentinel_scenario(result, trust=args.trust,
                                            alarms=args.alarms)
                  for result in document["scenarios"]]
        summary = document["summary"]
        blocks.append(
            f"campaign '{args.plan}': {summary['scenarioCount']} scenario(s), "
            f"{summary['alarmIncidents']} incident(s); detected: "
            f"{', '.join(summary['scenariosDetected']) or 'none'}; clean: "
            f"{', '.join(summary['scenariosClean']) or 'none'}; trust "
            f"collapsed: {', '.join(summary['trustCollapsed']) or 'none'}")
        print("\n\n".join(blocks))

    if args.gate != "none":
        failures = _sentinel_gate_failures(document, args.gate)
        for failure in failures:
            print(f"gate '{args.gate}' failed — {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


def _cmd_audit_rules() -> int:
    from repro.audit import all_checkers

    print(f"{'id':8s} {'severity':9s} title")
    print(f"{'-' * 8} {'-' * 9} {'-' * 50}")
    for checker in all_checkers():
        print(f"{checker.rule_id:8s} {checker.severity.name.lower():9s} "
              f"{checker.title}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import (AuditContext, AuditEngine, to_sarif_dict,
                             validate_audit_dict)
    from repro.lint import Baseline, Severity

    if args.rules:
        return _cmd_audit_rules()

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2

    engine = AuditEngine()
    try:
        context = AuditContext.parse(args.root)
    except (OSError, SyntaxError) as exc:
        print(f"cannot parse audit root: {exc}", file=sys.stderr)
        return 2
    if not context.modules:
        print(f"no Python modules to audit under {context.root}",
              file=sys.stderr)
        return 2
    report = engine.run(context, baseline=baseline)

    if args.write_baseline:
        captured = Baseline.from_report(
            report, comment="accepted: pre-existing audit finding")
        captured.save(args.write_baseline)
        print(f"wrote baseline with {len(captured)} suppression(s) to "
              f"{args.write_baseline}")
        return 0

    gate = None if args.gate == "none" else Severity.from_name(args.gate)
    if args.sarif:
        from repro.lint.sarif import validate_sarif_dict

        document = to_sarif_dict(report, engine.checkers)
        validate_sarif_dict(document)
        print(json.dumps(document, indent=2))
    elif args.json:
        document = report.to_json_dict(engine.checkers)
        validate_audit_dict(document)
        print(json.dumps(document, indent=2))
    else:
        print(report.to_table())
    return report.exit_code(gate)


def _campaign_spec_from_args(args: argparse.Namespace):
    """Build the shard matrix a ``campaign run`` invocation asks for."""
    from repro.campaign import CampaignSpec, CampaignTool
    from repro.faults import plan_names
    from repro.lint import scenario_names

    tool_values = [t.strip() for t in args.tools.split(",") if t.strip()]
    if any(value == "all" for value in tool_values):
        tool_values = [tool.value for tool in CampaignTool]
    tools = []
    for value in tool_values:
        try:
            tools.append(CampaignTool(value))
        except ValueError:
            known = ", ".join(tool.value for tool in CampaignTool)
            raise ValueError(f"unknown tool {value!r}; available: {known}")
    scenarios = ([s.strip() for s in args.scenarios.split(",") if s.strip()]
                 if args.scenarios != "all" else sorted(scenario_names()))
    for scenario in scenarios:
        if scenario not in scenario_names():
            raise ValueError(f"unknown scenario {scenario!r}; available: "
                             + ", ".join(scenario_names()))
    plans = [p.strip() for p in args.plans.split(",") if p.strip()]
    for plan in plans:
        if plan not in plan_names():
            raise ValueError(f"unknown fault plan {plan!r}; available: "
                             + ", ".join(plan_names()))
    seeds = [int(s) for s in str(args.seeds).split(",") if s.strip()]
    return CampaignSpec.matrix(tools=tools, scenarios=scenarios, plans=plans,
                               seeds=seeds, duration=args.duration,
                               name=args.name)


def _campaign_emit(report, args: argparse.Namespace) -> int:
    from repro.campaign import validate_campaign_dict

    document = report.to_json_dict()
    validate_campaign_dict(document)
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote campaign report to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(report.to_table())
    return report.exit_code()


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (CampaignEngine, CampaignError, JournalCorrupt,
                                list_campaigns, load_campaign)

    if args.campaign_command == "list":
        rows = list_campaigns(args.journal_root)
        if not rows:
            print("no journaled campaigns")
            return 0
        width = max(len(row["id"]) for row in rows)
        print(f"{'id'.ljust(width)}  {'status':12s}  settled")
        for row in rows:
            print(f"{row['id'].ljust(width)}  {row['status']:12s}  "
                  f"{row['settled']}/{row['shards']}")
        return 0

    if args.campaign_command in ("resume", "status"):
        try:
            spec = load_campaign(args.campaign_id, args.journal_root)
        except (CampaignError, JournalCorrupt, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:  # run
        try:
            spec = _campaign_spec_from_args(args)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    engine = CampaignEngine(
        spec, jobs=args.jobs, journal_root=args.journal_root,
        shard_timeout_s=args.timeout,
        install_signal_handlers=args.campaign_command != "status")

    if args.campaign_command == "status":
        from repro.campaign import replay

        state = replay(engine.journal_file)
        settled = sum(1 for shard in spec.shards
                      if state.settled(shard.shard_id))
        status = "complete" if state.ended else (
            "interrupted" if state.interrupts else "incomplete")
        print(f"campaign {engine.campaign_id}: {status}, "
              f"{settled}/{len(spec)} shard(s) settled, "
              f"{len(state.quarantined)} quarantined, "
              f"{state.records} journal record(s)")
        if state.in_flight:
            print("in flight at last crash/interrupt: "
                  + ", ".join(state.in_flight))
        if not state.ended:
            print(f"resume with: {engine.resume_command}")
        return 0

    try:
        report = engine.run(resume=args.campaign_command == "resume")
    except (CampaignError, JournalCorrupt) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    code = _campaign_emit(report, args)
    if report.interrupted:
        print(f"interrupted; resume with: {engine.resume_command}",
              file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser; every subcommand comes from SUBCOMMANDS."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's figures and tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help=SUBCOMMANDS["list"])
    run_parser = subparsers.add_parser("run", help=SUBCOMMANDS["run"])
    run_parser.add_argument("exp_ids", nargs="+", metavar="EXP_ID",
                            help="experiment id(s) from `list`, or 'all'")
    run_parser.add_argument("--jobs", "-j", type=positive_int, default=1, metavar="N",
                            help="worker processes for the sweep (default 1)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="ignore and don't update the result cache")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the schema-validated sweep document")
    run_parser.add_argument("--timeline", action="store_true",
                            help="append the sweep dispatch/completion "
                                 "timeline")
    run_parser.add_argument("--timeout", type=float, default=900.0,
                            metavar="S",
                            help="per-experiment timeout in seconds "
                                 "(default 900)")
    run_parser.add_argument("--base-seed", type=int, default=0, metavar="N",
                            help="sweep base seed; re-shards every "
                                 "experiment's rng streams (default 0)")
    run_parser.add_argument("--cache-dir", metavar="DIR",
                            help="result-cache directory "
                                 "(default .repro-cache/runner)")
    run_parser.add_argument("--cache-max-entries", type=non_negative_int,
                            default=512, metavar="N",
                            help="prune the result cache to the N most "
                                 "recently used entries on every write "
                                 "(default 512; 0 disables pruning)")

    lint_parser = subparsers.add_parser("lint", help=SUBCOMMANDS["lint"])
    lint_parser.add_argument("scenario", nargs="?",
                             help="scenario name from repro.lint.SCENARIOS, or 'all'")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit the SARIF-lite JSON report")
    lint_parser.add_argument("--gate", default="low",
                             choices=["info", "low", "medium", "high",
                                      "critical", "none"],
                             help="fail (exit 1) on findings at or above this "
                                  "severity (default: low; 'none' never fails)")
    lint_parser.add_argument("--baseline", metavar="FILE",
                             help="suppress findings pinned in this baseline file")
    lint_parser.add_argument("--write-baseline", metavar="FILE",
                             help="capture current findings as the baseline "
                                  "and exit 0")
    lint_parser.add_argument("--baseline-comment",
                             default="accepted: intentionally insecure scenario",
                             help="comment recorded with --write-baseline entries")
    lint_parser.add_argument("--disable", metavar="IDS",
                             help="comma-separated rule ids to skip")
    lint_parser.add_argument("--rules", action="store_true",
                             help="print the rule catalog and exit")
    lint_parser.add_argument("--sarif", action="store_true",
                             help="emit a SARIF 2.1.0 log instead of a table")

    flow_parser = subparsers.add_parser("flow", help=SUBCOMMANDS["flow"])
    flow_parser.add_argument("scenario", nargs="?",
                             help="scenario name from repro.lint.SCENARIOS, "
                                  "or 'all'")
    flow_parser.add_argument("--paths", action="store_true",
                             help="print every source->sink witness hop by hop")
    flow_parser.add_argument("--cut", action="store_true",
                             help="print the minimal hardening cut per sink")
    flow_parser.add_argument("--json", action="store_true",
                             help="emit the SARIF-lite JSON report "
                                  "(FLOW rules only)")
    flow_parser.add_argument("--sarif", action="store_true",
                             help="emit a SARIF 2.1.0 log (FLOW rules only)")
    flow_parser.add_argument("--gate", default="low",
                             choices=["info", "low", "medium", "high",
                                      "critical", "none"],
                             help="fail (exit 1) on findings at or above this "
                                  "severity (default: low; 'none' never fails)")
    flow_parser.add_argument("--baseline", metavar="FILE",
                             help="suppress findings pinned in this baseline "
                                  "file")
    flow_parser.add_argument("--write-baseline", metavar="FILE",
                             help="capture current flow findings as the "
                                  "baseline and exit 0")

    trace_parser = subparsers.add_parser("trace", help=SUBCOMMANDS["trace"])
    trace_parser.add_argument("scenario", nargs="?",
                              help="scenario name from repro.obs.TRACE_SCENARIOS, "
                                   "or 'all'")
    trace_parser.add_argument("--json", action="store_true",
                              help="emit the schema-validated trace document")
    trace_parser.add_argument("--metrics", action="store_true",
                              help="append the counters/gauges/histograms table")
    trace_parser.add_argument("--timeline", action="store_true",
                              help="print only the cross-layer event timeline")
    trace_parser.add_argument("--events", type=positive_int, default=65536,
                              metavar="N",
                              help="event ring-buffer capacity (default 65536)")
    trace_parser.add_argument("--jsonl", metavar="FILE",
                              help="also export the event log as JSONL")

    chaos_parser = subparsers.add_parser("chaos", help=SUBCOMMANDS["chaos"])
    chaos_parser.add_argument("scenario", nargs="?",
                              help="scenario name from "
                                   "repro.faults.CHAOS_SCENARIOS, or 'all'")
    chaos_parser.add_argument("--plan", default="baseline",
                              metavar="PLAN",
                              help="fault plan to inject "
                                   "(baseline or severe; default baseline)")
    chaos_parser.add_argument("--base-seed", type=int, default=0, metavar="N",
                              help="campaign base seed; identical seed + plan "
                                   "replays the exact fault sequence "
                                   "(default 0)")
    chaos_parser.add_argument("--duration", type=positive_int, default=30, metavar="N",
                              help="campaign length in virtual-clock ticks "
                                   "(default 30)")
    chaos_parser.add_argument("--json", action="store_true",
                              help="emit the schema-validated chaos document")
    chaos_parser.add_argument("--report", metavar="FILE",
                              help="also write the chaos JSON document to FILE")

    redteam_parser = subparsers.add_parser("redteam",
                                           help=SUBCOMMANDS["redteam"])
    redteam_parser.add_argument("scenario", nargs="?",
                                help="scenario name from "
                                     "repro.lint.SCENARIOS, or 'all'")
    redteam_parser.add_argument("--campaigns", action="store_true",
                                help="print every ranked campaign hop by hop "
                                     "with the defense that breaks each step")
    redteam_parser.add_argument("--top", type=positive_int, default=None, metavar="N",
                                help="with --campaigns, show only the N "
                                     "cheapest campaigns")
    redteam_parser.add_argument("--json", action="store_true",
                                help="emit the schema-validated campaign "
                                     "document")
    redteam_parser.add_argument("--sarif", action="store_true",
                                help="emit a SARIF 2.1.0 log (RT rules only)")
    redteam_parser.add_argument("--gate", default="low",
                                choices=["info", "low", "medium", "high",
                                         "critical", "none"],
                                help="fail (exit 1) on RT findings at or "
                                     "above this severity (default: low; "
                                     "'none' never fails)")
    redteam_parser.add_argument("--differential", action="store_true",
                                help="check the three static analyzers "
                                     "agree; exit 1 on any disagreement")
    redteam_parser.add_argument("--base-seed", type=int, default=0,
                                metavar="N",
                                help="recorded in the JSON document; the "
                                     "planner is static, so output is "
                                     "byte-identical per (scenario, seed) "
                                     "(default 0)")

    sentinel_parser = subparsers.add_parser("sentinel",
                                            help=SUBCOMMANDS["sentinel"])
    sentinel_parser.add_argument("scenario", nargs="?",
                                 help="scenario name from "
                                      "repro.faults.CHAOS_SCENARIOS, or 'all'")
    sentinel_parser.add_argument("--plan", default="baseline", metavar="PLAN",
                                 help="fault plan to stream against "
                                      "(baseline or severe; default baseline)")
    sentinel_parser.add_argument("--base-seed", type=int, default=0,
                                 metavar="N",
                                 help="campaign base seed; identical seed + "
                                      "plan replays the exact telemetry and "
                                      "verdicts (default 0)")
    sentinel_parser.add_argument("--duration", type=positive_int, default=30,
                                 metavar="N",
                                 help="campaign length in virtual-clock ticks "
                                      "(default 30)")
    sentinel_parser.add_argument("--trust", action="store_true",
                                 help="append the per-source trust table")
    sentinel_parser.add_argument("--alarms", action="store_true",
                                 help="append the per-machine alarm table")
    sentinel_parser.add_argument("--json", action="store_true",
                                 help="emit the schema-validated sentinel "
                                      "document")
    sentinel_parser.add_argument("--report", metavar="FILE",
                                 help="also write the sentinel JSON document "
                                      "to FILE")
    sentinel_parser.add_argument("--gate", default="none",
                                 choices=["clean", "detect", "none"],
                                 help="fail (exit 1) unless every scenario "
                                      "stays alarm-free ('clean') or raises "
                                      "an ALARM with collapsed trust before "
                                      "SAFE_STOP ('detect'); default none")

    audit_parser = subparsers.add_parser("audit", help=SUBCOMMANDS["audit"])
    audit_parser.add_argument("--root", metavar="DIR", default=None,
                              help="source tree to audit "
                                   "(default: the shipped src/repro)")
    audit_parser.add_argument("--json", action="store_true",
                              help="emit the schema-validated audit document")
    audit_parser.add_argument("--sarif", action="store_true",
                              help="emit a SARIF 2.1.0 log (AUD rules only)")
    audit_parser.add_argument("--gate", nargs="?", const="info",
                              default="none",
                              choices=["info", "low", "medium", "high",
                                       "critical", "none"],
                              help="fail (exit 1) on findings at or above "
                                   "this severity (bare --gate means 'info'; "
                                   "default: never fail)")
    audit_parser.add_argument("--baseline", metavar="FILE",
                              help="suppress findings pinned in this "
                                   "baseline file")
    audit_parser.add_argument("--write-baseline", metavar="FILE",
                              help="capture current findings as the baseline "
                                   "and exit 0")
    audit_parser.add_argument("--rules", action="store_true",
                              help="print the checker catalog and exit")

    campaign_parser = subparsers.add_parser("campaign",
                                            help=SUBCOMMANDS["campaign"])
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command",
                                                  required=True)

    def _campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", "-j", type=positive_int, default=1, metavar="N",
                       help="supervised worker processes (default 1)")
        p.add_argument("--timeout", type=float, default=120.0, metavar="S",
                       help="per-shard time budget in seconds; retries get "
                            "only what remains (default 120)")
        p.add_argument("--journal-root", metavar="DIR", default=None,
                       help="journal directory "
                            "(default .repro-cache/campaigns)")
        p.add_argument("--json", action="store_true",
                       help="emit the schema-validated campaign document")
        p.add_argument("--report", metavar="FILE",
                       help="also write the campaign JSON document to FILE")

    campaign_run = campaign_sub.add_parser(
        "run", help="journal and execute a new shard matrix")
    campaign_run.add_argument("--tools", default="all", metavar="T,T",
                              help="comma-separated tools "
                                   "(chaos,sentinel,redteam,flow,lint; "
                                   "default all)")
    campaign_run.add_argument("--scenarios", default="all", metavar="S,S",
                              help="comma-separated scenario names "
                                   "(default all)")
    campaign_run.add_argument("--plans", default="baseline", metavar="P,P",
                              help="fault plans for chaos/sentinel shards "
                                   "(default baseline)")
    campaign_run.add_argument("--seeds", default="0", metavar="N,N",
                              help="comma-separated base seeds (default 0)")
    campaign_run.add_argument("--duration", type=positive_int, default=30, metavar="N",
                              help="virtual-clock ticks for chaos/sentinel "
                                   "shards (default 30)")
    campaign_run.add_argument("--name", default="", metavar="NAME",
                              help="campaign id (default: a digest of the "
                                   "shard matrix)")
    _campaign_common(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="replay a journal and run only unfinished shards")
    campaign_resume.add_argument("campaign_id", metavar="ID",
                                 help="campaign id from `campaign list`")
    _campaign_common(campaign_resume)

    campaign_status = campaign_sub.add_parser(
        "status", help="summarise one campaign's journal without running")
    campaign_status.add_argument("campaign_id", metavar="ID",
                                 help="campaign id from `campaign list`")
    _campaign_common(campaign_status)

    campaign_list = campaign_sub.add_parser(
        "list", help="enumerate journaled campaigns")
    campaign_list.add_argument("--journal-root", metavar="DIR", default=None,
                               help="journal directory "
                                    "(default .repro-cache/campaigns)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; return it instead so
        # in-process callers get the same contract as the shell.
        if exc.code == 2:
            return 2
        raise
    if args.command == "list":
        return _cmd_list()
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "flow":
        return _cmd_flow(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "redteam":
        return _cmd_redteam(args)
    if args.command == "sentinel":
        return _cmd_sentinel(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    return _cmd_run(args)


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other
        # well-behaved CLI tools instead of tracebacking.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
