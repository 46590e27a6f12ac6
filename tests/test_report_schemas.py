"""Every report validator against mutations derived from its own schema.

Each of the eleven ``validate_*_dict`` validators declares its document
as a schema dict for :mod:`repro.core.schema`.  For each one this test
builds a real document, walks it alongside the schema, and derives
single-field mutations from what the schema says: drop a required key,
add an unknown key, give a leaf the wrong type, put a value outside its
enum or range, break an array's length, order or uniqueness.  Every
mutation must raise :class:`SchemaError`, and the unmutated document
must validate.
"""

import copy
import textwrap

import pytest

from repro.core.schema import SchemaError, validate


# -- real documents ---------------------------------------------------------


def _lint():
    from repro.lint import Linter, build_scenario
    from repro.lint.report import SCHEMA, validate_report_dict

    linter = Linter()
    report = linter.run(build_scenario("onboard-insecure"))
    return (SCHEMA, validate_report_dict,
            report.to_json_dict(linter.enabled_rules()))


def _dirty_audit_tree(tmp_path):
    root = tmp_path / "repro"
    (root / "faults").mkdir(parents=True)
    (root / "faults" / "jitter.py").write_text(textwrap.dedent("""\
        import random

        def jitter(bins=[]):
            bins.append(random.random())
            return bins

        def observe(op):
            try:
                return op()
            except Exception:  # audit: allow AUD005 observed then re-raised
                raise
    """))
    return root


def _audit_report(tmp_path):
    from repro.audit import AuditContext, AuditEngine

    engine = AuditEngine()
    report = engine.run(AuditContext.parse(_dirty_audit_tree(tmp_path)))
    assert report.findings and report.suppressed
    return engine, report


def _sarif(tmp_path):
    # The audit export carries every optional SARIF field: physical
    # locations, rule indexes and suppressions.
    from repro.audit import to_sarif_dict
    from repro.lint.sarif import SCHEMA, validate_sarif_dict

    engine, report = _audit_report(tmp_path)
    return SCHEMA, validate_sarif_dict, to_sarif_dict(report, engine.checkers)


def _audit(tmp_path):
    from repro.audit.report import SCHEMA, validate_audit_dict

    engine, report = _audit_report(tmp_path)
    return SCHEMA, validate_audit_dict, report.to_json_dict(engine.checkers)


def _flow():
    from repro.flow import analyze
    from repro.flow.report import SCHEMA, to_json_dict, validate_flow_dict
    from repro.lint import build_scenario

    return (SCHEMA, validate_flow_dict,
            to_json_dict(analyze(build_scenario("onboard-insecure"))))


def _redteam():
    from repro.redteam.report import (SCHEMA, run_redteam_campaign,
                                      validate_redteam_dict)

    return (SCHEMA, validate_redteam_dict,
            run_redteam_campaign(["onboard-insecure", "onboard-hardened"]))


def _chaos():
    from repro.faults import run_chaos_campaign
    from repro.faults.report import SCHEMA, validate_chaos_dict

    return (SCHEMA, validate_chaos_dict,
            run_chaos_campaign(["cariad-breach", "maas-platform"],
                               "baseline", duration=20))


def _sentinel():
    from repro.sentinel import run_sentinel_campaign
    from repro.sentinel.report import SCHEMA, validate_sentinel_dict

    return (SCHEMA, validate_sentinel_dict,
            run_sentinel_campaign(["onboard-hardened", "onboard-insecure"],
                                  "severe"))


def _trace_report():
    from repro.core.layers import Layer
    from repro.obs import EventKind, TraceReport, instrumented

    with instrumented() as obs:
        with obs.span("scenario", profile="PROFILE_3"):
            with obs.span("bus-exchange"):
                obs.count("frames", 3)
                obs.gauge("load", 0.5)
                obs.observe("latency_s", 0.004)
            obs.emit(EventKind.FRAME_SENT, Layer.NETWORK, "bus", "id=0x300",
                     t=0.1, can_id=0x300)
        return TraceReport.from_instrumentation("unit", result={"ok": True})


def _trace():
    from repro.obs.report import SCHEMA, validate_trace_dict

    return SCHEMA, validate_trace_dict, _trace_report().to_json_dict()


def _metrics():
    from repro.obs.report import METRICS, validate_metrics_dict

    return (METRICS, validate_metrics_dict,
            _trace_report().to_json_dict()["metrics"])


def _sweep():
    from repro.runner.engine import ExperimentResult
    from repro.runner.report import SCHEMA, SweepReport, validate_sweep_dict

    results = [
        ExperimentResult("FIG1", "passed", 0, 1.25, 11, cache_key="a" * 64,
                         artifacts=[{"title": "Fig. 1", "rows": ["r1"]}]),
        ExperimentResult("FIG2", "cached", 0, 2.5, 22, cached=True,
                         cache_key="b" * 64),
    ]
    report = SweepReport(results, jobs=2, cache_enabled=True, base_seed=0,
                         wall_s=3.75, tree="t" * 64)
    return SCHEMA, validate_sweep_dict, report.to_json_dict()


def _campaign():
    from repro.campaign import (CampaignReport, CampaignSpec, CampaignTool,
                                ShardEntry, result_digest)
    from repro.campaign.report import SCHEMA, validate_campaign_dict

    spec = CampaignSpec.matrix(tools=[CampaignTool.LINT], seeds=[0],
                               scenarios=["maas-platform", "pkes-legacy"],
                               name="schemas")
    report = CampaignReport(spec=spec)
    result = {"verdict": "ok"}
    report.entries[spec.shards[0].shard_id] = ShardEntry(
        shard=spec.shards[0].to_dict(), status="ok", result=result,
        digest=result_digest(result))
    report.entries[spec.shards[1].shard_id] = ShardEntry(
        shard=spec.shards[1].to_dict(), status="error", error="boom")
    return SCHEMA, validate_campaign_dict, report.to_json_dict()


BUILDERS = {
    "report": lambda tmp_path: _lint(),
    "sarif": _sarif,
    "flow": lambda tmp_path: _flow(),
    "redteam": lambda tmp_path: _redteam(),
    "chaos": lambda tmp_path: _chaos(),
    "sentinel": lambda tmp_path: _sentinel(),
    "trace": lambda tmp_path: _trace(),
    "metrics": lambda tmp_path: _metrics(),
    "sweep": lambda tmp_path: _sweep(),
    "campaign": lambda tmp_path: _campaign(),
    "audit": _audit,
}


# -- mutations derived from a schema ---------------------------------------

#: One value of every JSON type; a wrong-type mutation picks the first
#: one the schema's ``type`` rejects.
_SAMPLES = {"null": None, "boolean": True, "integer": 7, "number": 7.5,
            "string": "x", "array": [], "object": {}}
_BAD = "\x00not-allowed"


def _type_of(value):
    if value is None:
        return {"null"}
    if isinstance(value, bool):
        return {"boolean"}
    if isinstance(value, int):
        return {"integer", "number"}
    if isinstance(value, float):
        return {"number"}
    return {str: {"string"}, list: {"array"}, dict: {"object"}}[type(value)]


def _key_of(spec):
    if spec is True:
        return lambda item: item
    if isinstance(spec, str):
        return lambda item: item[spec]
    return lambda item: tuple(item[key] for key in spec)


def _derive(value, schema, path):
    """Yield ``(label, path, operation)`` for every schema-derived
    single-field mutation of ``value`` found at ``path``."""
    where = "".join(f"[{step!r}]" for step in path) or "document"
    types = schema.get("type")
    if types is not None:
        allowed = {types} if isinstance(types, str) else set(types)
        wrong = next(sample for name, sample in _SAMPLES.items()
                     if not _type_of(sample) & allowed)
        yield f"{where}: wrong type", path, ("set", wrong)
    if "enum" in schema:
        yield f"{where}: outside enum", path, ("set", _BAD)
    if "const" in schema:
        yield f"{where}: not the const", path, ("set", _BAD)
    if value is None or isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        if "minimum" in schema:
            yield (f"{where}: below minimum", path,
                   ("set", schema["minimum"] - 1))
        if "exclusiveMinimum" in schema:
            yield (f"{where}: at exclusive minimum", path,
                   ("set", schema["exclusiveMinimum"]))
        if "maximum" in schema:
            yield (f"{where}: above maximum", path,
                   ("set", schema["maximum"] + 1))
    elif isinstance(value, str):
        if schema.get("minLength", 0) >= 1:
            yield f"{where}: too short", path, ("set", "")
        if "pattern" in schema:
            yield f"{where}: pattern mismatch", path, ("set", _BAD)
    elif isinstance(value, dict):
        yield from _derive_object(value, schema, path, where)
    elif isinstance(value, list):
        yield from _derive_array(value, schema, path, where)


def _derive_object(value, schema, path, where):
    properties = schema.get("properties")
    if properties is not None:
        yield f"{where}: extra key", path, ("add", _BAD)
        for key, sub in properties.items():
            yield f"{where}: drop {key!r}", path, ("drop", key)
            yield from _derive(value[key], sub, path + (key,))
        for key, sub in schema.get("optional", {}).items():
            if key in value:
                yield from _derive(value[key], sub, path + (key,))
    if value and ("keys" in schema or "values" in schema):
        first = next(iter(value))
        if "keys" in schema:
            bad = "" if schema["keys"].get("minLength") else _BAD
            yield f"{where}: bad key", path, ("rename", first, bad)
        if "values" in schema:
            yield from _derive(value[first], schema["values"],
                               path + (first,))


def _derive_array(value, schema, path, where):
    if schema.get("minItems", 0) >= 1:
        yield (f"{where}: too few items", path,
               ("set", value[:schema["minItems"] - 1]))
    if "maxItems" in schema and value:
        yield (f"{where}: too many items", path,
               ("set", value + [value[0]] * schema["maxItems"]))
    if "unique" in schema and value:
        yield f"{where}: duplicate item", path, ("set", value + [value[0]])
    if "sorted" in schema:
        key = _key_of(schema["sorted"])
        reversed_items = value[::-1]
        if [key(i) for i in reversed_items] != sorted(map(key, value)):
            yield f"{where}: unsorted", path, ("set", reversed_items)
    if "items" in schema and value:
        yield from _derive(value[0], schema["items"], path + (0,))


def _walk(document, path):
    for step in path:
        document = document[step]
    return document


def _apply(document, path, operation):
    mutated = copy.deepcopy(document)
    kind, *args = operation
    if kind == "set":
        if not path:
            return copy.deepcopy(args[0])
        _walk(mutated, path[:-1])[path[-1]] = copy.deepcopy(args[0])
        return mutated
    target = _walk(mutated, path)
    if kind == "drop":
        del target[args[0]]
    elif kind == "add":
        target[args[0]] = 1
    else:  # rename a map key
        target[args[1]] = target.pop(args[0])
    return mutated


def _mutations(schema, document):
    return list(_derive(document, schema, ()))


# -- the tests --------------------------------------------------------------


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    cache = {}

    def build(name):
        if name not in cache:
            cache[name] = BUILDERS[name](tmp_path_factory.mktemp(name))
        return cache[name]
    return build


def test_eleven_validators_are_covered():
    assert len(BUILDERS) == 11


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_real_document_validates(documents, name):
    schema, validator, document = documents(name)
    validate(document, schema)
    validator(document)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_schema_derived_mutation_is_rejected(documents, name):
    schema, validator, document = documents(name)
    mutations = _mutations(schema, document)
    assert len(mutations) >= 10, name
    accepted = []
    for label, path, operation in mutations:
        mutated = _apply(document, path, operation)
        try:
            validator(mutated)
        except SchemaError:
            continue
        accepted.append(label)
    assert not accepted, f"{name}: mutations accepted: {accepted}"


def test_schema_error_is_the_one_value_error():
    import repro.audit
    import repro.campaign
    import repro.faults
    import repro.lint
    import repro.obs
    import repro.runner
    import repro.sentinel

    assert issubclass(SchemaError, ValueError)
    for package in (repro.audit, repro.campaign, repro.faults, repro.lint,
                    repro.obs, repro.runner, repro.sentinel):
        assert package.SchemaError is SchemaError
