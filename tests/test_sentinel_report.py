"""Sentinel report schema: self-validation plus mutation rejections."""

import copy
import json

import pytest

from repro.sentinel import (
    SchemaError,
    run_sentinel_campaign,
    validate_sentinel_dict,
)


@pytest.fixture(scope="module")
def document():
    return run_sentinel_campaign(["onboard-hardened", "onboard-insecure"],
                                 "severe")


class TestAcceptance:
    def test_document_passes_its_own_validator(self, document):
        validate_sentinel_dict(document)
        # and survives a JSON round trip
        validate_sentinel_dict(json.loads(json.dumps(document)))

    def test_schema_error_is_a_value_error(self):
        assert issubclass(SchemaError, ValueError)
        with pytest.raises(SchemaError):
            validate_sentinel_dict([])  # not even a mapping


def _scenario(d, index=1):
    return d["scenarios"][index]  # onboard-insecure: has alarms + incidents


MUTATIONS = [
    ("drop-version", lambda d: d.pop("version")),
    ("bad-version", lambda d: d.update(version="9.9")),
    ("bad-tool", lambda d: d["tool"].update(name="someone-else")),
    ("extra-top-key", lambda d: d.update(surprise=1)),
    ("bad-plan", lambda d: d["plan"].update(name=42)),
    ("bad-base-seed", lambda d: d.update(baseSeed="zero")),
    ("scenario-extra-key", lambda d: _scenario(d).update(extra=1)),
    ("scenario-window-inverted",
     lambda d: _scenario(d)["window"].update(start=1e9)),
    ("faults-bykind-mismatch",
     lambda d: _scenario(d)["faults"]["byKind"].update(surprise=3)),
    ("sentinel-missing-key",
     lambda d: _scenario(d)["sentinel"].pop("machines")),
    ("sentinel-transition-sum",
     lambda d: _scenario(d)["sentinel"].update(alarmTransitions=999)),
    ("sentinel-unsorted-alarmed",
     lambda d: _scenario(d)["sentinel"].update(
         alarmedSources=list(reversed(
             _scenario(d)["sentinel"]["alarmedSources"])))),
    ("machine-bad-state",
     lambda d: _scenario(d)["sentinel"]["machines"][0].update(
         finalState="panicking")),
    ("incident-nondense-ids",
     lambda d: _scenario(d)["sentinel"]["incidents"][0].update(id=7)),
    ("incident-crosslayer-lie",
     lambda d: _scenario(d)["sentinel"]["incidents"][0].update(
         crossLayer=not _scenario(d)["sentinel"]["incidents"][0]
         ["crossLayer"])),
    ("trust-min-above-score",
     lambda d: _scenario(d)["sentinel"]["trust"][0].update(minScore=1.5)),
    ("trust-hardhits-exceed-obs",
     lambda d: _scenario(d)["sentinel"]["trust"][0].update(
         hardHits=10_000)),
    ("detection-alarm-lie",
     lambda d: _scenario(d)["detection"].update(alarmRaised=False)),
    ("detection-incidents-lie",
     lambda d: _scenario(d)["detection"].update(alarmIncidents=99)),
    ("detection-lead-lie",
     lambda d: _scenario(d)["detection"].update(leadTicks=42.0)),
    ("summary-count-lie", lambda d: d["summary"].update(scenarioCount=9)),
    ("summary-detected-lie",
     lambda d: d["summary"].update(scenariosDetected=[])),
    ("summary-collapsed-unsorted",
     lambda d: d["summary"].update(trustCollapsed=list(reversed(
         d["summary"]["trustCollapsed"])))),
]


class TestMutationRejections:
    @pytest.mark.parametrize("label,mutate", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_mutation_raises_schema_error(self, document, label, mutate):
        mutated = copy.deepcopy(document)
        mutate(mutated)
        with pytest.raises(SchemaError):
            validate_sentinel_dict(mutated)

    def test_mutation_fixtures_actually_mutate(self, document):
        # Guard against a reversed([]) no-op silently passing validation.
        for label, mutate in MUTATIONS:
            mutated = copy.deepcopy(document)
            mutate(mutated)
            assert mutated != document, label
