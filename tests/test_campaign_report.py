"""Campaign report schema: determinism split, validator, digests."""

import json

import pytest

from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    CampaignTool,
    SchemaError,
    ShardEntry,
    result_digest,
    validate_campaign_dict,
)


def spec():
    return CampaignSpec.matrix(
        tools=[CampaignTool.LINT], seeds=[0],
        scenarios=["maas-platform", "pkes-legacy"], name="rpt")


def make_report(**kwargs):
    s = spec()
    report = CampaignReport(spec=s, **kwargs)
    result = {"verdict": "ok"}
    report.entries["lint/maas-platform/-/s0"] = ShardEntry(
        shard=s.shards[0].to_dict(), status="ok", result=result,
        digest=result_digest(result), attempts=1, duration_s=0.25)
    report.entries["lint/pkes-legacy/-/s0"] = ShardEntry(
        shard=s.shards[1].to_dict(), status="error", result=None,
        digest="", error="ToolError: nope", attempts=1, duration_s=0.1)
    return report


class TestReport:
    def test_document_validates(self):
        validate_campaign_dict(make_report().to_json_dict())

    def test_wall_clock_never_reaches_the_json(self):
        fast = make_report(wall_s=0.1, journal_write_s=0.01)
        slow = make_report(wall_s=99.9, journal_write_s=5.0,
                           resumed_shards=2)
        assert json.dumps(fast.to_json_dict(), sort_keys=True) == \
            json.dumps(slow.to_json_dict(), sort_keys=True)
        flattened = json.dumps(fast.to_json_dict())
        assert "wallS" not in flattened and "attempts" not in flattened

    def test_missing_entries_report_pending(self):
        report = CampaignReport(spec=spec(), interrupted=True)
        document = report.to_json_dict()
        validate_campaign_dict(document)
        assert document["summary"]["pending"] == 2
        assert not document["summary"]["complete"]
        assert all(e["status"] == "pending" for e in document["shards"])

    def test_exit_codes(self):
        assert make_report().exit_code() == 1          # one error shard
        assert make_report(interrupted=True).exit_code() == 130
        ok = make_report()
        entry = ok.entries["lint/pkes-legacy/-/s0"]
        entry.status, entry.error = "ok", ""
        entry.result = {"verdict": "ok"}
        entry.digest = result_digest(entry.result)
        assert ok.exit_code() == 0

    def test_table_mentions_wall_clock_and_interrupt(self):
        report = make_report(wall_s=1.5, resumed_shards=1, interrupted=True)
        table = report.to_table()
        assert "1.50s" in table and "[interrupted]" in table
        assert "resumed: 1 shard(s)" in table


class TestValidator:
    MUTATIONS = [
        (lambda d: d.pop("summary"), "keys mismatch"),
        (lambda d: d.update(version="9.9"), "version"),
        (lambda d: d["tool"].update(name="other"), "tool"),
        (lambda d: d["campaign"].update(shardCount=7), "shardCount"),
        (lambda d: d["shards"][0].update(status="exploded"), "status"),
        (lambda d: d["shards"][0].update(digest="beef"), "digest"),
        (lambda d: d["shards"][0].update(result=None), "result"),
        (lambda d: d["shards"][1].update(result={"x": 1}), "carries"),
        (lambda d: d["shards"][1].update(digest="beef"), "digest"),
        (lambda d: d["summary"].update(ok=5), "summary.ok"),
        (lambda d: d["summary"].update(pending=1), "summary.pending"),
        (lambda d: d["summary"].update(complete=False), "summary.complete"),
        (lambda d: d["shards"].reverse(), "sorted"),
        (lambda d: d["shards"].__setitem__(1, d["shards"][0]), "sorted|unique"),
        (lambda d: d["shards"][0].pop("seed"), "keys mismatch"),
    ]

    @pytest.mark.parametrize("mutate, match", MUTATIONS)
    def test_mutations_rejected(self, mutate, match):
        document = make_report().to_json_dict()
        mutate(document)
        with pytest.raises(SchemaError, match=match):
            validate_campaign_dict(document)

    # Wrongly typed fields the validator once let through.
    TYPE_GAPS = [
        (lambda d: d["shards"][1].update(seed="zero"), r"shards\[1\]\.seed"),
        (lambda d: d["shards"][1].update(duration=-3),
         r"shards\[1\]\.duration"),
        (lambda d: d["shards"][1].update(tool=7), r"shards\[1\]\.tool"),
        (lambda d: d["shards"][1].update(error=None), r"shards\[1\]\.error"),
        (lambda d: d["shards"][1].update(scenario=""),
         r"shards\[1\]\.scenario"),
        (lambda d: d["campaign"].update(name=3), r"campaign\.name"),
        (lambda d: d["tool"].update(version=1.0), r"tool\.version"),
        (lambda d: d["summary"].update(interrupted="no"),
         r"summary\.interrupted"),
    ]

    @pytest.mark.parametrize("mutate, match", TYPE_GAPS)
    def test_wrongly_typed_fields_rejected(self, mutate, match):
        document = make_report().to_json_dict()
        mutate(document)
        with pytest.raises(SchemaError, match=match):
            validate_campaign_dict(document)

    def test_digest_recompute_catches_result_tampering(self):
        document = make_report().to_json_dict()
        document["shards"][0]["result"]["verdict"] = "tampered"
        with pytest.raises(SchemaError, match="digest"):
            validate_campaign_dict(document)

    def test_complete_and_interrupted_is_contradictory(self):
        document = make_report(interrupted=True).to_json_dict()
        # both shards settled -> complete, yet marked interrupted
        with pytest.raises(SchemaError, match="complete"):
            validate_campaign_dict(document)
