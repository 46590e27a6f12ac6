"""Count flags and empty inputs are checked at the CLI boundary.

Every case runs ``main(argv)`` in-process: a bad value must come back
as exit code 2 with an argparse message naming the flag, never as a
traceback, a silently truncated result, or a gate that passes on
nothing.
"""

import argparse

import pytest

from repro.__main__ import main, non_negative_int, positive_int


@pytest.mark.parametrize("argv, flag", [
    (["chaos", "all", "--duration", "-5"], "--duration"),
    (["chaos", "cariad-breach", "--duration", "0"], "--duration"),
    (["sentinel", "onboard-insecure", "--duration", "-5"], "--duration"),
    (["redteam", "pkes-legacy", "--campaigns", "--top", "-1"], "--top"),
    (["redteam", "pkes-legacy", "--campaigns", "--top", "0"], "--top"),
    (["trace", "all", "--events", "0"], "--events"),
    (["run", "FIG1", "--jobs", "-2"], "--jobs"),
    (["run", "FIG1", "--cache-max-entries", "-1"], "--cache-max-entries"),
    (["campaign", "run", "--duration", "0"], "--duration"),
    (["campaign", "run", "--jobs", "0"], "--jobs"),
    (["chaos", "all", "--duration", "ten"], "--duration"),
])
def test_bad_count_flag_is_a_usage_error(capsys, argv, flag):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


def test_top_one_keeps_exactly_the_cheapest_campaign(capsys):
    assert main(["redteam", "onboard-insecure", "--campaigns",
                 "--top", "1"]) == 1
    out = capsys.readouterr().out
    assert "#1 " in out and "#2 " not in out


def test_help_still_exits_through_system_exit(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--help"])
    assert excinfo.value.code == 0


def test_audit_of_an_empty_root_is_a_usage_error(tmp_path, capsys):
    assert main(["audit", "--root", str(tmp_path), "--gate"]) == 2
    assert "no Python modules" in capsys.readouterr().err


def test_audit_of_a_missing_root_is_a_usage_error(tmp_path, capsys):
    assert main(["audit", "--root", str(tmp_path / "nope")]) == 2
    assert "no Python modules" in capsys.readouterr().err


def test_count_types():
    assert positive_int("3") == 3
    assert non_negative_int("0") == 0
    for parse, text in ((positive_int, "0"), (non_negative_int, "-1")):
        with pytest.raises(argparse.ArgumentTypeError, match=">="):
            parse(text)
    with pytest.raises(ValueError):
        positive_int("1.5")
