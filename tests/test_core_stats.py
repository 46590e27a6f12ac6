"""Tests for the Monte-Carlo statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import proportions_differ, wilson_interval
from repro.sos.cascade import CascadeSimulator
from repro.sos.maas import build_maas_sos


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_behaved_at_extremes(self):
        low0, high0 = wilson_interval(0, 50)
        assert low0 == 0.0 and high0 > 0.0
        low1, high1 = wilson_interval(50, 50)
        assert low1 < 1.0 and high1 == 1.0

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(800, 1000)
        wide = wilson_interval(8, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_widens_with_confidence(self):
        ci95 = wilson_interval(50, 100, confidence=0.95)
        ci99 = wilson_interval(50, 100, confidence=0.99)
        assert (ci99[1] - ci99[0]) > (ci95[1] - ci95[0])

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_bounds_property(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestProportionsDiffer:
    def test_clear_difference_detected(self):
        assert proportions_differ(90, 100, 10, 100)

    def test_same_rates_not_flagged(self):
        assert not proportions_differ(50, 100, 52, 100)

    def test_small_samples_inconclusive(self):
        # 3/4 vs 1/4 looks different but the evidence is thin.
        assert not proportions_differ(3, 4, 1, 4)

    def test_degenerate_equal(self):
        assert not proportions_differ(0, 10, 0, 10)
        assert proportions_differ(10, 10, 0, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            proportions_differ(5, 4, 1, 10)


class TestCascadeInterval:
    def test_interval_brackets_estimate(self):
        sim = CascadeSimulator(build_maas_sos(), seed_label="stats")
        result = sim.run("cloud-backend", trials=200)
        low, high = result.critical_hit_interval()
        assert low <= result.p_safety_critical_hit <= high
        assert high - low < 0.2  # 200 trials give a usable interval

    def test_secured_vs_open_statistically_distinct(self):
        open_sim = CascadeSimulator(build_maas_sos(), seed_label="stats2")
        sec_sim = CascadeSimulator(build_maas_sos(secured_interfaces=True),
                                   seed_label="stats2")
        trials = 300
        open_result = open_sim.run("maas-platform", trials=trials)
        sec_result = sec_sim.run("maas-platform", trials=trials)
        assert proportions_differ(
            round(open_result.p_safety_critical_hit * trials), trials,
            round(sec_result.p_safety_critical_hit * trials), trials)


#: Outputs of the scipy-based implementation (``norm.ppf`` / ``norm.sf``)
#: these helpers used before switching to the standard library.
WILSON_PINNED = [
    ((0, 10, 0.95), (0.0, 0.2775327998628892)),
    ((10, 10, 0.95), (0.7224672001371107, 1.0)),
    ((3, 10, 0.95), (0.10779126740630099, 0.6032218525388546)),
    ((1, 1, 0.8), (0.3784475032253529, 1.0)),
    ((50, 100, 0.99), (0.37527962504483986, 0.6247203749551602)),
    ((7, 1000, 0.999), (0.0021643298968612133, 0.02239729366937934)),
    ((999, 1000, 0.9), (0.9955302770906311, 0.9997768761560879)),
    ((17, 40, 0.8), (0.3297393909273828, 0.526176606076449)),
    ((123, 456, 0.95), (0.23104962756216274, 0.3122712366796905)),
    ((5, 9, 0.5), (0.44385165308574603, 0.6619132040480112)),
]

#: (counts, alpha) -> verdict; the 55/45 pair has p = 0.157299..., so
#: the two alphas straddle it.
DIFFER_PINNED = [
    ((10, 100, 20, 100), 0.05, True),
    ((10, 100, 12, 100), 0.05, False),
    ((0, 50, 5, 50), 0.05, True),
    ((0, 50, 0, 50), 0.05, False),
    ((30, 60, 31, 60), 0.5, False),
    ((45, 50, 5, 50), 1e-12, True),
    ((45, 50, 5, 50), 1e-20, False),
    ((55, 100, 45, 100), 0.16, True),
    ((55, 100, 45, 100), 0.15, False),
    ((3, 3, 0, 3), 0.05, True),
]


class TestPinnedToScipy:
    @pytest.mark.parametrize("args, expected", WILSON_PINNED)
    def test_wilson_matches_scipy(self, args, expected):
        successes, trials, confidence = args
        low, high = wilson_interval(successes, trials, confidence=confidence)
        assert low == pytest.approx(expected[0], abs=1e-12, rel=0)
        assert high == pytest.approx(expected[1], abs=1e-12, rel=0)

    @pytest.mark.parametrize("counts, alpha, expected", DIFFER_PINNED)
    def test_proportions_differ_matches_scipy(self, counts, alpha, expected):
        assert proportions_differ(*counts, alpha=alpha) is expected

    def test_cli_imports_do_not_load_scipy(self):
        # The CLI entry point plus every package its subcommands import.
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys, repro.__main__, repro.core, repro.lint, "
                 "repro.flow, repro.redteam, repro.faults, repro.sentinel, "
                 "repro.obs, repro.runner, repro.campaign, repro.audit; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
