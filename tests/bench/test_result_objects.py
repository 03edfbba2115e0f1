"""Named regression cases over the claim table (figures, A-series).

Each test keeps the id it had when every experiment owned a result class
with its own acceptance method; the accepting and rejecting values now
live in ``test_experiments.CASES`` and the tests delegate to them.
"""

from repro.__main__ import FAST
from repro.bench import EXPERIMENTS, render

from .test_experiments import check_case, failed_claims


class TestFigure2Shape:
    def test_accepts_correct_curves(self):
        assert failed_claims("f2", EXPERIMENTS["f2"].measure()) == []

    def test_rejects_swapped_curves(self):
        check_case("f2", "cheaper below")


class TestFigure7Shape:
    def test_accepts_user_dominating(self):
        check_case("f7", "never above")
        check_case("f7", "raises the breakeven")

    def test_rejects_inverted_rs(self):
        check_case("f7", "kernel R over user R")


class TestAblationShapes:
    def test_a1_requires_strict_ordering(self):
        check_case("a1", "variable-size")
        check_case("a1", "delta-only")

    def test_a2_thresholds(self):
        check_case("a2", "read nothing")
        check_case("a2", "read-modify-write")

    def test_a4_requires_monotone_and_40pct_step(self):
        check_case("a4", "strictly shrink")
        check_case("a4", "300k -> 500k")

    def test_a7_checks_paper_numbers(self):
        check_case("a7", "best drive")
        check_case("a7", "archive")

    def test_a9_requires_consistent_r(self):
        check_case("a9", "one R explains")

    def test_a10_requires_floating_footprint(self):
        check_case("a10", "phase-1")
        check_case("a10", "phase-2")


class TestRendering:
    def test_every_result_renders_text(self):
        """Every closed-form row renders non-empty monospace text."""
        for key in FAST:
            experiment = EXPERIMENTS[key]
            text = render(experiment, experiment.measure())
            assert len(text.splitlines()) >= 3, key
