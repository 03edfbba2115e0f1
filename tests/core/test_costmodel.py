"""Cost lines: Equations 4-5, the CSS extension, crossover, Advisor."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    Advisor,
    CostCatalog,
    CostLine,
    CssParameters,
    OperationCostModel,
    breakeven_rate_ops_per_sec,
    cheapest,
    crossover,
    logspace_rates,
)


@pytest.fixture
def model() -> OperationCostModel:
    return OperationCostModel(CostCatalog())


class TestEquation4:
    def test_zero_rate_is_pure_storage(self, model):
        cost = model.mm_line().at(0.0)
        assert cost.kind == "MM"
        assert cost.execution_cost == 0.0
        assert cost.storage_cost == pytest.approx(
            model.catalog.mm_storage_cost()
        )

    def test_execution_scales_linearly(self, model):
        mm = model.mm_line()
        assert mm.at(200.0).execution_cost == pytest.approx(
            2 * mm.at(100.0).execution_cost
        )

    def test_total_is_sum(self, model):
        cost = model.mm_line().at(10.0)
        assert cost.total == pytest.approx(
            cost.storage_cost + cost.execution_cost
        )

    def test_custom_size(self):
        """A record-sized unit is the same line on a smaller page."""
        record = OperationCostModel(CostCatalog().with_page_bytes(1000))
        assert record.mm_line().storage_cost == pytest.approx(5.5e-9 * 1000)


class TestEquation5:
    def test_ss_storage_is_flash_only(self, model):
        assert model.ss_line().storage_cost == pytest.approx(0.5e-9 * 2700)

    def test_ss_execution_includes_io_and_r(self, model):
        cost = model.ss_line().at(1.0)
        assert cost.execution_cost == pytest.approx(
            50 / 2e5 + 5.8 * 300 / 4e6
        )

    def test_negative_rate_rejected(self, model):
        with pytest.raises(ValueError):
            model.ss_line().at(-1.0)


class TestCss:
    def test_css_storage_shrinks_with_ratio(self):
        model = OperationCostModel(
            CostCatalog(), CssParameters(compression_ratio=0.4, r_css=9.0)
        )
        assert model.css_line().storage_cost == pytest.approx(
            0.4 * model.ss_line().storage_cost
        )

    def test_css_execution_exceeds_ss(self):
        model = OperationCostModel(
            CostCatalog(), CssParameters(compression_ratio=0.5, r_css=9.0)
        )
        assert (model.css_line().execution_cost_per_op
                > model.ss_line().execution_cost_per_op)

    def test_css_validation(self):
        with pytest.raises(ValueError):
            CssParameters(compression_ratio=0.0)
        with pytest.raises(ValueError):
            CssParameters(compression_ratio=1.2)
        with pytest.raises(ValueError):
            CssParameters(r_css=0)


class TestWinners:
    def test_cheapest_flips_at_breakeven(self, model):
        lines = [model.mm_line(), model.ss_line()]
        breakeven = breakeven_rate_ops_per_sec(model.catalog)
        assert cheapest(lines, breakeven * 0.5).kind == "SS"
        assert cheapest(lines, breakeven * 2.0).kind == "MM"

    def test_costs_equal_at_breakeven(self, model):
        breakeven = breakeven_rate_ops_per_sec(model.catalog)
        mm = model.mm_line().at(breakeven).total
        ss = model.ss_line().at(breakeven).total
        assert mm == pytest.approx(ss, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(1e-6, 1e3))
    def test_cheapest_is_minimum_property(self, rate):
        model = OperationCostModel(CostCatalog())
        lines = [model.mm_line(), model.ss_line(), model.css_line()]
        winner = cheapest(lines, rate)
        assert winner.total == min(line.at(rate).total for line in lines)

    def test_curves_structure(self, model):
        """A line's cost series over rates (what Figures 2/7/8 plot)
        agrees point for point with the advisor's ``costs_at``."""
        rates = [0.01, 0.1, 1.0]
        lines = [model.mm_line(), model.ss_line(), model.css_line()]
        advisor = Advisor(lines)
        for line in lines:
            assert line.totals(rates) == [
                advisor.costs_at(rate)[line.kind] for rate in rates
            ]
        assert list(advisor.costs_at(1.0)) == ["MM", "SS", "CSS"]

    def test_ties_go_to_the_earlier_line(self):
        twin_a = CostLine("a", 1.0, 1.0)
        twin_b = CostLine("b", 1.0, 1.0)
        assert cheapest([twin_a, twin_b], 3.0).kind == "a"
        assert cheapest([twin_b, twin_a], 3.0).kind == "b"


class TestCrossover:
    """The one line intersection and its one edge rule."""

    def test_costs_meet_at_the_crossover(self):
        hot, cold = CostLine("hot", 5.0, 1.0), CostLine("cold", 1.0, 3.0)
        rate = crossover(hot, cold)
        assert rate == 2.0
        assert hot.at(rate).total == cold.at(rate).total
        assert cheapest([cold, hot], rate * 1.01).kind == "hot"
        assert cheapest([hot, cold], rate * 0.99).kind == "cold"

    def test_no_rent_gap_means_hot_wins_at_every_rate(self):
        assert crossover(CostLine("hot", 1.0, 1.0),
                         CostLine("cold", 1.0, 3.0)) == 0.0
        assert crossover(CostLine("hot", 0.5, 1.0),
                         CostLine("cold", 1.0, 3.0)) == 0.0

    def test_no_access_gap_means_hot_never_pays_back(self):
        assert crossover(CostLine("hot", 5.0, 3.0),
                         CostLine("cold", 1.0, 3.0)) == math.inf
        assert crossover(CostLine("hot", 5.0, 4.0),
                         CostLine("cold", 1.0, 3.0)) == math.inf

    def test_rent_gap_is_checked_first(self):
        """The order the three hand-written copies disagreed on."""
        assert crossover(CostLine("hot", 1.0, 3.0),
                         CostLine("cold", 1.0, 3.0)) == 0.0


positive = st.floats(1e-6, 1e6)


class TestAdvisor:
    def test_needs_distinctly_named_lines(self):
        with pytest.raises(ValueError):
            Advisor([])
        with pytest.raises(ValueError):
            Advisor([CostLine("a", 1.0, 1.0), CostLine("a", 2.0, 0.5)])

    def test_dominated_line_is_absent_from_boundaries(self):
        """``mid`` is above the hot/cold envelope at every rate."""
        hot, cold = CostLine("hot", 5.0, 1.0), CostLine("cold", 1.0, 3.0)
        mid = CostLine("mid", 4.0, 2.0)
        advisor = Advisor([hot, mid, cold])
        assert advisor.boundaries() == [("hot", "cold", 2.0)]
        assert "mid" not in {
            advisor.tier_for_rate(rate)
            for rate in logspace_rates(1e-3, 1e3, 61)
        }

    def test_boundaries_run_hottest_first(self):
        lines = [CostLine("hot", 9.0, 1.0), CostLine("warm", 3.0, 2.0),
                 CostLine("cold", 1.0, 4.0)]
        assert Advisor(lines).boundaries() == [
            ("hot", "warm", 6.0), ("warm", "cold", 1.0),
        ]

    def test_single_line_has_no_boundaries(self):
        assert Advisor([CostLine("only", 1.0, 1.0)]).boundaries() == []

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(positive, positive),
                          min_size=1, max_size=6))
    def test_envelope_matches_brute_force_argmin_property(self, pairs):
        """At, just below and just above every envelope boundary the
        advisor's pick is the brute-force argmin; between boundaries the
        envelope names the winner; the pick is monotone in rate."""
        lines = [CostLine(f"line{index}", storage, execution)
                 for index, (storage, execution) in enumerate(pairs)]
        advisor = Advisor(lines)
        boundaries = advisor.boundaries()[::-1]          # coldest first
        rates = [rate for __, __, rate in boundaries]
        assert rates == sorted(rates)
        assert all(0.0 < rate < math.inf for rate in rates)

        def brute_force(rate: float) -> float:
            return min(line.storage_cost
                       + rate * line.execution_cost_per_op
                       for line in lines)

        for rate in rates:
            for probe in (rate * (1 - 1e-6), rate, rate * (1 + 1e-6)):
                pick = advisor.tier_for_rate(probe)
                assert advisor.costs_at(probe)[pick] == brute_force(probe)
        # Between boundaries the envelope's segments are the winners (to
        # float noise: random lines can cross arbitrarily close together).
        if boundaries:
            winners = [boundaries[0][1]] + [hot for hot, __, __ in boundaries]
            assert winners[1:-1] == [cold for __, cold, __ in boundaries[1:]]
            probes = ([rates[0] / 2]
                      + [(a * b) ** 0.5 for a, b in zip(rates, rates[1:])]
                      + [rates[-1] * 2])
            for winner, probe in zip(winners, probes):
                assert advisor.costs_at(probe)[winner] == pytest.approx(
                    brute_force(probe), rel=1e-9)
        sweep = sorted(logspace_rates(1e-14, 1e14, 57) + rates)
        if not boundaries:
            only = advisor.tier_for_rate(1.0)
            for rate in sweep:
                assert advisor.costs_at(rate)[only] == pytest.approx(
                    brute_force(rate), rel=1e-9)
        # Monotone: as the rate rises the pick never moves to a line that
        # is dearer to access — except on a float tie, where either of
        # two equal-cost lines is an argmin.
        by_kind = {line.kind: line for line in lines}
        picks = [advisor.tier_for_rate(rate) for rate in sweep]
        for rate, before, after in zip(sweep[1:], picks, picks[1:]):
            costs = advisor.costs_at(rate)
            assert (by_kind[after].execution_cost_per_op
                    <= by_kind[before].execution_cost_per_op
                    or costs[after] == pytest.approx(costs[before],
                                                     rel=1e-12))


class TestLogspace:
    def test_endpoints_and_count(self):
        rates = logspace_rates(0.01, 100.0, 9)
        assert rates[0] == pytest.approx(0.01)
        assert rates[-1] == pytest.approx(100.0)
        assert len(rates) == 9

    def test_monotone(self):
        rates = logspace_rates(1.0, 1e6, 20)
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            logspace_rates(0, 10, 5)
        with pytest.raises(ValueError):
            logspace_rates(10, 1, 5)
        with pytest.raises(ValueError):
            logspace_rates(1, 10, 1)
