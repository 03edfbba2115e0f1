"""Tier selection over line sets.

One ``Advisor`` serves every line set; the classes below are the two
sets the repo ships (MM/SS/CSS and a storage hierarchy's tiers).  Their
names predate the single advisor and are kept so test ids stay stable.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    Advisor,
    CostCatalog,
    CssParameters,
    OperationCostModel,
    breakeven_rate_ops_per_sec,
    crossover,
    hierarchy_lines,
    tier_pair_breakeven,
)
from repro.hardware import StorageHierarchy

CSS = CssParameters(compression_ratio=0.5, r_css=9.0)
PRESETS = [StorageHierarchy.paper_2018, StorageHierarchy.cxl_2026,
           StorageHierarchy.modern_2026]


def mm_ss_css() -> Advisor:
    model = OperationCostModel(CostCatalog(), CSS)
    return Advisor([model.mm_line(), model.ss_line(), model.css_line()])


def assert_argmin(advisor: Advisor, rate: float) -> None:
    costs = advisor.costs_at(rate)
    assert costs[advisor.tier_for_rate(rate)] == min(costs.values())


def assert_monotone(advisor: Advisor, low: float, high: float) -> None:
    """A hotter page never lands on a colder (later-listed) line."""
    if low > high:
        low, high = high, low
    order = [line.kind for line in advisor.lines]
    assert order.index(advisor.tier_for_rate(high)) \
        <= order.index(advisor.tier_for_rate(low))


@pytest.fixture
def advisor() -> Advisor:
    return mm_ss_css()


class TestTierAdvisor:
    """The paper's three classes: MM, SS, CSS (Figure 8)."""

    def test_hot_page_goes_to_dram(self, advisor):
        assert advisor.tier_for_rate(100.0) == "MM"

    def test_cold_page_goes_to_compressed_flash(self, advisor):
        assert advisor.tier_for_rate(1e-6) == "CSS"

    def test_warm_page_goes_to_flash(self, advisor):
        (__, __, ss_to_mm), (__, __, css_to_ss) = advisor.boundaries()
        assert advisor.tier_for_rate((css_to_ss * ss_to_mm) ** 0.5) == "SS"

    def test_interval_form(self, advisor):
        assert advisor.tier_for_interval(0.001) == "MM"
        assert advisor.tier_for_interval(1e7) == "CSS"
        with pytest.raises(ValueError):
            advisor.tier_for_interval(0)

    def test_boundaries_ordered(self, advisor):
        (mm, ss, ss_to_mm), (ss_again, css, css_to_ss) = advisor.boundaries()
        assert (mm, ss, ss_again, css) == ("MM", "SS", "SS", "CSS")
        assert 0 < css_to_ss < ss_to_mm

    def test_ss_to_mm_boundary_is_equation_6(self, advisor):
        assert advisor.boundaries()[0][2] == pytest.approx(
            breakeven_rate_ops_per_sec(CostCatalog()), rel=1e-12
        )

    def test_boundary_tier_lookup_matches_advisor(self, advisor):
        """Reading the tier off the boundary list is the same policy."""
        boundaries = advisor.boundaries()
        for rate in (1e-7, 1e-3, 1.0, 100.0):
            hotter = [hot for hot, __, bound in boundaries if rate >= bound]
            expected = hotter[0] if hotter else boundaries[-1][1]
            assert advisor.tier_for_rate(rate) == expected

    def test_without_css_only_two_tiers(self):
        model = OperationCostModel()
        advisor = Advisor([model.mm_line(), model.ss_line()])
        assert advisor.tier_for_rate(1e-9) == "SS"
        assert advisor.tier_for_rate(1e3) == "MM"

    def test_free_decompression_makes_css_dominate_ss(self):
        cat = CostCatalog()
        model = OperationCostModel(cat, CssParameters(
            compression_ratio=0.5, r_css=cat.r,
        ))
        assert crossover(model.ss_line(), model.css_line()) == float("inf")
        assert Advisor(
            [model.mm_line(), model.ss_line(), model.css_line()]
        ).boundaries() == [
            ("MM", "CSS", crossover(model.mm_line(), model.css_line())),
        ]

    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(1e-9, 1e4))
    def test_advisor_picks_true_minimum_property(self, rate):
        assert_argmin(mm_ss_css(), rate)

    @settings(max_examples=100, deadline=None)
    @given(low=st.floats(1e-9, 1e4), high=st.floats(1e-9, 1e4))
    def test_tier_for_rate_monotone_property(self, low, high):
        assert_monotone(mm_ss_css(), low, high)


class TestNTierAdvisor:
    """A storage hierarchy's tiers as lines (``hierarchy_lines``)."""

    @pytest.fixture
    def hierarchy(self) -> StorageHierarchy:
        return StorageHierarchy.modern_2026()

    @pytest.fixture
    def advisor(self, hierarchy) -> Advisor:
        return Advisor(hierarchy_lines(hierarchy))

    def test_hot_page_goes_to_dram(self, advisor):
        assert advisor.tier_for_rate(100.0) == "dram"

    def test_glacial_page_goes_to_object_store(self, advisor):
        assert advisor.tier_for_rate(1e-9) == "object-store"

    def test_interval_form_and_validation(self, advisor):
        assert advisor.tier_for_interval(0.001) == "dram"
        with pytest.raises(ValueError):
            advisor.tier_for_interval(0)
        with pytest.raises(ValueError):
            advisor.lines[0].at(-1.0)

    def test_costs_at_covers_every_tier(self, advisor, hierarchy):
        costs = advisor.costs_at(1.0)
        assert list(costs) == [tier.name for tier in hierarchy]
        assert all(value > 0 for value in costs.values())

    def test_home_tier_pays_no_second_rent(self, hierarchy):
        """Every cached tier rents its bytes *and* the durable copy."""
        cat = CostCatalog()
        lines = hierarchy_lines(hierarchy, cat)
        home = hierarchy.home
        for tier, line in zip(hierarchy, lines):
            rent = tier.dollars_per_byte + (
                0.0 if tier is home else home.dollars_per_byte)
            assert line.storage_cost == rent * cat.page_bytes

    def test_boundaries_agree_with_tier_pair_breakeven(self):
        """Cross-check on all three presets: the envelope of the tier
        lines lands on the retained Equation (6) closed form."""
        for preset in PRESETS:
            hierarchy = preset()
            boundaries = Advisor(hierarchy_lines(hierarchy)).boundaries()
            assert [(hot, cold) for hot, cold, __ in boundaries] == [
                (upper.name, lower.name)
                for upper, lower in hierarchy.pairs()
            ]
            for (upper, lower), (__, __, rate) in zip(hierarchy.pairs(),
                                                      boundaries):
                assert rate == pytest.approx(
                    1.0 / tier_pair_breakeven(upper, lower), rel=1e-12)

    def test_boundary_rates_decrease_down_the_stack(self, advisor):
        rates = [rate for __, __, rate in advisor.boundaries()]
        assert rates == sorted(rates, reverse=True)

    def test_selection_flips_exactly_at_each_boundary(self, advisor):
        """Just above a boundary rate the upper tier wins; just below,
        the lower — the argmin and the pair breakevens are the same
        policy."""
        for upper, lower, rate in advisor.boundaries():
            assert advisor.tier_for_rate(rate * 1.01) == upper
            assert advisor.tier_for_rate(rate * 0.99) == lower

    @settings(max_examples=100, deadline=None)
    @given(low=st.floats(1e-10, 1e5), high=st.floats(1e-10, 1e5))
    def test_tier_for_rate_monotone_property(self, low, high):
        """Hotter pages move strictly up-stack (or stay put)."""
        assert_monotone(
            Advisor(hierarchy_lines(StorageHierarchy.modern_2026())),
            low, high)

    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(1e-10, 1e5))
    def test_tier_for_rate_is_argmin_property(self, rate):
        assert_argmin(
            Advisor(hierarchy_lines(StorageHierarchy.modern_2026())), rate)

    def test_two_tier_advisor_matches_equation_6(self):
        """Over the paper's own hierarchy the argmin flips at exactly
        the Equation (6) rate."""
        advisor = Advisor(hierarchy_lines(StorageHierarchy.paper_2018()))
        breakeven = breakeven_rate_ops_per_sec(CostCatalog())
        assert advisor.tier_for_rate(breakeven * 1.01) == "dram"
        assert advisor.tier_for_rate(breakeven * 0.99) == "nvme-ssd"
