"""Section 8.2/8.3 and §7.2-CMM technology analysis."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    Advisor,
    CmmParameters,
    CostCatalog,
    HddParameters,
    NvramParameters,
    OperationCostModel,
    cmm_line,
    crossover,
    hdd_breakeven_interval_seconds,
    hdd_viability,
    nvm_line,
    nvram_in_ssd_savings_fraction,
)

BASE = OperationCostModel()
MM, SS, CSS = BASE.mm_line(), BASE.ss_line(), BASE.css_line()


class TestNvramParameters:
    def test_defaults_between_dram_and_flash(self):
        nvram = NvramParameters()
        cat = CostCatalog()
        assert cat.flash_per_byte < nvram.price_per_byte < cat.dram_per_byte

    def test_validation(self):
        with pytest.raises(ValueError):
            NvramParameters(price_per_byte=0)
        with pytest.raises(ValueError):
            NvramParameters(slowdown=0.5)


class TestNvramCostModel:
    def test_nvm_cost_structure(self):
        cost = nvm_line().at(0.0)
        assert cost.kind == "NVM"
        assert cost.execution_cost == 0.0
        assert cost.storage_cost == pytest.approx(2.0e-9 * 2700)

    def test_nvm_cheaper_than_ss_when_hot(self):
        """Section 8.2: fetching from NVRAM has much lower cost than an
        SS operation that needs I/O."""
        assert nvm_line().at(100.0).total < SS.at(100.0).total

    def test_dram_vs_nvm_crossover(self):
        nvm = nvm_line()
        rate = crossover(MM, nvm)
        assert rate > 0
        assert nvm.at(rate).total == pytest.approx(
            MM.at(rate).total, rel=1e-9
        )
        # DRAM wins above the rate, NVRAM below it.
        assert MM.at(rate * 2).total < nvm.at(rate * 2).total
        assert nvm.at(rate / 2).total < MM.at(rate / 2).total

    def test_nvm_vs_ss_crossover(self):
        nvm = nvm_line()
        rate = crossover(nvm, SS)
        assert 0 < rate < math.inf
        assert nvm.at(rate).total == pytest.approx(
            SS.at(rate).total, rel=1e-9
        )

    def test_nvm_cheaper_than_flash_wins_at_every_rate(self):
        """Regression: the hand-written NVM/SS intersection had no
        rent-gap guard and returned a *negative* rate (-5.05e-4/s) for
        NVRAM priced below flash."""
        nvm = nvm_line(nvram=NvramParameters(price_per_byte=0.4e-9))
        assert crossover(nvm, SS) == 0.0
        assert all(nvm.at(rate).total < SS.at(rate).total
                   for rate in (0.0, 1e-6, 1.0, 1e6))

    def test_nvm_never_wins_if_priced_above_dram(self):
        nvm = nvm_line(
            nvram=NvramParameters(price_per_byte=6.0e-9, slowdown=2.0)
        )
        assert crossover(MM, nvm) == 0.0

    def test_nvm_always_wins_if_as_fast_as_dram(self):
        nvm = nvm_line(
            nvram=NvramParameters(price_per_byte=2e-9, slowdown=1.0)
        )
        assert crossover(MM, nvm) == math.inf

    def test_nvram_in_ssd_saves_little(self):
        """Section 8.2: inside the SSD, NVRAM saves only the device term;
        the software path dominates, so under half the cost goes away."""
        assert 0.0 < nvram_in_ssd_savings_fraction() < 0.5


class TestFourTierAdvisor:
    """DRAM / NVM / SS / CSS: ablation A6's line set."""

    @staticmethod
    def advisor() -> Advisor:
        return Advisor([MM, nvm_line(), SS, CSS])

    def test_tier_ordering_across_rates(self):
        """Cold to hot: CSS, then SS, then NVM, then DRAM."""
        advisor = self.advisor()
        assert advisor.tier_for_rate(1e-7) == "CSS"
        assert advisor.tier_for_rate(1e3) == "MM"
        sequence = [advisor.tier_for_rate(10 ** e) for e in range(-7, 4)]
        # Once a hotter tier appears, colder tiers never come back.
        order = ["CSS", "SS", "NVM", "MM"]
        positions = [order.index(tier) for tier in sequence]
        assert positions == sorted(positions)

    def test_nvm_occupies_a_band(self):
        """With the default parameters NVRAM wins somewhere between flash
        and DRAM — the paper's 'extended memory' role."""
        assert [(hot, cold) for hot, cold, __
                in self.advisor().boundaries()] == [
            ("MM", "NVM"), ("NVM", "SS"), ("SS", "CSS"),
        ]

    def test_costs_at_reports_all_tiers(self):
        assert list(self.advisor().costs_at(1.0)) \
            == ["MM", "NVM", "SS", "CSS"]

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(1e-8, 1e4))
    def test_advisor_picks_minimum_property(self, rate):
        advisor = self.advisor()
        costs = advisor.costs_at(rate)
        assert costs[advisor.tier_for_rate(rate)] == min(costs.values())


class TestHdd:
    def test_parameters(self):
        assert HddParameters().iops == 200.0
        assert HddParameters.commodity().iops == 100.0
        with pytest.raises(ValueError):
            HddParameters(iops=0)

    def test_paper_arithmetic(self):
        """Section 8.3: 1000 ops/ms, 5000 ops in one HDD latency, 20
        transactions/sec at 10 I/Os per transaction."""
        report = hdd_viability(system_ops_per_sec=1e6)
        assert report.ops_per_hdd_latency == pytest.approx(5000)
        assert report.max_transactions_per_sec == pytest.approx(20)
        assert report.max_miss_fraction == pytest.approx(2e-4)
        assert not report.viable_for_random_io

    def test_commodity_worse(self):
        best = hdd_viability(HddParameters(), 1e6)
        commodity = hdd_viability(HddParameters.commodity(), 1e6)
        assert commodity.max_transactions_per_sec \
            < best.max_transactions_per_sec

    def test_slow_system_can_live_with_hdd(self):
        report = hdd_viability(system_ops_per_sec=1e4)
        assert report.viable_for_random_io

    def test_hdd_breakeven_enormous(self):
        """'Disk is tape': the HDD breakeven is hours, not seconds."""
        hdd_interval = hdd_breakeven_interval_seconds()
        assert hdd_interval > 3600            # over an hour
        from repro.core import breakeven_interval_seconds
        assert hdd_interval > 100 * breakeven_interval_seconds(
            CostCatalog()
        )

    def test_hdd_breakeven_goes_through_catalog_validation(self):
        """Regression: ``r_hdd=0.5`` used to return 92,589.8 s with a
        negative CPU term silently subtracted."""
        with pytest.raises(ValueError):
            hdd_breakeven_interval_seconds(r_hdd=0.5)
        assert hdd_breakeven_interval_seconds() == pytest.approx(
            92637.03703703704, rel=1e-12)

    def test_viability_validation(self):
        with pytest.raises(ValueError):
            hdd_viability(system_ops_per_sec=0)


class TestCmm:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            CmmParameters(compression_ratio=0.0)
        with pytest.raises(ValueError):
            CmmParameters(decompress_ratio=-1)

    def test_cmm_storage_cheaper_than_mm(self):
        assert cmm_line().storage_cost < MM.storage_cost

    def test_cmm_execution_dearer_than_mm(self):
        assert cmm_line().execution_cost_per_op > MM.execution_cost_per_op

    def test_breakevens_bound_a_window(self):
        """The paper's conjecture: a middle band where CMM wins."""
        cmm = cmm_line(
            cmm=CmmParameters(compression_ratio=0.4, decompress_ratio=2.0)
        )
        low, high = crossover(cmm, SS), crossover(MM, cmm)
        assert Advisor([MM, cmm, SS]).boundaries() == [
            ("MM", "CMM", high), ("CMM", "SS", low),
        ]
        mid = (low * high) ** 0.5
        assert cmm.at(mid).total < MM.at(mid).total
        assert cmm.at(mid).total < SS.at(mid).total

    def test_no_window_when_decompression_too_dear(self):
        """A dominated CMM line is simply absent from the envelope."""
        cmm = cmm_line(
            cmm=CmmParameters(compression_ratio=0.9,
                              decompress_ratio=50.0)
        )
        assert Advisor([MM, cmm, SS]).boundaries() == [
            ("MM", "SS", crossover(MM, SS)),
        ]

    def test_mm_wins_at_high_rates(self):
        cmm = cmm_line()
        rate = crossover(MM, cmm) * 3
        assert MM.at(rate).total < cmm.at(rate).total
