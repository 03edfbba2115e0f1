"""Equation 6: the updated five-minute rule and its sensitivities."""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CostCatalog,
    OperationCostModel,
    breakeven_interval_seconds,
    breakeven_rate_ops_per_sec,
    breakeven_report,
    classic_gray_interval_seconds,
    crossover,
    hierarchy_breakeven_surface,
    iops_price_sweep,
    record_cache_breakeven_seconds,
    tier_pair_breakeven,
)
from repro.hardware import StorageHierarchy, TierSpec


def test_paper_value_45_seconds():
    """Section 4.2: Ti ~ 45 seconds with the paper's constants."""
    interval = breakeven_interval_seconds(CostCatalog())
    assert interval == pytest.approx(45.2, abs=0.5)


def test_report_terms_sum():
    report = breakeven_report()
    assert report.interval_seconds == pytest.approx(
        report.io_term_seconds + report.cpu_term_seconds
    )
    assert report.rate_ops_per_sec == pytest.approx(
        1.0 / report.interval_seconds
    )


def test_cpu_term_is_majority_on_modern_ssds():
    """The paper's point: the I/O *execution path* now dominates the
    breakeven, not the device cost."""
    report = breakeven_report()
    assert report.cpu_term_seconds / report.interval_seconds > 0.5


def test_gray_classic_smaller():
    cat = CostCatalog()
    assert classic_gray_interval_seconds(cat) \
        < breakeven_interval_seconds(cat)


def mm_ss_crossover(cat: CostCatalog) -> float:
    model = OperationCostModel(cat)
    return crossover(model.mm_line(), model.ss_line())


def test_crossover_rate_agrees_with_equation_6():
    cat = CostCatalog()
    assert mm_ss_crossover(cat) == pytest.approx(
        breakeven_rate_ops_per_sec(cat), rel=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    dram=st.floats(1e-10, 1e-7),
    flash=st.floats(1e-11, 1e-8),
    processor=st.floats(50, 5000),
    io_dollars=st.floats(1, 500),
    rops=st.floats(1e5, 1e8),
    iops=st.floats(1e3, 1e7),
    page=st.floats(256, 65536),
    r=st.floats(1.1, 30),
)
def test_two_derivations_agree_property(dram, flash, processor, io_dollars,
                                        rops, iops, page, r):
    """Equation (6) and the direct Eq(4)=Eq(5) solve must always agree."""
    cat = CostCatalog(
        dram_per_byte=dram, flash_per_byte=flash,
        processor_dollars=processor, ssd_io_dollars=io_dollars,
        rops=rops, iops=iops, page_bytes=page, r=r,
    )
    assert mm_ss_crossover(cat) == pytest.approx(
        breakeven_rate_ops_per_sec(cat), rel=1e-9
    )


def test_record_cache_scales_interval_up():
    """Section 6.3: cheaper-to-hold records stay ~10x longer."""
    cat = CostCatalog()
    record_interval = record_cache_breakeven_seconds(cat, 10)
    assert record_interval == pytest.approx(
        10 * breakeven_interval_seconds(cat)
    )


def test_record_cache_validation():
    with pytest.raises(ValueError):
        record_cache_breakeven_seconds(CostCatalog(), 0)


def test_iops_sweep_monotone_decreasing():
    cat = CostCatalog()
    intervals = iops_price_sweep(cat, [1e5, 2e5, 5e5, 1e6])
    assert all(a > b for a, b in zip(intervals, intervals[1:]))


def test_iops_sweep_floors_at_cpu_term():
    """Even free IOPS cannot shrink Ti below the CPU path term."""
    cat = CostCatalog()
    report = breakeven_report(cat)
    interval_at_huge_iops = iops_price_sweep(cat, [1e12])[0]
    assert interval_at_huge_iops == pytest.approx(
        report.cpu_term_seconds, rel=1e-3
    )


def test_cheaper_r_shrinks_breakeven():
    """Figure 7's premise: smaller R, earlier eviction is worthwhile."""
    cat = CostCatalog()
    assert breakeven_interval_seconds(cat.with_r(5.8)) \
        < breakeven_interval_seconds(cat.with_r(9.0))


class TestUnifiedDerivation:
    """The Equation (6) algebra lives in exactly one place.

    ``breakeven_interval_seconds`` and ``breakeven_report`` used to carry
    separately-associated copies of the derivation that could drift in
    the last ulp; both now sum the same two ``_breakeven_terms`` floats.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        dram=st.floats(1e-10, 1e-7),
        processor=st.floats(50, 5000),
        io_dollars=st.floats(1, 500),
        rops=st.floats(1e5, 1e8),
        iops=st.floats(1e3, 1e7),
        page=st.floats(256, 65536),
        r=st.floats(1.0, 30),
    )
    def test_interval_and_report_bit_identical(self, dram, processor,
                                               io_dollars, rops, iops,
                                               page, r):
        cat = CostCatalog(
            dram_per_byte=dram, processor_dollars=processor,
            ssd_io_dollars=io_dollars, rops=rops, iops=iops,
            page_bytes=page, r=r,
        )
        report = breakeven_report(cat)
        # Exact float equality, not approx: one derivation, one result.
        assert breakeven_interval_seconds(cat) == report.interval_seconds
        assert report.interval_seconds == (
            report.io_term_seconds + report.cpu_term_seconds
        )
        assert classic_gray_interval_seconds(cat) \
            == report.io_term_seconds

    def test_paper_constants_bit_identical(self):
        cat = CostCatalog()
        assert breakeven_interval_seconds(cat) \
            == breakeven_report(cat).interval_seconds


class _CatalogStandIn:
    """A duck-typed catalog, the shape ablation sweeps construct by hand.

    Deliberately NOT a :class:`CostCatalog` — that class validates at
    construction, while the regression here is about stand-ins that
    bypass it and reach the breakeven math with degenerate fields.
    """

    def __init__(self, **overrides):
        defaults = dataclasses.asdict(CostCatalog())
        defaults.update(overrides)
        for name, value in defaults.items():
            setattr(self, name, value)


class TestDegenerateCatalogs:
    """Catalog-like stand-ins with nonsense fields fail loudly.

    The entry points are duck-typed (sweeps hand them stand-ins that
    bypass ``CostCatalog``'s own construction checks), so the math
    validates its inputs instead of dividing by zero or returning a
    negative interval.
    """

    @staticmethod
    def degenerate(**overrides):
        return _CatalogStandIn(**overrides)

    @pytest.mark.parametrize("field", [
        "dram_per_byte", "page_bytes", "iops", "rops",
        "processor_dollars",
    ])
    def test_zero_divisor_fields_rejected(self, field):
        cat = self.degenerate(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            breakeven_interval_seconds(cat)
        with pytest.raises(ValueError, match=field):
            breakeven_report(cat)

    def test_negative_io_dollars_rejected(self):
        cat = self.degenerate(ssd_io_dollars=-1.0)
        with pytest.raises(ValueError, match="ssd_io_dollars"):
            breakeven_interval_seconds(cat)

    def test_r_below_one_rejected(self):
        # r < 1 would make the Equation (6) CPU term negative: an I/O
        # path shorter than a cached MM operation.
        cat = self.degenerate(r=0.5)
        with pytest.raises(ValueError, match="CostCatalog.r "):
            breakeven_interval_seconds(cat)
        with pytest.raises(ValueError, match="CostCatalog.r "):
            classic_gray_interval_seconds(cat)


class TestTierPairBreakeven:
    def test_paper_pair_reduces_exactly_to_equation_6(self):
        """The 2-tier paper hierarchy IS Equation (6), bit-for-bit."""
        hierarchy = StorageHierarchy.paper_2018()
        cat = CostCatalog()
        assert tier_pair_breakeven(hierarchy.top, hierarchy.home, cat) \
            == breakeven_interval_seconds(cat)

    def test_page_cache_thresholds_are_pinned(self):
        """``repro.storage.cache.TierCache`` turns this function's value
        into the page cache's runtime demotion thresholds (hence
        ``rows/tiered/*`` in BENCH_engine.json, which runs cxl-2026):
        literals captured before the cost-line refactor, bit for bit."""
        dram, cxl, nvme = StorageHierarchy.cxl_2026().tiers
        assert tier_pair_breakeven(dram, cxl) == 5.555555555555556
        assert tier_pair_breakeven(cxl, nvme) == 104.62962962962962

    def test_misordered_pair_rejected(self):
        hierarchy = StorageHierarchy.cxl_2026()
        with pytest.raises(ValueError, match="cheaper"):
            tier_pair_breakeven(hierarchy.home, hierarchy.top)

    def test_shorter_lower_cpu_path_rejected(self):
        upper = TierSpec(name="up", dollars_per_byte=2e-9,
                         access_latency_s=0.0, iops=1e6, io_dollars=0.0,
                         cpu_path_r=5.0)
        lower = TierSpec(name="down", dollars_per_byte=1e-9,
                         access_latency_s=0.0, iops=1e6, io_dollars=0.0,
                         cpu_path_r=2.0, durable_home=True)
        with pytest.raises(ValueError, match="CPU path"):
            tier_pair_breakeven(upper, lower)

    def test_surface_is_monotone_down_the_stack(self):
        """Colder boundaries break even at longer intervals — the fact
        that makes threshold demotion optimal."""
        for hierarchy in (StorageHierarchy.cxl_2026(),
                          StorageHierarchy.modern_2026()):
            rows = hierarchy_breakeven_surface(hierarchy)
            assert len(rows) == len(hierarchy) - 1
            intervals = [row.interval_seconds for row in rows]
            assert intervals == sorted(intervals)
            assert all(a < b for a, b in zip(intervals, intervals[1:]))
            for row in rows:
                assert row.rate_ops_per_sec == pytest.approx(
                    1.0 / row.interval_seconds)
                assert 0.0 < row.cpu_term_fraction <= 1.0

    def test_modern_surface_covers_three_boundaries(self):
        rows = hierarchy_breakeven_surface(StorageHierarchy.modern_2026())
        assert [(r.upper, r.lower) for r in rows] == [
            ("dram", "cxl-far-memory"),
            ("cxl-far-memory", "nvme-ssd"),
            ("nvme-ssd", "object-store"),
        ]

    def test_surface_rows_match_pair_function(self):
        hierarchy = StorageHierarchy.modern_2026()
        cat = CostCatalog()
        rows = hierarchy_breakeven_surface(hierarchy, cat)
        for row, (upper, lower) in zip(rows, hierarchy.pairs()):
            assert row.interval_seconds \
                == tier_pair_breakeven(upper, lower, cat)
