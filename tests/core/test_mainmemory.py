"""Equations 7-8: the Bw-tree vs MassTree comparison."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CostCatalog,
    MainMemoryComparison,
    cheapest,
    crossover,
    paper_comparison,
)


def test_paper_constant_8_3e3():
    """Equation (8): Ti = 8.3e3 / Size with Px=2.6, Mx=2.1."""
    assert paper_comparison().breakeven_constant \
        == pytest.approx(8.3e3, rel=0.02)


def test_paper_crossover_at_6_1_gb():
    """Section 5.2: ~0.73e6 ops/sec for the 6.1 GB footprint."""
    rate = paper_comparison().breakeven_rate_ops_per_sec(6.1e9)
    assert rate == pytest.approx(0.73e6, rel=0.01)


def test_paper_crossover_at_100_gb():
    """Section 5.2: ~12e6 ops/sec for a 100 GB database."""
    rate = paper_comparison().breakeven_rate_ops_per_sec(100e9)
    assert rate == pytest.approx(12e6, rel=0.02)


def test_paper_page_interval_3_1_seconds():
    """Section 5.2: Ti < 3.1 s for a 2.7 KB page."""
    interval = paper_comparison().breakeven_interval_seconds(2.7e3)
    assert interval == pytest.approx(3.1, abs=0.05)


def test_crossover_scales_inverse_with_size():
    cmp = paper_comparison()
    assert cmp.breakeven_rate_ops_per_sec(10e9) == pytest.approx(
        10 * cmp.breakeven_rate_ops_per_sec(1e9)
    )


def test_costs_equal_at_breakeven():
    cmp = paper_comparison()
    size = 6.1e9
    rate = cmp.breakeven_rate_ops_per_sec(size)
    assert cmp.bwtree_line(size).at(rate).total == pytest.approx(
        cmp.masstree_line(size).at(rate).total, rel=1e-9
    )


@pytest.mark.parametrize("size", [6.1e9, 100e9])
def test_line_crossover_is_equation_7(size):
    """Cross-check, not a second derivation: Eq. (7) stays in the
    paper's closed form and the two whole-database lines must cross on
    it."""
    cmp = paper_comparison()
    assert crossover(cmp.masstree_line(size), cmp.bwtree_line(size)) \
        == pytest.approx(cmp.breakeven_rate_ops_per_sec(size), rel=1e-12)


def test_winner_flips_at_crossover():
    cmp = paper_comparison()
    size = 6.1e9
    lines = [cmp.bwtree_line(size), cmp.masstree_line(size)]
    rate = cmp.breakeven_rate_ops_per_sec(size)
    assert cheapest(lines, rate * 0.5).kind == "bwtree"
    assert cheapest(lines, rate * 2.0).kind == "masstree"


def test_curves_structure():
    """Figure 3's two series: one whole-database line per system."""
    cmp = paper_comparison()
    bwtree, masstree = cmp.bwtree_line(6.1e9), cmp.masstree_line(6.1e9)
    assert (bwtree.kind, masstree.kind) == ("bwtree", "masstree")
    cat = cmp.catalog
    assert bwtree.at(1e6).total == pytest.approx(
        6.1e9 * cat.dram_per_byte + 1e6 * cat.mm_execution_cost_per_op)
    assert masstree.at(1e6).total == pytest.approx(
        2.1 * 6.1e9 * cat.dram_per_byte
        + 1e6 * cat.mm_execution_cost_per_op / 2.6)


def test_px_mx_validation():
    with pytest.raises(ValueError):
        MainMemoryComparison(px=1.0, mx=2.0, catalog=CostCatalog())
    with pytest.raises(ValueError):
        MainMemoryComparison(px=2.0, mx=1.0, catalog=CostCatalog())


def test_size_validation():
    with pytest.raises(ValueError):
        paper_comparison().breakeven_interval_seconds(0)


@settings(max_examples=100, deadline=None)
@given(px=st.floats(1.01, 10), mx=st.floats(1.01, 10),
       size=st.floats(1e6, 1e12))
def test_breakeven_equalizes_costs_property(px, mx, size):
    cmp = MainMemoryComparison(px=px, mx=mx, catalog=CostCatalog())
    rate = cmp.breakeven_rate_ops_per_sec(size)
    assert cmp.bwtree_line(size).at(rate).total == pytest.approx(
        cmp.masstree_line(size).at(rate).total, rel=1e-6
    )
