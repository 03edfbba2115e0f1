"""Adaptive breakeven-interval eviction and the paced workload driver."""

import pytest

from repro.bwtree import BwTree, BwTreeConfig
from repro.core import AdaptiveCacheController, CostCatalog, PacedDriver
from repro.core.breakeven import breakeven_interval_seconds
from repro.hardware import Machine


def make_tree(record_count: int = 600) -> BwTree:
    machine = Machine.paper_default(cores=1)
    tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
    for index in range(record_count):
        tree.upsert(b"user%06d" % index, b"v" * 100)
    tree.checkpoint()
    return tree


class TestController:
    def test_ti_comes_from_equation_6(self):
        tree = make_tree(50)
        controller = AdaptiveCacheController(tree)
        assert controller.ti_seconds == pytest.approx(
            breakeven_interval_seconds(CostCatalog())
        )
        assert tree.cache.ti_seconds == controller.ti_seconds

    def test_sweep_rate_limited(self):
        tree = make_tree(50)
        ti = breakeven_interval_seconds(CostCatalog())
        controller = AdaptiveCacheController(tree,
                                             sweep_interval_seconds=2 * ti)
        assert controller.maybe_sweep() == 0   # no time has passed
        tree.machine.clock.advance(ti + 1)
        assert controller.maybe_sweep() == 0   # idle pages, but too soon
        tree.machine.clock.advance(ti)
        assert controller.maybe_sweep() > 0

    def test_idle_pages_evicted_after_ti(self):
        tree = make_tree(400)
        controller = AdaptiveCacheController(tree)
        resident_before = tree.cache.resident_pages
        tree.machine.clock.advance(controller.ti_seconds + 1)
        # Touch a handful of pages so they stay.
        for index in range(0, 400, 100):
            tree.get(b"user%06d" % index)
        assert controller.maybe_sweep() > 0
        assert tree.cache.resident_pages < resident_before
        # Recently touched pages survived.
        hot_entry = tree._descend(b"user%06d" % 0)
        assert hot_entry.state is not None

    def test_resident_fraction(self):
        tree = make_tree(200)
        controller = AdaptiveCacheController(tree)
        assert controller.resident_fraction() == pytest.approx(1.0)
        tree.machine.clock.advance(controller.ti_seconds + 1)
        controller.maybe_sweep()
        assert controller.resident_fraction() < 1.0


class TestPacedDriver:
    def test_think_time_advances_clock(self):
        tree = make_tree(100)
        driver = PacedDriver(tree, offered_ops_per_sec=10.0)
        start = tree.machine.clock.now
        stats = driver.run_phase(
            "reads", (b"user%06d" % (i % 100) for i in range(50))
        )
        assert stats.operations == 50
        # 50 ops at 10/s: at least 5 virtual seconds passed.
        assert tree.machine.clock.now - start >= 5.0

    def test_rejects_nonpositive_rate(self):
        tree = make_tree(10)
        with pytest.raises(ValueError):
            PacedDriver(tree, offered_ops_per_sec=0.0)

    def test_upsert_phase(self):
        tree = make_tree(100)
        driver = PacedDriver(tree, offered_ops_per_sec=100.0)
        keys = [b"user%06d" % i for i in range(20)]
        stats = driver.run_phase("writes", keys,
                                 values=[b"new"] * len(keys))
        assert stats.operations == 20
        assert tree.get(keys[0]) == b"new"

    def test_ss_fraction_observed_on_cold_reads(self):
        tree = make_tree(400)
        tree.store.flush()
        tree.cache.capacity_bytes = 4096
        tree.cache.ensure_capacity()
        tree.cache.capacity_bytes = None
        driver = PacedDriver(tree, offered_ops_per_sec=100.0)
        stats = driver.run_phase(
            "cold", (b"user%06d" % i for i in range(0, 400, 13))
        )
        assert stats.ss_fraction > 0.5
