"""Metering a run's actual dollar bill."""

import pytest

from repro.core import CostBill, CostCatalog, meter_bill, price_run
from repro.hardware import Machine


def test_idle_machine_bills_storage_only():
    machine = Machine.paper_default()
    machine.dram.allocate(1_000_000, "data")
    machine.ssd.store_bytes(2_000_000)
    machine.clock.advance(10.0)
    bill = meter_bill(machine, window_seconds=10.0)
    assert bill.processor_cost == 0.0
    assert bill.io_cost == 0.0
    assert bill.dram_cost == pytest.approx(1_000_000 * 5e-9)
    assert bill.flash_cost == pytest.approx(2_000_000 * 0.5e-9)
    assert bill.total == bill.storage_cost


def test_busy_machine_bills_processor_fraction():
    machine = Machine.paper_default(cores=4)
    # 2 of 4 core-seconds busy over a 1-second window: half the CPU.
    # A context switch is priced at one core-microsecond.
    machine.cpu.charge("context_switch", 2e6)
    bill = meter_bill(machine, window_seconds=1.0)
    assert bill.processor_cost == pytest.approx(300 * 0.5)


def test_io_billed_as_iops_fraction():
    machine = Machine.paper_default()
    for __ in range(1000):
        machine.ssd.read(4096)
    # 1000 I/Os in 1 s against a 2e5-IOPS device: 0.5% of $50.
    bill = meter_bill(machine, window_seconds=1.0)
    assert bill.io_cost == pytest.approx(50 * 1000 / 2e5)


def test_fractions_clamped_at_capacity():
    machine = Machine.paper_default(cores=1)
    machine.cpu.charge("context_switch", 5e6)   # 5 core-seconds in a 1-second window
    bill = meter_bill(machine, window_seconds=1.0)
    assert bill.processor_cost == pytest.approx(300.0)


def test_cost_per_operation():
    machine = Machine.paper_default()
    machine.dram.allocate(100, "x")
    for __ in range(10):
        machine.begin_operation()
        machine.cpu.charge("context_switch", 1.0)
    bill = meter_bill(machine, window_seconds=2.0)
    assert bill.operations == 10
    assert bill.cost_per_operation == pytest.approx(
        bill.total * 2.0 / 10
    )


def test_empty_bill():
    machine = Machine.paper_default()
    bill = meter_bill(machine, window_seconds=1.0)
    assert bill.total == 0.0
    assert bill.cost_per_operation == 0.0


def test_custom_catalog_prices():
    machine = Machine.paper_default()
    machine.dram.allocate(1000, "x")
    pricey = CostCatalog(dram_per_byte=1e-6)
    bill = meter_bill(machine, catalog=pricey, window_seconds=1.0)
    assert bill.dram_cost == pytest.approx(1e-3)


def test_bill_is_frozen_value_object():
    bill = CostBill(1.0, 2.0, 3.0, 4.0, window_seconds=1.0, operations=1)
    assert bill.total == 10.0
    assert bill.storage_cost == 3.0
    assert bill.execution_cost == 7.0


class TestPriceRun:
    """One Eq. (4)-(5) run-pricing function: bit-equal to the three
    expressions it replaced (literals from the schema-v7
    BENCH_engine.json, whose blocks each carried their own copy)."""

    def test_whatif_summary_terms(self):
        # whatif.summarize: exec + data-SSD io + DRAM rent
        # (ycsb-a/1shard/sync baseline).
        price = price_run(ops=10000, cores=4,
                          core_seconds=0.004923937800002646,
                          elapsed_seconds=0.0012309844500006616,
                          ssd_ios=157, dram_bytes=1952742)
        assert price.exec_dollars_per_op == 3.692953350001985e-05
        assert price.io_dollars_per_op == 3.925e-06
        assert price.dram_dollars_per_op == 1.201897518431596e-09
        assert price.dollars_per_op == 4.085573539753828e-05

    def test_commit_pipeline_topology_terms(self):
        # The topologies block at 8 shards: colocated log writes are
        # data-SSD I/Os, a shared log drive bills its own writes.
        colocated = price_run(ops=10000, cores=4,
                              core_seconds=0.005961813799999549,
                              elapsed_seconds=0.0, ssd_ios=32)
        assert colocated.exec_dollars_per_op == 4.4713603499996616e-05
        assert colocated.io_dollars_per_op == 8e-07
        assert colocated.log_io_dollars_per_op == 0.0
        shared = price_run(ops=10000, cores=4,
                           core_seconds=0.005961813799999549,
                           elapsed_seconds=0.0, ssd_ios=0,
                           log_device_writes=32)
        assert shared.io_dollars_per_op == 0.0
        assert shared.log_io_dollars_per_op == 8e-07
        # No rent billed: the total is the block's exec + io + log io.
        assert shared.dollars_per_op == 4.5513603499996616e-05
        assert colocated.dollars_per_op == 4.5513603499996616e-05

    def test_tiered_block_terms(self):
        # The tiered demote variant: each tier's residency at its own
        # $/byte (DRAM at the catalog's $M, CXL far memory at 2e-9).
        price = price_run(ops=10000, cores=4,
                          core_seconds=0.012329247400008469,
                          elapsed_seconds=0.003082311850002117,
                          ssd_ios=292, dram_bytes=458662,
                          tier_bytes=397246, tier_dollars_per_byte=2e-09)
        assert price.exec_dollars_per_op == 9.246935550006352e-05
        assert price.io_dollars_per_op == 7.3e-06
        assert price.dram_dollars_per_op == 7.068696588728356e-10
        assert price.tier_dollars_per_op == 2.448872106331882e-10
        assert price.dollars_per_op == 9.977030725693303e-05

    def test_matches_the_old_expressions_on_arbitrary_inputs(self):
        cat = CostCatalog(processor_dollars=317.0, ssd_io_dollars=41.0,
                          iops=1.9e5, dram_per_byte=4.1e-9)
        ops, cores, core_s, elapsed = 777, 3, 0.01234567, 0.00456789
        ios, log_writes, dram, tier, per_byte = 91, 13, 123457, 7919, 1.7e-9
        price = price_run(ops, cores, core_s, elapsed, ios, dram,
                          log_writes, tier, per_byte, catalog=cat)
        exec_dollars = cat.processor_dollars * core_s / (cores * ops)
        io_dollars = cat.ssd_io_dollars * ios / (cat.iops * ops)
        log_io_dollars = cat.ssd_io_dollars * log_writes / (cat.iops * ops)
        dram_dollars = cat.dram_per_byte * dram * elapsed / ops
        tier_dollars = per_byte * tier * elapsed / ops
        assert price.exec_dollars_per_op == exec_dollars
        assert price.io_dollars_per_op == io_dollars
        assert price.log_io_dollars_per_op == log_io_dollars
        assert price.dram_dollars_per_op == dram_dollars
        assert price.tier_dollars_per_op == tier_dollars
        assert price.dollars_per_op == (exec_dollars + io_dollars
                                        + log_io_dollars + dram_dollars
                                        + tier_dollars)

    def test_unbilled_terms_contribute_exactly_zero(self):
        full = price_run(10000, 4, 0.0049, 0.0012, 157, dram_bytes=1952742)
        assert full.log_io_dollars_per_op == 0.0
        assert full.tier_dollars_per_op == 0.0
        assert full.dollars_per_op == (full.exec_dollars_per_op
                                       + full.io_dollars_per_op
                                       + full.dram_dollars_per_op)

    def test_rejects_a_run_without_operations(self):
        with pytest.raises(ValueError, match="at least one op"):
            price_run(0, 4, 0.0, 0.0, 0)
