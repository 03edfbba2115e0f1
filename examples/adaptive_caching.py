#!/usr/bin/env python3
"""Cost-driven eviction tracking a moving hot set (paper §4.2, §8.4).

Runs a paced workload (real inter-arrival time on the virtual clock)
whose hot set shifts mid-run.  The adaptive controller applies the
Equation (6) breakeven online — evict anything idle longer than ~45 s —
so the DRAM footprint floats to whatever the hot set currently needs,
and the dollar bill beats keeping everything in memory.

Run:  python examples/adaptive_caching.py
"""

import random

from repro import BwTree, BwTreeConfig, Machine
from repro.bench import format_table
from repro.core import AdaptiveCacheController, PacedDriver, meter_bill

RECORDS = 4_000
HOT_COUNT = 600
OFFERED_RATE = 30.0      # ops/sec — Ti-scale dynamics need real seconds
PHASE_OPS = 3_000


def key_stream(hot_low, hot_high, count, seed):
    source = random.Random(seed)
    for __ in range(count):
        if source.random() < 0.98:
            index = source.randrange(hot_low, hot_high)
        else:
            index = source.randrange(RECORDS)
        yield b"user%010d" % index


def main() -> None:
    machine = Machine.paper_default(cores=4)
    tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 18))
    print(f"Loading {RECORDS:,} records...")
    for index in range(RECORDS):
        tree.upsert(b"user%010d" % index, b"v" * 100)
    tree.checkpoint()

    controller = AdaptiveCacheController(tree)
    driver = PacedDriver(tree, OFFERED_RATE, controller=controller)
    print(f"breakeven Ti = {controller.ti_seconds:.1f} s; offered rate "
          f"{OFFERED_RATE:.0f} ops/s; hot set = {HOT_COUNT:,} records\n")
    machine.reset_accounting()

    phases = [
        ("hot set A (keys 0..600)", 0, HOT_COUNT, 1),
        ("hot set B (keys 3400..4000)", RECORDS - HOT_COUNT, RECORDS, 2),
        ("hot set B, steady state", RECORDS - HOT_COUNT, RECORDS, 3),
    ]
    rows = []
    for name, low, high, seed in phases:
        stats = driver.run_phase(
            name, key_stream(low, high, PHASE_OPS, seed)
        )
        rows.append([
            name,
            f"{stats.ss_fraction:.3f}",
            f"{tree.cache.resident_bytes:,}",
            # The cache is uncapped: every eviction is a sweep's.
            f"{tree.cache.stats.evictions:,}",
        ])
    print(format_table(
        ["phase", "F (SS fraction)", "DRAM at phase end (B)",
         "evictions so far"],
        rows,
        title="The footprint follows the hot set across the shift",
    ))

    bill = meter_bill(machine, window_seconds=machine.clock.now)
    all_dram_storage = (RECORDS * 130) * 5e-9 + bill.flash_cost
    print(f"\nactual bill: {bill.total:.4g} $/s (x 1/L) — "
          f"DRAM {bill.dram_cost:.4g}, flash {bill.flash_cost:.4g}, "
          f"CPU {bill.processor_cost:.4g}, I/O {bill.io_cost:.4g}")
    print(f"an all-DRAM configuration would pay ~{all_dram_storage:.4g} "
          "$/s in storage alone.")
    print("\nThis is the paper's §8.4 conclusion operating: cache when "
          "hot, evict when cold, re-decide as the workload moves.")


if __name__ == "__main__":
    main()
