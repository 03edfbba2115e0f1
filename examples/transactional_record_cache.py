#!/usr/bin/env python3
"""Deuteronomy transactions and the TC record cache (Section 6.3).

Runs MVCC transactions through the full Deuteronomy stack — transaction
component over Bw-tree over LLAMA over the simulated machine — and shows
where reads are served from: the retained recovery-log buffers (or the
transaction's own writes), the log-structured read cache, or the data
component (possibly with an I/O).  The first of these is not counted on
its own: it is the reads that neither of the other two served.

Run:  python examples/transactional_record_cache.py
"""

import random

from repro import BwTreeConfig, Machine
from repro.deuteronomy import DeuteronomyEngine, TcConfig, TransactionAborted


def main() -> None:
    machine = Machine.paper_default(cores=4)
    engine = DeuteronomyEngine(
        machine,
        BwTreeConfig(cache_capacity_bytes=24 * 1024,
                     segment_bytes=1 << 16),
        TcConfig(log_buffer_bytes=1 << 16,
                 log_retain_budget_bytes=1 << 19,
                 read_cache_bytes=1 << 18),
    )

    print("Loading 3,000 accounts (directly into the data component, so "
          "the TC caches start cold)...")
    for index in range(3_000):
        engine.dc.upsert(b"acct%06d" % index, b"%d" % 1_000)
    engine.checkpoint()

    print("Running 2,000 transfer transactions (zipfian accounts)...")
    source = random.Random(7)
    aborts = 0
    for __ in range(2_000):
        a = b"acct%06d" % int(source.paretovariate(1.2) % 3_000)
        b = b"acct%06d" % source.randrange(3_000)
        if a == b:
            continue
        try:
            with engine.transaction() as txn:
                balance_a = int(engine.tc.read(txn, a) or b"0")
                balance_b = int(engine.tc.read(txn, b) or b"0")
                amount = min(10, balance_a)
                engine.tc.write(txn, a, b"%d" % (balance_a - amount))
                engine.tc.write(txn, b, b"%d" % (balance_b + amount))
        except TransactionAborted:
            aborts += 1

    counters = engine.tc.counters
    reads = counters.get("tc.reads")
    read_cache_hits = engine.tc.read_cache.hits
    dc_reads = counters.get("tc.dc_reads")
    print(f"\ncommits: {counters.get('tc.commits'):,.0f}   "
          f"aborts (ww-conflicts): {aborts}")
    print(f"reads: {reads:,.0f}, served by:")
    # Derived: every read the read cache and the DC did not serve.
    print(f"  log record cache or own writes: "
          f"{reads - read_cache_hits - dc_reads:,.0f}")
    print(f"  read cache                    : {read_cache_hits:,.0f}")
    print(f"  data component                : {dc_reads:,.0f} "
          f"(of which {counters.get('tc.dc_read_ios'):,.0f} needed I/O)")
    print(f"TC hit rate (no DC trip): {engine.tc.tc_hit_rate():.1%} — "
          "the paper's point: a TC cache hit avoids the I/O *and* the "
          "Bw-tree descent.")

    summary = machine.summary()
    print(f"\nvirtual throughput: {summary.throughput_ops_per_sec:,.0f} "
          f"ops/s, {summary.core_us_per_op:.2f} core-us/op")
    print(f"TC memory: {engine.tc.dram_footprint_bytes():,} bytes "
          f"(log {machine.dram.bytes_for('tc_recovery_log'):,} + "
          f"read cache {machine.dram.bytes_for('tc_read_cache'):,} + "
          f"versions {machine.dram.bytes_for('tc_version_store'):,})")

    # Total balance is conserved by serializable transfers.
    total = sum(
        int(engine.get(b"acct%06d" % index) or b"0")
        for index in range(3_000)
    )
    print(f"\nbalance conservation check: {total:,} == {3_000 * 1_000:,} "
          f"-> {'OK' if total == 3_000_000 else 'VIOLATED'}")


if __name__ == "__main__":
    main()
