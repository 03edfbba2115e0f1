"""The DRAM ledger agrees with every owner's contents.

``DramModel`` keeps resident bytes per tag, and each owner keeps its
own running total beside it.  The duplicate is on purpose: spans read
the ledger's O(1) machine total, and owners need their own totals to
enforce their budgets.  This checks the two never drift: after every
buildable :class:`~repro.scenarios.Scenario` (each row of the bench
table, at smoke size) and after a crash and recovery, each tag's bytes
equal its owner's footprint recomputed from what it holds — page
states, mapping entries, inner nodes, read-cache entries, version
chains, retained log buffers and record-heap arenas — and no other tag
holds a byte.
"""

from dataclasses import replace

import pytest

from repro.bench import engine_bench
from repro.bwtree.tree import MAPPING_ENTRY_BYTES
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.deuteronomy.mvcc import VERSION_ENTRY_OVERHEAD_BYTES
from repro.deuteronomy.read_cache import READ_CACHE_ENTRY_OVERHEAD_BYTES
from repro.hardware import Machine
from repro.scenarios import batch_item
from repro.workloads import WorkloadGenerator, WorkloadSpec

#: Operations each scenario replays (warm-up included): enough to evict,
#: spill and drain, small enough for tier-1.
OPS = 600


def held_bytes(engine: DeuteronomyEngine) -> dict:
    """Each DRAM tag's bytes, recomputed from its owner's contents."""
    tree, tc = engine.dc, engine.tc
    entries = tree.mapping_table.entries()
    heap = tc.records
    return {
        "page_cache": sum(
            entry.state.base_size_bytes + entry.state.delta_size_bytes
            for entry in entries if entry.state is not None),
        "mapping_table": MAPPING_ENTRY_BYTES * len(entries),
        "bwtree_index": sum(node.size_bytes
                            for node in tree._inners.values()),
        "tc_read_cache": sum(
            READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(value)
            for key, value in tc.read_cache.entries.items()),
        "tc_version_store": sum(
            len(key) + sum(VERSION_ENTRY_OVERHEAD_BYTES
                           + len(version.value or b"")
                           for version in chain)
            for key, chain in tc.versions.chains.items()),
        "tc_recovery_log": sum(buffer.nbytes for buffer in tc.log._buffers),
        "tc_record_cache": 0 if heap is None else sum(
            arena.physical_bytes for arena in [*heap._sealed, heap._open]),
    }


def assert_ledger_agrees(engine: DeuteronomyEngine) -> None:
    dram = engine.machine.dram
    held = held_bytes(engine)
    assert {tag: dram.bytes_for(tag) for tag in held} == held
    assert set(dram.by_tag()) <= set(held), dram.by_tag()
    assert dram.current_bytes == sum(held.values())


def scenarios():
    """Every row of the bench table, its budgets sized for the smoke
    record count, each replaying :data:`OPS` operations."""
    patch = pytest.MonkeyPatch()
    patch.setattr(engine_bench, "TRACKED_SIZE", engine_bench.SMOKE_SIZE)
    try:
        table = engine_bench.scenario_table()
    finally:
        patch.undo()
    return {name: replace(scenario, op_count=OPS,
                          warmup_ops=min(scenario.warmup_ops, OPS))
            for name, scenario in table.items()}


SCENARIOS = scenarios()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_ledger_agrees_after_every_scenario(name):
    run = SCENARIOS[name].prepare()
    run.drive()
    for shard in run.shards:
        assert_ledger_agrees(shard)


def test_the_ledger_agrees_after_a_crash_and_recovery():
    generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=800,
                                                      seed=3))
    engine = DeuteronomyEngine(
        Machine.paper_default(cores=1),
        tc_config=TcConfig(log_buffer_bytes=2048,
                           log_retain_budget_bytes=8192,
                           read_cache_bytes=16 << 10,
                           version_gc_horizon_lag=16))
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    ops = [batch_item(op) for op in generator.operations(1200)]
    for start in range(0, 600, 32):
        engine.apply_batch(ops[start:start + 32])
    engine.tc.sync_log()
    for start in range(600, 1200, 32):
        engine.apply_batch(ops[start:start + 32])
    puts = sum(kind == "put" for kind, __, __ in ops)
    assert engine.tc.versions.version_count() < puts   # versions reclaimed
    assert engine.tc.log.first_retained_lsn > 1   # log buffers dropped
    assert_ledger_agrees(engine)
    recovered = DeuteronomyEngine.recover(engine)
    assert recovered.tc.versions.chains   # the replay re-installed versions
    assert_ledger_agrees(recovered)
