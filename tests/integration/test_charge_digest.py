"""Pinned digests of one seeded run: the virtual clock, to the last bit.

A host-clock optimization must bill exactly the charges it replaced, in
the same order, and leave every statistic where it was.  This run is
small enough for tier-1 and wide enough to cross the write path's rare
branches: a load through 64-record group commits (leaf splits), then
batched YCSB-A (sync commit) over a page cache a fraction of the data,
with record-cache retention (evicted pages keep their deltas) and a
short blind-chain limit, a checkpoint, segment GC, a crash and
recovery, and more batches on the recovered engine.

It pins the sha256 of the ``ChargeRecorder`` stream, as ``(category,
repr(microseconds))`` lines, and of ``repr(engine.stats())`` at the end.
Swapping two charges of one post, or dropping one, changes the first;
a drifting counter changes the second.  When a change moves the
virtual clock on purpose, recompute both and say why in the change.
"""

from __future__ import annotations

import hashlib
import sys

from repro.bwtree import BwTree, BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.hardware import Machine
from repro.observability.whatif import ChargeRecorder
from repro.scenarios import batch_item
from repro.storage.cache import PageCache
from repro.workloads import WorkloadGenerator, WorkloadSpec

BATCH = 64
TREE_CONFIG = BwTreeConfig(cache_capacity_bytes=48 * 1024,
                           record_cache=True, blind_chain_limit=8,
                           segment_bytes=1 << 15)
TC_CONFIG = TcConfig(sync_commit=True, version_gc_horizon_lag=64)

CHARGES_SHA256 = (
    "1179ef168c40d8007a4c28330f60b1962e69da8ad1d60ff8f18314963fa182c7")
STATS_SHA256 = (
    "7556fb0d8041a6aff6a398e614ded187a29f55faf5e28b1fce16752af8fd469d")


def test_charge_stream_and_stats_match_their_pinned_digests(monkeypatch):
    # What the run reached, summed over the engine before and after the
    # crash: it must cross every rare branch of the blind-write path.
    reached = {"blind_chain_fetches": 0, "consolidations": 0,
               "leaf_splits": 0, "evictions": 0, "retained": 0}
    fetch = PageCache.fetch

    def spying_fetch(cache, entry):
        if sys._getframe(1).f_code.co_name == "_post_blind_delta":
            reached["blind_chain_fetches"] += 1
        return fetch(cache, entry)

    monkeypatch.setattr(PageCache, "fetch", spying_fetch)

    def tally(tree: BwTree) -> None:
        reached["consolidations"] += tree.counters.get(
            "bwtree.consolidations")
        reached["leaf_splits"] += tree.counters.get("bwtree.leaf_splits")
        reached["evictions"] += tree.cache.stats.evictions
        reached["retained"] += tree.cache.stats.record_cache_retained

    machine = Machine.paper_default(cores=1)
    recorder = ChargeRecorder()
    machine.cpu.sink = recorder
    engine = DeuteronomyEngine(machine, tree_config=TREE_CONFIG,
                               tc_config=TC_CONFIG)
    generator = WorkloadGenerator(
        WorkloadSpec.ycsb_a(record_count=1500, seed=11))
    items = list(generator.load_items())
    for start in range(0, len(items), BATCH):
        engine.multi_put(items[start:start + BATCH])
    engine.checkpoint()
    ops = [batch_item(op) for op in generator.operations(9600)]
    batches = [ops[start:start + BATCH]
               for start in range(0, len(ops), BATCH)]
    third = len(batches) // 3
    for batch in batches[:third]:
        engine.apply_batch(batch)
    engine.checkpoint()
    engine.collect_garbage()
    for batch in batches[third:2 * third]:
        engine.apply_batch(batch)
    engine.checkpoint()
    tally(engine.dc)
    engine = DeuteronomyEngine.recover(engine)
    for batch in batches[2 * third:]:
        engine.apply_batch(batch)
    tally(engine.dc)

    assert all(count > 0 for count in reached.values()), reached
    stream = "".join(f"{category} {microseconds!r}\n"
                     for category, microseconds in recorder.events)
    assert hashlib.sha256(stream.encode()).hexdigest() == CHARGES_SHA256
    assert (hashlib.sha256(repr(engine.stats()).encode()).hexdigest()
            == STATS_SHA256)
