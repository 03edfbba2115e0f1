"""Pinned digests of seeded runs: the virtual clock, to the last bit.

A host-clock optimization must bill exactly the charges it replaced, in
the same order, and leave every statistic where it was.  Each run is
small enough for tier-1 and wide enough to cross one path's rare
branches.  The write run: a load through 64-put batches (leaf
splits), then batched YCSB-A (sync commit) over a page cache a fraction
of the data, with a short blind-chain limit (blind posts to evicted
pages grow delta-only chains), a checkpoint, segment GC, a crash and
recovery, and more batches on the recovered engine.  The read run:
YCSB-B through ``get``, ``apply_batch`` and YCSB-C through
``multi_get``, over a small page cache and a small FIFO read cache,
with re-reads served from delta-only pages.  The fleet run: batched
YCSB-A, a batch of puts and ``multi_get`` on four shards behind the
router, with the async commit pipeline on one shared log device, half
the shards over a small page cache and half unbudgeted, then a crash,
recovery, and more batches on the recovered fleet.

Each pins the sha256 of the ``ChargeRecorder`` stream, as ``(category,
repr(microseconds))`` lines (a fleet's shard streams in shard order),
and of ``repr(engine.stats())`` at the end.  Swapping two charges of
one op, or dropping one, changes the first; a drifting counter, or a
key routed to another shard, changes the second.  When a change moves
the virtual clock on purpose, recompute them and say why in the change.

A recorder is a charge sink.  A billed plan feeds it from the loop an
untraced run bills through too; the one-step head that only a plain
model takes is held to that loop by ``tests/hardware/test_cpu_oracle.py``
and ``tests/hardware/test_cpu.py``, so no run is repeated untraced.
"""

from __future__ import annotations

import bisect
import hashlib
import sys

from repro.bwtree import BwTree, BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.deuteronomy.read_cache import ReadCache
from repro.hardware import Machine
from repro.observability.whatif import ChargeRecorder
from repro.scenarios import batch_item
from repro.sharding import ShardedEngine
from repro.storage.cache import PageCache
from repro.workloads import OpKind, WorkloadGenerator, WorkloadSpec

BATCH = 64


TREE_CONFIG = BwTreeConfig(cache_capacity_bytes=48 * 1024,
                           blind_chain_limit=8, segment_bytes=1 << 15)
TC_CONFIG = TcConfig(sync_commit=True, version_gc_horizon_lag=64)

CHARGES_SHA256 = (
    "88b12a9b451af46a745422569b1a1705d91d6d460d500f7fc6d806e3e1c2e751")
STATS_SHA256 = (
    "968c96261ba601b9eaef7810eb46fe73cab88818223901481653cae42296f412")


def test_charge_stream_and_stats_match_their_pinned_digests(monkeypatch):
    # What the run reached, summed over the engine before and after the
    # crash: it must cross every rare branch of the blind-write path.
    reached = {"blind_chain_fetches": 0, "consolidations": 0,
               "leaf_splits": 0, "evictions": 0}
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

    def run(sink):
        machine = Machine.paper_default(cores=1)
        machine.cpu.sink = sink
        engine = DeuteronomyEngine(machine, tree_config=TREE_CONFIG,
                                   tc_config=TC_CONFIG)
        generator = WorkloadGenerator(
            WorkloadSpec.ycsb_a(record_count=1500, seed=11))
        items = list(generator.load_items())
        for start in range(0, len(items), BATCH):
            engine.apply_batch([("put", key, value) for key, value
                                in items[start:start + BATCH]])
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
        return engine

    recorder = ChargeRecorder()
    engine = run(recorder)
    assert all(count > 0 for count in reached.values()), reached
    assert sha256_of_charges(recorder) == CHARGES_SHA256
    assert (hashlib.sha256(repr(engine.stats()).encode()).hexdigest()
            == STATS_SHA256)


def sha256_of_charges(*recorders: ChargeRecorder) -> str:
    """The sha256 of the recorders' charge streams, one after another."""
    stream = "".join(f"{category} {microseconds!r}\n"
                     for recorder in recorders
                     for category, microseconds in recorder.events)
    return hashlib.sha256(stream.encode()).hexdigest()


READ_CACHE_BYTES = 4096
READ_TREE_CONFIG = BwTreeConfig(cache_capacity_bytes=24 * 1024,
                                segment_bytes=1 << 15)
READ_TC_CONFIG = TcConfig(log_buffer_bytes=1024, log_retain_budget_bytes=2048,
                          read_cache_bytes=READ_CACHE_BYTES,
                          version_gc_horizon_lag=64)
READ_BATCH = 16


def spy_on_read_cache_inserts(monkeypatch, reached) -> None:
    """Count the read cache's FIFO evictions and refused inserts into
    ``reached``; the spy charges nothing."""
    reached.update(read_cache_fifo_evictions=0, read_cache_rejects=0)
    insert = ReadCache.insert

    def spying_insert(cache, key, value):
        admitted = len(cache.entries) + (key not in cache.entries)
        insert(cache, key, value)
        if key in cache.entries:
            reached["read_cache_fifo_evictions"] += (admitted
                                                     - len(cache.entries))
        else:
            reached["read_cache_rejects"] += 1

    monkeypatch.setattr(ReadCache, "insert", spying_insert)


def leaf_of(tree, key):
    """The leaf ``key`` descends to, found without billing a charge."""
    node_id = tree.root_id
    while node_id < 0:
        node = tree._inners[node_id]
        node_id = node.children[bisect.bisect_right(node.keys, key)]
    return tree.mapping_table.by_id[node_id]


READ_CHARGES_SHA256 = (
    "1b441f4d7f7e9abe5477ad3d2cda41d1bb2ceb5421778af0ca743d49696eb3a6")
READ_STATS_SHA256 = (
    "f4e163bd43871f447754daed476c5dc95ed2c2498e049446495af9f444418b39")


def test_read_path_charge_stream_and_stats_match_their_pinned_digests(
        monkeypatch):
    # A log that drops its buffers sends re-reads of written keys past
    # the version store, so DC reads land on delta-only pages; updates
    # to evicted pages grow chains that the read's fetch consolidates.
    reached = {"read_consolidations": 0, "delta_only_hits": 0}
    get_with_stats = BwTree.get_with_stats

    def spying_get(tree, key):
        before = tree.counters.get("bwtree.consolidations")
        result = get_with_stats(tree, key)
        reached["read_consolidations"] += (
            tree.counters.get("bwtree.consolidations") - before)
        # No I/O and no consolidation: the page it read is still
        # delta-only, so the read was served from a delta.
        reached["delta_only_hits"] += (
            result.ios == 0 and leaf_of(tree, key).state.base is None)
        return result

    monkeypatch.setattr(BwTree, "get_with_stats", spying_get)
    spy_on_read_cache_inserts(monkeypatch, reached)

    def run(sink):
        machine = Machine.paper_default(cores=1)
        machine.cpu.sink = sink
        engine = DeuteronomyEngine(machine, tree_config=READ_TREE_CONFIG,
                                   tc_config=READ_TC_CONFIG)
        generator = WorkloadGenerator(
            WorkloadSpec.ycsb_b(record_count=1500, seed=5))
        items = list(generator.load_items())
        # One record too large for the read cache to admit.
        oversized = items[700][0]
        items[700] = (oversized, b"x" * READ_CACHE_BYTES)
        engine.dc.bulk_load(items)
        engine.checkpoint()
        ops = list(generator.operations(9000))
        third = len(ops) // 3
        for op in ops[:third]:
            if op.kind is OpKind.READ:
                engine.get(op.key)
            else:
                engine.put(op.key, op.value)
        assert engine.get(oversized) == b"x" * READ_CACHE_BYTES
        # A put to a page the cache has evicted leaves the page
        # delta-only; once the log has dropped the put's buffer, a
        # re-read passes the version store and is served from the delta.
        cold = [items[index][0] for index in range(50, 1500, 300)]
        for key in cold:
            engine.put(key, b"d" * 90)
        for __ in range(40):
            engine.put(items[0][0], b"f" * 90)
        for key in cold:
            assert engine.get(key) == b"d" * 90
        for start in range(third, 2 * third, READ_BATCH):
            engine.apply_batch([batch_item(op)
                                for op in ops[start:start + READ_BATCH]])
        keys = [op.key for op in WorkloadGenerator(
            WorkloadSpec.ycsb_c(record_count=1500, seed=6)).operations(third)]
        for start in range(0, len(keys), READ_BATCH):
            engine.multi_get(keys[start:start + READ_BATCH])
        return engine

    recorder = ChargeRecorder()
    engine = run(recorder)
    tree = engine.dc
    reached.update(fetches=tree.cache.stats.fetches,
                   evictions=tree.cache.stats.evictions)
    assert all(count > 0 for count in reached.values()), reached
    assert sha256_of_charges(recorder) == READ_CHARGES_SHA256
    stats = engine.stats()
    assert (hashlib.sha256(repr(stats).encode()).hexdigest()
            == READ_STATS_SHA256)


FLEET_SHARDS = 4
#: Shards whose page cache has no byte budget: their blind posts never
#: call ``ensure_capacity``.
UNBUDGETED_SHARDS = (2, 3)
FLEET_TREE_CONFIG = BwTreeConfig(cache_capacity_bytes=16 * 1024,
                                 segment_bytes=1 << 15)
FLEET_TC_CONFIG = TcConfig(commit_pipeline=True, version_gc_horizon_lag=64)

FLEET_CHARGES_SHA256 = (
    "c546588aa25fa87e4d3684954204141aa46b3349989a723f1052d5dc3f077e24")
FLEET_STATS_SHA256 = (
    "1ca37687e2f1ac5501d06895feaa9675eeca543b1b4a5dae99d38760633a6bc6")


def test_fleet_charge_streams_and_stats_match_their_pinned_digests(
        monkeypatch):
    # Blind posts must run inline with and without a page-cache budget,
    # and through the helper for leaves whose base was evicted.
    reached = {"inline_posts_budgeted": 0, "inline_posts_unbudgeted": 0,
               "helper_posts": 0, "evictions": 0,
               "consolidations": 0, "commit_epochs": 0, "redo_replayed": 0}
    touch = PageCache.touch
    post = BwTree._post_blind_delta

    def spying_touch(cache, entry, grown_bytes=0):
        if sys._getframe(1).f_code.co_name == "apply_blind_batch":
            budget = ("budgeted" if cache.capacity_bytes is not None
                      else "unbudgeted")
            reached[f"inline_posts_{budget}"] += 1
        return touch(cache, entry, grown_bytes)

    def spying_post(tree, entry, delta, result):
        reached["helper_posts"] += 1
        return post(tree, entry, delta, result)

    monkeypatch.setattr(PageCache, "touch", spying_touch)
    monkeypatch.setattr(BwTree, "_post_blind_delta", spying_post)

    def tally(fleet: ShardedEngine) -> None:
        for shard in fleet.shards:
            reached["evictions"] += shard.dc.cache.stats.evictions
            reached["consolidations"] += shard.dc.counters.get(
                "bwtree.consolidations")
            reached["commit_epochs"] += shard.tc.pipeline.epochs_closed
            reached["redo_replayed"] += shard.tc.counters.get(
                "tc.redo_replayed")

    def unbudget(fleet: ShardedEngine) -> None:
        for shard_id in UNBUDGETED_SHARDS:
            fleet.shards[shard_id].dc.cache.capacity_bytes = None

    def run(recorders):
        """The fleet run; a recorder per shard machine is appended to
        ``recorders``."""

        def machine() -> Machine:
            shard_machine = Machine.paper_default(cores=1)
            shard_machine.cpu.sink = recorder = ChargeRecorder()
            recorders.append(recorder)
            return shard_machine

        fleet = ShardedEngine(FLEET_SHARDS, tree_config=FLEET_TREE_CONFIG,
                              tc_config=FLEET_TC_CONFIG,
                              machine_factory=machine, log_topology="shared")
        unbudget(fleet)
        generator = WorkloadGenerator(
            WorkloadSpec.ycsb_a(record_count=1600, seed=17))
        items = list(generator.load_items())
        fleet.bulk_load(items)
        fleet.checkpoint()
        ops = [batch_item(op) for op in generator.operations(90 * BATCH)]
        batches = [ops[start:start + BATCH]
                   for start in range(0, len(ops), BATCH)]
        for batch in batches[:30]:
            fleet.apply_batch(batch)
        fleet.apply_batch([("put", key, b"m" * 90) for key, __ in items[::7]])
        fleet.multi_get([key for key, __ in items[::5]])
        fleet.checkpoint()
        for batch in batches[30:60]:
            fleet.apply_batch(batch)
        tally(fleet)
        fleet = ShardedEngine.recover(fleet)
        unbudget(fleet)
        for batch in batches[60:]:
            fleet.apply_batch(batch)
        fleet.drain_commits()
        tally(fleet)
        return fleet

    recorders: list = []
    fleet = run(recorders)
    assert all(count > 0 for count in reached.values()), reached
    assert sha256_of_charges(*recorders) == FLEET_CHARGES_SHA256
    assert (hashlib.sha256(repr(fleet.stats()).encode()).hexdigest()
            == FLEET_STATS_SHA256)


MISS_TREE_CONFIG = BwTreeConfig(cache_capacity_bytes=12 * 1024,
                                segment_bytes=1 << 15)
MISS_TC_CONFIG = TcConfig(read_cache_bytes=READ_CACHE_BYTES,
                          version_gc_horizon_lag=64)
#: A value whose page alone is over the page-cache budget: a miss on it
#: leaves only the protected page resident and the cache still over.
OVERSIZED_VALUE = b"o" * (13 * 1024)

MISS_CHARGES_SHA256 = (
    "0a4fea4c54d559339be6f36f0a48b0e91f1b3971b392f993147c6d69de860cae")
MISS_STATS_SHA256 = (
    "025cdb2ddabb8827546eba23e72126a3202c37e30e4ab09cb065f248b8509519")


def test_page_miss_charge_stream_and_stats_match_their_pinned_digests(
        monkeypatch):
    """The path ``read_cold`` runs: LRU, a page cache of
    about three pages and a FIFO read cache that evicts, so most DC
    reads fetch a fully evicted page and evict another.  YCSB-B through
    ``get`` / ``put``, ``apply_batch`` and ``multi_get``, with one page
    larger than the budget, so the victim walk meets its ``protect``."""
    reached = {"over_budget_after_walk": 0}
    ensure_capacity = PageCache.ensure_capacity

    def spying_ensure_capacity(cache, protect=None):
        evicted = ensure_capacity(cache, protect)
        if (cache.capacity_bytes is not None
                and cache.resident_bytes > cache.capacity_bytes):
            reached["over_budget_after_walk"] += 1
        return evicted

    monkeypatch.setattr(PageCache, "ensure_capacity", spying_ensure_capacity)
    spy_on_read_cache_inserts(monkeypatch, reached)

    def run(sink):
        machine = Machine.paper_default(cores=1)
        machine.cpu.sink = sink
        engine = DeuteronomyEngine(machine, tree_config=MISS_TREE_CONFIG,
                                   tc_config=MISS_TC_CONFIG)
        generator = WorkloadGenerator(
            WorkloadSpec.ycsb_b(record_count=1500, seed=23))
        items = list(generator.load_items())
        ops = list(generator.operations(6000))
        written = {op.key for op in ops if op.kind is not OpKind.READ}
        index = next(index for index in range(900, len(items))
                     if items[index][0] not in written)
        oversized = items[index][0]
        items[index] = (oversized, OVERSIZED_VALUE)
        engine.dc.bulk_load(items)
        engine.checkpoint()
        third = len(ops) // 3
        for op in ops[:third]:
            if op.kind is OpKind.READ:
                engine.get(op.key)
            else:
                engine.put(op.key, op.value)
        assert engine.get(oversized) == OVERSIZED_VALUE
        for start in range(third, 2 * third, READ_BATCH):
            engine.apply_batch([batch_item(op)
                                for op in ops[start:start + READ_BATCH]])
        keys = [op.key for op in WorkloadGenerator(
            WorkloadSpec.ycsb_c(record_count=1500, seed=24)).operations(third)]
        for start in range(0, len(keys), READ_BATCH):
            engine.multi_get(keys[start:start + READ_BATCH])
        return engine

    recorder = ChargeRecorder()
    engine = run(recorder)
    cache = engine.dc.cache
    dc_reads = engine.tc.counters.get("tc.dc_reads")
    reached.update(fetches=cache.stats.fetches,
                   evictions=cache.stats.evictions)
    del reached["read_cache_rejects"]   # the miss run admits every record
    assert all(count > 0 for count in reached.values()), reached
    assert 2 * cache.stats.evictions > dc_reads
    assert 2 * cache.stats.fetches > dc_reads
    stats = engine.stats()
    assert sha256_of_charges(recorder) == MISS_CHARGES_SHA256
    assert (hashlib.sha256(repr(stats).encode()).hexdigest()
            == MISS_STATS_SHA256)
