"""Failure injection: capacity exhaustion surfaces cleanly, never corrupts.

The simulated devices enforce real capacities; these tests drive stores
into the walls and check that (a) the right exception type escapes, and
(b) the store's contents remain fully readable afterwards.
"""

import pytest

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine, SsdFullError, SsdSpec
from repro.lsm import LsmConfig, LsmTree


class TestSsdExhaustion:
    def test_bwtree_flush_raises_ssd_full(self):
        machine = Machine(ssd_spec=SsdSpec(capacity_bytes=64 * 1024))
        tree = BwTree(machine, BwTreeConfig(
            cache_capacity_bytes=16 * 1024, segment_bytes=1 << 13,
        ))
        with pytest.raises(SsdFullError):
            for index in range(10_000):
                tree.upsert(b"key%06d" % index, b"v" * 100)

    def test_contents_survive_ssd_full(self):
        machine = Machine(ssd_spec=SsdSpec(capacity_bytes=96 * 1024))
        tree = BwTree(machine, BwTreeConfig(
            cache_capacity_bytes=24 * 1024, segment_bytes=1 << 13,
        ))
        written = {}
        try:
            for index in range(10_000):
                key = b"key%06d" % index
                tree.upsert(key, b"v" * 100)
                written[key] = b"v" * 100
        except SsdFullError:
            pass
        # Everything already in DRAM or on flash still reads correctly.
        # (Uncap the cache: with the SSD full, evictions that need dirty
        # flushes would rightly fail again.)
        tree.cache.capacity_bytes = None
        sample = list(written)[: len(written) // 2]
        for key in sample:
            assert tree.get(key) == written[key]

    def test_gc_frees_capacity_for_more_writes(self):
        machine = Machine(ssd_spec=SsdSpec(capacity_bytes=256 * 1024))
        tree = BwTree(machine, BwTreeConfig(
            cache_capacity_bytes=16 * 1024, segment_bytes=1 << 13,
        ))
        for round_index in range(6):
            for index in range(300):
                tree.upsert(b"key%04d" % index, b"v" * 60)
                tree.get(b"key%04d" % index)
            tree.collect_garbage(0.7)
        # Overwrites kept total live data small; GC kept us inside 256 KB.
        assert machine.ssd.stored_bytes <= 256 * 1024

    def test_lsm_build_raises_ssd_full(self):
        machine = Machine(ssd_spec=SsdSpec(capacity_bytes=48 * 1024))
        tree = LsmTree(machine, LsmConfig(memtable_bytes=8 << 10))
        with pytest.raises(SsdFullError):
            for index in range(10_000):
                tree.upsert(b"key%06d" % index, b"v" * 100)


class TestRecoveryValidation:
    def test_recovery_detects_dangling_checkpoint(self):
        """Dropping a referenced segment behind the checkpoint's back must
        produce a RecoveryError, not silent data loss."""
        from repro.bwtree import RecoveryError
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 13))
        for index in range(500):
            tree.upsert(b"key%05d" % index, b"v" * 60)
        tree.checkpoint()
        # Sabotage: raw GC without re-checkpointing (the documented
        # misuse that collect_garbage() exists to prevent).
        for index in range(500):
            tree.upsert(b"key%05d" % index, b"w" * 60)
            tree.get(b"key%05d" % index)
        tree.cache.capacity_bytes = 1 << 14
        tree.cache.ensure_capacity()
        tree.store.flush()
        cleaned = tree.gc.run_until_utilization(0.95)
        if cleaned == 0:
            pytest.skip("no segment was cleanable in this configuration")
        tree.store.simulate_crash()
        machine.dram.wipe()
        with pytest.raises(RecoveryError):
            BwTree.recover(machine, tree.store, tree.config)
