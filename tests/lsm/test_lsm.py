"""LSM-tree functional behaviour: CRUD, flush, compaction, costs."""

import pytest

from repro.hardware import Machine
from repro.lsm import LsmConfig, LsmTree


def small_config() -> LsmConfig:
    return LsmConfig(
        memtable_bytes=8 << 10,
        l0_compaction_trigger=3,
        level_base_bytes=64 << 10,
        target_table_bytes=32 << 10,
    )


@pytest.fixture
def tree(machine: Machine) -> LsmTree:
    return LsmTree(machine, small_config())


def load(tree: LsmTree, count: int, value_bytes: int = 60) -> dict:
    expected = {}
    for index in range(count):
        key = b"key%06d" % index
        value = bytes([index % 251]) * value_bytes
        tree.upsert(key, value)
        expected[key] = value
    return expected


class TestBasicOps:
    def test_upsert_get(self, tree):
        tree.upsert(b"k", b"v")
        assert tree.get(b"k") == b"v"

    def test_get_missing(self, tree):
        assert tree.get(b"zzz") is None

    def test_delete_via_tombstone(self, tree):
        tree.upsert(b"k", b"v")
        tree.delete(b"k")
        assert tree.get(b"k") is None

    def test_delete_survives_flush(self, tree):
        tree.upsert(b"k", b"v")
        tree.flush_memtable()
        tree.delete(b"k")
        tree.flush_memtable()
        assert tree.get(b"k") is None

    def test_overwrite_across_levels(self, tree):
        tree.upsert(b"k", b"old")
        tree.flush_memtable()
        tree.upsert(b"k", b"new")
        assert tree.get(b"k") == b"new"
        tree.flush_memtable()
        assert tree.get(b"k") == b"new"

    def test_validation(self, tree):
        with pytest.raises(TypeError):
            tree.upsert("k", b"v")
        with pytest.raises(ValueError):
            tree.get(b"")


class TestStructure:
    def test_flush_creates_l0_table(self, tree, machine):
        tree.upsert(b"k", b"v")
        writes = machine.ssd.counters.get("ssd.writes")
        table = tree.flush_memtable()
        assert table is not None
        assert len(tree.levels[0]) == 1
        assert machine.ssd.counters.get("ssd.writes") == writes + 1

    def test_flush_empty_memtable_noop(self, tree):
        assert tree.flush_memtable() is None

    def test_auto_flush_on_memtable_full(self, tree):
        load(tree, 200)
        assert any(tree.levels)

    def test_compaction_triggers_and_levels_fill(self, tree):
        load(tree, 3000)
        deeper = sum(len(level) for level in tree.levels[1:])
        assert deeper > 0

    def test_l1_tables_non_overlapping(self, tree):
        load(tree, 3000)
        for level in tree.levels[1:]:
            ordered = sorted(level, key=lambda t: t.min_key)
            for left, right in zip(ordered, ordered[1:]):
                assert left.max_key < right.min_key

    def test_everything_readable_after_compactions(self, tree):
        expected = load(tree, 3000)
        for key, value in expected.items():
            assert tree.get(key) == value

    def test_tombstones_dropped_at_bottom(self, tree, machine):
        expected = load(tree, 500)
        for key in expected:
            tree.delete(key)
        tree.flush_memtable()
        for level in range(len(tree.levels) - 1):
            tree.compact_level(level)
        total_records = sum(
            len(table) for level in tree.levels for table in level
        )
        assert total_records == 0


class TestCosts:
    def test_writes_never_read_flash(self, tree, machine):
        load(tree, 200)
        assert tree.counters.get("lsm.ss_ops") == 0

    def test_reads_of_flushed_data_cost_block_ios(self, tree, machine):
        expected = load(tree, 500)
        tree.flush_memtable()
        machine.reset_accounting()
        for key in list(expected)[:50]:
            result = tree.get_with_stats(key)
            assert result.found
        assert machine.ssd.counters.get("ssd.reads") > 0
        assert tree.counters.get("lsm.ss_ops") > 0

    def test_memtable_hits_avoid_io(self, tree, machine):
        tree.upsert(b"hot", b"v")
        machine.reset_accounting()
        result = tree.get_with_stats(b"hot")
        assert not any(tree.levels)   # only the memtable holds it
        assert result.value == b"v"
        assert result.ios == 0

    def test_bloom_filters_bound_probe_ios(self, tree, machine):
        """A read of a missing key should rarely pay I/O thanks to blooms."""
        load(tree, 2000)
        tree.flush_memtable()
        machine.reset_accounting()
        misses = 200
        ios = 0
        for index in range(misses):
            ios += tree.get_with_stats(b"absent%06d" % index).ios
        assert ios < misses * 0.3

    def test_stored_bytes_and_dram_tracked(self, tree, machine):
        load(tree, 1000)
        tree.flush_memtable()
        assert tree.stored_bytes() > 0
        assert tree.dram_footprint_bytes() > 0
        assert machine.ssd.stored_bytes == tree.stored_bytes()


class TestBlockCache:
    def make_cached_tree(self, machine, cache_bytes=64 << 10):
        cfg = small_config()
        from dataclasses import replace
        return LsmTree(machine, replace(cfg, block_cache_bytes=cache_bytes))

    def test_repeat_reads_hit_block_cache(self, machine):
        tree = self.make_cached_tree(machine)
        expected = load(tree, 300)
        tree.flush_memtable()
        key = next(iter(expected))
        first = tree.get_with_stats(key)
        second = tree.get_with_stats(key)
        assert first.ios >= 1
        assert second.ios == 0

    def test_block_cache_respects_budget(self, machine):
        tree = self.make_cached_tree(machine, cache_bytes=16 << 10)
        expected = load(tree, 2000)
        tree.flush_memtable()
        for key in expected:
            tree.get(key)
        assert tree.block_cache is not None
        assert tree.block_cache.resident_bytes <= 16 << 10
        assert machine.dram.bytes_for("lsm_block_cache") \
            == tree.block_cache.resident_bytes

    def test_compaction_purges_cached_blocks(self, machine):
        tree = self.make_cached_tree(machine)
        expected = load(tree, 1500)
        tree.flush_memtable()
        for key in list(expected)[:200]:
            tree.get(key)
        for level in range(3):
            tree.compact_level(level)
        # No cached block may reference a dropped table.
        live_ids = {t.table_id for level in tree.levels for t in level}
        assert all(table_id in live_ids
                   for table_id, __ in tree.block_cache._blocks)
        for key, value in expected.items():
            assert tree.get(key) == value

    def test_disabled_by_default(self, machine):
        tree = LsmTree(machine, small_config())
        assert tree.block_cache is None

    def test_invalid_budget_rejected(self, machine):
        from repro.lsm import BlockCache
        with pytest.raises(ValueError):
            BlockCache(machine, 0)
