"""Pinning tests for the accounting bugs the linter surfaced.

Each test locks in a fix for a real ``cost-accounting`` finding from
the first run of ``python -m repro lint`` over this repository:

* ``BwTree.scan`` yielded records without the per-operation dispatch +
  epoch charges every other public op pays via ``_begin_op``;
* the delta-only drop paths in ``PageCache.ensure_capacity`` and
  ``PageCache.evict_idle_pages`` performed an eviction without the
  ``evict_bookkeeping`` CPU that ``PageCache.evict`` charges.
"""

from __future__ import annotations

import pytest

from repro.storage import (
    DataPageState,
    LogStructuredStore,
    MappingTable,
    PageCache,
    Record,
)


def _cache_cpu_us(machine) -> float:
    return machine.cpu.counters.get("cpu_us.cache")


def _delta_only_rig(machine, **cache_kwargs):
    """A PageCache holding one delta-only resident page: a flushed page,
    fully evicted, then given a blind delta as ``BwTree`` posts one."""
    table = MappingTable()
    store = LogStructuredStore(machine, segment_bytes=1 << 14)
    cache = PageCache(machine, table, store, **cache_kwargs)
    entry = table.allocate()
    entry.state.install_base([Record(b"a", b"v" * 200)])
    cache.register(entry)
    cache.evict(entry)   # flushes the page, then drops it
    state = DataPageState(entry.page_id, base=None, deltas=[])
    state.base_flushed = True
    entry.state = state
    cache.register(entry)
    cache.touch(entry, grown_bytes=state.prepend_delta(
        Record(b"b", b"w" * 200, 1)))
    assert entry.state is not None and entry.state.base is None
    return cache, entry


class TestScanChargesDispatch:
    def test_scan_charges_like_a_point_read(self, small_tree):
        machine = small_tree.machine
        for index in range(50):
            small_tree.upsert(b"key%05d" % index, b"v" * 40)
        costs = machine.cpu.costs
        before = machine.cpu.counters.get("cpu_us.bwtree")
        results = list(small_tree.scan(b"key"))
        charged = machine.cpu.counters.get("cpu_us.bwtree") - before
        assert len(results) == 50
        # At least one leaf visit: one dispatch + one epoch charge, on
        # top of the per-byte copy work.
        assert charged >= costs.op_dispatch + costs.epoch_protect

    def test_empty_scan_charges_nothing_extra(self, small_tree):
        machine = small_tree.machine
        small_tree.upsert(b"aaa", b"v")
        before = machine.cpu.counters.get("cpu_us.bwtree")
        assert list(small_tree.scan(b"zzz")) == []
        charged = machine.cpu.counters.get("cpu_us.bwtree") - before
        # Visiting the (single) rightmost leaf still dispatches once.
        assert charged >= machine.cpu.costs.op_dispatch


class TestDeltaDropChargesEviction:
    def test_evict_idle_pages_charges_bookkeeping(self, machine):
        cache, entry = _delta_only_rig(machine)
        machine.clock.advance(100.0)
        before = _cache_cpu_us(machine)
        evictions_before = cache.stats.evictions
        assert cache.evict_idle_pages() == 1
        assert entry.state is None
        assert cache.stats.evictions == evictions_before + 1
        charged = _cache_cpu_us(machine) - before
        assert charged == pytest.approx(
            machine.cpu.costs.evict_bookkeeping
        )

    def test_ensure_capacity_charges_bookkeeping(self, machine):
        cache, entry = _delta_only_rig(machine, capacity_bytes=64)
        before = _cache_cpu_us(machine)
        assert cache.ensure_capacity() == 1
        assert entry.state is None
        charged = _cache_cpu_us(machine) - before
        assert charged == pytest.approx(
            machine.cpu.costs.evict_bookkeeping
        )
