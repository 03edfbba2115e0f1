"""Segment garbage collection: relocation, reclamation, policies."""

import pytest

from repro.hardware import Machine
from repro.storage import (
    GarbageCollector,
    LogStructuredStore,
    MappingTable,
    PageCache,
    Record,
)


@pytest.fixture
def rig(machine: Machine):
    table = MappingTable()
    store = LogStructuredStore(machine, segment_bytes=512)
    cache = PageCache(machine, table, store)
    gc = GarbageCollector(machine, store, table)
    return machine, table, store, cache, gc


def flushed_page(table, cache, store, payload: bytes = b"v" * 50):
    entry = table.allocate()
    entry.state.install_base([Record(b"k%d" % entry.page_id, payload)])
    cache.register(entry)
    cache.flush_page(entry)
    return entry


def test_no_victim_when_everything_live(rig):
    __, table, store, cache, gc = rig
    flushed_page(table, cache, store)
    store.flush()
    assert gc.run_once(max_occupancy=0.5) is None


def test_cleaning_relocates_live_and_reclaims_dead(rig):
    machine, table, store, cache, gc = rig
    a = flushed_page(table, cache, store)
    b = flushed_page(table, cache, store)
    store.flush()
    segment = a.flash_chain[0].segment_id
    # Rewrite page a: its old image goes dead.
    a.state.base_flushed = False
    cache.flush_page(a)
    store.flush()
    assert store.dead_bytes > 0
    cleaned = gc.run_once(max_occupancy=0.99)
    assert cleaned == segment
    assert gc.stats.bytes_reclaimed > 0
    # Page b's image moved, and only it.
    assert b.flash_chain[0].segment_id != segment
    assert gc.stats.bytes_relocated == b.flash_chain[0].nbytes
    # b's chain now points somewhere valid:
    result = store.read(b.flash_chain[0])
    assert result.image.page_id == b.page_id


def test_cleaning_preserves_contents_after_fetch(rig):
    machine, table, store, cache, gc = rig
    pages = [flushed_page(table, cache, store) for __ in range(6)]
    store.flush()
    # Invalidate half the pages by rewriting them.
    for entry in pages[:3]:
        entry.state.base_flushed = False
        cache.flush_page(entry)
    store.flush()
    gc.run_until_utilization(0.95)
    for entry in pages:
        cache.evict(entry) if entry.state else None
    store.flush()
    for entry in pages:
        cache.fetch(entry)
        probe = entry.state.lookup(b"k%d" % entry.page_id)
        assert probe.found


def test_unreferenced_live_image_is_dropped_not_relocated(rig):
    __, table, store, cache, gc = rig
    entry = flushed_page(table, cache, store)
    other = flushed_page(table, cache, store)
    store.flush()
    segment = entry.flash_chain[0].segment_id
    # Free the page without invalidating: simulates a merged-away page.
    entry.flash_chain = []
    table.free(entry.page_id)
    gc.clean_segment(segment)
    # Only `other`'s image moved.
    assert gc.stats.bytes_relocated == other.flash_chain[0].nbytes
    assert segment not in store.segments
    del other


def test_run_until_utilization_validates_target(rig):
    *__, gc = rig
    with pytest.raises(ValueError):
        gc.run_until_utilization(0.0)
    with pytest.raises(ValueError):
        gc.run_until_utilization(1.5)


def test_reclaim_efficiency_reporting(rig):
    __, table, store, cache, gc = rig
    assert gc.stats.reclaim_efficiency == 0.0
    a = flushed_page(table, cache, store)
    flushed_page(table, cache, store)
    store.flush()
    a.state.base_flushed = False
    cache.flush_page(a)
    store.flush()
    gc.run_once(max_occupancy=0.99)
    assert gc.stats.reclaim_efficiency > 0.0
