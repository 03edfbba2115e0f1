"""Checkpoint manager: writing, uniqueness, discovery, GC interplay."""

import pytest

from repro.hardware import Machine
from repro.storage import (
    CheckpointManager,
    GarbageCollector,
    LogStructuredStore,
    MappingTable,
    PageCache,
    Record,
)


@pytest.fixture
def rig(machine: Machine):
    table = MappingTable()
    store = LogStructuredStore(machine, segment_bytes=1 << 12)
    cache = PageCache(machine, table, store)
    manager = CheckpointManager(store, table)
    return machine, table, store, cache, manager


def add_page(table, cache, key=b"k", payload=b"v" * 50):
    entry = table.allocate()
    entry.state.install_base([Record(key, payload)])
    cache.register(entry)
    cache.flush_page(entry)
    return entry


def test_checkpoint_requires_clean_pages(rig):
    __, table, __s, cache, manager = rig
    entry = table.allocate()
    cache.register(entry)
    with pytest.raises(ValueError):
        manager.write_checkpoint()
    cache.flush_page(entry)
    manager.write_checkpoint()   # now fine


def test_checkpoint_is_durable_and_discoverable(rig):
    __, table, store, cache, manager = rig
    entry = add_page(table, cache)
    manager.write_checkpoint()
    found = CheckpointManager.find_latest(store)
    assert found is not None
    addr, image = found
    chains = image.chains()
    assert entry.page_id in chains
    assert chains[entry.page_id][0] == entry.flash_chain
    assert addr == manager.latest_addr


def test_only_one_live_checkpoint(rig):
    __, table, store, cache, manager = rig
    add_page(table, cache, key=b"a")
    manager.write_checkpoint()
    add_page(table, cache, key=b"b")
    manager.write_checkpoint()
    found = CheckpointManager.find_latest(store)
    assert found is not None
    assert len(found[1].chains()) == 2   # the newer snapshot


def test_find_latest_none_when_unwritten(rig):
    __, __t, store, __c, __m = rig
    assert CheckpointManager.find_latest(store) is None


def test_checkpoint_records_delta_counts(rig):
    __, table, store, cache, manager = rig
    from repro.storage import Record
    entry = add_page(table, cache)
    entry.state.prepend_delta(Record(b"x", b"y", 1))
    cache.resize(entry)
    cache.flush_page(entry)
    manager.write_checkpoint()
    found = CheckpointManager.find_latest(store)
    __, fdr = found[1].chains()[entry.page_id]
    assert fdr == 1


def test_gc_relocates_checkpoint(rig):
    machine, table, store, cache, manager = rig
    gc = GarbageCollector(machine, store, table,
                          checkpoint_manager=manager)
    pages = [add_page(table, cache, key=b"k%d" % i) for i in range(8)]
    manager.write_checkpoint()
    checkpoint_segment = manager.latest_addr.segment_id
    # Invalidate most pages so the checkpoint's segment can be cleaned.
    for entry in pages:
        entry.state.base_flushed = False
        cache.flush_page(entry)
    store.flush()
    if checkpoint_segment in store.segments:
        gc.clean_segment(checkpoint_segment)
        assert manager.latest_addr.segment_id != checkpoint_segment
    found = CheckpointManager.find_latest(store)
    assert found is not None
    assert found[0] == manager.latest_addr


def test_checkpoint_image_size_scales(rig):
    __, table, store, cache, manager = rig
    add_page(table, cache, key=b"a")
    manager.write_checkpoint()
    small = CheckpointManager.find_latest(store)[1].size_bytes
    for index in range(10):
        add_page(table, cache, key=b"extra%d" % index)
    manager.write_checkpoint()
    large = CheckpointManager.find_latest(store)[1].size_bytes
    assert large > small
