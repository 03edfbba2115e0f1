"""Log-structured store: buffering, large writes, occupancy, reads."""

import pytest

from repro.hardware import Machine
from repro.storage import LogStructuredStore, PageImage, Record


def image(page_id: int, nbytes: int = 100) -> PageImage:
    value = b"x" * max(1, nbytes - 32 - 16 - 1)
    return PageImage("full", page_id, records=(Record(b"k", value),))


@pytest.fixture
def store(machine: Machine) -> LogStructuredStore:
    return LogStructuredStore(machine, segment_bytes=1024)


def test_append_returns_address_in_open_segment(store):
    addr = store.append(image(1, 100))
    assert addr.offset == 0
    assert addr.nbytes == image(1, 100).size_bytes


def test_appends_pack_sequentially(store):
    first = store.append(image(1, 100))
    second = store.append(image(2, 100))
    assert second.offset == first.nbytes


def test_buffered_read_costs_no_io(store, machine):
    addr = store.append(image(1, 100))
    before = machine.ssd.total_ios
    result = store.read(addr)
    assert result.from_write_buffer
    assert machine.ssd.total_ios == before


def test_flush_writes_one_large_io(store, machine):
    store.append(image(1, 300))
    store.append(image(2, 300))
    before_writes = machine.ssd.counters.get("ssd.writes")
    store.flush()
    assert machine.ssd.counters.get("ssd.writes") == before_writes + 1
    assert machine.ssd.stored_bytes > 0


def test_flush_empty_buffer_is_noop(store):
    assert store.flush() is None


def test_auto_flush_when_segment_fills(store, machine):
    # Segment is 1024 bytes; four ~300-byte images overflow it once.
    for page_id in range(4):
        store.append(image(page_id, 300))
    assert store.segment_flushes == 1


def test_read_after_flush_costs_one_io(store, machine):
    addr = store.append(image(1, 100))
    store.flush()
    before = machine.ssd.total_ios
    result = store.read(addr)
    assert not result.from_write_buffer
    assert machine.ssd.total_ios == before + 1
    assert result.image.records[0].key == b"k"


def test_read_unknown_address_raises(store):
    from repro.storage import FlashAddr
    with pytest.raises(KeyError):
        store.read(FlashAddr(99, 0, 10))


def test_oversized_image_rejected(store):
    with pytest.raises(ValueError):
        store.append(image(1, 2048))


def test_invalidate_flushed_image_tracks_dead_bytes(store):
    addr = store.append(image(1, 100))
    store.append(image(2, 100))
    store.flush()
    assert store.utilization() == 1.0
    store.invalidate(addr)
    assert store.dead_bytes == addr.nbytes
    assert store.utilization() < 1.0


def test_invalidate_buffered_image_leaves_hole(store):
    addr = store.append(image(1, 100))
    store.append(image(2, 100))
    store.invalidate(addr)
    store.flush()
    info = store.segments[addr.segment_id]
    assert info.live_bytes < info.total_bytes


def test_double_invalidate_is_idempotent_on_live_bytes(store):
    addr = store.append(image(1, 100))
    store.flush()
    store.invalidate(addr)
    dead = store.dead_bytes
    store.invalidate(addr)
    assert store.dead_bytes == dead


def test_live_images_excludes_dead(store):
    addr1 = store.append(image(1, 100))
    addr2 = store.append(image(2, 100))
    store.flush()
    store.invalidate(addr1)
    live = store.live_images(addr1.segment_id)
    assert [a for a, __ in live] == [addr2]


def test_drop_segment_releases_flash(store, machine):
    store.append(image(1, 100))
    store.flush()
    segment_id = store.flushed_segment_ids[0]
    stored_before = machine.ssd.stored_bytes
    reclaimed = store.drop_segment(segment_id)
    assert reclaimed > 0
    assert machine.ssd.stored_bytes == stored_before - reclaimed
    assert segment_id not in store.segments


def test_utilization_with_nothing_flushed_is_one(store):
    assert store.utilization() == 1.0


def test_bytes_appended_accumulates(store):
    store.append(image(1, 100))
    store.append(image(2, 200))
    assert store.bytes_appended == (image(1, 100).size_bytes
                                    + image(2, 200).size_bytes)
