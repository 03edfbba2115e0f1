"""Mapping table: allocation, location tracking, live-address sets."""

import pytest

from repro.storage import FlashAddr, MappingTable


def test_allocate_assigns_sequential_ids():
    table = MappingTable()
    first = table.allocate()
    second = table.allocate()
    assert first.page_id == 0
    assert second.page_id == 1
    assert len(table) == 2


def test_new_page_is_resident_and_clean_base():
    entry = MappingTable().allocate()
    assert entry.resident
    assert entry.fully_resident
    assert entry.dirty   # fresh empty base has never been flushed


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        MappingTable().get(42)


def test_free_removes():
    table = MappingTable()
    entry = table.allocate()
    table.free(entry.page_id)
    assert entry.page_id not in table
    with pytest.raises(KeyError):
        table.free(entry.page_id)


def test_entries_sorted_by_id():
    table = MappingTable()
    for __ in range(5):
        table.allocate()
    assert [e.page_id for e in table.entries()] == [0, 1, 2, 3, 4]


def test_resident_bytes_sums_states():
    table = MappingTable()
    a = table.allocate()
    b = table.allocate()
    from repro.storage import Record
    a.state.install_base([Record(b"k", b"v" * 100)])
    assert table.resident_bytes() == (a.resident_bytes
                                      + b.resident_bytes)


def test_flash_addr_validation():
    with pytest.raises(ValueError):
        FlashAddr(0, 0, 0)


def test_entry_flags():
    table = MappingTable()
    entry = table.allocate()
    entry.state.base_flushed = True
    assert not entry.dirty
    entry.state = None
    assert not entry.resident
    assert not entry.fully_resident
    assert entry.resident_bytes == 0
