"""Memtable behaviour."""

from repro.lsm import Memtable


def test_put_get_roundtrip():
    table = Memtable()
    table.put(b"k", b"v", seq=1)
    present, value, steps = table.get(b"k")
    assert present and value == b"v"
    assert steps >= 1


def test_miss():
    present, value, __ = Memtable().get(b"k")
    assert not present and value is None


def test_overwrite_updates_bytes():
    table = Memtable()
    table.put(b"k", b"v" * 10, seq=1)
    size_small = table.size_bytes
    table.put(b"k", b"v" * 100, seq=2)
    assert table.size_bytes > size_small
    assert len(table) == 1


def test_tombstone_is_present_with_none():
    table = Memtable()
    table.put(b"k", None, seq=1)
    present, value, __ = table.get(b"k")
    assert present and value is None


def test_items_sorted():
    table = Memtable()
    for key in [b"c", b"a", b"b"]:
        table.put(key, b"v", seq=1)
    assert [k for k, __, __s in table.items()] == [b"a", b"b", b"c"]


def test_clear():
    table = Memtable()
    table.put(b"k", b"v", seq=1)
    table.clear()
    assert len(table) == 0
    assert table.size_bytes == 0


def test_seq_tracked():
    table = Memtable()
    table.put(b"k", b"v1", seq=1)
    table.put(b"k", b"v2", seq=9)
    __, __v, seq = next(iter(table.items()))
    assert seq == 9
