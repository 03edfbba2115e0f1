"""Records, deltas, and DataPageState semantics."""

import pytest

from repro.storage import (
    DataPageState,
    PageImage,
    Record,
    RECORD_OVERHEAD_BYTES,
    DELTA_OVERHEAD_BYTES,
    PAGE_HEADER_BYTES,
    delta_size_bytes,
    full_image_size_bytes,
)


def rec(key: bytes, value: bytes = b"v", ts: int = 0) -> Record:
    return Record(key, value, ts)


def up(key: bytes, value: bytes = b"v", ts: int = 0) -> Record:
    return Record(key, value, ts)


def dl(key: bytes, ts: int = 0) -> Record:
    return Record(key, None, ts)


class TestSizes:
    def test_record_size(self):
        assert rec(b"ab", b"xyz").size_bytes == RECORD_OVERHEAD_BYTES + 5

    def test_upsert_delta_size(self):
        assert delta_size_bytes(up(b"ab", b"xyz")) == DELTA_OVERHEAD_BYTES + 5

    def test_delete_delta_size(self):
        assert delta_size_bytes(dl(b"ab")) == DELTA_OVERHEAD_BYTES + 2

    def test_full_image_size(self):
        records = [rec(b"a"), rec(b"b")]
        expected = PAGE_HEADER_BYTES + sum(r.size_bytes for r in records)
        assert full_image_size_bytes(records) == expected


class TestConstruction:
    def test_fresh_page_has_empty_present_base(self):
        state = DataPageState(1)
        assert state.base is not None
        assert state.base == []

    def test_explicit_none_base_means_evicted(self):
        """The regression behind the blind-update data-loss bug: an
        explicit ``base=None`` must NOT be coerced to an empty base."""
        state = DataPageState(1, base=None)
        assert state.base is None
        probe = state.lookup(b"k")
        assert probe.base_missing


class TestLookup:
    def test_finds_in_base(self):
        state = DataPageState(1, base=[rec(b"a"), rec(b"b", b"B")])
        probe = state.lookup(b"b")
        assert probe.found and probe.value == b"B"
        assert probe.searched_base
        assert probe.delta_hops == 0

    def test_delta_overrides_base(self):
        state = DataPageState(1, base=[rec(b"a", b"old")])
        state.prepend_delta(up(b"a", b"new"))
        probe = state.lookup(b"a")
        assert probe.value == b"new"
        assert probe.delta_hops == 1
        assert not probe.searched_base

    def test_newest_delta_wins(self):
        state = DataPageState(1)
        state.prepend_delta(up(b"a", b"v1"))
        state.prepend_delta(up(b"a", b"v2"))
        assert state.lookup(b"a").value == b"v2"

    def test_delete_delta_hides_base_record(self):
        state = DataPageState(1, base=[rec(b"a")])
        state.prepend_delta(dl(b"a"))
        probe = state.lookup(b"a")
        assert not probe.found
        assert not probe.base_missing

    def test_miss_counts_hops(self):
        state = DataPageState(1, base=[rec(b"a")])
        state.prepend_delta(up(b"x", b"1"))
        state.prepend_delta(up(b"y", b"2"))
        probe = state.lookup(b"zz")
        assert probe.delta_hops == 2
        assert not probe.found

    def test_base_missing_when_uncovered(self):
        state = DataPageState(1, base=None, deltas=[up(b"a", b"1")])
        assert state.lookup(b"a").found           # covered by delta
        assert state.lookup(b"b").base_missing    # must fetch


class TestConsolidate:
    def test_folds_upserts_and_deletes(self):
        state = DataPageState(1, base=[rec(b"a"), rec(b"b"), rec(b"c")])
        state.prepend_delta(dl(b"b"))
        state.prepend_delta(up(b"d", b"D"))
        state.consolidate()
        assert [r.key for r in state.base] == [b"a", b"c", b"d"]
        assert state.deltas == []

    def test_resets_persistence_bookkeeping(self):
        state = DataPageState(1, base=[rec(b"a")])
        state.base_flushed = True
        state.prepend_delta(up(b"b", b"B"))
        state.mark_deltas_flushed()
        state.consolidate()
        assert not state.base_flushed
        assert state.flushed_delta_count == 0

    def test_requires_base(self):
        state = DataPageState(1, base=None)
        with pytest.raises(ValueError):
            state.consolidate()

    def test_consolidate_to_empty(self):
        state = DataPageState(1, base=[rec(b"a")])
        state.prepend_delta(dl(b"a"))
        state.consolidate()
        assert state.base == []


class TestIterRecords:
    def test_merges_in_key_order(self):
        state = DataPageState(1, base=[rec(b"b"), rec(b"d")])
        state.prepend_delta(up(b"a", b"1"))
        state.prepend_delta(up(b"c", b"2"))
        state.prepend_delta(up(b"e", b"3"))
        keys = [r.key for r in state.iter_records()]
        assert keys == [b"a", b"b", b"c", b"d", b"e"]

    def test_respects_deletes_and_overrides(self):
        state = DataPageState(1, base=[rec(b"a", b"old"), rec(b"b")])
        state.prepend_delta(dl(b"b"))
        state.prepend_delta(up(b"a", b"new"))
        records = list(state.iter_records())
        assert [(r.key, r.value) for r in records] == [(b"a", b"new")]

    def test_requires_base(self):
        with pytest.raises(ValueError):
            list(DataPageState(1, base=None).iter_records())


class TestFlushBookkeeping:
    def test_unflushed_deltas_oldest_first(self):
        state = DataPageState(1)
        state.prepend_delta(up(b"a", b"1", ts=1))
        state.prepend_delta(up(b"b", b"2", ts=2))
        pending = state.unflushed_deltas()
        assert [d.timestamp for d in pending] == [1, 2]

    def test_mark_flushed_then_new_deltas(self):
        state = DataPageState(1)
        state.prepend_delta(up(b"a", b"1", ts=1))
        state.mark_deltas_flushed()
        state.prepend_delta(up(b"b", b"2", ts=2))
        pending = state.unflushed_deltas()
        assert [d.timestamp for d in pending] == [2]

    def test_has_unflushed_changes(self):
        state = DataPageState(1)
        assert state.has_unflushed_changes   # new base never flushed
        state.base_flushed = True
        assert not state.has_unflushed_changes
        state.prepend_delta(up(b"a", b"1"))
        assert state.has_unflushed_changes
        state.mark_deltas_flushed()
        assert not state.has_unflushed_changes


class TestDropInstallBase:
    def test_drop_base_keeps_deltas(self):
        state = DataPageState(1, base=[rec(b"a")])
        state.prepend_delta(up(b"b", b"1"))
        freed = state.drop_base()
        assert freed > 0
        assert state.base is None
        assert state.chain_length == 1

    def test_replace_base_marks_unflushed(self):
        state = DataPageState(1, base=[rec(b"a")])
        state.base_flushed = True
        state.replace_base([rec(b"z")])
        assert not state.base_flushed

    def test_install_base_preserves_flush_flag(self):
        state = DataPageState(1, base=None)
        state.base_flushed = True
        state.install_base([rec(b"a")])
        assert state.base_flushed


class TestPageImage:
    def test_full_image_rejects_deltas(self):
        with pytest.raises(ValueError):
            PageImage("full", 1, deltas=(up(b"a", b"1"),))

    def test_delta_image_rejects_records(self):
        with pytest.raises(ValueError):
            PageImage("delta", 1, records=(rec(b"a"),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PageImage("mystery", 1)

    def test_sizes(self):
        full = PageImage("full", 1, records=(rec(b"a"),))
        delta = PageImage("delta", 1, deltas=(up(b"a", b"1"),))
        assert full.size_bytes == PAGE_HEADER_BYTES + rec(b"a").size_bytes
        assert delta.size_bytes == PAGE_HEADER_BYTES + delta_size_bytes(
            up(b"a", b"1"))
