"""SSTable and BloomFilter behaviour."""

import pytest

from repro.lsm import BloomFilter, SsTable


def records(count: int, prefix: bytes = b"k"):
    return [(prefix + b"%05d" % i, b"v%d" % i, i) for i in range(count)]


class TestBloomFilter:
    def test_added_keys_always_match(self):
        bloom = BloomFilter(100)
        keys = [b"key%d" % i for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(1000)
        for i in range(1000):
            bloom.add(b"in%d" % i)
        false_positives = sum(
            1 for i in range(1000) if bloom.may_contain(b"out%d" % i)
        )
        assert false_positives < 100   # well under 10%

    def test_empty_filter_matches_nothing(self):
        bloom = BloomFilter(10)
        assert not bloom.may_contain(b"anything")

    def test_size_scales_with_keys(self):
        assert BloomFilter(1000).size_bytes > BloomFilter(10).size_bytes

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BloomFilter(-1)


class TestSsTable:
    def test_requires_records(self):
        with pytest.raises(ValueError):
            SsTable([], level=0)

    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            SsTable([(b"b", b"v", 1), (b"a", b"v", 2)], level=0)
        with pytest.raises(ValueError):
            SsTable([(b"a", b"v", 1), (b"a", b"v", 2)], level=0)

    def test_get_found_and_missing(self):
        table = SsTable(records(100), level=1)
        found, value, seq = table.get(b"k00042")
        assert found and value == b"v42" and seq == 42
        found, __, __s = table.get(b"k99999")
        assert not found

    def test_min_max_and_covers(self):
        table = SsTable(records(10), level=1)
        assert table.min_key == b"k00000"
        assert table.max_key == b"k00009"
        assert table.covers(b"k00005")
        assert not table.covers(b"z")

    def test_overlaps(self):
        table = SsTable(records(10), level=1)
        assert table.overlaps(b"k00005", b"zzz")
        assert not table.overlaps(b"l", b"z")

    def test_tombstones_stored(self):
        table = SsTable([(b"a", None, 1)], level=0)
        found, value, __ = table.get(b"a")
        assert found and value is None

    def test_block_count_and_index_bytes(self):
        small = SsTable(records(5), level=0)
        big = SsTable(
            [(b"%05d" % i, b"v" * 200, i) for i in range(200)], level=0
        )
        assert big.block_count > small.block_count
        assert big.resident_index_bytes > small.resident_index_bytes

    def test_unique_ids(self):
        a = SsTable(records(2), level=0)
        b = SsTable(records(2), level=0)
        assert a.table_id != b.table_id
