"""Immutable sorted-string tables with bloom filters and block reads.

An SSTable holds a key-ordered run of records on the simulated SSD.  Its
block index and bloom filter stay resident (accounted in DRAM); a point
lookup probes the bloom filter first and costs one block read only on a
possible hit, matching how RocksDB keeps read amplification down.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Iterator, Optional, Sequence, Tuple

BLOCK_BYTES = 4096
SSTABLE_RECORD_OVERHEAD_BYTES = 16
BLOOM_BITS_PER_KEY = 10
BLOOM_HASHES = 4
INDEX_ENTRY_BYTES = 24   # per-block: offset + first key pointer


class BloomFilter:
    """A plain m-bit, k-hash bloom filter over byte keys."""

    def __init__(self, expected_keys: int,
                 bits_per_key: int = BLOOM_BITS_PER_KEY,
                 hashes: int = BLOOM_HASHES) -> None:
        if expected_keys < 0:
            raise ValueError("expected_keys cannot be negative")
        self.bit_count = max(64, expected_keys * bits_per_key)
        self.hashes = hashes
        self._bits = bytearray((self.bit_count + 7) // 8)

    def _positions(self, key: bytes) -> Iterator[int]:
        h1 = zlib.crc32(key)
        h2 = zlib.adler32(key) | 1
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.bit_count

    def add(self, key: bytes) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, key: bytes) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(key)
        )

    @property
    def size_bytes(self) -> int:
        return len(self._bits)


class SsTable:
    """One immutable sorted run.

    Records are ``(key, value_or_None, seq)`` tuples; ``None`` values are
    tombstones that survive until compaction into the bottom level.
    """

    _ids = iter(range(10**9))

    def __init__(self, records: Sequence[Tuple[bytes, Optional[bytes], int]],
                 level: int) -> None:
        if not records:
            raise ValueError("an SSTable cannot be empty")
        keys = [record[0] for record in records]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("SSTable records must be strictly key-sorted")
        self.table_id = next(SsTable._ids)
        self.level = level
        self._records = list(records)
        self._keys = keys
        self.min_key = keys[0]
        self.max_key = keys[-1]
        self.bloom = BloomFilter(len(keys))
        for key in keys:
            self.bloom.add(key)
        self.data_bytes = sum(
            SSTABLE_RECORD_OVERHEAD_BYTES + len(k)
            + (len(v) if v is not None else 0)
            for k, v, __ in self._records
        )
        self.block_count = max(1, -(-self.data_bytes // BLOCK_BYTES))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def resident_index_bytes(self) -> int:
        """DRAM for the block index and bloom filter."""
        return self.block_count * INDEX_ENTRY_BYTES + self.bloom.size_bytes

    def overlaps(self, min_key: bytes, max_key: bytes) -> bool:
        return not (self.max_key < min_key or max_key < self.min_key)

    def covers(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key

    def search_steps(self) -> int:
        return max(1, len(self._keys).bit_length())

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes], int]:
        """Return (found, value-or-tombstone, seq-or-0).

        The caller is responsible for charging the block read I/O; this
        method only resolves contents.
        """
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            __, value, seq = self._records[index]
            return True, value, seq
        return False, None, 0

    def block_of(self, key: bytes) -> int:
        """Index of the data block a lookup of ``key`` touches."""
        position = bisect.bisect_left(self._keys, key)
        if position >= len(self._keys):
            position = len(self._keys) - 1
        records_per_block = max(
            1, len(self._records) // self.block_count
        )
        return min(self.block_count - 1, position // records_per_block)

    def items(self) -> Iterator[Tuple[bytes, Optional[bytes], int]]:
        yield from self._records

    def items_from(self, start: bytes) -> Iterator[
            Tuple[bytes, Optional[bytes], int]]:
        index = bisect.bisect_left(self._keys, start)
        for i in range(index, len(self._records)):
            yield self._records[i]
