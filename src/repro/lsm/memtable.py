"""LSM memtable: the in-memory tree where all updates are first accepted.

The paper (Section 6.1-6.3) leans on two memtable properties: updates are
*blind* (no read of secondary storage trees), and the memtable acts as a
record cache — a read that hits it costs no I/O even though older versions
live on flash.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

MEMTABLE_ENTRY_OVERHEAD_BYTES = 40   # skiplist node, pointers, seq number

TOMBSTONE = None   # stored value for deletes


class Memtable:
    """A sorted write buffer of the newest version per key."""

    def __init__(self) -> None:
        self._keys: List[bytes] = []
        self._values: List[Optional[bytes]] = []
        self._seqs: List[int] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def _entry_bytes(self, key: bytes, value: Optional[bytes]) -> int:
        value_len = len(value) if value is not None else 0
        return MEMTABLE_ENTRY_OVERHEAD_BYTES + len(key) + value_len

    def put(self, key: bytes, value: Optional[bytes], seq: int) -> int:
        """Insert or replace; ``value=None`` is a tombstone.

        Returns the number of binary-search steps (for cost charging).
        """
        index = bisect.bisect_left(self._keys, key)
        steps = max(1, len(self._keys).bit_length()) if self._keys else 1
        if index < len(self._keys) and self._keys[index] == key:
            self._bytes -= self._entry_bytes(key, self._values[index])
            self._values[index] = value
            self._seqs[index] = seq
        else:
            self._keys.insert(index, key)
            self._values.insert(index, value)
            self._seqs.insert(index, seq)
        self._bytes += self._entry_bytes(key, value)
        return steps

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes], int]:
        """Return (present-in-memtable, value-or-tombstone, search steps)."""
        steps = max(1, len(self._keys).bit_length()) if self._keys else 1
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return True, self._values[index], steps
        return False, None, steps

    def items(self) -> Iterator[Tuple[bytes, Optional[bytes], int]]:
        """All (key, value-or-tombstone, seq) in key order."""
        yield from zip(self._keys, self._values, self._seqs)

    def clear(self) -> None:
        self._keys = []
        self._values = []
        self._seqs = []
        self._bytes = 0
