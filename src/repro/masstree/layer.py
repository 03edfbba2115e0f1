"""One MassTree layer: a B+-tree over 8-byte key slices.

MassTree (Mao, Kohler, Morris — EuroSys 2012) is a trie of B+-trees: each
layer indexes the next 8 bytes of the key.  A key that extends beyond its
slice either stores its remaining suffix inline at the border (leaf) node,
or — when two keys share a full 8-byte slice — a lower *layer* tree is
created and both suffixes are pushed down.

Entries within a layer are ordered by ``(slice, marker)`` where the marker
is the number of key bytes in the slice (0..8) for keys that end in this
layer, or ``LAYER_MARKER`` (9) for entries that carry a suffix or a link to
a lower layer.  This mirrors MassTree's keylen encoding and keeps keys of
different lengths correctly ordered.

Memory accounting mirrors the C++ layout: fixed-size tree nodes (the
engineered four-cache-line border nodes), separately allocated values and
suffixes with allocator headers.  This is what makes the paper's memory
expansion factor Mx a *measured* quantity here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

SLICE_BYTES = 8
LAYER_MARKER = 9            # orders after any terminal marker 0..8
FANOUT = 15                 # max entries per leaf / keys per inner node
# Fixed node footprint: the 256-byte four-cache-line border/internode plus
# its key-suffix (ksuf) block and allocator slack, as measured footprints of
# the C++ implementation include both.
NODE_BYTES = 512
ALLOC_HEADER_BYTES = 16     # malloc header for values / suffixes
ROW_OVERHEAD_BYTES = 80     # masstree-kv row: versions, timestamps, columns
SLAB_GRAIN_BYTES = 32       # allocator size-class rounding


def slab_bytes(payload: int) -> int:
    """Bytes an allocation of ``payload`` really occupies (class rounding)."""
    gross = payload + ALLOC_HEADER_BYTES
    return max(
        SLAB_GRAIN_BYTES,
        ((gross + SLAB_GRAIN_BYTES - 1) // SLAB_GRAIN_BYTES)
        * SLAB_GRAIN_BYTES,
    )

EntryKey = Tuple[bytes, int]   # (padded slice, marker)


def slice_of(key: bytes, offset: int) -> Tuple[bytes, int]:
    """The padded slice at ``offset`` and the number of key bytes in it."""
    chunk = key[offset:offset + SLICE_BYTES]
    in_slice = len(chunk)
    return chunk.ljust(SLICE_BYTES, b"\x00"), in_slice


@dataclass
class Entry:
    """One border-node slot.

    Terminal entries (marker <= 8) carry only ``value``.  LAYER_MARKER
    entries carry either an inline ``suffix`` plus ``value`` (a single key
    extends past this slice) or a ``link`` to the next layer (several keys
    share the slice).
    """

    value: Optional[bytes] = None
    suffix: Optional[bytes] = None
    link: Optional["LayerTree"] = None

    @property
    def alloc_bytes(self) -> int:
        total = 0
        if self.value is not None:
            total += slab_bytes(len(self.value) + ROW_OVERHEAD_BYTES)
        if self.suffix is not None:
            total += slab_bytes(len(self.suffix))
        return total


class _Leaf:
    __slots__ = ("keys", "entries", "next")

    def __init__(self) -> None:
        self.keys: List[EntryKey] = []
        self.entries: List[Entry] = []
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[EntryKey], children: List[object]) -> None:
        self.keys = keys
        self.children = children


@dataclass
class LayerStats:
    """Node/byte accounting for one layer (sublayers not included)."""

    leaves: int
    inners: int
    entries: int
    alloc_bytes: int

    @property
    def node_bytes(self) -> int:
        return (self.leaves + self.inners) * NODE_BYTES


class LayerTree:
    """A single-layer B+-tree mapping entry keys to :class:`Entry` slots."""

    def __init__(self) -> None:
        self._root: object = _Leaf()
        self._height = 1
        self.leaf_count = 1
        self.inner_count = 0
        self.entry_count = 0

    @property
    def height(self) -> int:
        return self._height

    # --- search -----------------------------------------------------------

    def find(self, ekey: EntryKey) -> Tuple[Optional[Entry], int]:
        """Return (entry or None, comparison steps) for cost charging."""
        node = self._root
        steps = 0
        while isinstance(node, _Inner):
            index = bisect.bisect_right(node.keys, ekey)
            steps += max(1, len(node.keys).bit_length())
            node = node.children[index]
        assert isinstance(node, _Leaf)
        steps += max(1, len(node.keys).bit_length()) if node.keys else 1
        index = bisect.bisect_left(node.keys, ekey)
        if index < len(node.keys) and node.keys[index] == ekey:
            return node.entries[index], steps
        return None, steps

    # --- insert ------------------------------------------------------------

    def upsert(self, ekey: EntryKey) -> Tuple[Entry, bool, int]:
        """Find-or-create the entry for ``ekey``.

        Returns (entry, created, comparison steps).
        """
        steps = 0
        path: List[Tuple[_Inner, int]] = []
        node = self._root
        while isinstance(node, _Inner):
            index = bisect.bisect_right(node.keys, ekey)
            steps += max(1, len(node.keys).bit_length())
            path.append((node, index))
            node = node.children[index]
        assert isinstance(node, _Leaf)
        steps += max(1, len(node.keys).bit_length()) if node.keys else 1
        index = bisect.bisect_left(node.keys, ekey)
        if index < len(node.keys) and node.keys[index] == ekey:
            return node.entries[index], False, steps
        entry = Entry()
        node.keys.insert(index, ekey)
        node.entries.insert(index, entry)
        self.entry_count += 1
        if len(node.keys) > FANOUT:
            self._split_leaf(node, path)
        return entry, True, steps

    def _split_leaf(self, leaf: _Leaf, path: List[Tuple[_Inner, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.entries = leaf.entries[mid:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:mid]
        leaf.entries = leaf.entries[:mid]
        leaf.next = right
        self.leaf_count += 1
        self._insert_up(path, right.keys[0], right)

    def _insert_up(self, path: List[Tuple[_Inner, int]], sep: EntryKey,
                   right: object) -> None:
        if not path:
            self._root = _Inner([sep], [self._root, right])
            self.inner_count += 1
            self._height += 1
            return
        parent, index = path.pop()
        parent.keys.insert(index, sep)
        parent.children.insert(index + 1, right)
        if len(parent.keys) > FANOUT:
            mid = len(parent.keys) // 2
            push = parent.keys[mid]
            new_right = _Inner(parent.keys[mid + 1:],
                               parent.children[mid + 1:])
            parent.keys = parent.keys[:mid]
            parent.children = parent.children[: mid + 1]
            self.inner_count += 1
            self._insert_up(path, push, new_right)

    # --- delete -------------------------------------------------------------

    def remove(self, ekey: EntryKey) -> Tuple[Optional[Entry], int]:
        """Remove and return the entry at ``ekey`` (lazy: no rebalancing).

        Returns (removed entry or None, comparison steps).  MassTree's
        deletes are similarly lazy; empty leaves persist until the layer is
        discarded, which only costs a little slack — and that slack is part
        of what the Mx measurement should see.
        """
        node = self._root
        steps = 0
        while isinstance(node, _Inner):
            index = bisect.bisect_right(node.keys, ekey)
            steps += max(1, len(node.keys).bit_length())
            node = node.children[index]
        assert isinstance(node, _Leaf)
        steps += max(1, len(node.keys).bit_length()) if node.keys else 1
        index = bisect.bisect_left(node.keys, ekey)
        if index < len(node.keys) and node.keys[index] == ekey:
            node.keys.pop(index)
            entry = node.entries.pop(index)
            self.entry_count -= 1
            return entry, steps
        return None, steps

    # --- iteration ----------------------------------------------------------

    def _leftmost(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        return node

    def items(self) -> Iterator[Tuple[EntryKey, Entry]]:
        """All entries in key order."""
        leaf: Optional[_Leaf] = self._leftmost()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.entries)
            leaf = leaf.next

    # --- accounting -------------------------------------------------------------

    def stats(self) -> LayerStats:
        alloc = 0
        for __, entry in self.items():
            alloc += entry.alloc_bytes
        return LayerStats(
            leaves=self.leaf_count,
            inners=self.inner_count,
            entries=self.entry_count,
            alloc_bytes=alloc,
        )
