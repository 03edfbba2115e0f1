"""Bw-tree index (inner) nodes.

Index nodes route keys to child pages.  Per the paper's operating assumption
for blind updates (Section 6.2), index pages are always cached in main
memory; only data (leaf) pages move between DRAM and flash.  Inner nodes are
therefore plain resident objects whose bytes are accounted against DRAM under
the ``bwtree_index`` tag.

Id spaces: leaf pages use non-negative logical page ids from the mapping
table; inner nodes use negative ids from the tree's own counter, so a child
reference's sign says which structure to consult.
"""

from __future__ import annotations

import bisect
from typing import List

INNER_HEADER_BYTES = 32
INNER_ENTRY_OVERHEAD_BYTES = 16  # child pointer + key length/offset


class InnerNode:
    """One index node: separator keys and child ids.

    ``children[i]`` covers keys in ``[keys[i-1], keys[i])`` with the usual
    sentinel conventions: ``children[0]`` covers everything below
    ``keys[0]`` and ``children[-1]`` everything at or above ``keys[-1]``.
    Invariant: ``len(children) == len(keys) + 1``.  The routing rule
    itself (``bisect_right`` over ``keys``, and the comparisons it is
    charged) lives in one place, the tree's descent.
    """

    __slots__ = ("node_id", "keys", "children")

    def __init__(self, node_id: int, keys: List[bytes],
                 children: List[int]) -> None:
        if node_id >= 0:
            raise ValueError(f"inner node ids must be negative: {node_id}")
        if len(children) != len(keys) + 1:
            raise ValueError(
                f"inner node {node_id}: {len(keys)} keys need "
                f"{len(keys) + 1} children, got {len(children)}"
            )
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError(f"inner node {node_id}: keys not strictly sorted")
        self.node_id = node_id
        self.keys = keys
        self.children = children

    @property
    def fanout(self) -> int:
        return len(self.children)

    @property
    def size_bytes(self) -> int:
        return INNER_HEADER_BYTES + sum(
            INNER_ENTRY_OVERHEAD_BYTES + len(key) for key in self.keys
        ) + INNER_ENTRY_OVERHEAD_BYTES * len(self.children)

    def child_index(self, child_id: int) -> int:
        """Position of ``child_id`` among the children."""
        try:
            return self.children.index(child_id)
        except ValueError:
            raise KeyError(
                f"inner node {self.node_id} has no child {child_id}"
            ) from None

    def insert_separator(self, key: bytes, right_child: int) -> None:
        """Install a separator after a child split: ``key`` routes to
        ``right_child`` for keys >= ``key``."""
        index = bisect.bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            raise ValueError(
                f"inner node {self.node_id}: separator {key!r} already present"
            )
        self.keys.insert(index, key)
        self.children.insert(index + 1, right_child)

    def remove_child(self, child_id: int) -> bytes | None:
        """Remove a (merged-away) child and its separator.

        Returns the removed separator key, or ``None`` when the leftmost
        child was removed (its right neighbour's separator is deleted so the
        neighbour inherits the range).
        """
        index = self.child_index(child_id)
        del self.children[index]
        if not self.keys:
            return None
        if index == 0:
            self.keys.pop(0)
            return None
        return self.keys.pop(index - 1)

    def split(self, right_node_id: int) -> tuple[bytes, "InnerNode"]:
        """Split in half; returns (separator pushed up, new right node)."""
        if len(self.keys) < 2:
            raise ValueError(
                f"inner node {self.node_id} too small to split"
            )
        mid = len(self.keys) // 2
        push_up = self.keys[mid]
        right = InnerNode(
            right_node_id,
            keys=self.keys[mid + 1:],
            children=self.children[mid + 1:],
        )
        self.keys = self.keys[:mid]
        self.children = self.children[: mid + 1]
        return push_up, right
