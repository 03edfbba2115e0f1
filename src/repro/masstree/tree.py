"""MassTree facade: a main-memory key-value store (paper Section 5).

The paper's representative main-memory system: everything is always
resident, there are no SS operations, and the execution path is shorter
than the Bw-tree's (no mapping-table indirection, no delta chains).  In
exchange its memory footprint is larger — fixed-size partially-filled
nodes, per-value allocator headers, trie layers — which is exactly the
Mx/Px trade Equation (7) prices.

Every operation charges the machine's CPU model; the tree's DRAM bytes are
accounted under the ``masstree`` tag so footprints can be compared with the
Bw-tree's.
"""

from __future__ import annotations

from typing import List, Optional

from ..hardware.machine import Machine
from .layer import (
    LAYER_MARKER,
    NODE_BYTES,
    SLICE_BYTES,
    Entry,
    LayerTree,
    slice_of,
)

DRAM_TAG = "masstree"


class MassTree:
    """Byte-keyed ordered key/value store, always fully in main memory."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._root_layer = LayerTree()
        self._layers: List[LayerTree] = [self._root_layer]
        self._count = 0
        self._node_bytes = 0
        self._alloc_bytes = 0
        self._sync_node_bytes()

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def _sync_node_bytes(self) -> None:
        new_nodes = sum(
            layer.leaf_count + layer.inner_count for layer in self._layers
        )
        new_bytes = new_nodes * NODE_BYTES
        if new_bytes > self._node_bytes:
            self.machine.dram.allocate(new_bytes - self._node_bytes, DRAM_TAG)
        elif new_bytes < self._node_bytes:
            self.machine.dram.free(self._node_bytes - new_bytes, DRAM_TAG)
        self._node_bytes = new_bytes

    def _account_alloc(self, delta: int) -> None:
        if delta > 0:
            self.machine.dram.allocate(delta, DRAM_TAG)
        elif delta < 0:
            self.machine.dram.free(-delta, DRAM_TAG)
        self._alloc_bytes += delta

    def _new_layer(self) -> LayerTree:
        layer = LayerTree()
        self._layers.append(layer)
        return layer

    def _begin_op(self) -> None:
        self.machine.begin_operation()
        self.machine.cpu.charge("masstree_dispatch", category="masstree")

    def _charge_descent(self, layer_index: int, steps: int) -> None:
        cpu = self.machine.cpu
        if layer_index > 0:
            cpu.charge("masstree_layer_descend", layer_index,
                       category="masstree")
        cpu.charge("int_compare", steps, category="masstree")
        cpu.charge("masstree_version_check", category="masstree")

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; returns the value or ``None``."""
        self._validate_key(key)
        self._begin_op()
        value = self._get_inner(key)
        if value is not None:
            self.machine.cpu.charge("copy_per_byte", len(value),
                                    category="masstree")
        return value

    def _get_inner(self, key: bytes) -> Optional[bytes]:
        layer = self._root_layer
        offset = 0
        depth = 0
        while True:
            padded, in_slice = slice_of(key, offset)
            remaining = len(key) - offset
            if remaining <= SLICE_BYTES:
                entry, steps = layer.find((padded, in_slice))
                self._charge_descent(depth, steps)
                return entry.value if entry is not None else None
            entry, steps = layer.find((padded, LAYER_MARKER))
            self._charge_descent(depth, steps)
            if entry is None:
                return None
            rest = key[offset + SLICE_BYTES:]
            if entry.link is None:
                if entry.suffix == rest:
                    return entry.value
                return None
            layer = entry.link
            offset += SLICE_BYTES
            depth += 1

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def upsert(self, key: bytes, value: bytes) -> None:
        """Insert or replace ``key``'s value."""
        self._validate_kv(key, value)
        self._begin_op()
        self._upsert_in_layer(self._root_layer, key, 0, value, depth=0)
        self._sync_node_bytes()

    def _upsert_in_layer(self, layer: LayerTree, key: bytes, offset: int,
                         value: bytes, depth: int) -> None:
        padded, in_slice = slice_of(key, offset)
        remaining = len(key) - offset
        cpu = self.machine.cpu
        if remaining <= SLICE_BYTES:
            entry, created, steps = layer.upsert((padded, in_slice))
            self._charge_descent(depth, steps)
            self._replace_value(entry, value, created)
            return
        entry, created, steps = layer.upsert((padded, LAYER_MARKER))
        self._charge_descent(depth, steps)
        rest = key[offset + SLICE_BYTES:]
        if created:
            # Single key past this slice: store the suffix inline.
            entry.suffix = rest
            entry.value = value
            self._account_alloc(entry.alloc_bytes)
            cpu.charge("copy_per_byte", len(rest) + len(value),
                       category="masstree")
            self._count += 1
            return
        if entry.link is not None:
            self._upsert_in_layer(entry.link, key, offset + SLICE_BYTES,
                                  value, depth + 1)
            return
        if entry.suffix == rest:
            self._replace_value(entry, value, created=False)
            return
        # Collision on a full slice: push both suffixes into a new layer.
        old_suffix = entry.suffix
        old_value = entry.value
        assert old_suffix is not None and old_value is not None
        self._account_alloc(-entry.alloc_bytes)
        entry.suffix = None
        entry.value = None
        sublayer = self._new_layer()
        entry.link = sublayer
        cpu.charge("copy_per_byte", len(old_suffix) + len(old_value),
                   category="masstree")
        self._count -= 1  # re-inserted below
        self._upsert_in_layer(sublayer, old_suffix, 0, old_value, depth + 1)
        self._upsert_in_layer(sublayer, key, offset + SLICE_BYTES, value,
                              depth + 1)

    def _replace_value(self, entry: Entry, value: bytes,
                       created: bool) -> None:
        before = entry.alloc_bytes
        entry.value = value
        self._account_alloc(entry.alloc_bytes - before)
        self.machine.cpu.charge("copy_per_byte", len(value),
                                category="masstree")
        if created:
            self._count += 1

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True when it was present."""
        self._validate_key(key)
        self._begin_op()
        removed = self._delete_in_layer(self._root_layer, key, 0, depth=0)
        self._sync_node_bytes()
        return removed

    def _delete_in_layer(self, layer: LayerTree, key: bytes, offset: int,
                         depth: int) -> bool:
        padded, in_slice = slice_of(key, offset)
        remaining = len(key) - offset
        if remaining <= SLICE_BYTES:
            entry, steps = layer.remove((padded, in_slice))
            self._charge_descent(depth, steps)
            if entry is None:
                return False
            self._account_alloc(-entry.alloc_bytes)
            self._count -= 1
            return True
        entry, steps = layer.find((padded, LAYER_MARKER))
        self._charge_descent(depth, steps)
        if entry is None:
            return False
        rest = key[offset + SLICE_BYTES:]
        if entry.link is not None:
            return self._delete_in_layer(entry.link, key,
                                         offset + SLICE_BYTES, depth + 1)
        if entry.suffix != rest:
            return False
        removed, __ = layer.remove((padded, LAYER_MARKER))
        assert removed is entry
        self._account_alloc(-entry.alloc_bytes)
        self._count -= 1
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def dram_footprint_bytes(self) -> int:
        """Total resident bytes: nodes plus value/suffix allocations."""
        return self._node_bytes + self._alloc_bytes

    @property
    def layer_count(self) -> int:
        return len(self._layers)

    def _validate_key(self, key: bytes) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        if not key:
            raise ValueError("keys must be non-empty")

    def _validate_kv(self, key: bytes, value: bytes) -> None:
        self._validate_key(key)
        if not isinstance(value, bytes):
            raise TypeError(
                f"values must be bytes, got {type(value).__name__}"
            )
