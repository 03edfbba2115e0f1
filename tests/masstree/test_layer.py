"""LayerTree (single-layer B+-tree) behaviour."""


from repro.masstree import LayerTree, slice_of
from repro.masstree.layer import FANOUT, LAYER_MARKER, NODE_BYTES, slab_bytes


def ekey(raw: bytes, marker: int | None = None):
    padded, in_slice = slice_of(raw, 0)
    return padded, marker if marker is not None else in_slice


class TestSliceOf:
    def test_short_key_padded(self):
        padded, length = slice_of(b"abc", 0)
        assert padded == b"abc" + b"\x00" * 5
        assert length == 3

    def test_exact_slice(self):
        padded, length = slice_of(b"12345678", 0)
        assert padded == b"12345678"
        assert length == 8

    def test_offset_slicing(self):
        padded, length = slice_of(b"0123456789ab", 8)
        assert padded == b"89ab" + b"\x00" * 4
        assert length == 4

    def test_marker_distinguishes_padded_collisions(self):
        """b"abc" and b"abc\\x00" share a padded slice but not a marker."""
        a = ekey(b"abc")
        b = ekey(b"abc\x00")
        assert a[0] == b[0]
        assert a[1] != b[1]


class TestUpsertFind:
    def test_find_missing(self):
        layer = LayerTree()
        entry, steps = layer.find(ekey(b"a"))
        assert entry is None
        assert steps >= 1

    def test_upsert_creates_once(self):
        layer = LayerTree()
        entry, created, __ = layer.upsert(ekey(b"a"))
        assert created
        again, created2, __ = layer.upsert(ekey(b"a"))
        assert not created2
        assert again is entry
        assert layer.entry_count == 1

    def test_many_inserts_split_leaves(self):
        layer = LayerTree()
        for index in range(200):
            layer.upsert(ekey(b"%08d" % index))
        assert layer.leaf_count > 1
        assert layer.inner_count >= 1
        assert layer.height > 1
        assert layer.entry_count == 200

    def test_all_findable_after_splits(self):
        layer = LayerTree()
        for index in range(500):
            entry, __, __s = layer.upsert(ekey(b"%08d" % index))
            entry.value = b"%d" % index
        for index in range(500):
            entry, __ = layer.find(ekey(b"%08d" % index))
            assert entry is not None and entry.value == b"%d" % index

    def test_fanout_respected(self):
        layer = LayerTree()
        for index in range(300):
            layer.upsert(ekey(b"%08d" % index))
        leaf = layer._leftmost()
        while leaf is not None:
            assert len(leaf.keys) <= FANOUT
            leaf = leaf.next


class TestRemove:
    def test_remove_returns_entry(self):
        layer = LayerTree()
        entry, __, __s = layer.upsert(ekey(b"a"))
        removed, __ = layer.remove(ekey(b"a"))
        assert removed is entry
        assert layer.entry_count == 0
        assert layer.find(ekey(b"a"))[0] is None

    def test_remove_missing_returns_none(self):
        layer = LayerTree()
        removed, steps = layer.remove(ekey(b"a"))
        assert removed is None
        assert steps >= 1


class TestIteration:
    def test_items_in_key_order(self):
        layer = LayerTree()
        for raw in [b"m", b"a", b"z", b"b"]:
            layer.upsert(ekey(raw))
        got = [key for key, __ in layer.items()]
        assert got == sorted(got)
        assert len(got) == 4

    def test_terminal_orders_before_layer_marker(self):
        layer = LayerTree()
        layer.upsert(ekey(b"abcdefgh"))                     # marker 8
        layer.upsert((slice_of(b"abcdefgh", 0)[0], LAYER_MARKER))
        markers = [marker for (__, marker), __e in layer.items()]
        assert markers == [8, LAYER_MARKER]


class TestAccounting:
    def test_stats_count_nodes_and_allocs(self):
        layer = LayerTree()
        for index in range(100):
            entry, __, __s = layer.upsert(ekey(b"%08d" % index))
            entry.value = b"v" * 10
        stats = layer.stats()
        assert stats.entries == 100
        assert stats.leaves == layer.leaf_count
        assert stats.node_bytes == (
            (layer.leaf_count + layer.inner_count) * NODE_BYTES
        )
        assert stats.alloc_bytes == 100 * slab_bytes(10 + 80)

    def test_slab_rounding(self):
        assert slab_bytes(0) == 32
        assert slab_bytes(16) == 32
        assert slab_bytes(17) == 64
        assert slab_bytes(100) % 32 == 0
        assert slab_bytes(100) >= 116
