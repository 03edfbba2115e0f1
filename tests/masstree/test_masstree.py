"""MassTree facade: CRUD, layer promotion, accounting, cost charging."""

import pytest

from repro.hardware import Machine
from repro.masstree import MassTree


@pytest.fixture
def tree(machine: Machine) -> MassTree:
    return MassTree(machine)


class TestBasicOps:
    def test_get_missing(self, tree):
        assert tree.get(b"nope") is None

    def test_upsert_get(self, tree):
        tree.upsert(b"k", b"v")
        assert tree.get(b"k") == b"v"
        assert len(tree) == 1

    def test_overwrite(self, tree):
        tree.upsert(b"k", b"v1")
        tree.upsert(b"k", b"v2")
        assert tree.get(b"k") == b"v2"
        assert len(tree) == 1

    def test_delete(self, tree):
        tree.upsert(b"k", b"v")
        assert tree.delete(b"k")
        assert tree.get(b"k") is None
        assert not tree.delete(b"k")
        assert len(tree) == 0

    def test_validation(self, tree):
        with pytest.raises(TypeError):
            tree.upsert("k", b"v")
        with pytest.raises(ValueError):
            tree.get(b"")
        with pytest.raises(TypeError):
            tree.upsert(b"k", 7)


class TestLongKeysAndLayers:
    def test_key_exactly_eight_bytes(self, tree):
        tree.upsert(b"12345678", b"v")
        assert tree.get(b"12345678") == b"v"

    def test_long_key_stored_as_suffix(self, tree):
        tree.upsert(b"12345678abcdef", b"v")
        assert tree.get(b"12345678abcdef") == b"v"
        assert tree.layer_count == 1   # no promotion needed yet

    def test_collision_promotes_layer(self, tree):
        tree.upsert(b"12345678aaaa", b"va")
        tree.upsert(b"12345678bbbb", b"vb")
        assert tree.layer_count == 2
        assert tree.get(b"12345678aaaa") == b"va"
        assert tree.get(b"12345678bbbb") == b"vb"

    def test_eight_byte_prefix_and_longer_coexist(self, tree):
        tree.upsert(b"12345678", b"short")
        tree.upsert(b"12345678x", b"long")
        assert tree.get(b"12345678") == b"short"
        assert tree.get(b"12345678x") == b"long"

    def test_deep_layers(self, tree):
        keys = [b"A" * 8 * depth + b"tail%d" % depth for depth in range(5)]
        for index, key in enumerate(keys):
            tree.upsert(key, b"v%d" % index)
        for index, key in enumerate(keys):
            assert tree.get(key) == b"v%d" % index

    def test_embedded_nul_bytes(self, tree):
        tree.upsert(b"a\x00b", b"1")
        tree.upsert(b"a\x00", b"2")
        tree.upsert(b"a", b"3")
        assert tree.get(b"a\x00b") == b"1"
        assert tree.get(b"a\x00") == b"2"
        assert tree.get(b"a") == b"3"

    def test_delete_from_sublayer(self, tree):
        tree.upsert(b"12345678aaaa", b"va")
        tree.upsert(b"12345678bbbb", b"vb")
        assert tree.delete(b"12345678aaaa")
        assert tree.get(b"12345678aaaa") is None
        assert tree.get(b"12345678bbbb") == b"vb"

    def test_delete_suffix_entry(self, tree):
        tree.upsert(b"12345678abc", b"v")
        assert tree.delete(b"12345678abc")
        assert tree.get(b"12345678abc") is None
        assert not tree.delete(b"12345678xyz")


class TestAccounting:
    def test_footprint_matches_dram_tag(self, tree, machine):
        for index in range(300):
            tree.upsert(b"user%010d" % index, b"v" * 50)
        assert tree.dram_footprint_bytes() == machine.dram.bytes_for(
            "masstree"
        )

    def test_delete_releases_memory(self, tree):
        for index in range(100):
            tree.upsert(b"user%010d" % index, b"v" * 50)
        before = tree.dram_footprint_bytes()
        for index in range(100):
            tree.delete(b"user%010d" % index)
        assert tree.dram_footprint_bytes() < before

    def test_value_replacement_adjusts_alloc(self, tree):
        tree.upsert(b"k", b"v" * 10)
        small = tree.dram_footprint_bytes()
        tree.upsert(b"k", b"v" * 500)
        assert tree.dram_footprint_bytes() > small

    def test_ops_charge_cpu(self, tree, machine):
        busy = machine.cpu.busy_us
        tree.upsert(b"k", b"v")
        tree.get(b"k")
        assert machine.cpu.busy_us > busy
        assert machine.operations == 2

    def test_reads_cheaper_than_bwtree(self, machine):
        """The calibrated Px invariant: a MassTree read charges fewer
        core-us than a Bw-tree read of the same record."""
        from repro.bwtree import BwTree, BwTreeConfig
        masstree = MassTree(machine)
        masstree.upsert(b"user0001", b"v" * 50)
        machine.reset_accounting()
        masstree.get(b"user0001")
        mt_cost = machine.cpu.busy_us
        other = Machine.paper_default()
        bwtree = BwTree(other, BwTreeConfig())
        bwtree.upsert(b"user0001", b"v" * 50)
        other.reset_accounting()
        bwtree.get(b"user0001")
        assert mt_cost < other.cpu.busy_us
