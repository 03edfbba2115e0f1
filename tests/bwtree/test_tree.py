"""Bw-tree functional behaviour: CRUD, scans, SMOs, caching, counters."""

import pytest

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine
from repro.hardware.metrics import Histogram
from repro.storage.pages import full_image_size_bytes

from ..conftest import load_keys
from ..frames import count_calls


class TestBasicOps:
    def test_get_missing_returns_none(self, small_tree):
        assert small_tree.get(b"nope") is None

    def test_upsert_then_get(self, small_tree):
        small_tree.upsert(b"k", b"v")
        assert small_tree.get(b"k") == b"v"

    def test_upsert_overwrites(self, small_tree):
        small_tree.upsert(b"k", b"v1")
        small_tree.upsert(b"k", b"v2")
        assert small_tree.get(b"k") == b"v2"

    def test_delete_removes(self, small_tree):
        small_tree.upsert(b"k", b"v")
        small_tree.delete(b"k")
        assert small_tree.get(b"k") is None

    def test_delete_missing_is_silent(self, small_tree):
        small_tree.delete(b"ghost")
        assert small_tree.get(b"ghost") is None

    def test_empty_value_roundtrips(self, small_tree):
        small_tree.upsert(b"k", b"")
        result = small_tree.get_with_stats(b"k")
        assert result.found
        assert result.value == b""


class TestValidation:
    def test_rejects_non_bytes_key(self, small_tree):
        with pytest.raises(TypeError):
            small_tree.upsert("str", b"v")
        with pytest.raises(TypeError):
            small_tree.get_with_stats("str")  # type: ignore[arg-type]

    def test_rejects_empty_key(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.upsert(b"", b"v")

    def test_rejects_non_bytes_value(self, small_tree):
        with pytest.raises(TypeError):
            small_tree.upsert(b"k", 42)

    def test_upsert_refuses_a_none_value(self, small_tree):
        """A delta whose value is ``None`` is a delete, so an upsert
        must not build one: ``_validate_kv`` refuses it first."""
        with pytest.raises(TypeError):
            small_tree.upsert(b"k", None)  # type: ignore[arg-type]
        assert small_tree.machine.operations == 0

    def test_a_blind_batch_posts_a_none_value_as_a_delete(self, small_tree):
        small_tree.upsert(b"k", b"v")
        small_tree.upsert(b"j", b"w")
        small_tree.apply_blind_batch([(b"k", None), (b"j", b"w2")])
        entry = small_tree._descend(b"k")
        newest = {delta.key: delta for delta in reversed(entry.state.deltas)}
        assert newest[b"k"].value is None
        assert small_tree.get(b"k") is None
        assert small_tree.get(b"j") == b"w2"


class TestStructure:
    def test_splits_grow_depth(self, small_tree):
        load_keys(small_tree, 3000, value_bytes=100)
        assert small_tree.depth() >= 3
        assert small_tree.counters.get("bwtree.leaf_splits") > 0

    def test_all_keys_readable_after_splits(self, small_tree):
        expected = load_keys(small_tree, 3000, value_bytes=100)
        for key, value in expected.items():
            assert small_tree.get(key) == value

    def test_leaf_sizes_bounded(self, small_tree):
        load_keys(small_tree, 3000, value_bytes=100)
        for entry in small_tree.mapping_table.entries():
            if entry.state is not None and entry.state.base is not None:
                assert (entry.state.base_size_bytes
                        <= small_tree.config.max_page_bytes)

    def test_average_leaf_bytes_below_max(self, small_tree):
        load_keys(small_tree, 3000, value_bytes=100)
        ps = small_tree.average_leaf_bytes()
        assert 0 < ps <= small_tree.config.max_page_bytes

    def test_a_read_chain_folds_once_its_hops_pay_for_the_fold(
            self, small_tree):
        """Three deltas over a 2,252-byte base: the fold costs 0.0006 x
        2,252 = 1.35 us and a hop 0.06 us, so the 8th read, whose 24
        hops cost 1.44 us, folds the chain; after 7 reads (1.26 us) it
        is still whole."""
        small_tree.bulk_load((b"key%05d" % index, b"v" * 50)
                             for index in range(30))
        entry = small_tree._descend(b"key00000")
        assert entry.state.base_size_bytes == 2252
        for index in range(3):
            small_tree.upsert(b"key%05d" % index, b"w" * 50)
        counters = small_tree.counters
        for __ in range(7):
            assert small_tree.get(b"key00029") == b"v" * 50
        assert counters.get("bwtree.consolidations") == 0
        assert len(entry.state.deltas) == 3
        assert entry.state.hops_paid == 21
        small_tree.get(b"key00029")
        assert counters.get("bwtree.consolidations") == 1
        assert entry.state.deltas == []
        assert entry.state.hops_paid == 0

    @pytest.mark.parametrize("value_bytes, posts", [
        (1024, 2),    # 2 x (24 + 3 + 1,024) = 2,102 >= 2,048
        (10, 56),     # 56 x (24 + 3 + 10) = 2,072; 55 x 37 = 2,035
    ])
    @pytest.mark.parametrize("post",
                             ["upsert", "apply_blind_batch", "delta_only"])
    def test_a_write_only_chain_folds_at_half_a_page(self, small_tree, post,
                                                     value_bytes, posts):
        """``_post_blind_delta`` and ``apply_blind_batch``'s resident
        branch each write the rule out; both fold on the same post.  A
        delta-only leaf (its base evicted) fetches its base on that post
        and folds it too."""
        if post == "apply_blind_batch":
            def write():
                small_tree.apply_blind_batch([(b"hot", b"x" * value_bytes)])
        else:
            def write():
                small_tree.upsert(b"hot", b"x" * value_bytes)
        small_tree.bulk_load([(b"key", b"v")])
        entry = small_tree._descend(b"hot")
        if post == "delta_only":
            small_tree.checkpoint()
            small_tree.cache.evict(entry)
        for __ in range(posts - 1):
            write()
        assert small_tree.counters.get("bwtree.consolidations") == 0
        assert len(entry.state.deltas) == posts - 1
        assert (entry.state.base is None) == (post == "delta_only")
        write()
        assert small_tree.counters.get("bwtree.consolidations") == 1
        assert entry.state.deltas == []
        assert small_tree.get(b"key") == b"v"

    def test_a_delta_only_chain_never_outgrows_a_segment(self):
        """64 posts of 120 B to a leaf whose base is on flash: under a
        64-delta bound they made a 9,760-byte delta image, and the
        checkpoint raised on an 8 KiB segment.  The half-page bound
        fetches the base and folds at 2,048 bytes of deltas."""
        tree = BwTree(Machine.paper_default(),
                      BwTreeConfig(segment_bytes=8192))
        tree.bulk_load((b"key%05d" % index, b"v" * 50)
                       for index in range(20))
        tree.checkpoint()
        entry = tree._descend(b"key00000")
        tree.cache.evict(entry)
        for index in range(64):
            tree.upsert(b"key%05d" % (index % 20), b"w" * 120)
        tree.checkpoint()
        assert 2 * entry.state.delta_size_bytes < tree.config.max_page_bytes
        for index in range(20):
            assert tree.get(b"key%05d" % index) == b"w" * 120

    def test_count_records(self, small_tree):
        expected = load_keys(small_tree, 500)
        assert small_tree.count_records() == len(expected)


class TestScans:
    def test_scan_full_range_sorted(self, small_tree):
        expected = load_keys(small_tree, 1200, value_bytes=60)
        got = list(small_tree.scan(b"\x00"))
        assert got == [(k, expected[k]) for k in sorted(expected)]

    def test_scan_subrange(self, small_tree):
        expected = load_keys(small_tree, 800)
        lo, hi = b"key00000100", b"key00000300"
        got = [k for k, __ in small_tree.scan(lo, hi)]
        assert got == [k for k in sorted(expected) if lo <= k < hi]

    def test_scan_limit(self, small_tree):
        load_keys(small_tree, 400)
        assert len(list(small_tree.scan(b"key", limit=13))) == 13

    def test_scan_sees_unconsolidated_deltas(self, small_tree):
        load_keys(small_tree, 300)
        small_tree.upsert(b"key00000150x", b"new")
        small_tree.delete(b"key00000151")
        keys = dict(small_tree.scan(b"key00000150", b"key00000153"))
        assert keys[b"key00000150x"] == b"new"
        assert b"key00000151" not in keys


class TestCachingBehaviour:
    def test_capped_cache_respects_budget(self, capped_tree):
        load_keys(capped_tree, 2000, value_bytes=100)
        assert (capped_tree.cache.resident_bytes
                <= capped_tree.config.cache_capacity_bytes)

    def test_reads_of_evicted_pages_cost_io(self, capped_tree):
        expected = load_keys(capped_tree, 2000, value_bytes=100)
        capped_tree.checkpoint()
        capped_tree.store.flush()
        ios = 0
        for key, value in expected.items():
            result = capped_tree.get_with_stats(key)
            assert result.value == value
            ios += result.ios
        assert capped_tree.counters.get("bwtree.ss_ops") > 0
        assert ios > 0

    def test_blind_upsert_never_does_io(self, capped_tree):
        load_keys(capped_tree, 2000, value_bytes=100)
        capped_tree.checkpoint()
        ssd = capped_tree.machine.ssd
        before = ssd.counters.get("ssd.reads")
        for index in range(500):
            result = capped_tree.upsert(b"key%08d" % index, b"fresh")
            assert result.ios == 0
        assert ssd.counters.get("ssd.reads") == before

    def test_blind_upserts_are_readable(self, capped_tree):
        load_keys(capped_tree, 2000, value_bytes=100)
        capped_tree.checkpoint()
        for index in range(0, 2000, 7):
            capped_tree.upsert(b"key%08d" % index, b"fresh%d" % index)
        for index in range(0, 2000, 7):
            assert capped_tree.get(b"key%08d" % index) == b"fresh%d" % index

    def test_warm_all_brings_everything_resident(self, capped_tree):
        load_keys(capped_tree, 1000, value_bytes=100)
        capped_tree.checkpoint()
        capped_tree.cache.capacity_bytes = None
        ios = capped_tree.warm_all()
        assert ios >= 0
        for entry in capped_tree.mapping_table.entries():
            assert entry.fully_resident

    def test_mm_plus_ss_equals_ops(self, capped_tree):
        load_keys(capped_tree, 1500, value_bytes=100)
        counters = capped_tree.counters
        assert (counters.get("bwtree.mm_ops") + counters.get("bwtree.ss_ops")
                == capped_tree.machine.operations == 1500)


class TestDeltaOnlyRead:
    def test_a_blind_upsert_to_an_evicted_page_is_read_without_io(
            self, capped_tree):
        """The upsert leaves the page resident with its delta only; the
        read is served from that delta: a record-cache hit (Section
        6.3)."""
        load_keys(capped_tree, 1500, value_bytes=100)
        capped_tree.checkpoint()
        key = b"key%08d" % 700
        entry = capped_tree._descend(key)
        if capped_tree.cache.is_tracked(entry.page_id):
            capped_tree.cache.evict(entry)
        assert entry.state is None
        capped_tree.upsert(key, b"blind")
        assert entry.state.base is None and len(entry.state.deltas) == 1
        result = capped_tree.get_with_stats(key)
        assert (result.value, result.ios) == (b"blind", 0)
        # Served from the delta: the page is still delta-only.
        assert entry.state.base is None and len(entry.state.deltas) == 1

    def test_a_read_past_a_delta_only_chain_pays_its_hops_once(
            self, small_tree, monkeypatch):
        """A read of a key the chain does not hold walks the 12 deltas,
        fetches the base and looks again: the second walk pays and
        counts only hops beyond the first (none here), not 24."""
        small_tree.bulk_load((b"key%05d" % index, b"v" * 50)
                             for index in range(30))
        small_tree.checkpoint()
        entry = small_tree._descend(b"key00000")
        small_tree.cache.evict(entry)
        for index in range(12):
            small_tree.upsert(b"key%05d" % index, b"w" * 50)
        assert entry.state.base is None and entry.state.hops_paid == 0
        cpu = small_tree.machine.cpu
        bill = cpu.bill
        hops = []

        def spy(plan, count=1.0):
            if plan is small_tree._hops:
                hops.append(count)
            bill(plan, count)

        monkeypatch.setattr(cpu, "bill", spy)
        result = small_tree.get_with_stats(b"key00029")
        assert (result.value, result.ios) == (b"v" * 50, 1)
        assert entry.state.base is not None
        assert entry.state.hops_paid == 12
        assert sum(hops) == 12


class TestDurability:
    def test_checkpoint_then_cold_read_everything(self, small_tree):
        expected = load_keys(small_tree, 1000, value_bytes=80)
        small_tree.checkpoint()
        # Drop the whole cache.
        small_tree.cache.capacity_bytes = 1
        small_tree.cache.ensure_capacity()
        small_tree.cache.capacity_bytes = None
        for key, value in expected.items():
            assert small_tree.get(key) == value

    def test_gc_preserves_data(self, capped_tree):
        expected = load_keys(capped_tree, 1500, value_bytes=100)
        for index in range(0, 1500, 2):
            capped_tree.upsert(b"key%08d" % index, b"v2")
            expected[b"key%08d" % index] = b"v2"
        # Reads force consolidation / rewrites, creating garbage.
        for index in range(0, 1500, 5):
            capped_tree.get(b"key%08d" % index)
        capped_tree.checkpoint()
        capped_tree.gc.run_until_utilization(0.95)
        for key, value in expected.items():
            assert capped_tree.get(key) == value


class TestMachineCoupling:
    def test_every_op_charges_cpu(self, small_tree):
        machine = small_tree.machine
        busy_before = machine.cpu.busy_us
        small_tree.upsert(b"k", b"v")
        small_tree.get(b"k")
        assert machine.cpu.busy_us > busy_before
        assert machine.operations == 2

    def test_dram_accounting_matches_components(self, small_tree):
        load_keys(small_tree, 500)
        dram = small_tree.machine.dram
        assert small_tree.dram_footprint_bytes() == (
            dram.bytes_for("page_cache")
            + dram.bytes_for("bwtree_index")
            + dram.bytes_for("mapping_table")
        )


def latency_of(machine, operation):
    """Run ``operation``; its latency from ``latency_window`` deltas."""
    cpu_before, service_before = machine.latency_window()
    result = operation()
    cpu_after, service_after = machine.latency_window()
    return result, (cpu_after - cpu_before) + (service_after - service_before)


class TestLatency:
    def test_cached_read_latency_is_execution_only(self, small_tree):
        small_tree.upsert(b"k", b"v")
        ssd = small_tree.machine.ssd
        service_before = ssd.service_us_total
        __, latency = latency_of(small_tree.machine,
                                 lambda: small_tree.get_with_stats(b"k"))
        assert ssd.service_us_total == service_before
        assert 0.0 < latency < 10.0

    def test_ss_read_latency_includes_device_time(self, capped_tree):
        load_keys(capped_tree, 2000, value_bytes=100)
        capped_tree.checkpoint()
        capped_tree.store.flush()
        read_latency = capped_tree.machine.ssd.spec.read_latency_us
        saw_ss = False
        for index in range(0, 2000, 11):
            key = b"key%08d" % index
            result, latency = latency_of(
                capped_tree.machine,
                lambda: capped_tree.get_with_stats(key))
            if result.is_ss:
                saw_ss = True
                assert latency > read_latency
        assert saw_ss

    def test_latency_histogram_populated(self, small_tree):
        hist = Histogram("upsert_us")
        for index in range(200):
            key = b"key%08d" % index
            __, latency = latency_of(
                small_tree.machine,
                lambda: small_tree.upsert(key, b"v" * 16))
            hist.observe(latency)
        assert hist.count == 200
        # The paper's Section 8.1 point: MM latencies are tens of us at
        # most; p50 here is ~1 us.
        assert hist.percentile(50) < 10.0


class TestBulkLoad:
    def items(self, count, value_bytes=100):
        return [(b"key%08d" % i, b"v" * value_bytes) for i in range(count)]

    def test_loads_and_reads_back(self):
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
        loaded = tree.bulk_load(self.items(2000))
        assert loaded == 2000
        assert tree.get(b"key%08d" % 0) == b"v" * 100
        assert tree.get(b"key%08d" % 1999) == b"v" * 100
        assert tree.count_records() == 2000
        assert [k for k, __ in tree.scan(b"key", limit=3)] == [
            b"key%08d" % 0, b"key%08d" % 1, b"key%08d" % 2,
        ]

    def test_fill_fraction_controls_page_size(self):
        sizes = {}
        for fill in (0.5, 0.69, 1.0):
            machine = Machine.paper_default(cores=1)
            tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
            tree.bulk_load(self.items(2000), fill_fraction=fill)
            sizes[fill] = tree.average_leaf_bytes()
        assert sizes[0.5] < sizes[0.69] < sizes[1.0]
        # The paper's Ps: ~69% of 4 KB.
        assert 2300 < sizes[0.69] < 3000

    def test_requires_empty_tree(self):
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig())
        tree.upsert(b"k", b"v")
        with pytest.raises(ValueError):
            tree.bulk_load(self.items(10))

    def test_requires_sorted_unique_input(self):
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig())
        with pytest.raises(ValueError):
            tree.bulk_load([(b"b", b"1"), (b"a", b"2")])
        tree2 = BwTree(Machine.paper_default(cores=1), BwTreeConfig())
        with pytest.raises(ValueError):
            tree2.bulk_load([(b"a", b"1"), (b"a", b"2")])

    def test_fill_fraction_validation(self):
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig())
        with pytest.raises(ValueError):
            tree.bulk_load(self.items(10), fill_fraction=0.0)

    def test_empty_input_keeps_empty_tree(self):
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig())
        assert tree.bulk_load([]) == 0
        assert tree.get(b"anything") is None
        tree.upsert(b"k", b"v")
        assert tree.get(b"k") == b"v"

    def test_a_loaded_record_is_sized_once(self):
        """The fill test, the copy bill and the leaf's base size all use
        the one size the load loop took (it used to be 4n - 1 calls)."""
        tree = BwTree(Machine.paper_default(cores=1), BwTreeConfig())
        calls = count_calls(lambda: tree.bulk_load(self.items(200)))
        assert calls.frames["pages.size_bytes"] == 200
        states = [entry.state for entry in tree.mapping_table.by_id.values()
                  if entry.state is not None and entry.state.base]
        assert len(states) > 1
        for state in states:
            assert state.base_size_bytes == full_image_size_bytes(state.base)

    def test_bulk_loaded_tree_supports_full_lifecycle(self):
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig(
            segment_bytes=1 << 14, cache_capacity_bytes=32 * 1024,
        ))
        tree.bulk_load(self.items(1500))
        for index in range(0, 1500, 3):
            tree.upsert(b"key%08d" % index, b"updated")
        for index in range(0, 1500, 5):
            tree.delete(b"key%08d" % index)
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        assert recovered.get(b"key%08d" % 3) == b"updated"
        assert recovered.get(b"key%08d" % 5) is None
        assert recovered.get(b"key%08d" % 1) == b"v" * 100
