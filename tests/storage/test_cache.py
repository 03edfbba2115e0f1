"""Page cache: residency accounting, flush policies, eviction, fetch."""

import pytest

from repro.core import tier_pair_breakeven
from repro.hardware import Machine
from repro.storage import (
    DataPageState,
    LogStructuredStore,
    MappingTable,
    PageCache,
    PageImage,
    Record,
)


def up(key: bytes, value: bytes, ts: int = 0) -> Record:
    return Record(key, value, ts)


@pytest.fixture
def rig(machine: Machine):
    table = MappingTable()
    store = LogStructuredStore(machine, segment_bytes=1 << 14)
    cache = PageCache(machine, table, store, capacity_bytes=None)
    return machine, table, store, cache


def make_page(table, cache, records=None):
    entry = table.allocate()
    if records:
        entry.state.install_base(records)
    cache.register(entry)
    return entry


class TestResidency:
    def test_register_accounts_dram(self, rig):
        machine, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"x" * 100)])
        assert machine.dram.bytes_for("page_cache") == entry.resident_bytes

    def test_double_register_rejected(self, rig):
        __, table, __s, cache = rig
        entry = make_page(table, cache)
        with pytest.raises(ValueError):
            cache.register(entry)

    def test_resize_tracks_growth(self, rig):
        machine, table, __, cache = rig
        entry = make_page(table, cache)
        entry.state.prepend_delta(up(b"a", b"x" * 50))
        cache.resize(entry)
        assert machine.dram.bytes_for("page_cache") == entry.resident_bytes

    def test_touch_updates_recency_and_clock_time(self, rig):
        machine, table, __, cache = rig
        entry = make_page(table, cache)
        machine.clock.advance(10.0)
        cache.touch(entry)
        assert entry.last_access == pytest.approx(10.0)
        assert entry.access_count >= 1


class TestFlush:
    def test_first_flush_writes_full_image(self, rig):
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.flush_page(entry)
        assert len(entry.flash_chain) == 1
        assert cache.stats.flushes_full == 1
        assert entry.state.base_flushed

    def test_second_flush_is_delta_only(self, rig):
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.flush_page(entry)
        entry.state.prepend_delta(up(b"b", b"w"))
        cache.resize(entry)
        cache.flush_page(entry)
        assert len(entry.flash_chain) == 2
        assert cache.stats.flushes_delta == 1
        assert entry.flushed_delta_records == 1

    def test_fragment_cap_forces_full_rewrite(self, rig):
        __, table, store, cache = rig
        cache.max_flash_fragments = 2
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.flush_page(entry)
        chain_lengths = []
        for index in range(2):
            entry.state.prepend_delta(up(b"k%d" % index, b"w", ts=index))
            cache.resize(entry)
            cache.flush_page(entry)
            chain_lengths.append(len(entry.flash_chain))
        # First delta flush appends a fragment; the second hits the cap and
        # folds everything back into one full image.
        assert chain_lengths == [2, 1]
        assert entry.flushed_delta_records == 0
        # The superseded images become holes/dead space once flushed.
        store.flush()
        assert store.dead_bytes > 0

    def test_clean_page_flush_is_noop(self, rig):
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.flush_page(entry)
        appended = store.bytes_appended
        cache.flush_page(entry)
        assert store.bytes_appended == appended

    def test_flush_without_state_rejected(self, rig):
        __, table, __s, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.flush_page(entry)
        cache.evict(entry)
        with pytest.raises(ValueError):
            cache.flush_page(entry)


class TestEvictFetch:
    def test_evict_drops_state_and_dram(self, rig):
        machine, table, __, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v" * 200)])
        cache.evict(entry)
        assert entry.state is None
        assert machine.dram.bytes_for("page_cache") == 0
        assert cache.stats.evictions == 1

    def test_evict_flushes_dirty_state_first(self, rig):
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.evict(entry)
        assert entry.flash_chain   # persisted on the way out

    def test_fetch_restores_contents(self, rig):
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        entry.state.prepend_delta(up(b"b", b"w"))
        cache.resize(entry)
        cache.evict(entry)
        store.flush()
        ios = cache.fetch(entry)
        assert ios >= 1
        assert entry.state.lookup(b"a").value == b"v"
        assert entry.state.lookup(b"b").value == b"w"

    def test_fetch_resident_page_is_free(self, rig):
        __, table, __s, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        assert cache.fetch(entry) == 0

    def test_fetch_unflushed_page_rejected(self, rig):
        __, table, __s, cache = rig
        entry = make_page(table, cache)
        entry.state = None
        with pytest.raises(ValueError):
            cache.fetch(entry)

    def test_blind_delta_then_fetch_merges_chain(self, rig):
        """A blind update posted while the page was evicted must merge
        with the flash chain on the next fetch (the Section 6.2 path)."""
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        entry.state.prepend_delta(up(b"b", b"w", ts=1))
        cache.resize(entry)
        cache.evict(entry)        # full image + delta image? one delta flush
        store.flush()
        # blind post to the evicted page
        state = DataPageState(entry.page_id, base=None,
                              deltas=[up(b"c", b"z", ts=2)])
        state.base_flushed = True
        entry.state = state
        cache.register(entry)
        cache.fetch(entry)
        assert entry.state.lookup(b"a").value == b"v"
        assert entry.state.lookup(b"b").value == b"w"
        assert entry.state.lookup(b"c").value == b"z"

    def test_fetch_of_a_delta_only_page_reads_its_base_only(self, rig):
        """Resident deltas that cover every flushed delta (here: none
        on flash) need only the base image: one I/O."""
        __, table, store, cache = rig
        entry = make_page(table, cache, [Record(b"a", b"v")])
        cache.evict(entry)        # one full image, no delta images
        store.flush()
        state = DataPageState(entry.page_id, base=None, deltas=[])
        state.base_flushed = True
        entry.state = state
        cache.register(entry)
        cache.touch(entry, grown_bytes=state.prepend_delta(
            up(b"b", b"w", ts=1)))
        assert cache.fetch(entry) == 1
        assert entry.state.lookup(b"a").value == b"v"
        assert entry.state.lookup(b"b").value == b"w"


class TestCapacity:
    def test_ensure_capacity_evicts_lru_first(self, machine):
        table = MappingTable()
        store = LogStructuredStore(machine, segment_bytes=1 << 14)
        cache = PageCache(machine, table, store, capacity_bytes=1200)
        entries = []
        for index in range(4):
            entry = table.allocate()
            entry.state.install_base(
                [Record(b"k%d" % index, b"v" * 300)]
            )
            cache.register(entry)
            entries.append(entry)
        cache.touch(entries[0])   # make page 0 most recently used
        cache.ensure_capacity()
        assert cache.resident_bytes <= 1200
        assert entries[0].state is not None      # MRU survived
        assert entries[1].state is None          # LRU went first

    def test_protected_page_never_evicted(self, machine):
        table = MappingTable()
        store = LogStructuredStore(machine, segment_bytes=1 << 14)
        cache = PageCache(machine, table, store, capacity_bytes=400)
        protected = table.allocate()
        protected.state.install_base([Record(b"a", b"v" * 300)])
        cache.register(protected)
        other = table.allocate()
        other.state.install_base([Record(b"b", b"v" * 300)])
        cache.register(other)
        cache.ensure_capacity(protect={protected.page_id})
        assert protected.state is not None

    def test_unlimited_capacity_never_evicts(self, rig):
        __, table, __s, cache = rig
        for index in range(10):
            entry = table.allocate()
            entry.state.install_base([Record(b"k%d" % index, b"v" * 500)])
            cache.register(entry)
        assert cache.ensure_capacity() == 0
        assert cache.resident_pages == 10


class TestTiPolicy:
    def test_evict_idle_pages_by_interval(self, machine):
        table = MappingTable()
        store = LogStructuredStore(machine, segment_bytes=1 << 14)
        cache = PageCache(machine, table, store)
        old = table.allocate()
        old.state.install_base([Record(b"a", b"v")])
        cache.register(old)
        machine.clock.advance(100.0)
        fresh = table.allocate()
        fresh.state.install_base([Record(b"b", b"v")])
        cache.register(fresh)
        evicted = cache.evict_idle_pages()
        assert evicted == 1
        assert old.state is None
        assert fresh.state is not None


class TestDemoteNotDrop:
    """Eviction demotes flushed victims into middle tiers, fetch promotes."""

    def make_tiered(self, machine, **cache_kwargs):
        table = MappingTable()
        store = LogStructuredStore(machine, segment_bytes=1 << 14)
        cache = PageCache(machine, table, store, demote_to_tiers=True,
                          **cache_kwargs)
        return table, store, cache

    def warm_page(self, machine, table, cache, key=b"a"):
        """A registered, flushed page with a finite observed interval."""
        entry = make_page(table, cache, [Record(key, b"v" * 64)])
        cache.flush_page(entry)
        machine.clock.advance(10.0)
        cache.touch(entry)
        return entry

    def test_target_tier_thresholds(self, machine):
        table, __, cache = self.make_tiered(machine)
        tiers = cache.tiers
        cxl = tiers.hierarchy.get("cxl-far-memory")
        home = tiers.hierarchy.home
        breakeven = tier_pair_breakeven(cxl, home)
        assert tiers.target_tier(breakeven * 0.5) is cxl
        assert tiers.target_tier(breakeven) is cxl
        assert tiers.target_tier(breakeven * 1.01) is None
        assert tiers.target_tier(float("inf")) is None

    def test_evict_demotes_instead_of_dropping(self, machine):
        table, __, cache = self.make_tiered(machine)
        entry = self.warm_page(machine, table, cache)
        dram_before = machine.dram.bytes_for("page_cache")
        assert dram_before > 0
        cache.evict(entry)
        assert entry.state is None
        assert machine.dram.bytes_for("page_cache") == 0
        assert cache.stats.demotions == 1
        assert cache.tiers.holds(entry.page_id)
        assert cache.tiers.resident_bytes > 0
        assert cache.tiers.parked_pages("cxl-far-memory") == 1

    def test_cold_victim_still_drops(self, machine):
        """Past the tier breakeven even far memory's rent loses."""
        table, __, cache = self.make_tiered(machine)
        entry = make_page(table, cache, [Record(b"a", b"v" * 64)])
        cache.flush_page(entry)
        machine.clock.advance(1e7)
        cache.evict(entry)
        assert cache.stats.demotions == 0
        assert not cache.tiers.holds(entry.page_id)

    def test_fetch_promotes_with_zero_ios(self, machine):
        table, __, cache = self.make_tiered(machine)
        entry = self.warm_page(machine, table, cache)
        records = list(entry.state.base)
        cache.evict(entry)
        ios = cache.fetch(entry)
        assert ios == 0
        assert cache.stats.promotions == 1
        assert list(entry.state.base) == records
        assert not cache.tiers.holds(entry.page_id)
        assert cache.is_tracked(entry.page_id)
        assert machine.dram.bytes_for("page_cache") == entry.resident_bytes

    def test_blind_update_invalidates_parked_copy(self, machine):
        """A delta posted after the demote makes the copy stale: it is
        discarded, never merged, and the fetch pays real I/Os."""
        table, store, cache = self.make_tiered(machine)
        entry = self.warm_page(machine, table, cache)
        cache.evict(entry)
        store.flush()
        state = DataPageState(entry.page_id, base=None)
        state.base_flushed = True
        state.prepend_delta(up(b"a", b"new"))
        entry.state = state
        cache.register(entry)
        ios = cache.fetch(entry)
        assert ios >= 1
        assert not cache.tiers.holds(entry.page_id)   # discarded
        assert cache.stats.promotions == 0
        assert entry.state.lookup(b"a").value == b"new"

    def test_chain_change_invalidates_parked_copy(self, machine):
        """A GC-style relocation of the flash chain voids the snapshot."""
        table, store, cache = self.make_tiered(machine)
        entry = self.warm_page(machine, table, cache)
        cache.evict(entry)
        relocated = store.append(
            PageImage("full", entry.page_id,
                      records=(Record(b"a", b"moved"),))
        )
        entry.flash_chain = [relocated]
        store.flush()
        ios = cache.fetch(entry)
        assert ios >= 1
        assert not cache.tiers.holds(entry.page_id)   # discarded
        assert cache.stats.promotions == 0
        assert entry.state.lookup(b"a").value == b"moved"

    def test_tier_budget_fifo_overflow(self, machine):
        table, __, cache = self.make_tiered(
            machine, demote_budget_bytes=150)
        first = self.warm_page(machine, table, cache, key=b"a")
        second = self.warm_page(machine, table, cache, key=b"b")
        cache.evict(first)
        cache.evict(second)
        assert cache.stats.demotions == 2
        assert not cache.tiers.holds(first.page_id)
        assert cache.tiers.holds(second.page_id)
        assert cache.tiers.resident_bytes <= 150

    def test_discard_drops_parked_copy(self, machine):
        table, store, cache = self.make_tiered(machine)
        entry = self.warm_page(machine, table, cache)
        cache.evict(entry)
        store.flush()
        cache.tiers.discard(entry.page_id)
        assert not cache.tiers.holds(entry.page_id)
        assert cache.tiers.resident_bytes == 0
        ios = cache.fetch(entry)
        assert ios >= 1

    def test_nonpositive_budget_rejected(self, machine):
        table = MappingTable()
        store = LogStructuredStore(machine, segment_bytes=1 << 14)
        with pytest.raises(ValueError, match="budget"):
            PageCache(machine, table, store, demote_to_tiers=True,
                      demote_budget_bytes=0)

    def test_demote_charges_tier_copy_cpu(self, machine):
        table, __, cache = self.make_tiered(machine)
        entry = self.warm_page(machine, table, cache)
        before = machine.cpu.counters.get("cpu_us.tier_cache")
        cache.evict(entry)
        assert machine.cpu.counters.get("cpu_us.tier_cache") > before
