"""Record store: arenas, epoch GC with relocation, dirty pinning, costs."""

import pytest

from repro.deuteronomy import RecordStore
from repro.deuteronomy.record_cache import RECORD_HEADER_BYTES
from repro.hardware import Machine


@pytest.fixture
def store(machine: Machine) -> RecordStore:
    # ~8 records of (32 + 4 + 64) bytes per arena, 4 arenas of budget.
    return RecordStore(machine, budget_bytes=3200, arena_bytes=800)


def _key(index: int) -> bytes:
    return b"k%03d" % index


def test_append_then_hit(store):
    assert store.append_record(b"k", b"v")
    hit, value = store.lookup(b"k")
    assert hit and value == b"v"
    assert store.hits == 1 and store.misses == 0


def test_miss_counted(store):
    hit, value = store.lookup(b"nope")
    assert not hit and value is None
    assert store.misses == 1


def test_tombstone_hit_is_a_hit(store):
    """A cached ``None`` means "known deleted" — a hit returning None."""
    assert store.append_record(b"gone", None)
    hit, value = store.lookup(b"gone")
    assert hit and value is None
    assert store.hits == 1


def test_overwrite_marks_old_image_dead(store):
    store.append_record(b"k", b"v1")
    store.append_record(b"k", b"v2")
    assert len(store) == 1
    assert store.lookup(b"k")[1] == b"v2"
    # Log-structured heap: the superseded image stays resident (physical)
    # but is no longer live.
    assert store.physical_bytes > store.live_bytes


def test_arena_seals_when_full(store):
    for index in range(10):
        store.append_record(_key(index), b"v" * 64)
    assert store.epoch >= 1   # one epoch per sealed arena


def test_gc_keeps_heap_under_budget_and_evicts_cold(store):
    for index in range(60):
        store.append_record(_key(index), b"v" * 64)
    assert len(store) < 60
    assert store.physical_bytes <= store.budget_bytes
    # Newest record survives, oldest cold record was evicted.
    assert store.lookup(_key(59))[0]
    assert not store.lookup(_key(0))[0]


def test_referenced_records_get_a_second_chance(store):
    store.append_record(_key(0), b"v" * 64)
    store.lookup(_key(0))    # sets the referenced bit
    for index in range(1, 60):
        store.append_record(_key(index), b"v" * 64)
    # The referenced record was relocated (at least once) instead of
    # being dropped with its arena.
    assert store.gc_relocations >= 1


def test_dirty_records_survive_gc_until_drained(store):
    assert store.append_record(b"hot", b"d" * 64, dirty=True)
    for index in range(60):
        store.append_record(_key(index), b"v" * 64)
    hit, value = store.lookup(b"hot")
    assert hit and value == b"d" * 64
    drained = []
    store.drain_dirty(drained.extend)
    assert (b"hot", b"d" * 64) in drained
    assert store.dirty_bytes == 0


def test_drain_is_last_wins(store):
    store.append_record(b"k", b"v1", dirty=True)
    store.append_record(b"k", b"v2", dirty=True)
    drained = []
    store.drain_dirty(drained.extend)
    assert drained == [(b"k", b"v2")]


def test_oversized_record_rejected(store):
    assert not store.append_record(b"big", b"x" * 2048)
    assert len(store) == 0
    assert not store.lookup(b"big")[0]


def test_invalidate(store):
    store.append_record(b"k", b"v")
    store.invalidate(b"k")
    assert not store.lookup(b"k")[0]
    store.invalidate(b"never-there")   # silent


def test_record_bytes_include_header(store):
    store.append_record(b"kk", b"vvv")
    assert store.physical_bytes == RECORD_HEADER_BYTES + 2 + 3


def test_latched_mode_costs_more(machine):
    """The latched heap pays acquire+convoy where latch-free pays
    epoch-protect+CAS — per-op core-us must be strictly higher."""
    def run(mode: str) -> float:
        machine = Machine.paper_default(cores=1)
        store = RecordStore(machine, budget_bytes=3200, arena_bytes=800,
                            concurrency_mode=mode)
        before = machine.cpu.busy_us
        for index in range(40):
            store.append_record(_key(index), b"v" * 64)
            store.lookup(_key(index))
        return machine.cpu.busy_us - before

    assert run("latched") > run("latch_free")


def test_validation(machine):
    with pytest.raises(ValueError):
        RecordStore(machine, budget_bytes=0)
    with pytest.raises(ValueError):
        RecordStore(machine, budget_bytes=100, arena_bytes=200)
    with pytest.raises(ValueError):
        RecordStore(machine, budget_bytes=3200, arena_bytes=800,
                    concurrency_mode="lock_free")


class TestEngineFastPath:
    """Blind-write fast path: commits park deltas in the record heap and
    the DC absorbs them lazily (drain threshold or checkpoint)."""

    def _engine(self, **overrides):
        from repro.deuteronomy import DeuteronomyEngine, TcConfig
        machine = Machine.paper_default(cores=1)
        config = dict(
            record_cache=True,
            record_cache_bytes=64 << 10,
            record_arena_bytes=4 << 10,
            record_dirty_flush_bytes=16 << 10,
        )
        config.update(overrides)
        return DeuteronomyEngine(machine, tc_config=TcConfig(**config))

    def test_commit_defers_dc_materialization(self):
        engine = self._engine()
        engine.put(b"k", b"v" * 32)
        # The delta is committed (read-visible) but no page was built.
        assert engine.get(b"k") == b"v" * 32
        assert engine.dc.get(b"k") is None
        engine.checkpoint()
        assert engine.dc.get(b"k") == b"v" * 32

    def test_dirty_threshold_drains_to_dc(self):
        engine = self._engine(record_dirty_flush_bytes=1 << 10)
        for index in range(40):
            engine.put(b"k%03d" % index, b"v" * 64)
        assert engine.dc.counters.get("bwtree.blind_batches") >= 1
        assert engine.tc.records.dirty_bytes < 1 << 10

    def test_drain_threshold_must_sit_under_the_heap(self):
        """Dirty records are pinned: a threshold at or above the heap
        budget lets the heap outgrow it (4 KiB heap, 64 KiB threshold:
        400 puts once ended at 10x the budget), so the config is refused."""
        from repro.deuteronomy import TcConfig
        with pytest.raises(ValueError, match="record_dirty_flush_bytes"):
            TcConfig(record_cache=True, record_cache_bytes=4 << 10,
                     record_arena_bytes=1 << 10,
                     record_dirty_flush_bytes=64 << 10)
        TcConfig(record_cache_bytes=4 << 10,
                 record_dirty_flush_bytes=64 << 10)   # heap off: unused
        engine = self._engine(record_cache_bytes=4 << 10,
                              record_arena_bytes=1 << 10,
                              record_dirty_flush_bytes=3 << 10)
        for index in range(400):
            engine.put(b"k%04d" % index, b"v" * 64)
        assert engine.stats()["record_heap_bytes"] <= 4 << 10

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_a_drain_threshold_that_is_always_met_is_refused(self,
                                                              threshold):
        """Any dirty-byte count meets a threshold <= 0, so every cached
        get drained an empty heap: the record-heap hit below billed 1.69
        core-us instead of 0.65 (an ``op_dispatch`` and an empty drain
        each time) while no drain posted a record.  The
        config is refused."""
        from repro.deuteronomy import TcConfig
        with pytest.raises(ValueError, match="record_dirty_flush_bytes"):
            TcConfig(record_cache=True, record_dirty_flush_bytes=threshold)
        with pytest.raises(ValueError, match="record_dirty_flush_bytes"):
            TcConfig(record_dirty_flush_bytes=threshold)
        engine = self._engine(record_dirty_flush_bytes=1)
        engine.put(b"k", b"v" * 32)
        engine.checkpoint()
        assert engine.get(b"k") == b"v" * 32
        busy = engine.machine.cpu.busy_us
        assert engine.get(b"k") == b"v" * 32     # a record-heap hit
        assert engine.machine.cpu.busy_us - busy < 1.0

    def test_deletes_ride_the_fast_path(self):
        engine = self._engine()
        engine.put(b"k", b"v")
        engine.checkpoint()
        engine.delete(b"k")
        assert engine.get(b"k") is None
        # The tombstone is parked: the DC still has the old value.
        assert engine.dc.get(b"k") == b"v"
        engine.checkpoint()
        assert engine.dc.get(b"k") is None

    def test_stats_expose_record_cache_keys(self):
        engine = self._engine()
        engine.put(b"k", b"v")
        # A DC read populates the heap (here: a cached negative result);
        # the second probe is a record-heap hit.  Written keys are
        # usually served earlier, by the retained-log version store.
        engine.get(b"nope")
        engine.get(b"nope")
        stats = engine.stats()
        assert stats["record_cache_hits"] >= 1
        assert stats["record_heap_bytes"] > 0
        assert "record_cache_gc_relocations" in stats

    def test_stats_keys_present_when_feature_off(self):
        from repro.deuteronomy import DeuteronomyEngine
        machine = Machine.paper_default(cores=1)
        engine = DeuteronomyEngine(machine)
        stats = engine.stats()
        assert stats["record_cache_hits"] == 0
        assert stats["record_cache_gc_relocations"] == 0
        assert stats["record_heap_bytes"] == 0
