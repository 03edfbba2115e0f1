"""Read cache: CLOCK eviction over the log, budget, hit accounting."""

import pytest

from repro.deuteronomy import ReadCache
from repro.deuteronomy.engine import STATS
from repro.hardware import Machine
from repro.observability.whatif import ChargeRecorder

#: The engine's read-cache hit rate, the ``STATS`` ratio row.
HIT_RATE = {name: read for name, __, read in STATS}["read_cache_hit_rate"]


def hit_rate(cache: ReadCache) -> float:
    return HIT_RATE({"read_cache_hits": cache.hits,
                     "read_cache_misses": cache.misses})


@pytest.fixture
def cache(machine: Machine) -> ReadCache:
    return ReadCache(machine, budget_bytes=1024)


def test_insert_then_hit(cache):
    cache.insert(b"k", b"v")
    hit, value = cache.lookup(b"k")
    assert hit and value == b"v"
    assert cache.hits == 1


def test_miss_counted(cache):
    hit, value = cache.lookup(b"nope")
    assert not hit and value is None
    assert cache.misses == 1


def test_hit_rate(cache):
    cache.insert(b"k", b"v")
    cache.lookup(b"k")
    cache.lookup(b"x")
    assert hit_rate(cache) == pytest.approx(0.5)


def test_hit_rate_empty_cache_is_zero(cache):
    assert hit_rate(cache) == 0.0


def test_fifo_eviction_under_budget(cache):
    """With no hits, every bit is clear and victims leave in log order:
    the 14 newest 71-byte entries fit the 1,024-byte budget."""
    for index in range(50):
        cache.insert(b"key%04d" % index, b"v" * 40)
    assert cache.resident_bytes <= 1024
    assert list(cache.entries) == [b"key%04d" % index
                                   for index in range(36, 50)]
    assert not cache.referenced


def test_reinsert_replaces(cache):
    cache.insert(b"k", b"v1")
    cache.insert(b"k", b"v2" * 10)
    assert cache.lookup(b"k")[1] == b"v2" * 10
    assert len(cache) == 1


def test_invalidate(cache):
    cache.insert(b"k", b"v")
    cache.invalidate(b"k")
    assert not cache.lookup(b"k")[0]
    cache.invalidate(b"never-there")   # silent


def test_dram_accounted(cache, machine):
    cache.insert(b"k", b"v" * 100)
    assert machine.dram.bytes_for("tc_read_cache") == cache.resident_bytes
    cache.invalidate(b"k")
    assert machine.dram.bytes_for("tc_read_cache") == 0


def test_budget_validation(machine):
    with pytest.raises(ValueError):
        ReadCache(machine, budget_bytes=0)


def test_over_budget_insert_is_rejected(cache, machine):
    """An entry bigger than the whole budget must not wipe the cache.

    Regression pin: insert used to evict to empty and then keep the
    over-sized entry resident anyway, permanently over budget.
    """
    cache.insert(b"small", b"v" * 40)
    before_bytes = cache.resident_bytes
    busy_before = machine.cpu.busy_us
    cache.insert(b"huge", b"x" * 2048)   # budget is 1024
    # Only the admission probe was charged (one hash_probe), not a copy.
    charged = machine.cpu.busy_us - busy_before
    assert charged == pytest.approx(machine.cpu.costs.hash_probe)
    # Rejected: nothing copied, nothing evicted, prior entries intact.
    assert cache.resident_bytes == before_bytes
    assert len(cache) == 1
    assert cache.lookup(b"small")[0]
    assert not cache.lookup(b"huge")[0]
    # DRAM never saw the over-sized entry.
    assert machine.dram.bytes_for("tc_read_cache") == cache.resident_bytes


def test_victims_are_dropped_and_the_tier_counters_stay_zero(cache):
    """Dropped victims leave the cache for good: demote-not-drop is the
    page cache's.  The engine's ``read_cache_demotions`` /
    ``read_cache_promotions`` statistics and the e2e harness still read
    the two counters."""
    for index in range(50):
        cache.insert(bytes([index]) * 4, b"v" * 100)
    assert len(cache) < 50
    assert not cache.lookup(bytes([0]) * 4)[0]
    assert cache.demotions == cache.promotions == 0


#: Eight 128-byte entries fill the 1,024-byte budget exactly.
KEYS = [bytes([index]) * 4 for index in range(16)]
VALUE = b"v" * 100
ENTRY_BYTES = 128


def fill(cache: ReadCache) -> None:
    for key in KEYS[:8]:
        cache.insert(key, VALUE)
    assert cache.resident_bytes == cache.budget_bytes


def test_a_referenced_entry_survives_one_eviction_at_the_tail(cache):
    """A hit sets the head's bit; the next admit re-appends it, bit
    cleared, behind the tail and drops the entry after it.  Its second
    chance spent, it leaves when it reaches the head again."""
    fill(cache)
    cache.lookup(KEYS[0])
    assert cache.referenced == {KEYS[0]}
    cache.insert(KEYS[8], VALUE)
    assert list(cache.entries) == [*KEYS[2:8], KEYS[0], KEYS[8]]
    assert not cache.referenced
    for key in KEYS[9:15]:
        cache.insert(key, VALUE)
    assert list(cache.entries) == [KEYS[0], *KEYS[8:15]]
    cache.insert(KEYS[15], VALUE)
    assert list(cache.entries) == KEYS[8:16]


def test_a_sweep_over_every_referenced_entry_ends_after_one_lap(
        cache, machine):
    """Every bit set: the sweep re-appends all eight, bits cleared, then
    drops the old head, which has come round unreferenced."""
    fill(cache)
    for key in KEYS[:8]:
        cache.lookup(key)
    busy = machine.cpu.busy_us
    cache.insert(KEYS[8], VALUE)
    assert list(cache.entries) == [*KEYS[1:8], KEYS[8]]
    assert not cache.referenced
    costs = machine.cpu.costs
    copy = costs.copy_per_byte * ENTRY_BYTES
    assert machine.cpu.busy_us - busy == pytest.approx(
        copy + 8 * (costs.hash_probe + copy))


def test_invalidate_and_reinsert_clear_the_bit(cache):
    cache.insert(KEYS[0], VALUE)
    cache.lookup(KEYS[0])
    cache.invalidate(KEYS[0])
    assert not cache.referenced
    cache.insert(KEYS[0], VALUE)
    cache.lookup(KEYS[0])
    cache.insert(KEYS[0], b"w" * 100)
    assert not cache.referenced


def test_a_reappend_bills_one_probe_and_its_copy_and_moves_no_dram(
        cache, machine, monkeypatch):
    fill(cache)
    cache.lookup(KEYS[0])
    dram = machine.dram
    moves = []
    allocate, free = dram.allocate, dram.free
    monkeypatch.setattr(dram, "allocate", lambda nbytes, tag: (
        moves.append(("allocate", nbytes)), allocate(nbytes, tag)))
    monkeypatch.setattr(dram, "free", lambda nbytes, tag: (
        moves.append(("free", nbytes)), free(nbytes, tag)))
    recorder = ChargeRecorder()
    machine.cpu.sink = recorder
    cache.insert(KEYS[8], VALUE)
    costs = machine.cpu.costs
    copy = costs.copy_per_byte * ENTRY_BYTES
    # The admit's copy, then the re-append's probe and copy; the only
    # DRAM moves are the dropped victim's and the new entry's.
    assert recorder.events == [("tc_read_cache", copy),
                               ("tc_read_cache", costs.hash_probe),
                               ("tc_read_cache", copy)]
    assert moves == [("free", ENTRY_BYTES), ("allocate", ENTRY_BYTES)]
    assert dram.bytes_for("tc_read_cache") == cache.resident_bytes
