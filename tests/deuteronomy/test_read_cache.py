"""Read cache: FIFO eviction, budget, hit accounting."""

import pytest

from repro.deuteronomy import ReadCache
from repro.deuteronomy.engine import STATS
from repro.hardware import Machine

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
    for index in range(50):
        cache.insert(b"key%04d" % index, b"v" * 40)
    assert cache.resident_bytes <= 1024
    assert len(cache) < 50
    # Oldest gone, newest present.
    assert not cache.lookup(b"key0000")[0]
    assert cache.lookup(b"key0049")[0]


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

    Regression pin: insert used to evict FIFO to empty and then keep the
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
    """FIFO victims leave the cache for good: demote-not-drop is the
    page cache's.  The engine's ``read_cache_demotions`` /
    ``read_cache_promotions`` statistics and the e2e harness still read
    the two counters."""
    for index in range(50):
        cache.insert(bytes([index]) * 4, b"v" * 100)
    assert len(cache) < 50
    assert not cache.lookup(bytes([0]) * 4)[0]
    assert cache.demotions == cache.promotions == 0
