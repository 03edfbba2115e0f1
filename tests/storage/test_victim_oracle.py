"""The lazy LRU victim walk against the snapshot it replaced.

``ReferencePageCache`` keeps the retired generator verbatim — it copied
every resident id with ``list(self._resident)`` on each call — so two
trees can be driven through the same seeded steps and compared with
``==``: a host-side optimization must pick the same victims in the same
order and leave every virtual number where it was.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings

from repro.hardware import Machine
from repro.storage import (
    DeltaKind,
    EvictionPolicy,
    LogStructuredStore,
    MappingTable,
    PageCache,
    Record,
    RecordDelta,
)

from .sequences import SEEDS, SHAPES, Shape, apply_step, make_steps, make_tree


class ReferencePageCache(PageCache):
    """``PageCache`` with the pre-lazy ``_victims``."""

    def _victims(self, protect):
        if self.policy is EvictionPolicy.CLOCK:
            yield from self._clock_victims(protect)
            return
        for pid in list(self._resident):
            if pid not in protect:
                yield pid


class ReofferingPageCache(PageCache):
    """The obvious lazy walk, which is wrong: always offer the front.

    A page the consumer kept resident (record-cache retention) stays at
    the front and is offered again in the same call, where the consumer
    drops its deltas too.
    """

    def _victims(self, protect):
        assert self.policy is EvictionPolicy.LRU
        while True:
            pid = next(
                (pid for pid in self._resident if pid not in protect), None)
            if pid is None:
                return
            yield pid


def log_victims(cache):
    """Record every id ``cache._victims`` hands out, with call boundaries."""
    log = []
    victims = cache._victims

    def logged(protect):
        log.append("call")
        for pid in victims(protect):
            log.append(pid)
            yield pid

    cache._victims = logged
    return log


def observe(tree, log):
    machine = tree.machine
    seen = (list(log), dataclasses.astuple(tree.cache.stats),
            machine.cpu.busy_us, machine.clock.now, machine.ssd.total_ios,
            tree.cache.resident_bytes, list(tree.cache._resident.items()))
    log.clear()
    return seen


def assert_same_run(candidate_class, shape, seed):
    """Drive ``candidate_class`` and the reference through one sequence."""
    candidate = make_tree(shape, candidate_class)
    reference = make_tree(shape, ReferencePageCache)
    assert type(candidate.cache) is candidate_class
    assert type(reference.cache) is ReferencePageCache
    candidate_log = log_victims(candidate.cache)
    reference_log = log_victims(reference.cache)
    for number, step in enumerate(make_steps(seed)):
        candidate = apply_step(candidate, step, candidate_class)
        reference = apply_step(reference, step, ReferencePageCache)
        if step[0] == "crash":
            candidate_log = log_victims(candidate.cache)
            reference_log = log_victims(reference.cache)
        assert (observe(candidate, candidate_log)
                == observe(reference, reference_log)), (number, step)


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, seed=SEEDS)
def test_lazy_walk_picks_the_reference_victims(shape, seed):
    assert_same_run(PageCache, shape, seed)


@pytest.mark.parametrize("policy", list(EvictionPolicy))
def test_sequences_reach_every_way_in_and_out_of_the_cache(policy):
    """What the comparison above is worth: the seeded steps evict, retain
    deltas, demote, promote, merge pages away, relocate and recover."""
    shape = Shape(policy, record_cache=True, demote_to_tiers=True,
                  capacity_bytes=1500)
    reached = collections.Counter()
    for seed in range(4):
        tree = make_tree(shape)
        for step in make_steps(seed):
            tree = apply_step(tree, step)
        stats = tree.cache.stats
        reached.update(
            evictions=stats.evictions,
            retained=stats.record_cache_retained,
            demotions=stats.demotions,
            promotions=stats.promotions,
            stale_tier_copies=stats.stale_tier_copies,
            delta_flushes=stats.flushes_delta,
            merges=int(tree.counters.get("bwtree.leaf_merges")),
            relocations=tree.gc.stats.images_relocated,
        )
    assert all(reached.values()), reached


def test_reoffering_a_retained_page_is_caught():
    """The mutant drops a retained page's deltas in the call that
    retained them; the oracle sees the second offer."""
    shape = Shape(EvictionPolicy.LRU, record_cache=True,
                  demote_to_tiers=False, capacity_bytes=1500)
    with pytest.raises(AssertionError):
        assert_same_run(ReofferingPageCache, shape, seed=0)


def three_flushed_pages_with_a_delta(capacity_bytes):
    machine = Machine.paper_default(cores=1)
    table = MappingTable()
    cache = PageCache(
        machine, table, LogStructuredStore(machine, segment_bytes=1 << 14),
        capacity_bytes=capacity_bytes, record_cache=True)
    entries = []
    for index in range(3):
        entry = table.allocate()
        entry.state.install_base([Record(b"k%d" % index, b"v" * 400)])
        cache.register(entry)
        cache.flush_page(entry)
        entry.state.prepend_delta(
            RecordDelta(DeltaKind.UPSERT, b"k%d" % index, b"w" * 40))
        cache.resize(entry)
        entries.append(entry)
    return machine, cache, entries


def test_lru_offers_a_retained_page_once_per_call():
    """Retaining the first victim's deltas is not enough, so the walk
    moves on to the next page instead of dropping those deltas."""
    __, cache, (first, second, third) = three_flushed_pages_with_a_delta(700)
    log = log_victims(cache)
    assert cache.ensure_capacity() == 2
    assert log == ["call", first.page_id, second.page_id]
    assert cache.stats.record_cache_retained == 2
    assert not first.state.base_present and first.state.deltas
    assert not second.state.base_present and second.state.deltas
    assert third.state.base_present

