"""The LRU victim walk inside ``ensure_capacity`` against the walk it
replaced.

``ReferencePageCache`` keeps the retired ``ensure_capacity`` verbatim —
it pulled ids from a ``_victims`` generator — with that generator's LRU
arm in its first form, which copied every resident id with
``list(self._resident)`` on each call.  Two trees are driven through the
same seeded steps and compared with ``==``: a host-side optimization
must evict the same pages in the same order and leave every virtual
number where it was.  Victims are logged from the evictions themselves
(``evict`` and ``_drop_delta_only``), one ``"call"`` mark per
``ensure_capacity``, so the log sees whatever walk a cache runs.
"""

import collections
import dataclasses

import pytest
from hypothesis import given, settings

from repro.hardware import Machine
from repro.storage import (
    LogStructuredStore,
    MappingTable,
    PageCache,
    Record,
)

from .sequences import SEEDS, SHAPES, Shape, apply_step, make_steps, make_tree


class ReferencePageCache(PageCache):
    """``PageCache`` with the retired ``ensure_capacity`` and the
    snapshotting LRU arm of its ``_victims``."""

    def _victims(self, protect):
        for pid in list(self._resident):
            if pid not in protect:
                yield pid

    def ensure_capacity(self, protect=None):
        """Evict victims until the byte budget is met; returns evictions."""
        if self.capacity_bytes is None:
            return 0
        protect = protect if protect is not None else set()
        evicted = 0
        # Pull victims only while over budget.
        victims = iter(self._victims(protect))
        while self.resident_bytes > self.capacity_bytes:
            pid = next(victims, None)
            if pid is None:
                break
            entry = self.mapping_table.get(pid)
            if entry.state is None:
                continue
            # Record-cache retention may leave deltas resident; if we are
            # still over budget those delta-only pages are next in line and
            # get dropped entirely on a second pass.
            if not entry.state.base_present:
                self._drop_delta_only(entry)
            else:
                self.evict(entry)
            evicted += 1
        return evicted


def mutant_walk(cache, protect, honour_protect=True, skip_offered=True):
    """``PageCache.ensure_capacity``'s LRU walk, with one rule switchable
    off: skipping protected pages, or skipping a page already offered."""
    if cache.capacity_bytes is None:
        return 0
    protect = protect if protect is not None else set()
    evicted = 0
    resident = cache._resident
    offered = set()
    while cache.resident_bytes > cache.capacity_bytes:
        for pid in resident:
            if ((not honour_protect or pid not in protect)
                    and (not skip_offered or pid not in offered)):
                break
        else:
            break
        offered.add(pid)
        entry = cache.mapping_table.by_id[pid]
        state = entry.state
        if state is None:
            if not skip_offered:
                break   # the only page left would be offered forever
            continue
        if state.base is None:
            cache._drop_delta_only(entry)
        else:
            cache.evict(entry)
        evicted += 1
    return evicted


class IgnoringProtectPageCache(PageCache):
    """The inline walk without its ``protect`` check: a miss can evict
    the page it has just fetched."""

    def ensure_capacity(self, protect=None):
        return mutant_walk(self, protect, honour_protect=False)


class ReofferingPageCache(PageCache):
    """The inline walk without its ``offered`` check, which always
    offers the front: a page the walk kept resident (record-cache
    retention) stays at the front and is offered again in the same
    call, where its deltas are dropped too."""

    def ensure_capacity(self, protect=None):
        return mutant_walk(self, protect, skip_offered=False)


def log_victims(cache):
    """Record every page ``cache`` evicts or drops, after a ``"call"``
    mark for each ``ensure_capacity`` call."""
    log = []
    ensure_capacity = cache.ensure_capacity
    evict = cache.evict
    drop_delta_only = cache._drop_delta_only

    def logged_ensure_capacity(protect=None):
        log.append("call")
        return ensure_capacity(protect)

    def logged_evict(entry):
        log.append(entry.page_id)
        return evict(entry)

    def logged_drop_delta_only(entry):
        log.append(entry.page_id)
        return drop_delta_only(entry)

    cache.ensure_capacity = logged_ensure_capacity
    cache.evict = logged_evict
    cache._drop_delta_only = logged_drop_delta_only
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


def test_sequences_reach_every_way_in_and_out_of_the_cache():
    """What the comparison above is worth: the seeded steps evict, retain
    deltas, demote, promote, merge pages away, relocate and recover."""
    shape = Shape(record_cache=True, demote_to_tiers=True,
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
    shape = Shape(record_cache=True, demote_to_tiers=False,
                  capacity_bytes=1500)
    with pytest.raises(AssertionError, match=r"^\(\d+, \("):
        assert_same_run(ReofferingPageCache, shape, seed=0)


def test_ignoring_protect_is_caught():
    """Under a budget smaller than one page, a walk that ignores
    ``protect`` evicts the page a blind post or a miss is working on
    once every other page is gone; the oracle sees that eviction."""
    shape = Shape(record_cache=False, demote_to_tiers=False,
                  capacity_bytes=600)
    with pytest.raises(AssertionError, match=r"^\(\d+, \("):
        assert_same_run(IgnoringProtectPageCache, shape, seed=0)


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
            Record(b"k%d" % index, b"w" * 40))
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

