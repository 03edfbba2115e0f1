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

from repro.storage import PageCache, TierCache

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
            if entry.state.base is None:
                self._drop_delta_only(entry)
            else:
                self.evict(entry)
            evicted += 1
        return evicted


class IgnoringProtectPageCache(PageCache):
    """``PageCache.ensure_capacity``'s LRU walk without its ``protect``
    check: a miss can evict the page it has just fetched."""

    def ensure_capacity(self, protect=None):
        evicted = 0
        while self.resident_bytes > self.capacity_bytes:
            entry = self.mapping_table.by_id[next(iter(self._resident))]
            if entry.state.base is None:
                self._drop_delta_only(entry)
            else:
                self.evict(entry)
            evicted += 1
        return evicted


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


def test_sequences_reach_every_way_in_and_out_of_the_cache(monkeypatch):
    """What the comparison above is worth: the seeded steps evict whole
    and delta-only pages, demote, promote, relocate and recover."""
    shape = Shape(demote_to_tiers=True, capacity_bytes=1500)
    drop_delta_only = PageCache._drop_delta_only
    reached = collections.Counter()

    def counting_drop(cache, entry):
        reached["delta_only_drops"] += 1
        return drop_delta_only(cache, entry)

    monkeypatch.setattr(PageCache, "_drop_delta_only", counting_drop)
    promote = TierCache.promote

    def counting_promote(tiers, entry):
        held = tiers.holds(entry.page_id)
        state = promote(tiers, entry)
        if held and state is None:
            reached["stale_tier_copies"] += 1
        return state

    monkeypatch.setattr(TierCache, "promote", counting_promote)
    for seed in range(4):
        tree = make_tree(shape)
        for step in make_steps(seed):
            tree = apply_step(tree, step)
        stats = tree.cache.stats
        reached.update(
            evictions=stats.evictions,
            demotions=stats.demotions,
            promotions=stats.promotions,
            delta_flushes=stats.flushes_delta,
            relocated_bytes=tree.gc.stats.bytes_relocated,
        )
    assert all(reached.values()), reached


def test_ignoring_protect_is_caught():
    """Under a budget smaller than one page, a walk that ignores
    ``protect`` evicts the page a blind post or a miss is working on
    once every other page is gone; the oracle sees that eviction."""
    shape = Shape(demote_to_tiers=False, capacity_bytes=600)
    with pytest.raises(AssertionError, match=r"^\(\d+, \("):
        assert_same_run(IgnoringProtectPageCache, shape, seed=0)
