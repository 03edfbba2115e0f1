"""Page byte totals are maintained incrementally, never re-summed.

``DataPageState`` keeps its base/delta byte totals up to date in its
constructor and mutation methods, which makes ``PageCache.resize`` O(1)
per posted delta; ``PageCache`` keeps a running total of resident bytes
and a fetched ``PageImage`` brings its own size, which makes a miss
O(1) in the number of resident pages and of records sized.  These
tests pin the totals to a from-scratch recomputation, the no-re-sum
property as call counts, and the rules that keep the totals from going
stale: nobody outside ``pages.py`` writes ``base`` or ``deltas``, and
only ``DataPageState.full_image`` hands ``PageImage`` a size.
"""

from __future__ import annotations

import ast
import collections
import os
import re

import hypothesis.strategies as st
from hypothesis import given, settings

import repro
from repro.analysis.runner import collect_python_files, load_sources
from repro.bwtree import BwTree, BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.hardware import Machine
from repro.storage import (
    PAGE_HEADER_BYTES,
    DataPageState,
    PageCache,
    PageImage,
    Record,
    TierCache,
    delta_size_bytes,
)
from repro.storage.cache import DRAM_TAG
from repro.storage.checkpoint import (
    CHECKPOINT_ADDR_BYTES,
    CHECKPOINT_HEADER_BYTES,
    CHECKPOINT_PAGE_BYTES,
    CheckpointImage,
)
from repro.storage.pages import delta_image_size_bytes, full_image_size_bytes
from repro.workloads import OpKind, WorkloadGenerator, WorkloadSpec

from ..frames import count_calls
from .sequences import SEEDS, SHAPES, Shape, apply_step, make_steps, make_tree

KEYS = st.sampled_from([b"a", b"bb", b"ccc", b"dddd", b"eeeee"])
VALUES = st.binary(max_size=20)
RECORDS = st.dictionaries(KEYS, VALUES, max_size=5).map(
    lambda items: [Record(key, items[key]) for key in sorted(items)])
PAGE_OPS = st.lists(st.one_of(
    st.tuples(st.just("upsert"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("consolidate")),
    st.tuples(st.just("drop_base")),
    st.tuples(st.just("install_base"), RECORDS),
    st.tuples(st.just("replace_base"), RECORDS),
    st.tuples(st.just("rebuild"), RECORDS),
), max_size=40)


def assert_sizes_match_recomputation(state: DataPageState) -> None:
    base = 0 if state.base is None else (
        PAGE_HEADER_BYTES + sum(r.size_bytes for r in state.base))
    deltas = sum(map(delta_size_bytes, state.deltas))
    assert state.base_size_bytes == base
    assert state.delta_size_bytes == deltas
    assert state.resident_size_bytes == base + deltas
    if state.base is not None:
        assert state.full_image().size_bytes == base


@settings(max_examples=200, deadline=None)
@given(ops=PAGE_OPS)
def test_sizes_equal_recomputation_after_every_mutation(ops):
    state = DataPageState(1)
    for op in ops:
        if op[0] == "upsert":
            state.prepend_delta(Record(op[1], op[2]))
        elif op[0] == "delete":
            state.prepend_delta(Record(op[1], None))
        elif op[0] == "consolidate":
            if state.base is not None:
                assert state.consolidate() == state.base_size_bytes
        elif op[0] == "drop_base":
            before = state.base_size_bytes
            assert state.drop_base() == before
        elif op[0] == "install_base":
            assert state.install_base(op[1]) == state.base_size_bytes
        elif op[0] == "replace_base":
            assert state.replace_base(op[1]) == state.base_size_bytes
        else:
            # What a full-chain fetch does: a new state around a fetched
            # base and the merged delta list.
            state = DataPageState(1, base=op[1], deltas=list(state.deltas))
        assert_sizes_match_recomputation(state)


def test_prepend_delta_never_sizes_the_base(monkeypatch):
    """Complexity guard as a call count: posting a delta to a
    1,000-record page sizes the delta, not the page."""
    state = DataPageState(7, base=[
        Record(b"key%06d" % index, b"v" * 50) for index in range(1000)
    ])
    calls = []
    record_size = Record.size_bytes.fget
    monkeypatch.setattr(
        Record, "size_bytes",
        property(lambda self: calls.append(1) or record_size(self)))
    before = state.resident_size_bytes
    delta = Record(b"key000500", b"new")
    state.prepend_delta(delta)
    assert state.resident_size_bytes == before + delta_size_bytes(delta)
    assert calls == []


class CountingResident(collections.OrderedDict):
    """A ``PageCache._resident`` that counts the ids iteration hands out
    (C-level copies such as ``list(resident)`` included)."""

    handed_out = 0

    def __iter__(self):
        for page_id in super().__iter__():
            self.handed_out += 1
            yield page_id


def calls_of_one_miss(resident_pages: int) -> collections.Counter:
    """A full cache of ``resident_pages`` clean, equal-sized pages, then
    one fetch that has to push the LRU page out."""
    tree = BwTree(Machine.paper_default(cores=1),
                  BwTreeConfig(max_page_bytes=512))
    tree.bulk_load((b"key%06d" % index, b"v" * 40)
                   for index in range(5 * (resident_pages + 3)))
    tree.checkpoint()
    cache, table = tree.cache, tree.mapping_table
    leaves = tree.leaf_page_ids()
    assert len(leaves) == resident_pages + 3
    # Out go the short last page, one more, and the page to be missed.
    cold = table.get(leaves[len(leaves) // 2])
    for page_id in (leaves[-1], leaves[-2], cold.page_id):
        cache.evict(table.get(page_id))
    assert cache.resident_pages == resident_pages
    cache.capacity_bytes = cache.resident_bytes
    cache._resident = CountingResident(cache._resident)
    before = (cache.stats.fetches, cache.stats.evictions)

    def miss() -> None:
        cache.fetch(cold)
        cache.ensure_capacity(protect={cold.page_id})

    calls = count_calls(miss)
    assert (cache.stats.fetches, cache.stats.evictions) == (
        before[0] + 1, before[1] + 1)
    assert cache.resident_pages == resident_pages
    # The victim walk looked at the LRU page and nothing else.
    assert cache._resident.handed_out == 1
    return calls


def test_a_miss_costs_the_same_calls_whatever_the_cache_holds():
    """Complexity guard as call counts: a miss with 2,048 resident pages
    enters exactly the functions a miss with 64 does, never ``sum`` (the
    resident-byte total is a running one) and never
    ``full_image_size_bytes`` (the fetched image carries its size)."""
    small, large = calls_of_one_miss(64), calls_of_one_miss(2048)
    assert small == large
    assert small["cache.fetch"] == small["cache.evict"] == 1
    assert "builtins.sum" not in large
    assert "pages.full_image_size_bytes" not in large


def test_only_pages_module_writes_base_and_deltas():
    """The cached totals cannot go stale while ``DataPageState`` is the
    sole writer of ``base``/``deltas``: no other module assigns them or
    mutates the lists in place."""
    write = re.compile(
        r"\.(?:base|deltas)\s*(?:[-+*|&]?=(?!=)"
        r"|\.(?:append|extend|insert|pop|remove|clear|sort|reverse)\()"
        r"|\bdel\s+[\w.]+\.(?:base|deltas)\b")
    package = os.path.dirname(repro.__file__)
    offenders = []
    for source in load_sources(collect_python_files([package])):
        path = os.path.relpath(source.path, package)
        if path == os.path.join("storage", "pages.py"):
            continue
        for number, line in enumerate(source.text.splitlines(), 1):
            code = line.split("#", 1)[0]
            # ``self.base = OperationCostModel(...)`` in core/technology
            # is a cost model attribute, not a page state.
            if write.search(code) and "OperationCostModel" not in code:
                offenders.append(f"{path}:{number}: {line.strip()}")
    assert offenders == []


def assert_residency_reconciles(tree: BwTree) -> int:
    """The views of page-cache bytes agree with each other and with a
    from-scratch recomputation of every resident page; returns how many
    of those pages are delta-only."""
    cache = tree.cache
    tracked = [entry for entry in tree.mapping_table.entries()
               if cache.is_tracked(entry.page_id)]
    assert len(tracked) == cache.resident_pages
    assert (cache.resident_bytes
            == sum(cache._resident.values())
            == sum(entry.resident_bytes for entry in tracked)
            == tree.mapping_table.resident_bytes()
            == tree.machine.dram.bytes_for(DRAM_TAG))
    for entry in tracked:
        assert_sizes_match_recomputation(entry.state)
    return sum(entry.state.base is None for entry in tracked)


def test_cache_accounting_reconciles_through_eviction_gc_and_recovery():
    """Seeded YCSB-A over a cache a fraction of the data (blind updates
    to evicted pages leave delta-only pages), with checkpoints, segment
    GC and a crash: the three views of page-cache bytes agree."""
    spec = WorkloadSpec.ycsb_a(record_count=1500, seed=5)
    generator = WorkloadGenerator(spec)
    engine = DeuteronomyEngine(
        Machine.paper_default(cores=1),
        tree_config=BwTreeConfig(
            cache_capacity_bytes=48 * 1024, segment_bytes=1 << 15),
        tc_config=TcConfig(sync_commit=True, version_gc_horizon_lag=64),
    )
    engine.apply_batch(("put", key, value)
                       for key, value in generator.load_items())
    assert engine.tc.log.appended_records == spec.record_count
    engine.checkpoint()
    assert_residency_reconciles(engine.dc)
    operations = list(generator.operations(6000))
    delta_only = 0
    for start in range(0, len(operations), 500):
        for op in operations[start:start + 500]:
            if op.kind is OpKind.READ:
                engine.get(op.key)
            else:
                engine.put(op.key, op.value)
        delta_only += assert_residency_reconciles(engine.dc)
        if start == 2000:
            engine.checkpoint()
            engine.collect_garbage()
            assert_residency_reconciles(engine.dc)
        if start == 4000:
            before_crash = engine.dc.cache.stats
            assert before_crash.evictions > 0
            engine.checkpoint()
            engine = DeuteronomyEngine.recover(engine)
            assert_residency_reconciles(engine.dc)
    assert engine.dc.cache.stats.evictions > 0
    assert delta_only > 0


def assert_stored_images_carry_their_true_size(tree: BwTree) -> None:
    """Every page image, and the checkpoint image ``write_checkpoint``
    sized in its one pass, carries the size its payload recomputes to."""
    store = tree.store
    images = [image for segment in store._payloads.values()
              for image in segment.values()]
    for image in (*images, *store._open_buffer.values()):
        if isinstance(image, PageImage):
            expected = (full_image_size_bytes(image.records)
                        if image.kind == "full"
                        else delta_image_size_bytes(image.deltas))
        else:
            assert isinstance(image, CheckpointImage)
            expected = (CHECKPOINT_HEADER_BYTES
                        + CHECKPOINT_PAGE_BYTES * len(image.page_chains)
                        + CHECKPOINT_ADDR_BYTES * sum(
                            len(chain) for __, chain, __ in image.page_chains))
        assert image.size_bytes == expected


@settings(max_examples=20, deadline=None)
@given(shape=SHAPES, seed=SEEDS)
def test_running_totals_equal_recomputation_after_every_step(shape, seed):
    """``resident_bytes`` is a running total written by ``register``,
    ``resize``, ``touch`` (a blind post's known growth) and ``_untrack``
    only; whatever a step does — fetch, eviction with retained deltas,
    tier promote, the idle sweep, crash and recovery — it equals the
    sum it replaced.  ``fetch`` trusts ``PageImage.size_bytes`` the same
    way: after splits, consolidations, delta flushes, checkpoints and GC
    relocation every image on flash or in the open buffer still carries
    the size a re-sum of its payload gives."""
    tree = make_tree(shape)
    for step in make_steps(seed):
        tree = apply_step(tree, step)
        assert_residency_reconciles(tree)
        if step[0] in ("checkpoint", "gc", "crash"):
            assert_stored_images_carry_their_true_size(tree)
        if step[0] == "crash":
            # Recovery restores chains, not pages: the new cache is empty.
            assert tree.cache.resident_bytes == 0
            assert tree.cache.resident_pages == 0


def test_sequences_reach_every_way_in_and_out_of_the_cache(monkeypatch):
    """What the property above is worth: the seeded steps evict whole
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


def test_only_full_image_hands_page_image_a_size():
    """An explicit ``size_bytes`` is taken on trust, so exactly one
    builder may pass it: ``DataPageState.full_image``, whose total is
    pinned to a recomputation above."""
    package = os.path.dirname(repro.__file__)
    sized = []
    for source in load_sources(collect_python_files([package])):
        if "PageImage(" not in source.text:
            continue
        for call in ast.walk(source.tree):
            if (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "PageImage"
                    and (len(call.args) > 4 or any(
                        keyword.arg in ("size_bytes", None)
                        for keyword in call.keywords))):
                inside = [node.name for node in ast.walk(source.tree)
                          if isinstance(node, ast.FunctionDef)
                          and node.lineno <= call.lineno <= node.end_lineno]
                sized.append((os.path.relpath(source.path, package), inside))
    assert sized == [("storage/pages.py", ["full_image"])]
