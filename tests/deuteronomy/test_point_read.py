"""The point read does its bookkeeping in the frames it already has."""

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.hardware import Machine
from repro.workloads import WorkloadGenerator, WorkloadSpec

from ..frames import count_calls

#: Functions a point read on a resident page must not enter: the
#: Bw-tree's per-op helpers, the mapping-table and clock accessors, the
#: machine's op-count and latency helpers, the read cache's admit
#: helper, the commit half's no-op calls, any span frame while
#: no tracer is attached (the old ``machine.trace_span`` and the
#: standard library's context-manager protocol), and ``CpuModel.charge``:
#: every charge on the path is a billed plan, one step or more.
FORBIDDEN = {"tree._begin_op", "tree._finish_read", "tree._post_op",
             "tree._descend", "tree._maybe_consolidate", "mapping_table.get",
             "clock.now", "machine.begin_operation", "machine.latency_window",
             "machine.observe_latency", "metrics.add",
             "read_cache._admit", "tc._maybe_drain_records",
             "tc._maybe_gc_versions",
             "mvcc.truncate", "machine.trace_span",
             "contextlib.__enter__", "contextlib.__exit__", "cpu.charge"}


def test_a_point_read_does_its_bookkeeping_in_the_frames_it_has():
    """Complexity guard as frame counts (Python frames whose code is in
    the ``repro`` package), on ``read_hot`` in miniature — YCSB-C data
    bulk-loaded into the DC, every page resident, the read cache warmed
    by a few thousand gets: a read-cache hit enters 9, a DC read of a
    resident page 24.  That is down from 10 and 28 while the TC's begin,
    the Bw-tree's dispatch and each descent level charged step by step
    instead of billing one plan each, from 13 and 32 while every span
    site entered ``machine.trace_span`` and a ``nullcontext``, and from
    17 and 62 before the Bw-tree lookup, the read-cache admit and the
    autocommit commit half booked their work in the frames they had.

    ``.frames`` counts only code whose file is under ``repro``, so it
    never saw the six (hit) and eight (DC read) ``contextlib`` frames
    the untraced spans cost, nor a dataclass's generated ``__init__``
    (its code's file is ``<string>``): :data:`FORBIDDEN` is checked
    against every Python frame and C call, and the generated
    ``__init__`` frames (none on a hit, two on a DC read) are pinned on
    their own."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_c(record_count=3000,
                                                      seed=42))
    engine = DeuteronomyEngine(Machine.paper_default(cores=4),
                               tc_config=TcConfig(read_cache_bytes=96 << 10))
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    for op in generator.operations(3000):
        engine.get(op.key)
    tc, cache = engine.tc, engine.dc.cache
    key = next(key for key, __ in generator.load_items()
               if key not in tc.read_cache.entries)
    before = (tc.counters.get("tc.dc_reads"), cache.stats.fetches)
    oldest = next(iter(tc.read_cache.entries))
    dc_read = count_calls(lambda: engine.get(key))
    assert (tc.counters.get("tc.dc_reads"), cache.stats.fetches) == (
        before[0] + 1, before[1])
    assert oldest not in tc.read_cache.entries   # admit evicted FIFO
    hits = tc.read_cache.hits
    hit = count_calls(lambda: engine.get(key))
    assert tc.read_cache.hits == hits + 1
    assert dc_read["tree.get_with_stats"] == dc_read["read_cache.insert"] == 1
    for calls in (hit, dc_read):
        assert FORBIDDEN.isdisjoint(calls), FORBIDDEN & set(calls)
    assert sum(hit.frames.values()) == 9
    assert sum(dc_read.frames.values()) == 24
    assert hit["cpu.bill"] == 4            # begin, two probes, the stamp
    assert hit["<string>.__init__"] == 0
    assert dc_read["<string>.__init__"] == 2


#: Helpers a page miss must not enter besides :data:`FORBIDDEN` (whose
#: ``CounterSet.add`` the SSD and the TC now skip too, bumping their
#: dicts, and whose ``CpuModel.charge`` the flash image's two counted
#: copies skip too, billing plans): the cache's register / untrack
#: helpers and residency-size readers (the fetch and the eviction keep
#: the books in their own frames), the retired victim generator
#: (``ensure_capacity`` walks the LRU order) and the I/O round-trip
#: wrapper (the store read calls its halves).
MISS_FORBIDDEN = FORBIDDEN | {
    "cache.register", "cache._untrack", "cache._victims",
    "cache.resident_bytes", "mapping_table.resident_bytes",
    "iopath.charge_round_trip"}

#: The layer boundaries ``benchmarks/e2e`` counts a traced run's work
#: by, and the e2e metric each feeds: ``log_store.reads`` counts
#: ``LogStructuredStore.read`` calls, ``io_path.round_trips`` counts
#: ``IoPathModel.charge_complete`` calls, ``log_store.ssd_ios`` credits
#: each ``SimulatedSsd.read`` to the enclosing store read, and
#: ``page_cache.host_self_s`` is the time inside ``PageCache.fetch``,
#: ``ensure_capacity`` and ``evict``.  Inlining any of them into its
#: caller would zero its count, so a miss must call each exactly once.
MISS_BOUNDARIES = ("log_store.read", "iopath.charge_complete", "ssd.read",
                   "cache.fetch", "cache.ensure_capacity", "cache.evict")


def test_a_page_miss_does_its_bookkeeping_in_the_frames_it_has():
    """Complexity guard as frame counts, on ``read_cold`` in miniature
    (YCSB-C over a page cache and a read cache a fraction of the data,
    LRU, no record cache): a warmed get whose page must come from flash
    — one fetch, one I/O, one eviction — enters 45 ``repro`` frames.
    That is down from 46 while the SSD observed each access in a
    latency histogram, and from 59 while the fetch registered the page through
    ``register`` (which sized it through ``PageEntry.resident_bytes``),
    the store read charged its round trip through
    ``charge_round_trip``, ``ensure_capacity`` pulled victims from a
    ``_victims`` generator, looked each up through
    ``MappingTable.get`` and read ``resident_bytes`` and
    ``base_present`` as properties, ``evict`` untracked through
    ``_untrack``, and the SSD and the TC counted through
    ``CounterSet.add``.  Its three generated dataclass ``__init__``
    frames (the store read's result, the page lookup's, the Bw-tree
    op's) are pinned on their own."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_c(record_count=4000,
                                                      seed=42))
    engine = DeuteronomyEngine(
        Machine.paper_default(cores=4),
        tree_config=BwTreeConfig(cache_capacity_bytes=64 << 10),
        tc_config=TcConfig(read_cache_bytes=16 << 10))
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    for op in generator.operations(3000):
        engine.get(op.key)
    tc, cache, ssd = engine.tc, engine.dc.cache, engine.machine.ssd
    for key, __ in generator.load_items():
        if key in tc.read_cache.entries:
            continue
        before = (cache.stats.fetches, cache.stats.evictions,
                  ssd.total_ios, tc.counters.get("tc.dc_read_ios"))
        miss = count_calls(lambda: engine.get(key))
        if cache.stats.fetches > before[0]:
            break
    assert (cache.stats.fetches, cache.stats.evictions, ssd.total_ios,
            tc.counters.get("tc.dc_read_ios")) == tuple(
                count + 1 for count in before)
    assert MISS_FORBIDDEN.isdisjoint(miss), MISS_FORBIDDEN & set(miss)
    assert {name: miss[name] for name in MISS_BOUNDARIES} == dict.fromkeys(
        MISS_BOUNDARIES, 1)
    assert miss["cache.touch"] == 2   # the Bw-tree's and the fetch's
    assert sum(miss.frames.values()) == 45
    assert miss["<string>.__init__"] == 3
