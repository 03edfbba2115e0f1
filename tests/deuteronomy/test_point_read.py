"""The point read does its bookkeeping in the frames it already has."""

from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.hardware import Machine
from repro.workloads import WorkloadGenerator, WorkloadSpec

from ..frames import count_calls

#: Functions a point read on a resident page must not enter: the
#: Bw-tree's per-op helpers, the mapping-table and clock accessors, the
#: machine's op-count and latency helpers, the read cache's admit and
#: sizing helpers, the commit half's no-op calls, and any span frame
#: while no tracer is attached (the old ``machine.trace_span`` and the
#: standard library's context-manager protocol).
FORBIDDEN = {"tree._begin_op", "tree._finish_read", "tree._post_op",
             "tree._descend", "tree._maybe_consolidate", "mapping_table.get",
             "clock.now", "machine.begin_operation", "machine.latency_window",
             "machine.observe_latency", "metrics.add",
             "read_cache._admit", "read_cache._entry_bytes",
             "tc._maybe_drain_records", "tc._maybe_gc_versions",
             "mvcc.truncate", "machine.trace_span",
             "contextlib.__enter__", "contextlib.__exit__"}


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
               if key not in tc.read_cache._entries)
    before = (tc.counters.get("tc.dc_reads"), cache.stats.fetches,
              tc.read_cache.evicted_records)
    dc_read = count_calls(lambda: engine.get(key))
    assert (tc.counters.get("tc.dc_reads"), cache.stats.fetches) == (
        before[0] + 1, before[1])
    assert tc.read_cache.evicted_records > before[2]   # admit evicted FIFO
    hits = tc.read_cache.hits
    hit = count_calls(lambda: engine.get(key))
    assert tc.read_cache.hits == hits + 1
    assert dc_read["tree.get_with_stats"] == dc_read["read_cache.insert"] == 1
    for calls in (hit, dc_read):
        assert FORBIDDEN.isdisjoint(calls), FORBIDDEN & set(calls)
    assert sum(hit.frames.values()) == 9
    assert sum(dc_read.frames.values()) == 24
    assert hit["<string>.__init__"] == 0
    assert dc_read["<string>.__init__"] == 2
