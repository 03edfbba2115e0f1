"""Group commit and the batched (multi-op) engine API."""

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.hardware import Machine
from repro.scenarios import batch_item
from repro.sharding import ShardedEngine
from repro.workloads import OpKind, WorkloadGenerator, WorkloadSpec

from ..frames import count_calls


def make_engine(sync: bool = False, cores: int = 1) -> DeuteronomyEngine:
    machine = Machine.paper_default(cores=cores)
    return DeuteronomyEngine(
        machine,
        BwTreeConfig(segment_bytes=1 << 16),
        TcConfig(sync_commit=sync),
    )


def puts(items):
    """``(key, value)`` items as a batch of puts."""
    return [("put", key, value) for key, value in items]


class TestMultiOpApi:
    """Multi-key puts, gets and deletes: ``multi_get``, and
    ``apply_batch`` for the writes."""

    def test_multi_put_then_gets(self):
        engine = make_engine()
        items = [(b"k%02d" % i, b"v%d" % i) for i in range(20)]
        assert engine.apply_batch(puts(items)) == [None] * 20
        for key, value in items:
            assert engine.get(key) == value

    def test_multi_put_same_key_last_wins(self):
        engine = make_engine()
        engine.apply_batch(puts([(b"k", b"first"), (b"k", b"second"),
                                 (b"k", b"third")]))
        assert engine.get(b"k") == b"third"

    def test_multi_get_matches_gets(self):
        engine = make_engine()
        engine.apply_batch(puts([(b"a", b"1"), (b"b", b"2")]))
        assert engine.multi_get([b"a", b"missing", b"b"]) == [
            b"1", None, b"2"]

    def test_multi_delete(self):
        engine = make_engine()
        engine.apply_batch(puts([(b"a", b"1"), (b"b", b"2")]))
        engine.apply_batch([("delete", b"a", None), ("delete", b"b", None)])
        assert engine.multi_get([b"a", b"b"]) == [None, None]

    def test_apply_batch_reads_see_earlier_batch_writes(self):
        engine = make_engine()
        engine.put(b"old", b"0")
        results = engine.apply_batch([
            ("get", b"old", None),
            ("put", b"new", b"1"),
            ("get", b"new", None),
            ("delete", b"old", None),
            ("get", b"old", None),
        ])
        assert results == [b"0", None, b"1", None, None]
        assert engine.get(b"new") == b"1"
        assert engine.get(b"old") is None

    def test_apply_batch_rejects_unknown_kind(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.apply_batch([("scan", b"k", None)])
        assert not engine.tc._active      # the failed txn was aborted

    def test_batched_state_matches_per_op_state(self):
        items = [(b"k%02d" % (i % 10), b"v%d" % i) for i in range(40)]
        per_op, batched = make_engine(), make_engine()
        for key, value in items:
            per_op.put(key, value)
        for start in range(0, len(items), 8):
            batched.apply_batch(puts(items[start:start + 8]))
        for index in range(10):
            key = b"k%02d" % index
            assert per_op.get(key) == batched.get(key)


class TestGroupCommitSemantics:
    def test_first_committer_wins_within_batch(self):
        engine = make_engine()
        tc = engine.tc
        first, second = tc.begin(), tc.begin()
        tc.write(first, b"k", b"from-first")
        tc.write(second, b"k", b"from-second")
        results = tc.commit_batch([first, second])
        assert results[0] is not None and results[1] is None
        assert engine.get(b"k") == b"from-first"

    def test_conflict_against_committed_version(self):
        engine = make_engine()
        tc = engine.tc
        stale = tc.begin()
        tc.write(stale, b"k", b"stale")
        engine.put(b"k", b"newer")          # commits after stale began
        assert tc.commit_batch([stale]) == [None]
        assert engine.get(b"k") == b"newer"

    def test_disjoint_batch_all_commit(self):
        engine = make_engine()
        tc = engine.tc
        txns = []
        for index in range(5):
            txn = tc.begin()
            tc.write(txn, b"k%d" % index, b"v")
            txns.append(txn)
        results = tc.commit_batch(txns)
        assert all(ts is not None for ts in results)
        assert tc.counters.get("tc.group_commits") == 1

    def test_a_transaction_listed_twice_is_refused_before_anything_runs(
            self):
        """It used to log and install its version, skip the blind post,
        leave the transaction committed and count an abort, then raise
        a bare ``KeyError``."""
        engine = make_engine()
        tc = engine.tc
        txn = tc.begin()
        tc.write(txn, b"k", b"v")
        busy_us = engine.machine.cpu.busy_us
        with pytest.raises(ValueError, match=f"txn {txn.txn_id} .*twice"):
            tc.commit_batch([txn, txn])
        assert engine.machine.cpu.busy_us == busy_us
        assert tc.log.appended_records == 0
        assert tc.versions.chains == {}
        assert tc.counters.get("tc.commits") == 0
        assert tc.counters.get("tc.aborts") == 0
        assert txn.status.value == "active"
        assert tc.commit_batch([txn]) != [None]
        assert engine.get(b"k") == b"v"

    def test_sync_commit_flushes_once_per_batch(self):
        per_op, batched = make_engine(sync=True), make_engine(sync=True)
        items = [(b"k%02d" % i, b"v") for i in range(32)]
        for key, value in items:
            per_op.put(key, value)
        batched.apply_batch(puts(items))
        assert per_op.tc.log.flushes == 32
        assert batched.tc.log.flushes == 1
        assert batched.tc.log.appended_records == 32

    def test_batch_appends_counted(self):
        engine = make_engine()
        engine.apply_batch(puts([(b"a", b"1"), (b"b", b"2")]))
        engine.apply_batch(puts([(b"c", b"3")]))
        assert engine.tc.log.batch_appends == 2

    def test_batched_path_spends_fewer_core_us(self):
        items = [(b"k%02d" % i, b"v" * 20) for i in range(64)]
        costs = {}
        for mode in ("per_op", "batched"):
            engine = make_engine()
            engine.machine.reset_accounting()
            if mode == "per_op":
                for key, value in items:
                    engine.put(key, value)
            else:
                engine.apply_batch(puts(items))
            costs[mode] = engine.machine.cpu.busy_us
        assert costs["batched"] < costs["per_op"]

    def test_recovered_batch_equals_logged_records(self):
        engine = make_engine(sync=True)
        engine.checkpoint()
        engine.apply_batch(puts((b"k%d" % i, b"v%d" % i) for i in range(8)))
        recovered = DeuteronomyEngine.recover(engine)
        for index in range(8):
            assert recovered.get(b"k%d" % index) == b"v%d" % index


class TestBatchEdgeCases:
    """Edge cases the sharded scatter/gather router leans on."""

    def test_empty_multi_get(self):
        engine = make_engine()
        assert engine.multi_get([]) == []

    def test_empty_apply_batch(self):
        engine = make_engine(sync=True)
        flushes = engine.tc.log.flushes
        assert engine.apply_batch([]) == []
        # An empty group commit must not force a log flush.
        assert engine.tc.log.flushes == flushes

    def test_apply_batch_duplicate_key_last_wins(self):
        engine = make_engine()
        results = engine.apply_batch([
            ("put", b"k", b"first"),
            ("put", b"k", b"second"),
            ("get", b"k", None),
            ("put", b"k", b"third"),
        ])
        assert results == [None, None, b"second", None]
        assert engine.get(b"k") == b"third"

    def test_apply_batch_put_then_delete_same_key(self):
        engine = make_engine()
        engine.put(b"k", b"old")
        results = engine.apply_batch([
            ("put", b"k", b"new"),
            ("get", b"k", None),
            ("delete", b"k", None),
            ("get", b"k", None),
            ("put", b"k2", b"kept"),
        ])
        assert results == [None, b"new", None, None, None]
        assert engine.get(b"k") is None
        assert engine.get(b"k2") == b"kept"

    def test_apply_batch_delete_then_put_resurrects(self):
        engine = make_engine()
        engine.put(b"k", b"old")
        engine.apply_batch([
            ("delete", b"k", None),
            ("put", b"k", b"reborn"),
        ])
        assert engine.get(b"k") == b"reborn"


@pytest.mark.parametrize("shards", [0, 2])
def test_a_one_shot_iterable_batch_is_read_once(shards):
    """``apply_batch`` and ``multi_get`` take any iterable.  A bare
    engine's TC used to check a generator's ops and then loop over the
    spent iterator: it returned ``[]``, applied nothing and still billed
    and counted an empty commit."""
    engine = (ShardedEngine(shards, cores_per_shard=1) if shards
              else make_engine())
    assert engine.apply_batch(
        ("put", key, b"v") for key in (b"a", b"b")) == [None, None]
    assert engine.multi_get(key for key in (b"a", b"b", b"c")) == [
        b"v", b"v", None]
    assert engine.apply_batch(
        op for op in [("get", b"a", None)]) == [b"v"]


#: Functions a warmed batched op must not enter: the transaction object's
#: lifecycle and per-op helpers, the Bw-tree descent and post helpers
#: and mapping-table accessor, the MVCC conflict probe (inline in the
#: TC), the router's hash (memoized), and any span
#: frame while no tracer is attached (the old ``machine.trace_span`` and
#: the standard library's context-manager protocol, which ``.frames``
#: does not count because its code is not in ``repro``), any histogram
#: (no latency or batch size is observed on the path), and
#: ``CpuModel.charge``: every charge on the path is a billed plan.
BATCH_FORBIDDEN = {"tc.begin", "tc.execute_batch", "tc.commit_batch",
                   "tc._read_one", "tc._buffer_write", "tc._require_active",
                   "tree._descend", "mapping_table.get",
                   "mvcc.newest_timestamp", "router.fnv1a_64",
                   "machine.trace_span", "contextlib.__enter__",
                   "contextlib.__exit__", "metrics.observe", "cpu.charge"}


def test_a_blind_post_does_its_bookkeeping_in_the_frames_it_has():
    """Complexity guard as call counts: one 64-put ``apply_batch`` on a
    warmed engine enters at most 8.63 ``repro`` frames per put: 8.625
    here, 8.66 while the TC observed each group's size and the blind
    batch its latency in a histogram, 9.3 while a page's byte totals
    were read through property frames, the read cache's invalidation
    sized its victim in a helper and the group commit was inline in
    ``apply_batch``, 11.6 while the
    log allocated DRAM once per record, the blind batch bracketed its
    latency through two ``machine`` frames and each write built a proxy
    version and a kind-tagged delta, 14.7 while each charge of a fixed
    run (the dispatch, each descent level, the post) was a frame of its
    own; 21.5 while the
    descent and the post of a resident leaf ran in helper frames and the
    batch built a transaction object; and 49.5 before the batched write
    path routed, validated, timestamped, counted and sized in the frames
    it already had.  Routing is inline in the blind batch, a delta is
    sized once, a consolidation keeps a running size instead of
    re-summing its page, and no counter goes through ``CounterSet.add``.
    The 95 dataclass ``__init__`` frames (``<string>`` code, which
    ``.frames`` skips; 214 before a write built one record per layer)
    are pinned on their own."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=2000,
                                                      seed=3))
    engine = DeuteronomyEngine(Machine.paper_default(cores=1))
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    puts = [("put", op.key, op.value) for op in generator.operations(4000)
            if op.kind is OpKind.UPDATE][:21 * 64]
    for start in range(0, 20 * 64, 64):
        engine.apply_batch(puts[start:start + 64])
    calls = count_calls(lambda: engine.apply_batch(puts[20 * 64:]))
    assert calls["tree.apply_blind_batch"] == 1
    assert calls["pages.consolidate"] > 0
    forbidden = {"node.child_for", "node.search_steps",
                 "tree.validate_kv", "tree.validate_key",
                 "tree._next_timestamp", "metrics.add",
                 "pages.full_image_size_bytes"} | BATCH_FORBIDDEN
    assert forbidden.isdisjoint(calls), forbidden & set(calls)
    assert sum(calls.frames.values()) / 64 <= 8.63
    assert calls["<string>.__init__"] == 95


def warmed_batch_calls(engine, generator):
    """Calls of the 41st 64-op YCSB-A batch, the first 40 run to warm."""
    ops = [batch_item(op) for op in generator.operations(41 * 64)]
    for start in range(0, 40 * 64, 64):
        engine.apply_batch(ops[start:start + 64])
    calls = count_calls(lambda: engine.apply_batch(ops[40 * 64:]))
    lambdas = [name for name in calls.frames if name.endswith("<lambda>")]
    assert not lambdas, lambdas
    assert BATCH_FORBIDDEN.isdisjoint(calls), BATCH_FORBIDDEN & set(calls)
    return calls


def test_a_batched_op_does_its_bookkeeping_in_the_frames_it_has():
    """Complexity guard as frame counts, on ``update_batched`` in
    miniature (YCSB-A, sync commit): a warmed 64-op mixed
    ``apply_batch`` enters 491 ``repro`` frames, 7.7 per op: 499 while
    the TC observed the group's size, the blind batch its latency and
    each DC read its own in a histogram, 500 while the SSD observed
    each access in a latency histogram, 508 while the group commit was
    inline in ``apply_batch`` (it is one shared frame now), a page's
    byte totals were read through property frames and the read cache's
    invalidation sized its victim in a helper, 575
    while the log allocated DRAM once per record and the blind batch bracketed
    its latency through two ``machine`` frames, 576 while
    its one consolidation re-indexed the new base in ``_set_base``, 580 while
    its two DC reads read ``cpu.busy_us`` and ``ssd.service_us_total``
    through property frames, 582 while
    the log flush's device write bumped its two SSD counters through
    ``CounterSet.add``, 714 (11.2) while every charge of a fixed run was
    a frame of its own (386 charges; 144 charges and 110 billed plans
    until each hot single charge became a one-step plan, now no charge
    and 254 billed plans), 757 while each of
    its 43 untraced spans entered ``machine.trace_span`` (and two
    ``contextlib`` frames ``.frames`` did not count), and 1,009 (15.8)
    when the batch built a transaction object and went through
    ``begin`` / ``execute_batch`` / ``commit_batch``, and the blind post
    descended and posted in helper frames.

    ``.frames`` keeps only code whose file is under ``repro``; a
    dataclass ``__init__`` is generated code whose file is
    ``<string>``, so it never showed in that count.  The 58 it runs
    here (page deltas, redo records, results; 88 while each write also
    built a proxy version) are pinned on their own."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=4000,
                                                      seed=42))
    engine = DeuteronomyEngine(Machine.paper_default(cores=4),
                               tc_config=TcConfig(sync_commit=True))
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    calls = warmed_batch_calls(engine, generator)
    assert calls["tc.apply_batch"] == calls["tree.apply_blind_batch"] == 1
    assert calls["tree.get_with_stats"] > 0   # reads reach the DC too
    assert sum(calls.frames.values()) == 491
    assert calls["<string>.__init__"] == 58


def test_a_fleet_batch_does_its_bookkeeping_in_the_frames_it_has():
    """The same guard on ``fleet_async`` in miniature (8 shards, commit
    pipeline, one shared log device, every key routed once by the bulk
    load): a warmed 64-op ``apply_batch`` enters 557 ``repro`` frames,
    8.7 per op: 579 while each shard's TC observed its group's size and
    its blind batch and DC reads their latencies in a histogram, 580
    while the scatter/gather ran in a helper frame of
    its own, shared with the retired ``multi_put`` and ``multi_delete``,
    581 while each shard's group commit was inline in
    ``apply_batch`` (it is one shared frame per shard now), a page's
    byte totals were read through property frames and the read cache's
    invalidation sized its victim in a helper, 679 (10.6) while each
    shard's commit entered the pipeline's ``maybe_close`` and ``ack``
    with nothing due, read
    ``last_lsn`` through a property frame, allocated log DRAM once per
    record and bracketed its blind batch's latency through two
    ``machine`` frames, 680 while a consolidation re-indexed the new base
    in ``_set_base``, 729 (11.4) while the commit pipeline read ``clock.now``
    and the DC reads ``cpu.busy_us`` and ``ssd.service_us_total``
    through property frames (17, 16 and 16), 845 (13.2) while every
    charge of a fixed run was a frame of its own, 916 (14.3) while each
    of its 71 untraced spans entered ``machine.trace_span``, and 1,418
    (22.2) when the scatter
    re-hashed every key through a ``key_of`` lambda and each shard ran a
    lambda and a transaction object.  Its 72 generated dataclass
    ``__init__`` frames (102 with proxy versions), which ``.frames``
    skips, are pinned too."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=4000,
                                                      seed=42))
    fleet = ShardedEngine(8, tc_config=TcConfig(commit_pipeline=True),
                          log_topology="shared")
    fleet.bulk_load(generator.load_items())
    fleet.checkpoint()
    calls = warmed_batch_calls(fleet, generator)
    assert calls["router.scatter"] == 1
    assert calls["tc.apply_batch"] == 8
    assert calls["commit_pipeline.enqueue_epoch"] == 8
    # No epoch closes and no ack is due: the scheduler's tests ran in
    # ``enqueue_epoch``'s frame.
    assert "commit_pipeline.maybe_close" not in calls
    assert "commit_pipeline.ack" not in calls
    assert sum(calls.frames.values()) == 557
    assert calls["<string>.__init__"] == 72
