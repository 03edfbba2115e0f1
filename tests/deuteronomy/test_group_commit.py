"""The one group commit against the choreography it stands for.

``TransactionComponent.apply_batch`` commits through the same private
group commit as ``commit_batch``, without building a ``Transaction``,
and ``multi_get`` is a batch of gets.  Each is held here, on twin seeded
engines, to the transaction calls it replaces: every charge in order
(through a ``ChargeRecorder``), every TC counter, every redo record and
every value read back compare with ``==``.
"""

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.faults import FaultInjector, FaultPlan, IoError, RetryPolicy
from repro.hardware import Machine
from repro.observability.whatif import ChargeRecorder
from repro.scenarios import batch_item
from repro.sharding import ShardedEngine
from repro.workloads import WorkloadGenerator, WorkloadSpec

from ..frames import count_calls

#: A sync-commit engine (``update_batched``), the commit pipeline
#: (``fleet_async``'s shards) and the record heap with a low drain
#: threshold, so the group commit's drain runs too.
CONFIGS = {
    "sync": TcConfig(sync_commit=True),
    "pipeline": TcConfig(commit_pipeline=True),
    "record_heap": TcConfig(record_cache=True, record_cache_bytes=1 << 16,
                            record_arena_bytes=1 << 12,
                            record_dirty_flush_bytes=1 << 12,
                            read_cache_bytes=1 << 12),
}
RECORDS = 600


def build(config):
    """A loaded, checkpointed engine with a recorder on its CPU, and the
    YCSB-A stream that drives it."""
    generator = WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=RECORDS,
                                                      seed=7))
    engine = DeuteronomyEngine(Machine.paper_default(cores=2),
                               BwTreeConfig(segment_bytes=1 << 14,
                                            cache_capacity_bytes=16 << 10),
                               CONFIGS[config])
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    engine.machine.reset_accounting()
    recorder = ChargeRecorder()
    engine.machine.cpu.sink = recorder
    return engine, generator, recorder


def observed(engine, recorder, results, keys):
    """Everything the two paths must agree on."""
    tc = engine.tc
    engine.checkpoint()
    observation = {
        "results": results,
        "charges": list(recorder.events),
        "tc.counters": tc.counters.snapshot(),
        "dc.counters": engine.dc.counters.snapshot(),
        "busy_us": engine.machine.cpu.busy_us,
        "operations": engine.machine.operations,
        "clock": tc._clock,
        "next_txn_id": tc._next_txn_id,
        "active": len(tc._active),
        "redo": [(record.key, record.value, record.timestamp,
                  record.txn_id, record.lsn)
                 for record in tc.log.durable_records],
    }
    observation["values"] = [engine.get(key) for key in keys]
    observation["stats"] = engine.stats()
    return observation


def reference_apply_batch(engine, ops):
    """A batch as one explicit transaction and a one-transaction group
    commit."""
    txn = engine.tc.begin()
    results = engine.tc.execute_batch(txn, ops)
    engine.tc.commit_batch([txn])
    return results


def reference_multi_get(engine, keys):
    """The retired ``multi_get``: one read-only transaction, its reads
    under one request dispatch."""
    txn = engine.tc.begin()
    values = engine.tc.read_batch(txn, keys)
    engine.tc.commit(txn)
    return values


def run_batches(config, apply):
    engine, generator, recorder = build(config)
    ops = [batch_item(op) for op in generator.operations(30 * 64)]
    results = [apply(engine, ops[start:start + 64])
               for start in range(0, len(ops), 64)]
    return observed(engine, recorder, results,
                    [key for key, __ in generator.load_items()])


def run_reads(config, read):
    """YCSB-A in 64-op batches: each batch's updates through
    ``apply_batch``, then all its keys read back through ``read``, so
    the reads meet versions, cached records and the data component."""
    engine, generator, recorder = build(config)
    ops = [batch_item(op) for op in generator.operations(30 * 64)]
    results = []
    for start in range(0, len(ops), 64):
        batch = ops[start:start + 64]
        engine.apply_batch([op for op in batch if op[0] != "get"])
        results.append(read(engine, [key for __, key, __ in batch]))
    return observed(engine, recorder, results,
                    [key for key, __ in generator.load_items()])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_apply_batch_bills_what_a_one_transaction_group_commit_bills(
        config):
    fused = run_batches(config, lambda engine, ops: engine.tc.apply_batch(ops))
    reference = run_batches(config, reference_apply_batch)
    assert len(fused["charges"]) > 10_000
    assert fused["redo"] and fused["tc.counters"]["tc.writes_applied"] > 0
    for name in fused:
        assert fused[name] == reference[name], name
    if config == "record_heap":
        # Every DC post went through a drain of the heap.
        assert fused["dc.counters"]["bwtree.blind_batches"] > 0


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_multi_get_bills_what_a_read_only_transaction_bills(config):
    """One thing differs on purpose: each ``multi_get`` is a group
    commit, so it counts one ``tc.group_commits``; ``commit`` does
    not."""
    fused = run_reads(config, lambda engine, keys: engine.multi_get(keys))
    reference = run_reads(config, reference_multi_get)
    batches = len(fused["results"])
    assert len(fused["charges"]) > 10_000
    assert fused["tc.counters"]["tc.dc_reads"] > 0
    assert any(value is not None for batch in fused["results"]
               for value in batch)
    fused_groups = fused["tc.counters"].pop("tc.group_commits")
    reference_groups = reference["tc.counters"].pop("tc.group_commits")
    assert fused_groups == reference_groups + batches
    for name in fused:
        assert fused[name] == reference[name], name


def test_a_multi_get_builds_no_transaction():
    """Complexity guard as call counts: a warmed ``multi_get`` is one
    ``apply_batch``, without ``begin``, a ``Transaction`` (its
    ``__post_init__``), ``read_batch`` or ``commit``."""
    engine, generator, __ = build("sync")
    keys = [key for key, __ in generator.load_items()]
    engine.multi_get(keys[:64])
    calls = count_calls(lambda: engine.multi_get(keys[64:128]))
    assert calls["tc.apply_batch"] == calls["tc._group_commit"] == 1
    forbidden = {"tc.begin", "tc.__post_init__", "tc.read_batch",
                 "tc._read_one", "tc.commit", "tc.commit_batch"}
    assert forbidden.isdisjoint(calls), forbidden & set(calls)


def drain_failing_engine():
    """A record-heap engine whose page cache is small enough that every
    drain's blind post evicts, so it flushes a LLAMA segment, under an
    injector that fails every attempt of one ``log_store.flush`` once
    the first checkpoint is taken: the drain some put's commit runs
    raises ``IoError`` out of the blind post."""
    machine = Machine.paper_default(cores=1)
    injector = FaultInjector(FaultPlan.io_error_at(
        "log_store.flush", 1, failures=RetryPolicy().max_attempts))
    injector.disarm()
    machine.faults = injector
    engine = DeuteronomyEngine(
        machine,
        BwTreeConfig(segment_bytes=1 << 13, cache_capacity_bytes=2 << 10),
        TcConfig(record_cache=True, record_arena_bytes=256,
                 record_cache_bytes=4 << 10, record_dirty_flush_bytes=200,
                 log_buffer_bytes=1024, log_retain_budget_bytes=2048,
                 version_gc_horizon_lag=4))
    engine.checkpoint()
    injector.arm()
    return engine


def test_a_get_drains_a_heap_a_failed_commit_left_dirty():
    """A commit's drain posts the heap's dirty records to the DC, and
    the post fails when a flush inside it exhausts its retries.  The
    records stay dirty, so the commit raises with the heap over its
    drain threshold and the next ``get`` drains it: the inline drain in
    ``TransactionComponent.get`` is reached by a modelled fault, and the
    get serves the committed value."""
    engine = drain_failing_engine()
    tc = engine.tc
    for index in range(400):
        key, value = b"a%04d" % index, b"v%04d" % index
        try:
            engine.put(key, value)
        except IoError:
            break
    else:
        pytest.fail("no drain raised")
    assert tc.records.dirty_bytes >= tc.config.record_dirty_flush_bytes
    drains = engine.dc.counters.get("bwtree.blind_batches")
    assert engine.get(key) == value
    assert engine.dc.counters.get("bwtree.blind_batches") == drains + 1
    assert tc.records.dirty_bytes == 0


def test_a_drain_that_raises_leaves_no_committed_write_unapplied():
    """A drain once marked its records clean before it posted them.
    When the post raised, the heap later evicted those clean copies,
    which the DC had never applied, so the live engine served ``None``
    for committed puts that recovery served: the exhausted-retry rule
    is that recovery serves exactly what the live engine served."""
    engine = drain_failing_engine()
    values = {}
    raised = 0
    for index in range(300):
        key, value = b"a%04d" % index, b"v%04d" % index
        values[key] = value
        try:
            engine.put(key, value)
        except IoError:
            raised += 1
    assert raised == 1
    for index in range(500):
        engine.put(b"b%04d" % index, b"w" * 40)
    engine.checkpoint()
    live = {key: engine.get(key) for key in values}
    assert live == values
    recovered = DeuteronomyEngine.recover(engine)
    assert {key: recovered.get(key) for key in values} == live


def test_a_group_commit_that_logs_nothing_counts_no_log_append():
    """An all-get batch commits an empty group: it appends no record,
    so it counts no log append (``log_batch_appends`` once counted one
    per all-get batch)."""
    engine = DeuteronomyEngine(Machine.paper_default(cores=1))
    engine.put(b"a", b"1")
    log = engine.tc.log
    before = (log.batch_appends, log.appended_records)
    assert engine.apply_batch([("get", b"a", None),
                               ("get", b"b", None)]) == [b"1", None]
    assert (log.batch_appends, log.appended_records) == before
    engine.apply_batch([("get", b"a", None), ("put", b"b", b"2")])
    assert (log.batch_appends, log.appended_records) == (
        before[0] + 1, before[1] + 1)


def test_a_shard_whose_sub_batch_is_all_gets_counts_no_log_append():
    fleet = ShardedEngine(num_shards=2, cores_per_shard=1)
    keys = [b"k%04d" % index for index in range(32)]
    read_key = next(key for key in keys if fleet.shard_for(key) == 0)
    write_key = next(key for key in keys if fleet.shard_for(key) == 1)
    fleet.apply_batch([("get", read_key, None), ("put", write_key, b"v")])
    assert [shard.tc.log.batch_appends for shard in fleet.shards] == [0, 1]
    assert fleet.stats()["fleet"]["log_batch_appends"] == 1
