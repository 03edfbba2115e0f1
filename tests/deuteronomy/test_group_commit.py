"""The one group commit against the choreography it stands for.

``TransactionComponent.apply_batch`` and ``run_update_batch`` commit
through the same private group commit as ``commit_batch``, without
building a ``Transaction``.  Each is held here, on twin seeded engines,
to the transaction calls it replaces: every charge in order (through a
``ChargeRecorder``), every TC counter, every redo record and every value
read back compare with ``==``.
"""

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.faults import FaultInjector, FaultPlan, IoError
from repro.hardware import Machine
from repro.observability.whatif import ChargeRecorder
from repro.scenarios import batch_item
from repro.workloads import OpKind, WorkloadGenerator, WorkloadSpec

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


def workload():
    return WorkloadGenerator(WorkloadSpec.ycsb_a(record_count=RECORDS,
                                                 seed=7))


def build(config):
    """A loaded, checkpointed engine with a recorder on its CPU, and the
    YCSB-A stream that drives it."""
    generator = workload()
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
        "busy_us": engine.machine.cpu.busy_us,
        "operations": engine.machine.operations,
        "clock": tc._clock,
        "next_txn_id": tc._next_txn_id,
        "active": len(tc._active),
        "redo": [(record.key, record.value, record.timestamp,
                  record.txn_id, record.lsn)
                 for record in tc.log.durable_records],
        "batch_sizes": (tc.batch_sizes.count, tc.batch_sizes.total),
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


def reference_run_update_batch(tc, items):
    """The retired ``TransactionComponent.run_update_batch``: one
    transaction per item, committed as one sequential group."""
    tc.machine.cpu.charge("op_dispatch", category="tc")
    txns = []
    for key, value in items:
        txn = tc.begin()
        txns.append(txn)
        tc._buffer_write(txn, key, value)
    return tc.commit_batch(txns, sequential=True)


def run_batches(config, apply):
    engine, generator, recorder = build(config)
    ops = [batch_item(op) for op in generator.operations(30 * 64)]
    results = [apply(engine, ops[start:start + 64])
               for start in range(0, len(ops), 64)]
    return observed(engine, recorder, results,
                    [key for key, __ in generator.load_items()])


def update_items(generator):
    """YCSB-A's updates as autocommit items, every fifth a delete and
    every seventh a repeat of the item before it (last wins)."""
    items = []
    for index, op in enumerate(generator.operations(40 * 64)):
        if op.kind is not OpKind.UPDATE:
            continue
        if index % 7 == 0 and items:
            items.append((items[-1][0], op.value))
        items.append((op.key, None if index % 5 == 0 else op.value))
    return items


def run_updates(config, apply):
    engine, generator, recorder = build(config)
    items = update_items(generator)
    results = [apply(engine, items[start:start + 48])
               for start in range(0, len(items), 48)]
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
        assert fused["tc.counters"]["tc.record_cache_drains"] > 0


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_multi_put_bills_what_one_transaction_per_item_bills(config):
    fused = run_updates(config,
                        lambda engine, items: engine.tc.run_update_batch(items))
    reference = run_updates(
        config, lambda engine, items: reference_run_update_batch(engine.tc,
                                                                 items))
    assert len(fused["charges"]) > 10_000
    assert any(value is None for __, value in update_items(workload()))
    for name in fused:
        assert fused[name] == reference[name], name
    assert all(None not in batch for batch in fused["results"])


def test_a_multi_put_builds_no_transaction():
    """Complexity guard as call counts: a warmed ``multi_put`` commits
    through the group commit without ``begin``, a ``Transaction`` (its
    ``__post_init__``) or ``commit_batch``."""
    engine, generator, __ = build("sync")
    items = update_items(generator)
    engine.multi_put(items[:64])
    calls = count_calls(lambda: engine.multi_put(items[64:128]))
    assert calls["tc.run_update_batch"] == calls["tc._group_commit"] == 1
    forbidden = {"tc.begin", "tc.__post_init__", "tc.commit_batch",
                 "tc._buffer_write", "tc.commit"}
    assert forbidden.isdisjoint(calls), forbidden & set(calls)


def test_a_get_drains_a_heap_a_failed_commit_left_dirty():
    """``commit`` parks each record in the record heap before the next
    record's log append, and that append may spill the log buffer into a
    flush whose retries run out.  The commit then raises with the heap
    over its drain threshold, so the next ``get`` drains it: the inline
    drain in ``TransactionComponent.get`` is reachable."""
    engine = DeuteronomyEngine(
        Machine.paper_default(cores=1), BwTreeConfig(segment_bytes=1 << 14),
        TcConfig(log_buffer_bytes=256, record_cache=True,
                 record_dirty_flush_bytes=1))
    tc = engine.tc
    engine.machine.faults = FaultInjector(FaultPlan.io_error_at(
        "recovery_log.flush", 1, failures=4))
    txn = tc.begin()
    tc.write(txn, b"a", b"x" * 100)
    tc.write(txn, b"b", b"y" * 100)
    with pytest.raises(IoError):
        tc.commit(txn)
    assert tc.records.dirty_bytes >= tc.config.record_dirty_flush_bytes
    drains = tc.counters.get("tc.record_cache_drains")
    assert engine.get(b"a") == b"x" * 100
    assert tc.counters.get("tc.record_cache_drains") == drains + 1
    assert tc.records.dirty_bytes == 0
