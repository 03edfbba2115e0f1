"""Crash recovery: checkpointed mapping table + redo-log replay."""

import random

import pytest

from repro.bwtree import BwTree, BwTreeConfig, RecoveryError
from repro.deuteronomy import (
    DeuteronomyEngine,
    LogRecord,
    RecoveryLog,
    TcConfig,
)
from repro.faults import (
    CrashError,
    FaultInjector,
    FaultPlan,
    IoError,
    RetryPolicy,
)
from repro.hardware import Machine
from repro.observability.whatif import ChargeRecorder
from repro.storage import CheckpointManager, LogStructuredStore


def fresh_tree(cache_bytes=None) -> BwTree:
    machine = Machine.paper_default(cores=1)
    return BwTree(machine, BwTreeConfig(
        cache_capacity_bytes=cache_bytes, segment_bytes=1 << 14,
    ))


class TestBwTreeRecovery:
    def test_recover_roundtrips_checkpointed_data(self):
        tree = fresh_tree()
        expected = {}
        for index in range(800):
            key, value = b"key%05d" % index, b"v%d" % index
            tree.upsert(key, value)
            expected[key] = value
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        for key, value in expected.items():
            assert recovered.get(key) == value
        assert recovered.count_records() == len(expected)

    def test_recover_preserves_scan_order(self):
        tree = fresh_tree()
        source = random.Random(3)
        model = {}
        for __ in range(600):
            key = bytes(source.randrange(97, 123)
                        for __i in range(source.randrange(1, 10)))
            value = b"v%d" % source.randrange(100)
            tree.upsert(key, value)
            model[key] = value
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        assert list(recovered.scan(b"\x00")) == sorted(model.items())

    def test_unflushed_updates_lost_at_crash(self):
        tree = fresh_tree()
        tree.upsert(b"durable", b"1")
        tree.checkpoint()
        tree.upsert(b"volatile", b"2")     # never checkpointed
        recovered = tree.simulate_crash_and_recover()
        assert recovered.get(b"durable") == b"1"
        assert recovered.get(b"volatile") is None

    def test_recover_without_checkpoint_raises(self):
        machine = Machine.paper_default(cores=1)
        store = LogStructuredStore(machine, segment_bytes=1 << 14)
        with pytest.raises(RecoveryError):
            BwTree.recover(machine, store)

    def test_recovered_tree_accepts_new_writes(self):
        tree = fresh_tree()
        for index in range(300):
            tree.upsert(b"key%05d" % index, b"old")
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        for index in range(300, 500):
            recovered.upsert(b"key%05d" % index, b"new")
        recovered.delete(b"key%05d" % 0)
        assert recovered.get(b"key%05d" % 0) is None
        assert recovered.get(b"key%05d" % 450) == b"new"
        assert recovered.count_records() == 499

    def test_double_crash(self):
        tree = fresh_tree()
        for index in range(200):
            tree.upsert(b"key%05d" % index, b"v")
        tree.checkpoint()
        once = tree.simulate_crash_and_recover()
        once.upsert(b"extra", b"x")
        once.checkpoint()
        twice = once.simulate_crash_and_recover()
        assert twice.get(b"extra") == b"x"
        assert twice.count_records() == 201

    def test_recovery_after_deletes_and_merges(self):
        tree = fresh_tree()
        for index in range(1000):
            tree.upsert(b"key%05d" % index, b"v" * 50)
        for index in range(0, 1000, 2):
            tree.delete(b"key%05d" % index)
        for index in range(0, 1000, 20):
            tree.get(b"key%05d" % index)    # force consolidations
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        for index in range(1000):
            expected = None if index % 2 == 0 else b"v" * 50
            assert recovered.get(b"key%05d" % index) == expected

    def test_recovery_with_evictions_and_delta_images(self):
        tree = fresh_tree(cache_bytes=8 * 1024)
        expected = {}
        source = random.Random(7)
        for __ in range(2000):
            key = b"key%05d" % source.randrange(400)
            value = bytes(source.randrange(256) for __i in range(40))
            tree.upsert(key, value)
            expected[key] = value
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        for key, value in expected.items():
            assert recovered.get(key) == value

    def test_collect_garbage_keeps_tree_recoverable(self):
        tree = fresh_tree(cache_bytes=16 * 1024)
        expected = {}
        source = random.Random(11)
        for round_index in range(4):
            for __ in range(600):
                key = b"key%05d" % source.randrange(300)
                value = bytes(source.randrange(256)
                              for __i in range(40))
                tree.upsert(key, value)
                expected[key] = value
            for __ in range(150):
                tree.get(b"key%05d" % source.randrange(300))
            tree.collect_garbage(0.85)
        recovered = tree.simulate_crash_and_recover()
        for key, value in expected.items():
            assert recovered.get(key) == value

    def test_gc_relocates_checkpoint_image(self):
        tree = fresh_tree(cache_bytes=16 * 1024)
        for index in range(500):
            tree.upsert(b"key%05d" % index, b"v" * 60)
        tree.checkpoint()
        before = tree.checkpoints.latest_addr
        # Rewrite everything so old segments (incl. possibly the one with
        # the checkpoint) become mostly dead, then clean.
        for index in range(500):
            tree.upsert(b"key%05d" % index, b"w" * 60)
            tree.get(b"key%05d" % index)
        tree.collect_garbage(0.9)
        assert CheckpointManager.find_latest(tree.store) is not None
        del before

    def test_empty_tree_checkpoint_recovery(self):
        tree = fresh_tree()
        tree.checkpoint()
        recovered = tree.simulate_crash_and_recover()
        assert recovered.get(b"anything") is None
        recovered.upsert(b"k", b"v")
        assert recovered.get(b"k") == b"v"


class TestEngineRecovery:
    def make_engine(self) -> DeuteronomyEngine:
        machine = Machine.paper_default(cores=1)
        return DeuteronomyEngine(
            machine,
            BwTreeConfig(segment_bytes=1 << 14),
            TcConfig(log_buffer_bytes=1 << 12,
                     log_retain_budget_bytes=1 << 14,
                     read_cache_bytes=1 << 13),
        )

    def test_committed_transactions_survive_crash(self):
        engine = self.make_engine()
        for index in range(300):
            engine.put(b"key%04d" % index, b"v%d" % index)
        engine.checkpoint()
        recovered = DeuteronomyEngine.recover(engine)
        for index in range(300):
            assert recovered.get(b"key%04d" % index) == b"v%d" % index

    def test_redo_replay_restores_post_checkpoint_commits(self):
        engine = self.make_engine()
        engine.put(b"base", b"1")
        engine.checkpoint()
        # Post-checkpoint commits, then force only the LOG to flash (the
        # data pages stay dirty): redo replay must restore them.
        for index in range(50):
            engine.put(b"late%03d" % index, b"L%d" % index)
        engine.tc.log.flush()
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"base") == b"1"
        for index in range(50):
            assert recovered.get(b"late%03d" % index) == b"L%d" % index
        assert recovered.tc.counters.get("tc.redo_replayed") >= 50

    def test_unflushed_log_tail_is_lost(self):
        engine = self.make_engine()
        engine.put(b"durable", b"1")
        engine.checkpoint()
        engine.put(b"volatile", b"2")   # redo record still in open buffer
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"durable") == b"1"
        assert recovered.get(b"volatile") is None

    def test_deletes_replayed(self):
        engine = self.make_engine()
        engine.put(b"k", b"v")
        engine.checkpoint()
        engine.delete(b"k")
        engine.tc.log.flush()
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"k") is None

    def test_recovered_engine_runs_transactions(self):
        engine = self.make_engine()
        engine.put(b"a", b"1")
        engine.checkpoint()
        recovered = DeuteronomyEngine.recover(engine)
        txn = recovered.tc.begin()
        value = recovered.tc.read(txn, b"a")
        recovered.tc.write(txn, b"b", value)
        recovered.tc.commit(txn)
        assert recovered.get(b"b") == b"1"

    def test_replay_order_newest_wins(self):
        engine = self.make_engine()
        engine.checkpoint()
        engine.put(b"k", b"old")
        engine.put(b"k", b"new")
        engine.tc.log.flush()
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"k") == b"new"


class TestSyncCommit:
    def make_engine(self, sync: bool) -> DeuteronomyEngine:
        machine = Machine.paper_default(cores=1)
        return DeuteronomyEngine(
            machine,
            BwTreeConfig(segment_bytes=1 << 14),
            TcConfig(log_buffer_bytes=1 << 12,
                     log_retain_budget_bytes=1 << 14,
                     read_cache_bytes=1 << 13,
                     sync_commit=sync),
        )

    def test_sync_commits_survive_crash_without_checkpoint_flush(self):
        engine = self.make_engine(sync=True)
        engine.put(b"base", b"0")
        engine.checkpoint()
        # Post-checkpoint sync commits: durable without any extra flush.
        for index in range(20):
            engine.put(b"key%02d" % index, b"v%d" % index)
        recovered = DeuteronomyEngine.recover(engine)
        for index in range(20):
            assert recovered.get(b"key%02d" % index) == b"v%d" % index

    def test_async_commits_may_be_lost(self):
        engine = self.make_engine(sync=False)
        engine.put(b"base", b"0")
        engine.checkpoint()
        engine.put(b"tail", b"volatile")
        recovered = DeuteronomyEngine.recover(engine)
        assert recovered.get(b"tail") is None

    def test_sync_commit_costs_more_io(self):
        writes = {}
        for sync in (False, True):
            engine = self.make_engine(sync)
            engine.machine.reset_accounting()
            for index in range(50):
                engine.put(b"key%02d" % (index % 25), b"v")
            writes[sync] = engine.machine.ssd.counters.get("ssd.writes")
        assert writes[True] > writes[False]

    def test_read_only_sync_commit_does_not_flush(self):
        engine = self.make_engine(sync=True)
        engine.put(b"k", b"v")
        flushes_before = engine.tc.log.flushes
        txn = engine.tc.begin()
        engine.tc.read(txn, b"k")
        engine.tc.commit(txn)
        assert engine.tc.log.flushes == flushes_before


class TestGroupCommitRecovery:
    """Crash behavior of the batched (group-commit) update path."""

    def make_engine(self, sync: bool = False) -> DeuteronomyEngine:
        machine = Machine.paper_default(cores=1)
        return DeuteronomyEngine(
            machine,
            BwTreeConfig(segment_bytes=1 << 14),
            TcConfig(log_buffer_bytes=1 << 12,
                     log_retain_budget_bytes=1 << 14,
                     read_cache_bytes=1 << 13,
                     sync_commit=sync),
        )

    def test_flushed_batch_survives_unflushed_batch_lost(self):
        engine = self.make_engine(sync=False)
        engine.checkpoint()
        engine.apply_batch([("put", b"early%03d" % i, b"E%d" % i)
                            for i in range(40)])
        engine.tc.log.flush()
        engine.apply_batch([("put", b"late%03d" % i, b"L%d" % i)
                            for i in range(40)])
        recovered = DeuteronomyEngine.recover(engine)
        for index in range(40):
            assert recovered.get(b"early%03d" % index) == b"E%d" % index
            assert recovered.get(b"late%03d" % index) is None

    def test_sync_group_commit_durable_without_checkpoint(self):
        engine = self.make_engine(sync=True)
        engine.put(b"base", b"0")
        engine.checkpoint()
        engine.apply_batch([("put", b"key%03d" % i, b"v%d" % i)
                            for i in range(30)])
        recovered = DeuteronomyEngine.recover(engine)
        for index in range(30):
            assert recovered.get(b"key%03d" % index) == b"v%d" % index

    def test_crash_mid_batch_recovers_a_prefix(self):
        # Values big enough that the 4KB log buffer fills (and flushes)
        # several times inside one large batch; a crash before the final
        # flush must leave exactly a prefix of the batch durable — never
        # a record without its predecessors.  One transaction per key,
        # committed as one group.
        engine = self.make_engine(sync=False)
        engine.checkpoint()
        keys = [b"key%03d" % i for i in range(80)]
        tc = engine.tc
        txns = []
        for key in keys:
            txns.append(tc.begin())
            tc.write(txns[-1], key, b"x" * 100)
        tc.commit_batch(txns)
        assert engine.tc.log.flushes > 0      # buffer filled mid-batch
        recovered = DeuteronomyEngine.recover(engine)
        survived = [recovered.get(key) is not None for key in keys]
        assert any(survived) and not all(survived)
        boundary = survived.index(False)
        assert all(survived[:boundary])
        assert not any(survived[boundary:])

    def test_batched_and_per_op_recover_to_the_same_state(self):
        items = [(b"key%03d" % (i % 30), b"v%d" % i) for i in range(90)]
        recovered = {}
        for mode in ("per_op", "batched"):
            engine = self.make_engine(sync=False)
            if mode == "per_op":
                for key, value in items:
                    engine.put(key, value)
            else:
                for start in range(0, len(items), 16):
                    engine.apply_batch([("put", key, value) for key, value
                                        in items[start:start + 16]])
            engine.checkpoint()
            recovered[mode] = DeuteronomyEngine.recover(engine)
        for index in range(30):
            key = b"key%03d" % index
            assert (recovered["per_op"].get(key)
                    == recovered["batched"].get(key))


class TestRecoveredFlashLiveness:
    """Regression: liveness flags must be rebuilt from the recovered state.

    Pre-crash page flushes invalidate the checkpoint-referenced flash
    images in favour of replacement writes that may never become durable.
    After a crash those flags are stale, and a GC pass that trusted them
    dropped segments the recovered mapping table still referenced.
    """

    def test_gc_after_recovery_keeps_checkpoint_referenced_images(self):
        # Distilled from the stateful-storage hypothesis failure.
        machine = Machine.paper_default(cores=1)
        tree = BwTree(machine, BwTreeConfig(
            cache_capacity_bytes=4096, segment_bytes=1 << 12,
            max_flash_fragments=3))
        key = b"\x00"
        tree.checkpoint()
        tree.delete(key)
        tree.upsert(key, b"")
        tree.checkpoint()
        tree.delete(key)
        tree.delete(key)
        # The fold clears ``base_flushed``, so the idle eviction writes a
        # full image and marks the checkpoint's [full, delta] chain dead;
        # the crash then loses that replacement.
        tree._consolidate(tree._descend(key))
        store = tree.store
        checkpoint = store.read(tree.checkpoints.latest_addr).image
        (__, chain, __), = checkpoint.page_chains
        machine.clock.advance(45.0)
        tree.cache.evict_idle_pages()
        live = {addr for segment_id in {addr.segment_id for addr in chain}
                for addr, __ in store.live_images(segment_id)}
        assert len(chain) == 2 and not live.intersection(chain)
        tree = tree.simulate_crash_and_recover()
        assert list(tree.scan(b"\x00")) == [(key, b"")]
        tree.collect_garbage(0.9)
        tree.upsert(key, b"")
        tree.upsert(key, b"")
        tree.checkpoint()          # KeyError'd before the fix
        assert tree.get(key) == b""
        # A second crash survives too: GC re-checkpointed consistently.
        tree = tree.simulate_crash_and_recover()
        assert tree.get(key) == b""

    def test_gc_after_recovery_preserves_all_checkpointed_records(self):
        tree = fresh_tree()
        for index in range(300):
            tree.upsert(b"key%05d" % index, b"v%d" % index)
        tree.checkpoint()
        # Dirty and flush pages: invalidates the checkpointed images in
        # favour of replacements, some of which stay in the open buffer.
        for index in range(0, 300, 3):
            tree.upsert(b"key%05d" % index, b"w%d" % index)
        for entry in tree.mapping_table.entries():
            if entry.dirty:
                tree.cache.flush_page(entry)
        recovered = tree.simulate_crash_and_recover()
        recovered.collect_garbage(0.5)
        for index in range(300):
            assert recovered.get(b"key%05d" % index) == b"v%d" % index

    def test_a_checkpoint_whose_flush_exhausted_its_retries_is_withdrawn(
            self):
        """The failed checkpoint's image stays in the open buffer unless
        it is withdrawn; a full re-flush then pops the delta image it
        references, the next flush makes it durable, and recovery picks
        it as the newest and raises ``RecoveryError``."""
        tree = fresh_tree()
        tree.upsert(b"k", b"acked")
        tree.checkpoint()
        tree.upsert(b"k", b"unacked")
        tree.machine.faults = FaultInjector(FaultPlan.io_error_at(
            "log_store.flush", 1, failures=RetryPolicy().max_attempts))
        with pytest.raises(IoError):
            tree.checkpoint()
        tree.machine.faults = None
        tree.upsert(b"k", b"flushed")
        entry = tree._descend(b"k")
        tree.cache.flush_page(entry, force_full=True)
        tree.store.flush()
        recovered = BwTree.recover(tree.machine, tree.store, tree.config)
        assert recovered.get(b"k") == b"acked"


class TestRecoveryIdempotence:
    """Regression: recovering the same crashed engine twice must not wipe
    the replacement engine's DRAM / open write buffer a second time."""

    def make_engine(self) -> DeuteronomyEngine:
        machine = Machine.paper_default(cores=1)
        return DeuteronomyEngine(
            machine, BwTreeConfig(segment_bytes=1 << 14),
            TcConfig(log_buffer_bytes=1 << 12),
        )

    def test_double_recover_returns_the_same_engine(self):
        crashed = self.make_engine()
        for index in range(100):
            crashed.put(b"key%03d" % index, b"v%d" % index)
        crashed.checkpoint()
        first = DeuteronomyEngine.recover(crashed)
        again = DeuteronomyEngine.recover(crashed)
        assert again is first
        for index in range(100):
            assert first.get(b"key%03d" % index) == b"v%d" % index

    def test_repeat_recover_does_not_wipe_new_writes(self):
        crashed = self.make_engine()
        crashed.put(b"durable", b"1")
        crashed.checkpoint()
        recovered = DeuteronomyEngine.recover(crashed)
        recovered.put(b"after", b"2")      # resident, not yet durable
        DeuteronomyEngine.recover(crashed)  # must be a no-op
        assert recovered.get(b"after") == b"2"
        assert recovered.machine.dram.current_bytes > 0

    def test_recover_in_a_loop_is_safe(self):
        shards = []
        for shard in range(3):
            engine = self.make_engine()
            engine.put(b"shard%d" % shard, b"v")
            engine.checkpoint()
            shards.append(engine)
        # Recover every shard twice, interleaved, as a routing layer
        # retrying a fleet recovery might.
        recovered = [DeuteronomyEngine.recover(s) for s in shards]
        recovered_again = [DeuteronomyEngine.recover(s) for s in shards]
        assert recovered == recovered_again or all(
            a is b for a, b in zip(recovered, recovered_again))
        for shard, engine in enumerate(recovered):
            assert engine.get(b"shard%d" % shard) == b"v"


class TestWholeTransactionRecovery:
    """Recovery replays whole transactions only, and the recovered log
    goes on from the crashed one's durable prefix."""

    KEYS = [b"k%03d" % index for index in range(80)]

    def make_engine(self, **tc) -> DeuteronomyEngine:
        engine = DeuteronomyEngine(Machine.paper_default(cores=2),
                                   tc_config=TcConfig(**tc))
        engine.dc.bulk_load([(key, b"old") for key in self.KEYS])
        engine.checkpoint()
        return engine

    def test_a_torn_transaction_is_not_replayed(self):
        # Eighty 136-byte redo records in one transaction: the 4 KB
        # buffer spills twice mid-transaction, so 60 records are
        # durable and 20 are not when the engine crashes.
        engine = self.make_engine(log_buffer_bytes=4096)
        engine.apply_batch([("put", key, b"n" * 100) for key in self.KEYS])
        assert len(engine.tc.log.durable_records) == 60
        recovered = DeuteronomyEngine.recover(engine)
        assert [recovered.get(key) for key in self.KEYS] == [b"old"] * 80

    def test_a_second_crash_keeps_every_acked_write(self):
        engine = self.make_engine(sync_commit=True)
        keys = self.KEYS[:50]
        for key in keys:
            engine.put(key, b"new")
        once = DeuteronomyEngine.recover(engine)
        twice = DeuteronomyEngine.recover(once)
        assert [once.get(key) for key in keys] == [b"new"] * 50
        assert [twice.get(key) for key in keys] == [b"new"] * 50

    def test_a_raised_group_commit_is_never_replayed(self):
        # The first spill's write fails all four attempts: the batch
        # raises with 30 of its records in the open buffer, which the
        # next flush makes durable.  Its end record was never logged.
        engine = self.make_engine(log_buffer_bytes=4096)
        engine.machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        with pytest.raises(IoError):
            engine.apply_batch([("put", key, b"n" * 100) for key in self.KEYS])
        assert [engine.get(key) for key in self.KEYS] == [b"old"] * 80
        engine.put(b"after", b"1")
        engine.checkpoint()
        recovered = DeuteronomyEngine.recover(engine)
        assert [recovered.get(key) for key in self.KEYS] == [b"old"] * 80
        assert recovered.get(b"after") == b"1"

    def test_a_raised_group_commit_bills_the_records_it_logged(self):
        # The same failed spill: the 30 records (4,080 B) already in the
        # open buffer hold DRAM, so they are billed and counted as one
        # successful group of those records would be.
        engine = self.make_engine(log_buffer_bytes=4096, sync_commit=True)
        log = engine.tc.log
        appended = log.appended_bytes
        engine.machine.cpu.sink = recorder = ChargeRecorder()
        engine.machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        with pytest.raises(IoError):
            engine.apply_batch([("put", key, b"n" * 100) for key in self.KEYS])
        assert log.appended_bytes - appended == 30 * 136
        assert engine.machine.dram.bytes_for("tc_recovery_log") == 30 * 136
        twin = Machine.paper_default(cores=2)
        twin.cpu.sink = twin_recorder = ChargeRecorder()
        RecoveryLog(twin, buffer_bytes=4096).append_batch([
            LogRecord(key, b"n" * 100, timestamp=1, txn_id=1, lsn=lsn)
            for lsn, key in enumerate(self.KEYS[:30], start=1)])
        assert ([event for event in recorder.events if event[0] == "tc_log"]
                == twin_recorder.events)

    def test_txn_ids_go_on_after_a_recovery(self):
        engine = self.make_engine()
        for key in self.KEYS[:3]:
            engine.put(key, b"a")
        engine.checkpoint()
        engine.put(self.KEYS[3], b"a")
        engine.tc.log.flush()
        recovered = DeuteronomyEngine.recover(engine)
        recovered.put(self.KEYS[4], b"a")
        recovered.tc.log.flush()
        assert [record.txn_id for record in
                recovered.tc.log.durable_records] == [1, 2, 3, 4, 5]

    def test_torn_commit_recover_commit_crash_recover(self):
        engine = self.make_engine(log_buffer_bytes=4096, sync_commit=True)
        acked = {}
        for index, key in enumerate(self.KEYS[:10]):
            engine.put(key, b"a%d" % index)
            acked[key] = b"a%d" % index
        # The batch's third flush is its commit flush, after two spills:
        # crash before it writes, with 60 of 80 records durable.
        engine.machine.faults = FaultInjector(
            FaultPlan.crash_at("recovery_log.flush", 3))
        with pytest.raises(CrashError):
            engine.apply_batch([("put", key, b"t" * 100) for key in self.KEYS])
        engine.machine.faults = None
        assert len(engine.tc.log.durable_records) == 10 + 60
        recovered = DeuteronomyEngine.recover(engine)
        for index, key in enumerate(self.KEYS[40:50]):
            recovered.put(key, b"b%d" % index)
            acked[key] = b"b%d" % index
        again = DeuteronomyEngine.recover(recovered)
        for survivor in (recovered, again):
            for key in self.KEYS:
                assert survivor.get(key) == acked.get(key, b"old"), key

