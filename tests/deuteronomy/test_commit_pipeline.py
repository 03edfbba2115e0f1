"""Commit pipeline: epoch scheduling, spill ordering, drain, config.

Unit tests drive :class:`CommitPipeline` directly over a small
:class:`RecoveryLog`; integration tests check the TC/engine/fleet wiring
(futures from commits, ``sync_log`` draining, topology validation).
"""

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, LogRecord, RecoveryLog
from repro.deuteronomy.commit_pipeline import CommitPipeline
from repro.deuteronomy.tc import TcConfig
from repro.faults import FaultInjector, FaultPlan, IoError
from repro.hardware import LogDevice, Machine, SsdSpec
from repro.sharding.engine import ShardedEngine

from ..frames import count_calls

TREE = BwTreeConfig(segment_bytes=1 << 16)


def record(index: int, size: int = 50) -> LogRecord:
    return LogRecord(b"k%04d" % index, b"v" * size, timestamp=index,
                     txn_id=index, lsn=index + 1)


@pytest.fixture
def log(machine: Machine) -> RecoveryLog:
    return RecoveryLog(machine, buffer_bytes=1024)


@pytest.fixture
def pipeline(machine: Machine, log: RecoveryLog) -> CommitPipeline:
    device = LogDevice(machine.ssd, machine.clock, ack_latency_us=25.0)
    return CommitPipeline(machine, log, device,
                          commit_interval_us=50.0, epoch_bytes=1 << 16)


class TestConfigValidation:
    def test_non_positive_interval_rejected(self, machine, log):
        device = LogDevice(machine.ssd, machine.clock)
        with pytest.raises(ValueError):
            CommitPipeline(machine, log, device, commit_interval_us=0.0)

    def test_non_positive_epoch_bytes_rejected(self, machine, log):
        device = LogDevice(machine.ssd, machine.clock)
        with pytest.raises(ValueError):
            CommitPipeline(machine, log, device, epoch_bytes=0)

    def test_sync_commit_and_pipeline_are_exclusive(self):
        with pytest.raises(ValueError):
            TcConfig(sync_commit=True, commit_pipeline=True)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0,
                                          -50.0])
    def test_a_window_that_never_closes_is_rejected(self, machine, log,
                                                    interval):
        # A NaN window compares False against every elapsed time, and an
        # infinite one is never reached, so their epochs closed only on
        # the byte threshold: over 50 64-op YCSB-A batches a NaN window
        # closed 2 epochs, as a 1e9 us window does, where a 50 us window
        # closes 5.
        with pytest.raises(ValueError, match="commit_interval_us"):
            TcConfig(commit_pipeline=True, commit_interval_us=interval)
        with pytest.raises(ValueError, match="TcConfig.commit_interval_us"):
            CommitPipeline(machine, log, LogDevice(machine.ssd, machine.clock),
                           commit_interval_us=interval)

    def test_a_negative_log_retain_budget_is_rejected(self):
        # -1 used to behave like 0 (retain nothing) without a word.
        with pytest.raises(ValueError, match="log_retain_budget_bytes"):
            TcConfig(log_retain_budget_bytes=-1)
        assert TcConfig(log_retain_budget_bytes=0).log_retain_budget_bytes == 0
        assert TcConfig(log_retain_budget_bytes=None).log_retain_budget_bytes \
            is None


class TestEpochScheduling:
    def test_enqueue_opens_epoch_and_returns_pending_future(
            self, log, pipeline):
        log.append(record(0))
        future = pipeline.enqueue_epoch()
        assert pipeline.epoch_open
        assert not future.resolved
        assert future.lsn == log.last_lsn == 1
        assert pipeline.pending_futures == 1

    def test_window_trip_closes_epoch(self, machine, log, pipeline):
        log.append(record(0))
        pipeline.enqueue_epoch()
        machine.clock.advance(60e-6)   # past the 50us window
        log.append(record(1))
        pipeline.enqueue_epoch()
        assert not pipeline.epoch_open
        assert pipeline.epochs_closed == 1
        assert pipeline.inflight_flushes == 1
        assert log.sealed_pending == 1

    def test_byte_threshold_closes_epoch(self, machine, log):
        device = LogDevice(machine.ssd, machine.clock)
        pipeline = CommitPipeline(machine, log, device,
                                  commit_interval_us=1e6, epoch_bytes=128)
        log.append(record(0, size=100))
        pipeline.enqueue_epoch()
        assert pipeline.epochs_closed == 1   # 132B appended >= 128B

    def test_an_enqueue_enters_close_and_ack_only_when_due(
            self, machine, log, pipeline):
        """Frame guard: the scheduler's tests run in ``enqueue_epoch``'s
        frame, so an enqueue with no close and no ack due enters
        neither ``maybe_close`` nor ``ack``."""
        log.append(record(0))
        calls = count_calls(pipeline.enqueue_epoch)
        assert calls["commit_pipeline.enqueue_epoch"] == 1
        assert "commit_pipeline.maybe_close" not in calls
        assert "commit_pipeline.ack" not in calls
        machine.clock.advance(60e-6)   # the window trips; no ack yet
        log.append(record(1))
        calls = count_calls(pipeline.enqueue_epoch)
        assert calls["commit_pipeline.maybe_close"] == 1
        assert "commit_pipeline.ack" not in calls
        assert pipeline.epochs_closed == 1
        machine.clock.advance(1.0)     # its ack is due; no close
        log.append(record(2))
        calls = count_calls(pipeline.enqueue_epoch)
        assert "commit_pipeline.maybe_close" not in calls
        assert calls["commit_pipeline.ack"] == 1
        assert log.durable_lsn == 2

    def test_inside_window_epoch_stays_open(self, log, pipeline):
        for index in range(3):
            log.append(record(index))
            pipeline.enqueue_epoch()
        assert pipeline.epoch_open
        assert pipeline.epochs_closed == 0
        assert pipeline.pending_futures == 3

    def test_ack_resolves_futures_in_lsn_order(self, machine, log,
                                               pipeline):
        log.append(record(0))
        first = pipeline.enqueue_epoch()
        machine.clock.advance(60e-6)
        log.append(record(1))
        # The close check runs post-enqueue, so this commit still rides
        # in epoch 1's buffer before the window trips.
        second = pipeline.enqueue_epoch()
        # Well past the ack horizon: the next enqueue drains the ack and
        # resolves epoch 1's futures, in LSN order, but not its own.
        machine.clock.advance(1.0)
        log.append(record(2))
        third = pipeline.enqueue_epoch()
        assert first.resolved and second.resolved
        assert not third.resolved
        assert log.durable_lsn == 2


class TestSpill:
    def test_buffer_full_spills_through_pipeline_not_sync_flush(
            self, machine, log, pipeline):
        flushes_before = log.flushes
        for index in range(20):   # ~86B each into 1 KiB buffers
            log.append(record(index))
            pipeline.enqueue_epoch()
        # Spilled buffers are sealed + submitted, never sync-flushed:
        # nothing is durable until an ack is reached.
        assert log.flushes == flushes_before
        assert pipeline.inflight_flushes > 0
        assert log.sealed_pending == pipeline.inflight_flushes
        assert pipeline.epoch_open   # spill keeps the epoch open

    def test_force_preserves_append_order(self, machine, log, pipeline):
        for index in range(30):
            log.append(record(index))
            pipeline.enqueue_epoch()
        pipeline.force()
        assert [r.txn_id for r in log.durable_records] == list(range(30))

    def test_sync_flush_with_sealed_inflight_asserts(self, log, pipeline):
        for index in range(20):
            log.append(record(index))
            pipeline.enqueue_epoch()
        assert log.sealed_pending > 0
        with pytest.raises(AssertionError, match="sealed buffers"):
            log.flush()


class TestForce:
    def test_force_resolves_everything(self, machine, log, pipeline):
        futures = []
        for index in range(5):
            log.append(record(index))
            futures.append(pipeline.enqueue_epoch())
        pipeline.force()
        assert all(future.resolved for future in futures)
        assert pipeline.pending_futures == 0
        assert pipeline.inflight_flushes == 0
        assert log.durable_lsn == log.last_lsn == 5
        assert not pipeline.epoch_open

    def test_force_waits_on_the_virtual_clock(self, machine, log,
                                              pipeline):
        log.append(record(0))
        pipeline.enqueue_epoch()
        before = machine.clock.now
        pipeline.force()
        # The ack lies in the future at force time: draining advanced
        # the clock and recorded the wait.
        assert machine.clock.now > before
        assert pipeline.commit_wait_us > 0.0

    def test_force_is_idempotent_when_drained(self, log, pipeline):
        log.append(record(0))
        pipeline.enqueue_epoch()
        pipeline.force()
        drained = (log.durable_lsn, pipeline.device.submitted_writes,
                   pipeline.futures_resolved)
        pipeline.force()
        assert (log.durable_lsn, pipeline.device.submitted_writes,
                pipeline.futures_resolved) == drained

    def test_force_flushes_records_appended_outside_epochs(
            self, log, pipeline):
        log.append(record(0))   # e.g. checkpoint metadata, no enqueue
        pipeline.force()
        assert log.durable_lsn == 1


class TestStats:
    def test_stats_keys_and_group_sizes(self, machine, log, pipeline):
        for index in range(4):
            log.append(record(index))
            pipeline.enqueue_epoch()
        pipeline.force()
        assert pipeline.epochs_closed == 1
        assert pipeline.futures_resolved == 4
        assert pipeline.group_sizes.mean == 4.0
        assert pipeline.device.submitted_writes == 1
        assert pipeline.device.queue_wait_us == 0.0


class TestEngineIntegration:
    def _engine(self, machine: Machine) -> DeuteronomyEngine:
        return DeuteronomyEngine(
            machine, tree_config=TREE,
            tc_config=TcConfig(commit_pipeline=True),
        )

    def test_commit_returns_future_and_sync_log_resolves(self, machine):
        engine = self._engine(machine)
        engine.put(b"k", b"v")
        future = engine.tc.last_commit_future
        assert future is not None
        engine.tc.sync_log()
        assert future.resolved
        assert engine.get(b"k") == b"v"

    def test_stats_carry_pipeline_counters(self, machine):
        engine = self._engine(machine)
        for index in range(10):
            engine.put(b"k%d" % index, b"v")
        engine.tc.sync_log()
        stats = engine.stats()
        assert stats["commit_epochs"] >= 1
        assert stats["log_device_writes"] >= 1
        assert stats["commit_futures_resolved"] == 10
        assert stats["commit_wait_us"] >= 0.0

    def test_sync_engine_reports_zero_pipeline_counters(self, machine):
        engine = DeuteronomyEngine(
            machine, tree_config=TREE,
            tc_config=TcConfig(sync_commit=True),
        )
        engine.put(b"k", b"v")
        stats = engine.stats()
        assert stats["commit_epochs"] == 0
        assert stats["log_device_writes"] == 0
        assert stats["commit_futures_resolved"] == 0

    def test_checkpoint_drains_the_pipeline(self, machine):
        engine = self._engine(machine)
        engine.put(b"k", b"v")
        engine.checkpoint()
        assert engine.tc.last_commit_future.resolved
        assert engine.tc.log.sealed_pending == 0

    def test_a_failed_spill_leaves_its_buffer_open(self, machine):
        """An epoch write that exhausts its retries stays in the open
        buffer, so the durable log has no hole and a resolved future's
        write survives a crash."""
        engine = self._engine(machine)
        engine.checkpoint()
        machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        acked = []
        for index in range(200):
            key, value = b"k%03d" % index, b"v%d" % index
            try:
                engine.put(key, value)
            except IoError:
                continue
            acked.append((key, value, engine.tc.last_commit_future))
        engine.tc.sync_log()
        log = engine.tc.log
        assert log.sealed_pending == 0
        assert [record.lsn for record in log.durable_records] == list(
            range(1, log.durable_lsn + 1))
        recovered = DeuteronomyEngine.recover(engine)
        lost = [key for key, value, future in acked
                if future.resolved and recovered.get(key) != value]
        assert len(acked) == 199 and lost == []

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_a_raised_group_commit_keeps_lsns_append_indices(
            self, machine, pipelined):
        """A group commit whose spill write exhausts its retries leaves
        its head in the open buffer; later commits are numbered after
        it, so the durable LSNs stay append indices and no future
        resolves ahead of its own record."""
        engine = DeuteronomyEngine(
            machine, tree_config=TREE,
            tc_config=TcConfig(commit_pipeline=pipelined,
                               log_buffer_bytes=4096))
        engine.checkpoint()
        machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        with pytest.raises(IoError):
            engine.apply_batch([("put", b"k%03d" % index, b"n" * 100)
                                for index in range(80)])
        acked = []
        for index in range(60):
            engine.put(b"z%03d" % index, b"v")
            acked.append((b"z%03d" % index, engine.tc.last_commit_future))
        log = engine.tc.log
        durable = {record.key for record in log.durable_records}
        assert [key for key, future in acked if future is not None
                and future.resolved and key not in durable] == []
        engine.tc.sync_log()
        assert [record.lsn for record in log.durable_records] == list(
            range(1, log.last_lsn + 1))


class TestShardedTopologies:
    def _fleet(self, shards: int = 2, **kwargs) -> ShardedEngine:
        return ShardedEngine(
            shards, tree_config=TREE,
            tc_config=TcConfig(commit_pipeline=True), **kwargs)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="log topology"):
            self._fleet(log_topology="nvram")

    @pytest.mark.parametrize("tc_config",
                             [None, TcConfig(sync_commit=True)])
    def test_dedicated_log_without_pipeline_rejected(self, tc_config):
        """Used to run colocated while stats() reported the label."""
        with pytest.raises(ValueError,
                           match="requires the commit pipeline"):
            ShardedEngine(2, tree_config=TREE, tc_config=tc_config,
                          log_topology="shared")

    def test_log_ssd_spec_on_colocated_rejected(self):
        """Used to be silently ignored: there is no log drive to spec."""
        with pytest.raises(ValueError, match="log_ssd_spec"):
            self._fleet(log_ssd_spec=SsdSpec())

    @pytest.mark.parametrize("topology", ["colocated", "shared"])
    def test_batches_commit_and_drain_on_every_topology(self, topology):
        fleet = self._fleet(log_topology=topology)
        fleet.apply_batch([("put", b"k%d" % i, b"v") for i in range(16)])
        fleet.drain_commits()
        for shard in fleet.shards:
            assert shard.tc.pipeline.pending_futures == 0
            assert shard.tc.log.sealed_pending == 0
        assert fleet.stats()["log_topology"] == topology
        assert fleet.get(b"k3") == b"v"

    def test_recovered_fleet_keeps_its_log_topology(self):
        """Recovery used to rebuild every shard colocated: the shared
        drive, its busy seconds and the fleet elapsed floor vanished
        while stats() still reported the crashed fleet's label."""
        # A log drive slow enough that its busy time, not any shard's
        # own elapsed time, bounds the fleet.
        slow = SsdSpec(iops=100.0)
        fleet = self._fleet(shards=3, log_topology="shared",
                            log_ssd_spec=slow)
        fleet.apply_batch([("put", b"k%d" % i, b"v") for i in range(32)])
        fleet.checkpoint()
        old_drives = {id(shard.tc.pipeline.device.ssd)
                      for shard in fleet.shards}

        recovered = ShardedEngine.recover(fleet)
        recovered.reset_accounting()
        recovered.apply_batch(
            [("put", b"k%d" % i, b"w") for i in range(32)])
        recovered.drain_commits()

        devices = [shard.tc.pipeline.device for shard in recovered.shards]
        for shard, device in zip(recovered.shards, devices):
            assert device.ssd is not shard.machine.ssd
            assert not device.colocated
            assert device.ssd.spec == slow
            assert device.submitted_writes >= 1
        drives = {id(device.ssd) for device in devices}
        assert not drives & old_drives   # the crashed queues are gone
        stats = recovered.stats()
        assert stats["log_topology"] == "shared"
        slowest_shard = max(shard_stats["elapsed_seconds"]
                            for shard_stats in stats["per_shard"])
        assert len(drives) == 1
        busy = recovered.shared_log_busy_seconds
        assert busy > slowest_shard
        assert stats["fleet"]["elapsed_seconds"] == busy
        assert recovered.get(b"k3") == b"w"

    def test_drain_commits_is_a_noop_for_sync_fleet(self):
        fleet = ShardedEngine(2, tree_config=TREE,
                              tc_config=TcConfig(sync_commit=True))
        fleet.apply_batch([("put", b"k", b"v")])
        fleet.drain_commits()   # must not raise
        assert fleet.stats()["log_topology"] == "colocated"
