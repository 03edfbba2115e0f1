"""Transaction component: lifecycle, snapshots, conflicts, caching tiers."""

import pytest

from repro.bwtree import BwTree, BwTreeConfig, OpResult
from repro.deuteronomy import (
    RecoveryLog,
    TcConfig,
    TransactionAborted,
    TransactionComponent,
    TxnStatus,
)
from repro.deuteronomy.commit_pipeline import CommitPipeline
from repro.deuteronomy.engine import STATS
from repro.deuteronomy.read_cache import ReadCache
from repro.faults import FaultInjector, FaultPlan, IoError
from repro.hardware import LogDevice, Machine


@pytest.fixture
def tc(machine: Machine) -> TransactionComponent:
    tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
    return TransactionComponent(machine, tree, TcConfig(
        log_buffer_bytes=1 << 12,
        log_retain_budget_bytes=1 << 14,
        read_cache_bytes=1 << 14,
    ))


class TestLifecycle:
    def test_begin_commit(self, tc):
        txn = tc.begin()
        assert txn.status is TxnStatus.ACTIVE
        ts = tc.commit(txn)
        assert ts > 0
        assert txn.status is TxnStatus.COMMITTED

    def test_abort_discards_writes(self, tc):
        txn = tc.begin()
        tc.write(txn, b"k", b"v")
        tc.abort(txn)
        assert tc.dc.get(b"k") is None
        reader = tc.begin()
        assert tc.read(reader, b"k") is None

    def test_double_commit_rejected(self, tc):
        txn = tc.begin()
        tc.commit(txn)
        with pytest.raises(ValueError):
            tc.commit(txn)
        with pytest.raises(ValueError):
            tc.read(txn, b"k")

    def test_commit_timestamps_monotonic(self, tc):
        first = tc.run_update(b"a", b"1")
        second = tc.run_update(b"b", b"2")
        assert second > first


class TestReadsAndWrites:
    def test_committed_write_visible_to_later_txn(self, tc):
        tc.run_update(b"k", b"v")
        txn = tc.begin()
        assert tc.read(txn, b"k") == b"v"

    def test_read_your_own_writes(self, tc):
        txn = tc.begin()
        tc.write(txn, b"k", b"mine")
        assert tc.read(txn, b"k") == b"mine"
        tc.abort(txn)

    def test_snapshot_does_not_see_later_commits(self, tc):
        tc.run_update(b"k", b"v1")
        reader = tc.begin()
        tc.run_update(b"k", b"v2")
        assert tc.read(reader, b"k") == b"v1"

    def test_a_zero_gc_lag_keeps_an_open_snapshot(self, machine):
        tc = TransactionComponent(
            machine, BwTree(machine, BwTreeConfig(segment_bytes=1 << 16)),
            TcConfig(version_gc_horizon_lag=0))
        keys = [b"k%d" % i for i in range(5)]
        for key in keys:
            tc.run_update(key, b"v0")
        reader = tc.begin()
        for round_ in range(1, 8):
            for key in keys:
                tc.run_update(key, b"v%d" % round_)
        assert tc.read(reader, b"k1") == b"v0"

    def test_a_negative_gc_lag_is_rejected(self):
        # Such a lag would truncate past the oldest open snapshot: the
        # read above would return the newest value instead.
        with pytest.raises(ValueError, match="version_gc_horizon_lag"):
            TcConfig(version_gc_horizon_lag=-3)

    def test_delete_via_none(self, tc):
        tc.run_update(b"k", b"v")
        tc.run_update(b"k", None)
        txn = tc.begin()
        assert tc.read(txn, b"k") is None
        assert tc.dc.get(b"k") is None

    def test_writes_reach_dc_as_blind_updates(self, tc, machine):
        reads_before = machine.ssd.counters.get("ssd.reads")
        tc.run_update(b"k", b"v")
        # Neither the blind update nor the read after it read flash.
        assert tc.dc.get_with_stats(b"k") == OpResult(b"v", True, 0)
        assert machine.ssd.counters.get("ssd.reads") == reads_before

    def test_run_read_only(self, tc):
        tc.run_update(b"a", b"1")
        tc.run_update(b"b", b"2")
        assert [tc.get(key) for key in (b"a", b"b", b"c")] == [
            b"1", b"2", None]
        assert tc.counters.get("tc.commits") == 5
        assert not tc._active

    def test_failed_get_leaves_no_active_transaction(self, machine):
        """A transient error inside an autocommit read aborts it: the
        active set stays empty, so the next commit still truncates."""
        tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16,
                                            demote_to_tiers=True))
        tc = TransactionComponent(
            machine, tree,
            TcConfig(read_cache_bytes=64, version_gc_horizon_lag=1))
        tc.dc.upsert(b"cold", b"v" * 20)
        tc.dc.checkpoint()
        tree.cache.capacity_bytes = 1
        tree.cache.ensure_capacity()             # demotes "cold"'s page
        assert tree.cache.stats.demotions == 1
        machine.faults = FaultInjector(FaultPlan.io_error_at("tier.promote", 1))
        with pytest.raises(IoError):
            tc.get(b"cold")
        assert not tc._active
        assert tc.counters.get("tc.aborts") == 1
        for value in (b"1", b"2", b"3", b"4"):
            tc.run_update(b"k", value)
        assert tc.versions.version_count() == 2

    def test_a_raised_sync_commit_leaves_no_active_transaction(
            self, machine):
        """A sync commit whose log flush exhausts its retries has logged
        and applied its write: it leaves the active set as committed,
        so the next commit still truncates."""
        tc = TransactionComponent(
            machine, BwTree(machine, BwTreeConfig(segment_bytes=1 << 16)),
            TcConfig(sync_commit=True, version_gc_horizon_lag=1))
        machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        with pytest.raises(IoError):
            tc.run_update(b"k", b"0")
        assert not tc._active
        assert tc.get(b"k") == b"0"
        for value in (b"1", b"2", b"3", b"4"):
            tc.run_update(b"k", value)
        assert tc.versions.version_count() == 2

    def test_a_put_whose_log_spill_raises_leaves_no_active_transaction(
            self, machine):
        """A put whose append spills a full buffer that cannot be
        written applied nothing: it aborts, so the next commit still
        truncates."""
        tc = TransactionComponent(
            machine, BwTree(machine, BwTreeConfig(segment_bytes=1 << 16)),
            TcConfig(log_buffer_bytes=4096, version_gc_horizon_lag=1))
        machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        for index in range(30):   # 30 136-byte records fill the buffer
            tc.run_update(b"a%03d" % index, b"n" * 100)
        with pytest.raises(IoError):
            tc.run_update(b"k", b"n" * 100)
        assert not tc._active
        assert tc.get(b"k") is None
        for value in (b"1", b"2", b"3", b"4"):
            tc.run_update(b"k", value)
        assert tc.versions.version_count() == 2 + 30

    def test_a_commit_whose_log_spill_raises_applies_no_key(self, machine):
        """A commit logs its whole write set before it applies a key, so
        a log spill that exhausts its retries part-way through the write
        set leaves none of it visible."""
        tc = TransactionComponent(
            machine, BwTree(machine, BwTreeConfig(segment_bytes=1 << 16)),
            TcConfig(log_buffer_bytes=4096))
        machine.faults = FaultInjector(
            FaultPlan.io_error_at("recovery_log.flush", 1, failures=4))
        keys = [b"k%03d" % index for index in range(80)]
        txn = tc.begin()
        for key in keys:
            tc.write(txn, key, b"n" * 100)
        with pytest.raises(IoError):
            tc.commit(txn)
        tc.abort(txn)
        assert [key for key in keys if tc.get(key) is not None] == []
        assert [key for key in keys if tc.dc.get(key) is not None] == []


class TestConflicts:
    def test_write_write_conflict_aborts_second(self, tc):
        t1 = tc.begin()
        t2 = tc.begin()
        tc.write(t1, b"k", b"A")
        tc.write(t2, b"k", b"B")
        tc.commit(t1)
        with pytest.raises(TransactionAborted):
            tc.commit(t2)
        assert t2.status is TxnStatus.ABORTED
        assert tc.dc.get(b"k") == b"A"

    def test_disjoint_writes_both_commit(self, tc):
        t1 = tc.begin()
        t2 = tc.begin()
        tc.write(t1, b"a", b"A")
        tc.write(t2, b"b", b"B")
        tc.commit(t1)
        tc.commit(t2)
        assert tc.dc.get(b"a") == b"A"
        assert tc.dc.get(b"b") == b"B"

    def test_read_only_never_conflicts(self, tc):
        tc.run_update(b"k", b"v1")
        reader = tc.begin()
        tc.read(reader, b"k")
        tc.run_update(b"k", b"v2")
        tc.commit(reader)   # fine: no writes


class TestCachingTiers:
    def test_recent_update_served_from_log_cache(self, tc):
        tc.run_update(b"k", b"v")
        txn = tc.begin()
        assert tc.read(txn, b"k") == b"v"
        # Served before the read cache is probed or the DC reached.
        assert tc.read_cache.hits + tc.read_cache.misses == 0
        assert tc.counters.get("tc.dc_reads") == 0

    def test_dc_read_populates_read_cache(self, tc):
        # Put data in the DC without going through the TC.
        tc.dc.upsert(b"cold", b"v")
        txn = tc.begin()
        assert tc.read(txn, b"cold") == b"v"
        assert tc.counters.get("tc.dc_reads") == 1
        txn2 = tc.begin()
        assert tc.read(txn2, b"cold") == b"v"
        assert tc.read_cache.hits == 1
        assert tc.counters.get("tc.dc_reads") == 1   # no second trip

    def test_update_invalidates_read_cache(self, tc):
        tc.dc.upsert(b"k", b"old")
        txn = tc.begin()
        tc.read(txn, b"k")
        tc.commit(txn)
        tc.run_update(b"k", b"new")
        reader = tc.begin()
        assert tc.read(reader, b"k") == b"new"

    def test_hit_rate_reported(self, tc):
        tc.run_update(b"k", b"v")
        txn = tc.begin()
        tc.read(txn, b"k")
        tc.read(txn, b"k")
        # Served by the retained log: neither read reached the DC.
        hit_rate = {name: read for name, __, read in STATS}["tc_hit_rate"]
        assert hit_rate({"reads": tc.counters.get("tc.reads"),
                         "dc_reads": tc.counters.get("tc.dc_reads")}) == 1.0

    def test_footprint_tracks_components(self, tc, machine):
        for index in range(100):
            tc.run_update(b"key%04d" % index, b"v" * 50)
        assert tc.dram_footprint_bytes() == (
            machine.dram.bytes_for("tc_recovery_log")
            + machine.dram.bytes_for("tc_read_cache")
            + machine.dram.bytes_for("tc_version_store")
        )
        assert tc.dram_footprint_bytes() > 0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name", [
    "version_gc_horizon_lag", "read_cache_bytes", "log_buffer_bytes",
    "log_retain_budget_bytes", "commit_epoch_bytes"])
@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
def test_a_size_that_never_binds_is_refused_by_name(name, value):
    """Every comparison with NaN is false and none reaches infinity, so
    each of these silently built a different TC: in a 2,000-record
    YCSB-A run a NaN or infinite GC lag never truncated a version (2,975
    resident instead of 1,167), a NaN read-cache budget never evicted, a
    NaN or infinite log buffer never filled, a NaN retention budget
    never dropped a buffer (an infinite one is spelled ``None``), and a
    NaN or infinite epoch threshold never closed an epoch by bytes."""
    with pytest.raises(ValueError, match=f"TcConfig.{name}"):
        TcConfig(commit_pipeline=True, **{name: value})


@pytest.mark.parametrize("value", [NAN, INF, 0, -1], ids=str)
def test_the_components_refuse_the_same_sizes_when_built_directly(value):
    machine = Machine.paper_default(cores=1)
    with pytest.raises(ValueError, match="TcConfig.log_buffer_bytes"):
        RecoveryLog(machine, buffer_bytes=value)
    with pytest.raises(ValueError, match="TcConfig.read_cache_bytes"):
        ReadCache(machine, budget_bytes=value)
    log = RecoveryLog(machine)
    with pytest.raises(ValueError, match="TcConfig.commit_epoch_bytes"):
        CommitPipeline(machine, log, LogDevice(machine.ssd, machine.clock),
                       epoch_bytes=value)
