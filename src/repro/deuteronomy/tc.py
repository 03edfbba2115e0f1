"""Deuteronomy's transaction component (paper Section 6.3, Figure 6).

The TC provides timestamp-ordered MVCC transactions over a data component
(the Bw-tree).  Its cost-relevant behaviours, all reproduced here:

* every transactional update is a **blind update** at the Bw-tree: the TC
  reads (if it needs to) through its caches, and posts the after-image back
  without requiring the data page in memory (Section 6.2);
* the recovery log's buffers are retained in memory and, together with the
  MVCC hash table, act as an **updated-record cache**;
* records read from the DC land in a log-structured **read cache**;
* a TC cache hit avoids not just the I/O but the entire descent into the
  Bw-tree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from ..bwtree.tree import BwTree, OpResult
from ..frozen import ABOVE_ZERO, check_bounds
from ..hardware.logdevice import LogDevice
from ..hardware.machine import Machine
from ..hardware.metrics import CounterSet
from ..storage.cache import PageCache
from .commit_pipeline import CommitFuture, CommitPipeline
from .mvcc import VersionStore
from .read_cache import ReadCache
from .record_cache import CONCURRENCY_MODES, RecordStore
from .recovery_log import LOG_RECORD_OVERHEAD_BYTES, LogRecord, RecoveryLog


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class Transaction:
    """A client transaction: reads at ``read_timestamp``, buffers writes."""

    txn_id: int
    read_timestamp: int
    status: TxnStatus = TxnStatus.ACTIVE
    write_set: Dict[bytes, Optional[bytes]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.txn_id <= 0:
            raise ValueError("transaction ids start at 1")


class TransactionAborted(RuntimeError):
    """Raised when commit fails a conflict check."""


class DataComponent(Protocol):
    """What the TC and the engine call on their data component (DC).

    :class:`TransactionComponent` reads, posts blind writes and checks
    keys; :class:`~repro.deuteronomy.engine.DeuteronomyEngine` loads,
    checkpoints, collects garbage, recovers, and reads ``cache``'s
    counters for its ``STATS`` rows.  :class:`~repro.bwtree.tree.BwTree`
    is the one implementation.  A member is added only with a caller in
    the TC or the engine.
    """

    cache: PageCache

    def get_with_stats(self, key: bytes) -> OpResult:
        ...

    def upsert(self, key: bytes, value: bytes) -> OpResult:
        ...

    def delete(self, key: bytes) -> OpResult:
        ...

    def apply_blind_batch(
        self, ops: List[Tuple[bytes, Optional[bytes]]]
    ) -> OpResult:
        ...

    @staticmethod
    def validate_key(key: bytes) -> None:
        ...

    def bulk_load(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        ...

    def checkpoint(self) -> None:
        ...

    def collect_garbage(self, target_utilization: float) -> int:
        ...

    def simulate_crash_and_recover(self) -> "DataComponent":
        ...


def check_batch(
    ops: Iterable[Tuple[str, bytes, Optional[bytes]]],
    log_buffer_bytes: int,
) -> List[bytes]:
    """The keys of a mixed ``(kind, key, value)`` batch, in order, once
    every op is known good: a kind of ``"get"`` / ``"put"`` /
    ``"delete"``, a key the data component accepts, for a put a bytes
    value, and for a write a redo record that fits a log buffer of
    ``log_buffer_bytes``.  The first bad op raises what the data
    component (or the log) would raise for it, before the caller has run
    or billed any of the batch."""
    room = log_buffer_bytes - LOG_RECORD_OVERHEAD_BYTES
    keys: List[bytes] = []
    for kind, key, value in ops:
        if type(key) is not bytes or not key:
            BwTree.validate_key(key)
        if kind == "put":
            if type(value) is not bytes:
                if value is None:
                    raise ValueError("put requires a value")
                BwTree.validate_kv(key, value)
            if len(key) + len(value) > room:
                nbytes = LOG_RECORD_OVERHEAD_BYTES + len(key) + len(value)
                raise ValueError(f"record of {nbytes}B exceeds buffer size "
                                 f"{log_buffer_bytes}")
        elif kind == "delete":
            if len(key) > room:
                nbytes = LOG_RECORD_OVERHEAD_BYTES + len(key)
                raise ValueError(f"record of {nbytes}B exceeds buffer size "
                                 f"{log_buffer_bytes}")
        elif kind != "get":
            raise ValueError(f"unknown batch op kind {kind!r}")
        keys.append(key)
    return keys


def check_write(key: bytes, value: Optional[bytes],
                log_buffer_bytes: int) -> None:
    """Raise what the data component would raise for a write of
    ``value`` (``None`` deletes) to ``key``, or what the log would raise
    for a redo record larger than ``log_buffer_bytes``; return if both
    take it."""
    if type(key) is not bytes or not key or (
            value is not None and type(value) is not bytes):
        BwTree.validate_kv(key, value)  # type: ignore[arg-type]
    nbytes = LOG_RECORD_OVERHEAD_BYTES + len(key) + (
        len(value) if value is not None else 0)
    if nbytes > log_buffer_bytes:
        raise ValueError(
            f"record of {nbytes}B exceeds buffer size {log_buffer_bytes}")


@dataclass(frozen=True, slots=True)
class TcConfig:
    """TC sizing knobs."""

    log_buffer_bytes: int = 1 << 20
    log_retain_budget_bytes: Optional[int] = 8 << 20
    read_cache_bytes: int = 4 << 20
    version_gc_horizon_lag: int = 1024   # truncate versions this far back
    # Force the log to flash at every commit (or group commit); the
    # default leaves durability to checkpoints and full log buffers.
    sync_commit: bool = False
    # Asynchronous epoch-based group commit: commits enqueue into the
    # current epoch, which closes on a virtual-time window or byte
    # threshold and flushes as one device write (not with sync_commit).
    commit_pipeline: bool = False
    commit_interval_us: float = 50.0
    commit_epoch_bytes: int = 1 << 16
    # Record-cache v2 (Deuteronomy 2.0): replace the FIFO read cache with
    # a log-structured record heap serving reads *and* a blind-write fast
    # path that defers DC page materialization to checkpoint/drain time.
    record_cache: bool = False
    record_cache_bytes: int = 8 << 20
    record_arena_bytes: int = 64 << 10
    # Drain committed-but-unapplied record deltas to the DC once this
    # many dirty bytes accumulate (must leave GC headroom under
    # ``record_cache_bytes``, since dirty records are pinned).
    record_dirty_flush_bytes: int = 1 << 20
    # How record-heap accesses are costed: "latch_free" (epoch protect +
    # CAS install) or "latched" (latch acquire + convoy terms).
    concurrency_mode: str = "latch_free"

    #: Every size, count and window; an unbudgeted log retention is
    #: ``None``, never ``inf``.
    BOUNDS = {
        "log_buffer_bytes": (1, math.inf),
        "log_retain_budget_bytes": (0, math.inf),
        "read_cache_bytes": (1, math.inf),
        "version_gc_horizon_lag": (0, math.inf),
        "commit_interval_us": (ABOVE_ZERO, math.inf),
        "commit_epoch_bytes": (1, math.inf),
        "record_cache_bytes": (1, math.inf),
        "record_arena_bytes": (1, math.inf),
        "record_dirty_flush_bytes": (1, math.inf),
    }

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.sync_commit and self.commit_pipeline:
            raise ValueError(
                "sync_commit and commit_pipeline are mutually exclusive"
            )
        if self.concurrency_mode not in CONCURRENCY_MODES:
            raise ValueError(
                f"concurrency_mode must be one of {CONCURRENCY_MODES}, "
                f"got {self.concurrency_mode!r}"
            )
        if (self.record_cache
                and self.record_dirty_flush_bytes >= self.record_cache_bytes):
            raise ValueError(
                "record_dirty_flush_bytes must be below record_cache_bytes "
                f"({self.record_dirty_flush_bytes} >= "
                f"{self.record_cache_bytes}): dirty records are pinned, so "
                "the heap would outgrow its budget before it drains"
            )


class TransactionComponent:
    """MVCC transactions over a :class:`DataComponent`."""

    def __init__(self, machine: Machine, data_component: DataComponent,
                 config: Optional[TcConfig] = None,
                 log_device: Optional[LogDevice] = None) -> None:
        self.machine = machine
        self.dc = data_component
        self.config = config if config is not None else TcConfig()
        self.log = RecoveryLog(
            machine,
            buffer_bytes=self.config.log_buffer_bytes,
            retain_budget_bytes=self.config.log_retain_budget_bytes,
        )
        # Asynchronous commit pipeline (None under sync/periodic commit).
        # The default log device is colocated with the data SSD; bench
        # topologies pass a dedicated or shared device instead.
        self.pipeline: Optional[CommitPipeline] = None
        self._last_future: Optional[CommitFuture] = None
        if self.config.commit_pipeline:
            if log_device is None:
                log_device = LogDevice(machine.ssd, machine.clock)
            self.pipeline = CommitPipeline(
                machine, self.log, log_device,
                commit_interval_us=self.config.commit_interval_us,
                epoch_bytes=self.config.commit_epoch_bytes,
            )
        self.read_cache = ReadCache(machine, self.config.read_cache_bytes)
        # Record-cache v2: when enabled, the record heap supersedes the
        # FIFO read cache on the read path and absorbs blind writes
        # (pages are built lazily, at drain/checkpoint time).
        self.records: Optional[RecordStore] = None
        if self.config.record_cache:
            self.records = RecordStore(
                machine,
                budget_bytes=self.config.record_cache_bytes,
                arena_bytes=self.config.record_arena_bytes,
                concurrency_mode=self.config.concurrency_mode,
            )
        self.versions = VersionStore(machine)
        # The one-call paths' charges, priced once: the begin (a
        # timestamp, then the request dispatch), the commit timestamp,
        # a write's copy into the write set, and the commit's conflict
        # probe of a written key's version chain.
        plan = machine.cpu.plan
        self._begin_dispatch = plan("tc", "timestamp_alloc", "op_dispatch")
        self._stamp = plan("tc", "timestamp_alloc")
        self._copy = plan("tc", then="copy_per_byte")
        self._conflict_probe = plan("tc_mvcc", "hash_probe")
        self.counters = CounterSet()
        # The dict behind ``counters`` (a reset clears it in place): the
        # read path bumps its constant-1 counters here directly.
        self._counts = self.counters.counts
        self._clock = 0
        self._next_txn_id = 1
        self._active: Dict[int, Transaction] = {}

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction reading at the current timestamp."""
        self.machine.cpu.charge("timestamp_alloc", category="tc")
        txn = Transaction(self._next_txn_id, read_timestamp=self._clock)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit: conflict-check, log, version-install, blind-post to DC.

        Uses first-committer-wins on write-write conflicts: if any written
        key gained a committed version after the transaction's read
        timestamp, the transaction aborts (:class:`TransactionAborted`).
        Returns the commit timestamp.
        """
        self._require_active(txn)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("tc.commit", "tc")
        try:
            for key in txn.write_set:
                newest = self.versions.newest_timestamp(key)
                if newest is not None and newest > txn.read_timestamp:
                    self.abort(txn)
                    raise TransactionAborted(
                        f"txn {txn.txn_id}: write-write conflict on {key!r}")
            self.machine.cpu.charge("timestamp_alloc", category="tc")
            self._clock += 1
            commit_ts = self._clock
            # The write set is applied once its last record, the one
            # that ends the transaction, is in the log: an append that
            # raises (a spill that exhausts its retries) leaves no key
            # visible.
            last = self.log.appended_records + len(txn.write_set)
            logged: List[LogRecord] = []
            for key, value in txn.write_set.items():
                lsn = self.log.appended_records + 1
                record = LogRecord(key, value, commit_ts, txn.txn_id, lsn,
                                   lsn == last)
                self.log.append(record)
                logged.append(record)
                if not record.end:
                    continue
                for applied in logged:
                    key = applied.key
                    value = applied.value
                    self.versions.add(applied)
                    self.read_cache.invalidate(key)
                    # The DC update is blind: no read, just a delta post
                    # (Section 6.2 — "all transactional updates are blind
                    # updates at the Bw-tree").  With the record store
                    # on, the delta lands in the record heap instead
                    # (dirty) and the DC absorbs it lazily at
                    # drain/checkpoint time — the commit never touches a
                    # page.
                    if (self.records is not None
                            and self.records.append_record(
                                key, value, dirty=True)):
                        pass
                    elif value is None:
                        self.dc.delete(key)
                    else:
                        self.dc.upsert(key, value)
                    self.counters.add("tc.writes_applied")
            # Logged and applied: the transaction has committed, and it
            # leaves the active set even if a drain or flush below raises.
            txn.status = TxnStatus.COMMITTED
            active = self._active
            del active[txn.txn_id]
            if (self.records is not None and self.records.dirty_bytes
                    >= self.config.record_dirty_flush_bytes):
                self.flush_record_cache()
            if txn.write_set:
                if self.pipeline is not None:
                    self._last_future = self.pipeline.enqueue_epoch()
                elif self.config.sync_commit:
                    self.log.flush()
            self.counters.add("tc.commits")
            oldest = (min(t.read_timestamp for t in active.values())
                      if active else self._clock)
            horizon = oldest - self.config.version_gc_horizon_lag
            if 0 < horizon and self.versions.oldest_superseded <= horizon:
                self.versions.truncate(horizon)
            return commit_ts
        finally:
            if tracer is not None:
                tracer.close_span()

    def commit_batch(self, txns: Sequence[Transaction]) -> List[Optional[int]]:
        """Group commit: one log-buffer append and one flush decision.

        Each transaction commits or aborts on its own, by
        first-committer-wins against committed versions and *within* the
        batch, but the cost is amortized: one timestamp-range allocation,
        one append of every redo record, one round of blind posts to the
        DC and (under ``sync_commit``) one log flush for the group.
        Returns one entry per transaction, in order: its commit
        timestamp, or ``None`` if it lost a conflict check and was
        aborted.  A raise leaves every transaction active.
        """
        listed: set = set()
        for txn in txns:
            self._require_active(txn)
            if txn.txn_id in listed:
                raise ValueError(
                    f"txn {txn.txn_id} is listed twice in one commit_batch")
            listed.add(txn.txn_id)
        # The group leaves the active set before the version-GC horizon
        # is taken.
        active = self._active
        for txn in txns:
            del active[txn.txn_id]
        try:
            results = self._group_commit(
                [(txn.txn_id, txn.read_timestamp, txn.write_set)
                 for txn in txns])
        except BaseException:
            for txn in txns:
                active[txn.txn_id] = txn
            raise
        for txn, commit_ts in zip(txns, results):
            txn.status = (TxnStatus.ABORTED if commit_ts is None
                          else TxnStatus.COMMITTED)
        return results

    def _group_commit(
        self, groups: Sequence[Tuple[int, int, Dict[bytes, Optional[bytes]]]],
    ) -> List[Optional[int]]:
        """The one group commit of ``(txn_id, read_ts, write_set)``
        groups outside the active set: the stamp, each written key's
        conflict probe, one log append, the version installs, one blind
        batch to the DC, then the record drain, the epoch or flush and
        the version-GC horizon once.  Returns each group's commit
        timestamp, or ``None`` (an abort, counted) for a group that lost
        its conflict check (see :meth:`commit_batch`)."""
        counts = self._counts
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            tracer.open_span("tc.commit_batch", "tc")
        try:
            bill = machine.cpu.bill
            bill(self._stamp)
            versions = self.versions
            chains = versions.chains
            conflict_probe = self._conflict_probe
            log = self.log
            lsn = log.appended_records
            commit_ts = self._clock
            records: List[LogRecord] = []
            results: List[Optional[int]] = []
            written: set = set()
            for txn_id, read_ts, write_set in groups:
                for key in write_set:
                    if key in written:
                        break
                    # The conflict probe, VersionStore.newest_timestamp
                    # in this frame.
                    bill(conflict_probe)
                    chain = chains.get(key)
                    if chain and chain[0].timestamp > read_ts:
                        break
                else:
                    commit_ts += 1
                    last = lsn + len(write_set)
                    for key, value in write_set.items():
                        lsn += 1
                        records.append(LogRecord(key, value, commit_ts,
                                                 txn_id, lsn, lsn == last))
                        written.add(key)
                    results.append(commit_ts)
                    continue
                counts["tc.aborts"] += 1.0
                results.append(None)
            committed = commit_ts - self._clock
            self._clock = commit_ts
            log.append_batch(records)
            read_cache = self.read_cache
            cached = read_cache.entries
            heap = self.records
            dc_ops: List[Tuple[bytes, Optional[bytes]]] = []
            for record in records:
                key = record.key
                value = record.value
                versions.add(record)
                if key in cached:
                    read_cache.invalidate(key)
                if heap is None or not heap.append_record(key, value,
                                                          dirty=True):
                    dc_ops.append((key, value))
                counts["tc.writes_applied"] += 1.0
            if committed:
                counts["tc.commits"] += committed
            if dc_ops:
                # Blind posts, exactly as in :meth:`commit`, but the DC
                # enters its epoch and dispatches once for the whole group.
                self.dc.apply_blind_batch(dc_ops)
            if (heap is not None and heap.dirty_bytes
                    >= self.config.record_dirty_flush_bytes):
                self.flush_record_cache()
            if records:
                if self.pipeline is not None:
                    self._last_future = self.pipeline.enqueue_epoch(
                        committed)
                elif self.config.sync_commit:
                    log.flush()
            counts["tc.group_commits"] += 1.0
            # The version-GC horizon, as in commit.
            active = self._active
            oldest = (min(t.read_timestamp for t in active.values())
                      if active else self._clock)
            horizon = oldest - self.config.version_gc_horizon_lag
            if 0 < horizon and versions.oldest_superseded <= horizon:
                versions.truncate(horizon)
        finally:
            if tracer is not None:
                tracer.close_span()
        return results

    def abort(self, txn: Transaction) -> None:
        """Abort: buffered writes are simply discarded."""
        self._require_active(txn)
        txn.status = TxnStatus.ABORTED
        del self._active[txn.txn_id]
        self.counters.add("tc.aborts")

    def _require_active(self, txn: Transaction) -> None:
        if txn.status is not TxnStatus.ACTIVE:
            raise ValueError(
                f"txn {txn.txn_id} is {txn.status.value}, not active"
            )

    # ------------------------------------------------------------------
    # reads and writes
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Read-only autocommit transaction: one snapshot read of ``key``.

        Bills what :meth:`begin`, :meth:`read` and :meth:`commit` would
        bill for it, in the same order and under the same spans, and
        consumes a transaction id, but builds no :class:`Transaction`, so
        it never pins the version-GC horizon.  A failed read counts an
        abort and re-raises; a key the data component would reject is
        refused before anything is charged or counted.  The commit
        half's record drain and version GC run only when they have work
        (a commit that raised may leave the heap over its threshold).
        """
        if type(key) is not bytes or not key:
            self.dc.validate_key(key)
        machine = self.machine
        cpu = machine.cpu
        tracer = machine.tracer
        counts = self._counts
        cpu.bill(self._begin_dispatch)
        read_ts = self._clock
        self._next_txn_id += 1
        try:
            machine._ops_started += 1
            counts["tc.reads"] += 1.0
            if tracer is not None:
                tracer.open_span("tc.read", "tc")
            try:
                value = self._snapshot_read(key, read_ts)
            finally:
                if tracer is not None:
                    tracer.close_span()
        except BaseException:
            counts["tc.aborts"] += 1.0
            raise
        if tracer is not None:
            tracer.open_span("tc.commit", "tc")
        try:
            cpu.bill(self._stamp)
            self._clock += 1
            records = self.records
            if (records is not None and records.dirty_bytes
                    >= self.config.record_dirty_flush_bytes):
                self.flush_record_cache()
            counts["tc.commits"] += 1.0
            # The version-GC horizon, as in commit.
            active = self._active
            oldest = (min(t.read_timestamp for t in active.values())
                      if active else self._clock)
            horizon = oldest - self.config.version_gc_horizon_lag
            versions = self.versions
            if 0 < horizon and versions.oldest_superseded <= horizon:
                versions.truncate(horizon)
        finally:
            if tracer is not None:
                tracer.close_span()
        return value

    def read(self, txn: Transaction, key: bytes) -> Optional[bytes]:
        """Transactional read at the transaction's snapshot."""
        self._require_active(txn)
        self.machine.cpu.charge("op_dispatch", category="tc")
        return self._read_one(txn, key)

    def read_batch(self, txn: Transaction,
                   keys: Iterable[bytes]) -> List[Optional[bytes]]:
        """Batched snapshot reads: one request dispatch for the group.

        Each key still pays its own cache probes / DC descent — batching
        amortizes only the per-request overhead, not the real lookups.
        """
        self._require_active(txn)
        self.machine.cpu.charge("op_dispatch", category="tc")
        return [self._read_one(txn, key) for key in keys]

    def _read_one(self, txn: Transaction, key: bytes) -> Optional[bytes]:
        """Every transactional read enters here; a key the data component
        would reject is rejected before the read is counted."""
        if type(key) is not bytes or not key:
            self.dc.validate_key(key)
        self.machine.begin_operation()
        self._counts["tc.reads"] += 1.0
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("tc.read", "tc")
        try:
            # Read-your-own-writes.
            if key in txn.write_set:
                return txn.write_set[key]
            return self._snapshot_read(key, txn.read_timestamp)
        finally:
            if tracer is not None:
                tracer.close_span()

    def _snapshot_read(self, key: bytes, read_ts: int) -> Optional[bytes]:
        """The committed value of ``key`` as of ``read_ts``, through the
        TC's caches first and the data component last."""
        counts = self._counts
        # 1. MVCC version store — may be servable from a retained log
        #    buffer (updated-record cache).
        version, examined = self.versions.visible(key, read_ts)
        del examined  # already charged per visibility check
        # The version is its redo record: servable while the log still
        # retains its LSN.  Once its buffer is dropped, the read falls
        # through to the read cache / DC for the record bytes.
        if version is not None and version.lsn >= self.log.first_retained_lsn:
            return version.value

        # 2. Record heap (record-cache v2) or the FIFO read cache of
        #    records previously fetched from the DC.  A record-heap
        #    hit may be a cached tombstone: "known deleted" without
        #    a DC trip.
        if self.records is not None:
            hit, value = self.records.lookup(key)
            if hit:
                return value
        else:
            hit, value = self.read_cache.lookup(key)
            if hit:
                return value

        # 3. Full trip to the data component (may cost an I/O).
        result = self.dc.get_with_stats(key)
        counts["tc.dc_reads"] += 1.0
        if result.ios > 0:
            counts["tc.dc_read_ios"] += result.ios
        found_value = result.value if result.found else None
        if self.records is not None:
            # Negative results are cached too (as clean tombstones).
            self.records.append_record(key, found_value, dirty=False)
        elif found_value is not None:
            self.read_cache.insert(key, found_value)
        return found_value

    def write(self, txn: Transaction, key: bytes,
              value: Optional[bytes]) -> None:
        """Buffer an update (``None`` deletes) until commit."""
        self._require_active(txn)
        self.machine.cpu.charge("op_dispatch", category="tc")
        self._buffer_write(txn, key, value)

    def _buffer_write(self, txn: Transaction, key: bytes,
                      value: Optional[bytes]) -> None:
        """Every TC write enters here.  A key or value the data component
        would reject, or a redo record larger than a log buffer, is
        refused before anything is counted, charged or buffered: a logged
        record must be one recovery can replay."""
        check_write(key, value, self.config.log_buffer_bytes)
        machine = self.machine
        machine.begin_operation()
        machine.cpu.bill(self._copy,
                         len(key) + (len(value) if value is not None else 0))
        txn.write_set[key] = value

    def execute_batch(
        self, txn: Transaction,
        ops: Iterable[Tuple[str, bytes, Optional[bytes]]],
    ) -> List[Optional[bytes]]:
        """Run a mixed get/put/delete op list under one dispatch charge.

        ``ops`` items are ``(kind, key, value)`` with kind one of
        ``"get"``, ``"put"``, ``"delete"`` (value ignored for get/delete).
        Returns one entry per op: the read value for gets (reads see the
        batch's earlier writes), ``None`` for writes.  A bad op
        (:func:`check_batch`) refuses the list before any of it runs.
        """
        self._require_active(txn)
        ops = list(ops)
        check_batch(ops, self.config.log_buffer_bytes)
        self.machine.cpu.charge("op_dispatch", category="tc")
        results: List[Optional[bytes]] = []
        for kind, key, value in ops:
            if kind == "get":
                results.append(self._read_one(txn, key))
            else:
                self._buffer_write(txn, key,
                                   value if kind == "put" else None)
                results.append(None)
        return results

    # ------------------------------------------------------------------
    # one-shot helpers
    # ------------------------------------------------------------------

    def apply_batch(
        self, ops: Iterable[Tuple[str, bytes, Optional[bytes]]],
    ) -> List[Optional[bytes]]:
        """Run a mixed batch (see :meth:`execute_batch`) as one
        transaction through a one-transaction group commit.

        Bills what :meth:`begin`, :meth:`execute_batch` and
        :meth:`commit_batch` would, in the same order and under the same
        spans, and consumes a transaction id, but, like :meth:`get`,
        builds no :class:`Transaction`.  It reads at the newest
        timestamp and commits before anything else can, so it never
        loses its conflict check.  The whole batch is checked first
        (:func:`check_batch`): a bad op refuses it before anything is
        charged or counted.  A failed read counts an abort and re-raises.
        """
        ops = list(ops)
        check_batch(ops, self.config.log_buffer_bytes)
        machine = self.machine
        bill = machine.cpu.bill
        copy = self._copy
        tracer = machine.tracer
        counts = self._counts
        bill(self._begin_dispatch)
        read_ts = self._clock
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        write_set: Dict[bytes, Optional[bytes]] = {}
        results: List[Optional[bytes]] = []
        try:
            for kind, key, value in ops:
                machine._ops_started += 1
                if kind == "get":
                    counts["tc.reads"] += 1.0
                    if tracer is not None:
                        tracer.open_span("tc.read", "tc")
                    try:
                        if key in write_set:
                            results.append(write_set[key])
                        else:
                            results.append(self._snapshot_read(key, read_ts))
                    finally:
                        if tracer is not None:
                            tracer.close_span()
                    continue
                if kind == "delete":
                    value = None
                    bill(copy, len(key))
                else:
                    bill(copy, len(key) + len(value))
                write_set[key] = value
                results.append(None)
        except BaseException:
            counts["tc.aborts"] += 1.0
            raise
        self._group_commit([(txn_id, read_ts, write_set)])
        return results

    def run_update(self, key: bytes, value: Optional[bytes]) -> int:
        """Execute a single-update transaction; returns commit timestamp.
        A key or value the data component would reject, or a redo record
        larger than a log buffer, is refused before the transaction
        begins: nothing is billed, counted or logged."""
        check_write(key, value, self.config.log_buffer_bytes)
        txn = self.begin()
        self.write(txn, key, value)
        try:
            return self.commit(txn)
        except BaseException:
            # It raised before it committed (a log spill that exhausted
            # its retries): abort, so it leaves the active set.
            if txn.status is TxnStatus.ACTIVE:
                self.abort(txn)
            raise

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @property
    def last_commit_future(self) -> Optional[CommitFuture]:
        """Future of the most recent pipelined commit (None when the
        pipeline is off or nothing has committed yet)."""
        return self._last_future

    def sync_log(self) -> None:
        """Make everything appended so far durable: drain the commit
        pipeline (close the open epoch, wait out in-flight acks, resolve
        every future), or else flush the log.  Checkpoint and GC barriers
        call this instead of ``log.flush()``, correct in both modes."""
        if self.pipeline is not None:
            self.pipeline.force()
        else:
            self.log.flush()

    def flush_record_cache(self) -> None:
        """Post every committed-but-unapplied record delta to the DC.

        The lazy half of the blind-write fast path: pages are materialized
        here (one blind batch) instead of once per commit.  Every drained
        record was logged at its commit, so a crash before (or during)
        the drain replays it, and a post that raises leaves the records
        dirty for the next drain.  Called at the dirty-byte threshold and
        before checkpoints.
        """
        if self.records is None:
            return
        self.machine.cpu.charge("op_dispatch", category="tc")
        self.records.drain_dirty(self.dc.apply_blind_batch)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def replay_redo(self, records) -> int:
        """Re-apply durable redo records after a crash.

        Exactly the paper's Section 6.2 observation: "there is no
        difference in how updates are handled during normal operation and
        during recovery" — each record is posted to the Bw-tree as a blind
        update and re-installed in the version store.  The records join
        this log's durable prefix (:meth:`RecoveryLog.restore`), so a
        later crash replays them again, and txn ids go on past the
        largest replayed one, so an id names one transaction across
        recoveries.  ``records`` must hold whole transactions only
        (:meth:`RecoveryLog.whole_transactions`).  Returns the number of
        records replayed.
        """
        replayed = 0
        log = self.log
        for durable in records:
            self._clock = max(self._clock, durable.timestamp)
            self._next_txn_id = max(self._next_txn_id, durable.txn_id + 1)
            record = LogRecord(durable.key, durable.value, durable.timestamp,
                               durable.txn_id, log.appended_records + 1,
                               durable.end)
            log.restore(record)
            self.versions.add(record)
            if record.value is None:
                self.dc.delete(record.key)
            else:
                self.dc.upsert(record.key, record.value)
            replayed += 1
            self.counters.add("tc.redo_replayed")
        return replayed

    # ------------------------------------------------------------------
    # maintenance / reporting
    # ------------------------------------------------------------------

    def dram_footprint_bytes(self) -> int:
        dram = self.machine.dram
        return (
            dram.bytes_for("tc_recovery_log")
            + dram.bytes_for("tc_read_cache")
            + dram.bytes_for("tc_record_cache")
            + dram.bytes_for("tc_version_store")
        )
