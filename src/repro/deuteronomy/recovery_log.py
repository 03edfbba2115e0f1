"""Deuteronomy's recovery log doubling as an updated-record cache.

Paper Section 6.3 / Figure 6: the TC appends redo records to log buffers;
buffers are flushed to secondary storage as large writes but *retained in
main memory* afterwards, so the newest committed version of a recently
updated record can be served straight from the log buffer — no I/O and no
trip to the data component.  Retention is bounded by a byte budget; when a
buffer is dropped its records stop being servable from the TC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.retry import RetryStats, run_with_retries
from ..frozen import check_bounds, slot_init
from ..hardware.logdevice import LogDevice
from ..hardware.machine import Machine

DRAM_TAG = "tc_recovery_log"
LOG_RECORD_OVERHEAD_BYTES = 32   # LSN, txn id, timestamp, lengths


@slot_init
@dataclass(frozen=True, slots=True)
class LogRecord:
    """One redo record: the after-image of a committed update.

    It is also the committed version the MVCC store chains (Section 6.3:
    the TC uses "the versions themselves").  ``lsn`` is its 1-based append
    index in the log, so the caller numbers a group from
    ``appended_records + 1``.  ``end`` marks a transaction's last record:
    recovery replays a transaction only once that record is durable
    (:meth:`RecoveryLog.whole_transactions`).  It costs no modelled bytes.
    """

    key: bytes
    value: Optional[bytes]     # None = delete
    timestamp: int
    txn_id: int
    lsn: int
    end: bool = True

    @property
    def size_bytes(self) -> int:
        value_len = len(self.value) if self.value is not None else 0
        return LOG_RECORD_OVERHEAD_BYTES + len(self.key) + value_len


@dataclass(slots=True)
class _Buffer:
    buffer_id: int
    records: List[LogRecord] = field(default_factory=list)
    nbytes: int = 0
    flushed: bool = False
    # How many of ``records`` already reached the durable log: a crash
    # (or exhausted retry) between the device ack and the ``flushed``
    # bookkeeping leaves this ahead of ``flushed``, and a re-flush of
    # the same buffer must not duplicate durable records.
    durable_upto: int = 0
    # Sealed: rotated out of the append path (the async commit pipeline
    # has submitted or is about to submit it) but not yet durable.  The
    # retention budget never drops a sealed-unflushed buffer — its
    # records are still owed to ``durable_records``.
    sealed: bool = False


class RecoveryLog:
    """Append-only redo log with retained, byte-budgeted buffers."""

    def __init__(
        self,
        machine: Machine,
        buffer_bytes: int = 1 << 20,
        retain_budget_bytes: Optional[int] = None,
    ) -> None:
        from .tc import TcConfig  # lazy: that module imports this one
        check_bounds(TcConfig, log_buffer_bytes=buffer_bytes)
        self.machine = machine
        self.buffer_bytes = buffer_bytes
        self.retain_budget_bytes = retain_budget_bytes
        self._buffers: List[_Buffer] = [_Buffer(0)]
        self._next_buffer_id = 1
        self._retained_bytes = 0
        #: LSN of the oldest record still retained.  Buffers hold
        #: contiguous LSN ranges and are dropped oldest first, so a
        #: record is servable from memory exactly when its ``lsn`` is at
        #: least this.  Only :meth:`_enforce_budget` moves it.
        self.first_retained_lsn = 1
        self._append = machine.cpu.plan("tc_log", then="log_append_per_byte")
        self.flushes = 0
        self.appended_records = 0
        self.appended_bytes = 0
        self.batch_appends = 0
        self.retry_stats = RetryStats()
        # Records whose buffer reached the SSD: the durable redo log that
        # survives a crash (the in-memory retained copies do not).
        self.durable_records: List[LogRecord] = []
        # Sealed buffers whose device ack is still outstanding (async
        # commit pipeline); a synchronous flush is only legal at zero.
        self._sealed_pending = 0
        # Hook invoked instead of a synchronous ``flush()`` when the open
        # buffer fills mid-append.  The async commit pipeline installs a
        # seal-and-submit spill here so a full buffer joins the FIFO
        # flush queue *behind* older sealed buffers — a synchronous flush
        # at that point would make the durable log a non-prefix of the
        # append order.
        self.on_buffer_full: Optional[Callable[[], None]] = None

    # --- append path --------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Append one redo record, flushing the buffer when it fills.

        Returns the id of the buffer holding the record.
        """
        nbytes = record.size_bytes
        if nbytes > self.buffer_bytes:
            raise ValueError(
                f"record of {nbytes}B exceeds buffer size {self.buffer_bytes}"
            )
        current = self._buffers[-1]
        if current.nbytes + nbytes > self.buffer_bytes:
            self._spill_full_buffer()
            current = self._buffers[-1]
        current.records.append(record)
        current.nbytes += nbytes
        self.machine.dram.allocate(nbytes, DRAM_TAG)
        self._retained_bytes += nbytes
        self.machine.cpu.bill(self._append, nbytes)
        self.appended_records += 1
        self.appended_bytes += nbytes
        return current.buffer_id

    def append_batch(self, records: Sequence[LogRecord]) -> None:
        """Append a group of redo records in one pass (group commit).

        Per-byte work is identical to ``len(records)`` single appends —
        batching does not make the bytes cheaper — but the CPU charge and
        DRAM accounting happen once for the whole group, and a buffer that
        fills mid-batch still flushes immediately, so durability ordering
        is preserved: the durable log is always a prefix of the append
        order.  The bytes still pending are accounted before such a spill,
        whose flush may drop buffers against the retention budget; a
        spill that raises still bills and counts the records placed
        before it.  An empty group appends nothing and is not counted.
        """
        if not records:
            return
        total_bytes = 0
        pending = 0
        first = self.appended_records
        buffers = self._buffers
        buffer_bytes = self.buffer_bytes
        current = buffers[-1]
        for record in records:
            # LogRecord.size_bytes, in this frame.
            value = record.value
            nbytes = LOG_RECORD_OVERHEAD_BYTES + len(record.key) + (
                len(value) if value is not None else 0)
            if nbytes > buffer_bytes:
                raise ValueError(
                    f"record of {nbytes}B exceeds buffer size {buffer_bytes}")
            if current.nbytes + nbytes > buffer_bytes:
                self.machine.dram.allocate(pending, DRAM_TAG)
                self._retained_bytes += pending
                pending = 0
                # The records before this one stay in the log even if
                # the spill raises, so the next append numbers after them
                # and their bytes are billed and counted.
                self.appended_records = record.lsn - 1
                try:
                    self._spill_full_buffer()
                except Exception:
                    if total_bytes:
                        self.machine.cpu.bill(self._append, total_bytes)
                        self.appended_bytes += total_bytes
                    raise
                current = buffers[-1]
            current.records.append(record)
            current.nbytes += nbytes
            pending += nbytes
            total_bytes += nbytes
        if pending:
            self.machine.dram.allocate(pending, DRAM_TAG)
            self._retained_bytes += pending
            self.machine.cpu.bill(self._append, total_bytes)
        self.appended_records = first + len(records)
        self.appended_bytes += total_bytes
        self.batch_appends += 1

    def _spill_full_buffer(self) -> None:
        """The open buffer filled mid-append: flush it, or hand it to
        the installed spill hook (async pipeline) to seal and submit."""
        if self.on_buffer_full is not None:
            self.on_buffer_full()
        else:
            self.flush()

    # --- asynchronous commit pipeline hooks ---------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record.

        LSNs are simply the 1-based append index: the durable log is
        always a prefix of the append order, so ``durable_lsn`` marching
        towards ``last_lsn`` is the whole resolution protocol.
        """
        return self.appended_records

    @property
    def durable_lsn(self) -> int:
        """Highest LSN that has reached the durable log (0 = none)."""
        return len(self.durable_records)

    @property
    def sealed_pending(self) -> int:
        """Sealed buffers whose device ack is still outstanding."""
        return self._sealed_pending

    def seal(self) -> Optional[_Buffer]:
        """Rotate the open buffer out of the append path once
        :meth:`submit_sealed` has written it.

        Returns the sealed buffer, or ``None`` when the open buffer holds
        no records.  The sealed buffer stays retained — it is not durable
        until :meth:`mark_durable` runs at the device ack.
        """
        current = self._buffers[-1]
        if not current.records:
            return None
        current.sealed = True
        self._sealed_pending += 1
        self._buffers.append(_Buffer(self._next_buffer_id))
        self._next_buffer_id += 1
        return current

    def submit_sealed(self, device: LogDevice,
                      ) -> Optional[Tuple[_Buffer, float]]:
        """Write the open buffer to ``device`` as one log write, ahead of
        the :meth:`seal` that rotates it out.

        Charges the I/O round trip and performs the device write now (the
        data is in flight); returns the buffer and its virtual ack time,
        or ``None`` when the open buffer holds no records.  Durability is
        deferred: the caller must invoke :meth:`mark_durable` once the
        virtual clock passes the ack time.  A write that exhausts its
        retries raises before the seal, so the buffer stays open and
        owed, as after a failed :meth:`flush`: the durable log stays a
        prefix of the append order.
        """
        buffer = self._buffers[-1]
        if not buffer.records:
            return None
        faults = self.machine.faults

        def write_buffer() -> float:
            # Charges live inside the attempt: a transient device error
            # re-pays the I/O round trip on every retry.
            self.machine.io_path.charge_round_trip(buffer.nbytes)
            if faults is not None:
                faults.hit("recovery_log.flush")
            return device.submit_write(buffer.nbytes)

        ack_s: float = run_with_retries(self.machine, write_buffer,
                                        stats=self.retry_stats)
        return buffer, ack_s

    def mark_durable(self, buffer: _Buffer) -> None:
        """Record that ``buffer``'s device write was acknowledged.

        The ack is the durability point: every not-yet-durable record in
        the buffer joins ``durable_records`` (``durable_upto`` keeps a
        resubmission from duplicating), and the buffer becomes eligible
        for retention-budget eviction.
        """
        self.durable_records.extend(buffer.records[buffer.durable_upto:])
        buffer.durable_upto = len(buffer.records)
        if not buffer.flushed:
            buffer.flushed = True
            self.flushes += 1
            if buffer.sealed:
                self._sealed_pending -= 1
        self._enforce_budget()

    # --- synchronous flush --------------------------------------------------

    def flush(self) -> Optional[int]:
        """Write the open buffer to the SSD as one large write.

        The buffer stays resident afterwards (the record-cache trick); the
        retention budget is enforced by dropping the oldest flushed buffers.
        Returns the flushed buffer id, or None when the buffer was empty.
        """
        # A synchronous flush while sealed buffers await their ack would
        # make the durable log a non-prefix of the append order; the async
        # pipeline must drain (``force``) before any sync flush.
        assert self._sealed_pending == 0, (
            "sync flush with sealed buffers in flight"
        )
        current = self._buffers[-1]
        if not current.records:
            return None
        faults = self.machine.faults

        def write_buffer() -> None:
            # Charges live inside the attempt: a transient device error
            # re-pays the I/O round trip on every retry.
            self.machine.io_path.charge_round_trip(current.nbytes)
            if faults is not None:
                faults.hit("recovery_log.flush")
            self.machine.ssd.write(current.nbytes)

        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("recovery_log.flush", "recovery_log")
        try:
            run_with_retries(self.machine, write_buffer,
                             stats=self.retry_stats)
            # The device ack is the durability point: these records
            # survive a crash from here on even if the bookkeeping below
            # never runs (the recovery_log.flush.after_write crash
            # window).  Recovery reads ``durable_records``, so a buffer
            # that is durable on flash but never marked ``flushed`` still
            # replays — and replays once: ``durable_upto`` keeps a
            # re-flush from duplicating records.
            self.durable_records.extend(
                current.records[current.durable_upto:])
            current.durable_upto = len(current.records)
            if faults is not None:
                faults.hit("recovery_log.flush.after_write")
            current.flushed = True
            self.flushes += 1
            self._buffers.append(_Buffer(self._next_buffer_id))
            self._next_buffer_id += 1
            self._enforce_budget()
            return current.buffer_id
        finally:
            if tracer is not None:
                tracer.close_span()

    def _enforce_budget(self) -> None:
        if self.retain_budget_bytes is None:
            return
        while (self._retained_bytes > self.retain_budget_bytes
               and len(self._buffers) > 1 and self._buffers[0].flushed):
            dropped = self._buffers.pop(0)
            self.machine.dram.free(dropped.nbytes, DRAM_TAG)
            self._retained_bytes -= dropped.nbytes
            self.first_retained_lsn += len(dropped.records)

    # --- recovery -----------------------------------------------------------

    def whole_transactions(self) -> List[LogRecord]:
        """The durable records of every transaction whose ``end`` record
        is durable.

        A spill makes the head of a transaction durable before its tail,
        and a commit that raised mid-append never logs its end record:
        recovery replays neither.  A txn id names one transaction across
        recoveries
        (:meth:`~repro.deuteronomy.tc.TransactionComponent.replay_redo`).
        """
        durable = self.durable_records
        ended = {record.txn_id for record in durable if record.end}
        return [record for record in durable if record.txn_id in ended]

    def restore(self, record: LogRecord) -> None:
        """Append a record recovery read back from a crashed log.

        It is billed and retained like any append, and it is durable as
        it stands, with no write: the recovered log goes on from the
        crashed one's durable prefix, so a second crash replays it too.
        """
        self.append(record)
        current = self._buffers[-1]
        current.durable_upto = len(current.records)
        self.durable_records.append(record)

    # --- record-cache reads --------------------------------------------------

    def retained_record_index(self) -> Dict[bytes, LogRecord]:
        """Newest retained record per key (for rebuild/debug, O(n))."""
        index: Dict[bytes, LogRecord] = {}
        for buffer in self._buffers:
            for record in buffer.records:
                index[record.key] = record
        return index

    @property
    def retained_bytes(self) -> int:
        return self._retained_bytes

    @property
    def retained_buffers(self) -> int:
        return len(self._buffers)
