"""Asynchronous epoch-based group commit for the transaction component.

The synchronous commit path flushes the recovery log once per commit
batch per shard: every flush pays a full device IO, so per-shard log
busy time is constant in shard count and the fleet hits a WAL-bound
scaling wall (BENCH v3: YCSB-A plateaus at 1.73x from 4 shards on).
Deuteronomy 2.0's remedy is to decouple log *append* from device *ack*:
commits enqueue into the current **commit epoch** and receive a
:class:`CommitFuture`; epochs close on a virtual-time window
(``commit_interval_us``) or a byte threshold, each closed epoch's
buffer goes to the log device as *one* large write, and futures resolve
in LSN order once the ack arrives — against the same durable-prefix
machinery (``durable_upto``) the synchronous path uses.

Epoch lifecycle and its fault sites::

    enqueue_epoch ──► [epoch open] ──► maybe_close ──► submit + seal
         │                 │                               │
         │   commit_pipeline.epoch_open                    │ (in flight)
         ▼                                                 ▼
    CommitFuture (pending, LSN-ordered)            device ack reached
                                                           │
                       commit_pipeline.flush.pre_ack ──────┤
                                                   mark_durable
                       commit_pipeline.flush.post_ack ─────┤
                                                           ▼
                                              resolve_future (LSN order)

A crash at ``pre_ack`` loses the buffer (written but never
acknowledged: its futures stay unresolved and its records are absent
after recovery); a crash at ``post_ack`` keeps the records durable even
though their futures never resolved — exactly the asymmetry the
durable-prefix oracle checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from ..frozen import check_bounds
from ..hardware.logdevice import LogDevice
from ..hardware.machine import Machine
from ..hardware.metrics import Histogram
from .recovery_log import RecoveryLog, _Buffer

SITE_EPOCH_OPEN = "commit_pipeline.epoch_open"
SITE_PRE_ACK = "commit_pipeline.flush.pre_ack"
SITE_POST_ACK = "commit_pipeline.flush.post_ack"


@dataclass(slots=True)
class CommitFuture:
    """Handle a committer holds while its records await durability.

    ``done`` flips exactly when every record up to ``lsn`` has reached
    the durable log — resolution is strictly in LSN order, so a
    resolved future implies every earlier future is resolved too.
    """

    lsn: int
    done: bool = False

    @property
    def resolved(self) -> bool:
        return self.done


class CommitPipeline:
    """Epoch-based group commit with a virtual-time ack scheduler."""

    def __init__(
        self,
        machine: Machine,
        log: RecoveryLog,
        device: LogDevice,
        commit_interval_us: float = 50.0,
        epoch_bytes: int = 1 << 16,
    ) -> None:
        from .tc import TcConfig  # lazy: that module imports this one
        check_bounds(TcConfig, commit_interval_us=commit_interval_us,
                     commit_epoch_bytes=epoch_bytes)
        self.machine = machine
        self.log = log
        self.device = device
        self.commit_interval_us = commit_interval_us
        self.epoch_bytes = epoch_bytes
        # Full buffers spill through us (submit + seal) instead of a
        # synchronous flush, keeping the durable log a prefix of append
        # order even with sealed buffers in flight.
        log.on_buffer_full = self.spill
        # --- epoch state ---
        self._epoch_open = False
        self._epoch_opened_s = 0.0
        self._epoch_commits = 0
        # Bytes already handed to the device (sealed + submitted); the
        # byte threshold closes an epoch when the *unsubmitted* tail —
        # what the next close would write — reaches ``epoch_bytes``.
        self._bytes_submitted_upto = 0
        # --- in-flight and pending state ---
        self._inflight: Deque[Tuple[_Buffer, float]] = deque()
        self._pending: Deque[CommitFuture] = deque()
        # --- stats ---
        self.epochs_closed = 0
        self.group_sizes = Histogram("commit_group_size")
        self.commit_wait_us = 0.0
        self.futures_resolved = 0
        # The enqueue's and each resolution's charge, priced once.
        plan = machine.cpu.plan
        self._enqueue = plan("commit_pipeline", "commit_enqueue")
        self._resolve = plan("commit_pipeline", "commit_resolve")

    # --- enqueue path -------------------------------------------------------

    def enqueue_epoch(self, n_commits: int = 1) -> CommitFuture:
        """Enqueue a committed group into the current epoch.

        Call *after* the records are appended to the recovery log: the
        returned future covers everything up to the log's current LSN.
        Opens a fresh epoch when none is open, then runs the scheduler
        (close the epoch if its window or byte threshold tripped, drain
        any acks the virtual clock has passed).  The scheduler's tests run
        in this frame: :meth:`maybe_close` and :meth:`ack` are called only
        when an epoch must close or an ack is due.
        """
        machine = self.machine
        clock = machine.clock
        if not self._epoch_open:
            faults = machine.faults
            if faults is not None:
                faults.hit(SITE_EPOCH_OPEN)
            self._epoch_open = True
            self._epoch_opened_s = clock.now
            self._epoch_commits = 0
        machine.cpu.bill(self._enqueue)
        log = self.log
        future = CommitFuture(log.appended_records)
        self._pending.append(future)
        self._epoch_commits += n_commits
        if (clock.now - self._epoch_opened_s
                >= self.commit_interval_us * 1e-6
                or log.appended_bytes - self._bytes_submitted_upto
                >= self.epoch_bytes):
            self.maybe_close()
        inflight = self._inflight
        if inflight and inflight[0][1] <= clock.now:
            self.ack()
        return future

    # --- epoch scheduler ----------------------------------------------------

    def maybe_close(self) -> None:
        """Close the open epoch if its window or byte threshold tripped."""
        if not self._epoch_open:
            return
        clock = self.machine.clock
        window_s = self.commit_interval_us * 1e-6
        unsubmitted = self.log.appended_bytes - self._bytes_submitted_upto
        if (clock.now - self._epoch_opened_s >= window_s
                or unsubmitted >= self.epoch_bytes):
            self._close_epoch()

    def _close_epoch(self) -> None:
        """Submit the epoch's buffer as one device write and seal it."""
        self.spill()
        self.group_sizes.observe(float(self._epoch_commits))
        self.epochs_closed += 1
        self._epoch_open = False
        self._epoch_commits = 0

    # All simulated cost lives in RecoveryLog.submit_sealed (I/O round
    # trip + device write); this method only reorders bookkeeping.
    def spill(self) -> None:
        """Buffer-full hook: submit the full buffer mid-append, then seal
        it.

        The spilled buffer joins the FIFO behind older sealed buffers,
        so durability order still follows append order.  A write that
        exhausts its retries raises before the seal and leaves the
        buffer open and owed, as a failed synchronous flush does, so no
        later buffer becomes durable ahead of it.  The epoch (a
        grouping of *commits*, not buffers) stays open if it was open;
        closing one submits and seals through here too.
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("commit_pipeline.epoch_flush", "commit_pipeline")
        try:
            submitted = self.log.submit_sealed(self.device)
            self.log.seal()
            if submitted is not None:
                self._inflight.append(submitted)
            self._bytes_submitted_upto = self.log.appended_bytes
        finally:
            if tracer is not None:
                tracer.close_span()

    # --- ack / resolution ---------------------------------------------------

    def ack(self) -> None:
        """Drain every in-flight buffer whose ack time has passed."""
        machine = self.machine
        faults = machine.faults
        now = machine.clock.now
        while self._inflight and self._inflight[0][1] <= now:
            buffer, _ack_s = self._inflight.popleft()
            if faults is not None:
                faults.hit(SITE_PRE_ACK)
            machine.cpu.charge("commit_ack", 1.0, category="commit_pipeline")
            self.log.mark_durable(buffer)
            if faults is not None:
                faults.hit(SITE_POST_ACK)
            self.resolve_future()

    def resolve_future(self) -> None:
        """Resolve pending futures the durable LSN has caught up to."""
        durable_lsn = self.log.durable_lsn
        pending = self._pending
        bill = self.machine.cpu.bill
        resolve = self._resolve
        while pending and pending[0].lsn <= durable_lsn:
            future = pending.popleft()
            future.done = True
            bill(resolve)
            self.futures_resolved += 1

    # --- drain --------------------------------------------------------------

    def force(self) -> None:
        """Synchronously drain the pipeline: everything appended so far
        becomes durable and every pending future resolves.

        Closes the open epoch (window/threshold notwithstanding), seals
        any remaining buffered records, then *waits* — advances the
        virtual clock to each in-flight ack time — and processes acks in
        order.  The wait is clock-only (no CPU is busy while blocked on
        the device), tracked in ``commit_wait_us``.
        """
        machine = self.machine
        if self._epoch_open:
            self._close_epoch()
        else:
            # Records appended outside any epoch (e.g. checkpoint
            # metadata) still need to reach the device.
            self.spill()
        faults = machine.faults
        clock = machine.clock
        tracer = machine.tracer
        while self._inflight:
            buffer, ack_s = self._inflight.popleft()
            if tracer is not None:
                tracer.open_span("commit_pipeline.commit_wait", "commit_pipeline")
            try:
                wait_s = ack_s - clock.now
                if wait_s > 0.0:
                    clock.advance(wait_s)
                    self.commit_wait_us += wait_s * 1e6
                if faults is not None:
                    faults.hit(SITE_PRE_ACK)
                machine.cpu.charge("commit_ack", 1.0,
                                   category="commit_pipeline")
                self.log.mark_durable(buffer)
                if faults is not None:
                    faults.hit(SITE_POST_ACK)
                self.resolve_future()
            finally:
                if tracer is not None:
                    tracer.close_span()

    # --- introspection ------------------------------------------------------

    @property
    def inflight_flushes(self) -> int:
        return len(self._inflight)

    @property
    def pending_futures(self) -> int:
        return len(self._pending)

    @property
    def epoch_open(self) -> bool:
        return self._epoch_open


# Keep the private-type import honest for linters: _Buffer is part of the
# RecoveryLog <-> CommitPipeline contract (seal/submit/mark_durable all
# traffic in it) even though external callers never touch it.
__all__ = ["CommitFuture", "CommitPipeline"]
