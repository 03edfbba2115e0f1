"""DeuteronomyEngine: the assembled TC + DC system.

Convenience facade wiring a :class:`TransactionComponent` over a
:class:`BwTree` (itself over LLAMA and the simulated machine), with a
context-manager transaction API.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..bwtree.tree import BwTree, BwTreeConfig
from ..hardware.logdevice import LogDevice
from ..hardware.machine import Machine
from .tc import TcConfig, Transaction, TransactionComponent, TxnStatus


class DeuteronomyEngine:
    """Transactional key/value engine: TC over Bw-tree over LLAMA."""

    def __init__(
        self,
        machine: Machine,
        tree_config: Optional[BwTreeConfig] = None,
        tc_config: Optional[TcConfig] = None,
        data_component: Optional[BwTree] = None,
        log_device: Optional[LogDevice] = None,
    ) -> None:
        self.machine = machine
        self.dc = (data_component if data_component is not None
                   else BwTree(machine, tree_config))
        self.tc = TransactionComponent(machine, self.dc, tc_config,
                                       log_device=log_device)
        # Set once this engine has been crashed-and-recovered: the engine
        # that replaced it.  Guards double recovery (see :meth:`recover`).
        self._recovered_into: Optional["DeuteronomyEngine"] = None

    @classmethod
    def recover(cls, crashed: "DeuteronomyEngine",
                tc_config: Optional[TcConfig] = None,
                log_device: Optional[LogDevice] = None,
                ) -> "DeuteronomyEngine":
        """Rebuild the engine after a power loss.

        DRAM and the stores' open write buffers are lost; the data
        component is rebuilt from its last checkpoint, then every durable
        redo record is replayed through the normal blind-update path.
        Transactions whose redo records had not reached flash are lost —
        the standard write-ahead-logging contract (``checkpoint()`` forces
        the log).  ``log_device`` is the commit-log device the
        replacement's pipeline writes to (a fleet passes the drive its
        topology assigns; None rebuilds the colocated default).

        Recovery is idempotent per crashed engine: the replacement shares
        the crashed engine's machine and flash store, so running the crash
        simulation a second time would wipe the replacement's DRAM and
        open write buffer out from under it.  Repeat calls (recovering
        shards in a loop, retry logic) return the engine the first call
        built instead of re-crashing.
        """
        if crashed._recovered_into is not None:
            return crashed._recovered_into
        machine = crashed.machine
        durable = list(crashed.tc.log.durable_records)
        crashed.dc.store.simulate_crash()
        machine.dram.wipe()
        dc = BwTree.recover(machine, crashed.dc.store, crashed.dc.config)
        engine = cls(
            machine,
            tc_config=tc_config if tc_config is not None
            else crashed.tc.config,
            data_component=dc,
            log_device=log_device,
        )
        engine.tc.replay_redo(durable)
        crashed._recovered_into = engine
        return engine

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """``with engine.transaction() as txn:`` — commits on success,
        aborts if the body raises."""
        txn = self.tc.begin()
        try:
            yield txn
        except BaseException:
            if txn.status is TxnStatus.ACTIVE:
                self.tc.abort(txn)
            raise
        else:
            if txn.status is TxnStatus.ACTIVE:
                self.tc.commit(txn)

    # --- autocommit conveniences -------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Autocommitted snapshot read."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.get", "engine")
        try:
            return self.tc.get(key)
        finally:
            if tracer is not None:
                tracer.close_span()

    def put(self, key: bytes, value: bytes) -> None:
        """Autocommitted single-key update."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.put", "engine")
        try:
            self.tc.run_update(key, value)
        finally:
            if tracer is not None:
                tracer.close_span()

    def delete(self, key: bytes) -> None:
        """Autocommitted single-key delete."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.delete", "engine")
        try:
            self.tc.run_update(key, None)
        finally:
            if tracer is not None:
                tracer.close_span()

    # --- batched (multi-op) conveniences ------------------------------

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> List[int]:
        """Group-committed autocommit updates: one log append and one
        flush decision for the whole batch.  Items are applied in order
        (a later write to the same key wins, exactly like sequential
        ``put`` calls).  Returns one commit timestamp per item."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.multi_put", "engine")
        try:
            timestamps = self.tc.run_update_batch(items)
            assert all(ts is not None for ts in timestamps)
            return timestamps  # type: ignore[return-value]
        finally:
            if tracer is not None:
                tracer.close_span()

    def multi_delete(self, keys: Iterable[bytes]) -> List[int]:
        """Group-committed autocommit deletes (see :meth:`multi_put`)."""
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.multi_delete", "engine")
        try:
            timestamps = self.tc.run_update_batch(
                (key, None) for key in keys
            )
            assert all(ts is not None for ts in timestamps)
            return timestamps  # type: ignore[return-value]
        finally:
            if tracer is not None:
                tracer.close_span()

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched autocommitted snapshot reads: one transaction and one
        request dispatch amortized across the whole batch.  A key the
        data component would reject refuses the batch before its
        transaction begins: nothing of it is charged or counted."""
        for key in keys:
            if type(key) is not bytes or not key:
                self.dc._validate_key(key)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.multi_get", "engine")
        try:
            txn = self.tc.begin()
            try:
                values = self.tc.read_batch(txn, keys)
            except BaseException:
                self.tc.abort(txn)
                raise
            self.tc.commit(txn)
            return values
        finally:
            if tracer is not None:
                tracer.close_span()

    def apply_batch(
        self, ops: Sequence[Tuple[str, bytes, Optional[bytes]]]
    ) -> List[Optional[bytes]]:
        """Run a mixed batch of ops as one transaction via group commit.

        ``ops`` items are ``(kind, key, value)`` with kind ``"get"``,
        ``"put"`` or ``"delete"`` (value ignored for gets/deletes).  Reads
        see the batch's earlier writes.  Returns one entry per op: the
        value for gets, ``None`` for writes.  An unknown kind, a key the
        data component would reject or a put without a bytes value
        refuses the whole batch before any of it is billed or counted
        (:meth:`TransactionComponent.apply_batch`).
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.apply_batch", "engine")
        try:
            return self.tc.apply_batch(ops)
        finally:
            if tracer is not None:
                tracer.close_span()

    def checkpoint(self) -> None:
        """Flush the log and every dirty data page.

        With the record store on, committed deltas parked in the record
        heap are drained into the DC first (after the log force — WAL
        ordering) so the checkpoint image covers them.
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.checkpoint", "engine")
        try:
            self.tc.sync_log()
            self.tc.flush_record_cache()
            self.dc.checkpoint()
        finally:
            if tracer is not None:
                tracer.close_span()

    def collect_garbage(self, target_utilization: float = 0.8) -> int:
        """Run segment GC with write-ahead ordering preserved.

        ``BwTree.collect_garbage`` checkpoints the mapping table before
        and after cleaning; the recovery contract (checkpoint image +
        durable-redo replay lands exactly on the durable prefix)
        requires every checkpoint image's contents to be covered by the
        durable log.  Forcing the log first keeps that true — calling
        ``dc.collect_garbage`` directly would let a checkpoint publish
        page states whose redo records are still buffered, and recovery
        would then serve writes the log never made durable (the WAL
        inversion the crash matrix's GC sites catch).
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("engine.collect_garbage", "engine")
        try:
            self.tc.sync_log()
            return self.dc.collect_garbage(target_utilization)
        finally:
            if tracer is not None:
                tracer.close_span()

    def stats(self) -> dict:
        """One engine's cost/cache accounting as a flat dict: one entry
        per :data:`STATS` row, in table order."""
        totals: dict = {}
        for name, kind, read in STATS:
            totals[name] = read(totals if kind == "ratio" else self)
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeuteronomyEngine(dc={self.dc!r})"


def _elapsed_seconds(engine: "DeuteronomyEngine") -> float:
    elapsed = engine.machine.summary().elapsed_seconds
    pipeline = engine.tc.pipeline
    if pipeline is not None:
        # A dedicated (non-colocated) log device adds its own busy time
        # as an elapsed floor; a colocated device contributes 0 here
        # (already in the machine's SSD busy seconds).
        elapsed = max(elapsed, pipeline.device.elapsed_contribution())
    return elapsed


def _tier_resident_bytes(engine: "DeuteronomyEngine") -> int:
    tiers = engine.dc.cache.tiers
    return ((tiers.resident_bytes if tiers is not None else 0)
            + engine.tc.read_cache.tier_resident_bytes)


def _served_share(missed: str, total: str) -> Callable[[dict], float]:
    """``1 - missed/total`` over summed counts; 0.0 with no traffic."""
    return lambda totals: (
        1.0 - totals[missed] / totals[total] if totals[total] else 0.0)


def _hit_share(hits: str, misses: str) -> Callable[[dict], float]:
    """``hits/(hits+misses)`` over summed counts; 0.0 with no probes."""
    def rate(totals: dict) -> float:
        probes = totals[hits] + totals[misses]
        return totals[hits] / probes if probes else 0.0
    return rate


#: Every statistic an engine reports, as ``(name, kind, reader)`` rows in
#: ``stats()`` order.  ``kind`` says how a shard fleet combines the row,
#: which keeps the paper's Eqs. 4-5 pricing (core-seconds of CPU,
#: resident DRAM bytes) applicable to the fleet as a whole:
#:
#: * ``counter`` — monotonic count, summed across shards;
#: * ``level`` — instantaneous resident bytes, summed across shards;
#: * ``max`` — shards run in parallel, so the slowest bounds the fleet;
#: * ``ratio`` — a rate of the sums, never a mean of per-shard rates.
#:
#: The reader is ``engine -> value``, except for ``ratio`` rows, where
#: it is ``totals -> value`` over the rows above it: a bare engine
#: passes its own counts, a fleet its sums, so each rate has one formula.
STATS: Tuple[Tuple[str, str, Callable], ...] = (
    ("operations", "counter", lambda e: e.machine.operations),
    ("core_seconds", "counter", lambda e: e.machine.cpu.busy_seconds),
    ("elapsed_seconds", "max", _elapsed_seconds),
    ("ssd_busy_seconds", "counter", lambda e: e.machine.ssd.busy_seconds),
    ("ssd_ios", "counter", lambda e: e.machine.ssd.total_ios),
    ("dram_bytes", "level", lambda e: e.machine.dram.current_bytes),
    ("tc_dram_bytes", "level", lambda e: e.tc.dram_footprint_bytes()),
    ("commits", "counter", lambda e: e.tc.counters.get("tc.commits")),
    ("aborts", "counter", lambda e: e.tc.counters.get("tc.aborts")),
    ("reads", "counter", lambda e: e.tc.counters.get("tc.reads")),
    ("dc_reads", "counter", lambda e: e.tc.counters.get("tc.dc_reads")),
    ("tc_hit_rate", "ratio", _served_share("dc_reads", "reads")),
    ("read_cache_hits", "counter", lambda e: e.tc.read_cache.hits),
    ("read_cache_misses", "counter", lambda e: e.tc.read_cache.misses),
    ("read_cache_hit_rate", "ratio",
     _hit_share("read_cache_hits", "read_cache_misses")),
    ("record_cache_hits", "counter",
     lambda e: e.tc.records.hits if e.tc.records is not None else 0),
    ("record_cache_misses", "counter",
     lambda e: e.tc.records.misses if e.tc.records is not None else 0),
    ("record_cache_hit_rate", "ratio",
     _hit_share("record_cache_hits", "record_cache_misses")),
    ("record_cache_gc_relocations", "counter",
     lambda e: (e.tc.records.gc_relocations
                if e.tc.records is not None else 0)),
    ("record_heap_bytes", "level",
     lambda e: (e.tc.records.physical_bytes
                if e.tc.records is not None else 0)),
    ("page_cache_touches", "counter", lambda e: e.dc.cache.stats.touches),
    ("page_cache_fetches", "counter", lambda e: e.dc.cache.stats.fetches),
    ("page_cache_hit_rate", "ratio",
     _served_share("page_cache_fetches", "page_cache_touches")),
    ("page_cache_demotions", "counter",
     lambda e: e.dc.cache.stats.demotions),
    ("page_cache_promotions", "counter",
     lambda e: e.dc.cache.stats.promotions),
    ("read_cache_demotions", "counter",
     lambda e: e.tc.read_cache.demotions),
    ("read_cache_promotions", "counter",
     lambda e: e.tc.read_cache.promotions),
    ("tier_resident_bytes", "level", _tier_resident_bytes),
    ("log_flushes", "counter", lambda e: e.tc.log.flushes),
    ("log_batch_appends", "counter", lambda e: e.tc.log.batch_appends),
    ("log_device_writes", "counter",
     lambda e: (e.tc.pipeline.device.submitted_writes
                if e.tc.pipeline is not None else 0)),
    ("log_device_bytes", "counter",
     lambda e: (e.tc.pipeline.device.submitted_bytes
                if e.tc.pipeline is not None else 0)),
    ("commit_epochs", "counter",
     lambda e: (e.tc.pipeline.epochs_closed
                if e.tc.pipeline is not None else 0)),
    ("commit_wait_us", "counter",
     lambda e: (e.tc.pipeline.commit_wait_us
                if e.tc.pipeline is not None else 0.0)),
    ("commit_futures_resolved", "counter",
     lambda e: (e.tc.pipeline.futures_resolved
                if e.tc.pipeline is not None else 0)),
)
