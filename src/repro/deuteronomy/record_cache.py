"""The TC's record store: a log-structured record heap (Deuteronomy 2.0).

Lomet's *Deuteronomy 2.0: Record Caching and Latch Freedom* names
record-granularity caching as the lever that removes page costs from the
main-memory hot path: the TC serves reads from records, not pages, and
commits blind record deltas without ever materializing the page in the
data component.  This module is that cache, promoted to a first-class
store:

* records live in **append-only arenas** with a per-record header; an
  arena seals when full and a fresh one opens (``seal_arena``);
* each record carries ``dirty`` (a committed delta the DC has not yet
  absorbed — never evicted, drained via :meth:`drain_dirty`) and
  ``referenced`` (second-chance bit set by lookups) flags;
* overwrites and invalidations only mark the old record dead — its bytes
  stay resident until the owning arena is reclaimed, the honest DRAM
  rent of a log-structured heap (``live_bytes`` vs ``physical_bytes``);
* GC is **epoch-based with relocation**: sealing advances the heap
  epoch, and :meth:`collect_garbage` reclaims the oldest sealed arenas,
  relocating dirty-or-referenced records into the open arena
  (``relocate``) and evicting the rest.

Every access is costed under one of two concurrency modes
(``TcConfig.concurrency_mode``): ``latch_free`` pays the paper's
epoch-protection and CAS-install micro-costs, ``latched`` pays a
latch-acquire pair per access plus an expected convoy term per mutation
— the axis Deuteronomy 2.0 measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..frozen import check_bounds
from ..hardware.machine import Machine

DRAM_TAG = "tc_record_cache"
CHARGE_CATEGORY = "tc_record_cache"

#: Per-record header: epoch word, key/value lengths, flags, arena offset.
RECORD_HEADER_BYTES = 32

CONCURRENCY_MODES = ("latch_free", "latched")


class _Record:
    """One heap record: payload plus placement and lifecycle flags."""

    __slots__ = ("value", "arena_id", "nbytes", "dirty", "referenced")

    def __init__(self, value: Optional[bytes], arena_id: int, nbytes: int,
                 dirty: bool) -> None:
        self.value = value
        self.arena_id = arena_id
        self.nbytes = nbytes
        self.dirty = dirty
        self.referenced = False


class _Arena:
    """One append-only extent of the record heap."""

    __slots__ = ("arena_id", "physical_bytes", "live_bytes", "keys",
                 "sealed", "seal_epoch")

    def __init__(self, arena_id: int) -> None:
        self.arena_id = arena_id
        self.physical_bytes = 0
        self.live_bytes = 0
        self.keys: List[bytes] = []
        self.sealed = False
        self.seal_epoch = -1


class RecordStore:
    """A byte-budgeted log-structured heap of records with epoch GC.

    ``budget_bytes`` bounds the *physical* heap (live plus dead record
    bytes); crossing it triggers :meth:`collect_garbage`.  ``arena_bytes``
    is the extent size — smaller arenas seal (and become reclaimable)
    sooner.  A record larger than one arena is rejected
    (:meth:`append_record` returns ``False``) and the caller falls back
    to the page path.
    """

    def __init__(self, machine: Machine, budget_bytes: int,
                 arena_bytes: int = 64 << 10,
                 concurrency_mode: str = "latch_free") -> None:
        from .tc import TcConfig  # lazy: that module imports this one
        check_bounds(TcConfig, record_cache_bytes=budget_bytes,
                     record_arena_bytes=arena_bytes)
        if arena_bytes > budget_bytes:
            raise ValueError("arena_bytes must fit inside the budget")
        if concurrency_mode not in CONCURRENCY_MODES:
            raise ValueError(
                f"concurrency_mode must be one of {CONCURRENCY_MODES}, "
                f"got {concurrency_mode!r}"
            )
        self.machine = machine
        self.budget_bytes = budget_bytes
        self.arena_bytes = arena_bytes
        self.latch_free = concurrency_mode == "latch_free"
        self._index: Dict[bytes, _Record] = {}
        # Insertion-ordered dirty-key set (dict keys); values read from
        # the index at drain time so replacements stay last-wins.
        self._dirty: Dict[bytes, None] = {}
        self._dirty_bytes = 0
        self._next_arena_id = 0
        self._open = self._new_arena()
        self._sealed: List[_Arena] = []
        self._physical_bytes = 0
        self._live_bytes = 0
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.gc_relocations = 0

    # ------------------------------------------------------------------
    # concurrency-mode costing
    # ------------------------------------------------------------------

    def _charge_protect(self) -> None:
        """Entry cost of one access under the configured mode."""
        if self.latch_free:
            self.machine.cpu.charge("epoch_protect", category=CHARGE_CATEGORY)
        else:
            self.machine.cpu.charge("latch_acquire", category=CHARGE_CATEGORY)

    def _charge_install(self) -> None:
        """Publication cost of one mutation under the configured mode."""
        if self.latch_free:
            self.machine.cpu.charge("install_cas", category=CHARGE_CATEGORY)
        else:
            self.machine.cpu.charge("latch_convoy", category=CHARGE_CATEGORY)

    # ------------------------------------------------------------------
    # sizing helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _record_bytes(key: bytes, value: Optional[bytes]) -> int:
        value_len = len(value) if value is not None else 0
        return RECORD_HEADER_BYTES + len(key) + value_len

    def _new_arena(self) -> _Arena:
        arena = _Arena(self._next_arena_id)
        self._next_arena_id += 1
        return arena

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def lookup(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Probe the heap; a hit may be a cached tombstone (``None``).

        Sets the record's second-chance bit so GC relocates it once
        instead of evicting it.
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("record_cache.lookup", "record_cache")
        try:
            self._charge_protect()
            self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)
            record = self._index.get(key)
            if record is None:
                self.misses += 1
                return False, None
            record.referenced = True
            self.hits += 1
            return True, record.value
        finally:
            if tracer is not None:
                tracer.close_span()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append_record(self, key: bytes, value: Optional[bytes],
                      dirty: bool = False) -> bool:
        """Append a record image (``None`` caches a tombstone).

        ``dirty`` marks a committed delta the DC has not yet absorbed;
        dirty records are pinned against eviction until
        :meth:`drain_dirty`.  Returns ``False`` (rejecting the record)
        when the image cannot fit in one arena.
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("record_cache.append", "record_cache")
        try:
            self._charge_protect()
            nbytes = self._record_bytes(key, value)
            if nbytes > self.arena_bytes:
                # Over-sized for the heap: the caller keeps the page path.
                self.machine.cpu.charge("hash_probe",
                                        category=CHARGE_CATEGORY)
                return False
            self._write_record(key, value, nbytes, dirty, referenced=False)
            if self._physical_bytes > self.budget_bytes:
                self.collect_garbage()
            return True
        finally:
            if tracer is not None:
                tracer.close_span()

    def _write_record(self, key: bytes, value: Optional[bytes], nbytes: int,
                      dirty: bool, referenced: bool) -> None:
        """Low-level append into the open arena (no GC trigger)."""
        old = self._index.get(key)
        if old is not None:
            self._mark_dead(key, old)
        if self._open.physical_bytes + nbytes > self.arena_bytes:
            self.seal_arena()
        self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)
        self.machine.cpu.charge("copy_per_byte", nbytes,
                                category=CHARGE_CATEGORY)
        self._charge_install()
        self.machine.dram.allocate(nbytes, DRAM_TAG)
        record = _Record(value, self._open.arena_id, nbytes, dirty)
        record.referenced = referenced
        self._index[key] = record
        self._open.physical_bytes += nbytes
        self._open.live_bytes += nbytes
        self._open.keys.append(key)
        self._physical_bytes += nbytes
        self._live_bytes += nbytes
        if dirty:
            self._dirty.pop(key, None)
            self._dirty[key] = None
            self._dirty_bytes += nbytes

    def _mark_dead(self, key: bytes, record: _Record) -> None:
        """Retire a superseded/invalidated record (bytes stay resident)."""
        arena = self._arena_of(record.arena_id)
        arena.live_bytes -= record.nbytes
        self._live_bytes -= record.nbytes
        if record.dirty:
            self._dirty.pop(key, None)
            self._dirty_bytes -= record.nbytes

    def _arena_of(self, arena_id: int) -> _Arena:
        if arena_id == self._open.arena_id:
            return self._open
        for arena in self._sealed:
            if arena.arena_id == arena_id:
                return arena
        raise AssertionError(f"record points at reclaimed arena {arena_id}")

    def invalidate(self, key: bytes) -> None:
        """Drop a record from the index (its bytes await arena GC)."""
        self._charge_protect()
        self.machine.cpu.charge("hash_probe", category=CHARGE_CATEGORY)
        record = self._index.pop(key, None)
        if record is not None:
            self._mark_dead(key, record)

    # ------------------------------------------------------------------
    # arena lifecycle / GC
    # ------------------------------------------------------------------

    def seal_arena(self) -> None:
        """Seal the open arena and open a fresh one; advances the epoch.

        Sealed arenas are immutable and become GC candidates; the epoch
        bump is what makes them reclaimable (epoch-based GC: only arenas
        sealed in an earlier epoch are touched by the collector).
        """
        self._charge_install()
        arena = self._open
        arena.sealed = True
        self.epoch += 1
        arena.seal_epoch = self.epoch
        self._sealed.append(arena)
        faults = self.machine.faults
        if faults is not None:
            faults.hit("record_cache.arena_seal")
        self._open = self._new_arena()

    def relocate(self, key: bytes, record: _Record) -> None:
        """Copy one live record out of a condemned arena (second chance).

        Clears the ``referenced`` bit — a clean record survives exactly
        one collection on the strength of a lookup.
        """
        self._charge_protect()
        self.machine.cpu.charge("pointer_chase", category=CHARGE_CATEGORY)
        was_dirty = record.dirty
        self._write_record(key, record.value, record.nbytes, was_dirty,
                           referenced=False)
        self.gc_relocations += 1

    def collect_garbage(self) -> int:
        """Reclaim sealed arenas until the heap is back under budget.

        Live records that are dirty or recently referenced are relocated
        into the open arena; everything else is evicted.  Returns the
        number of arenas reclaimed.  Only arenas sealed before this
        pass's epoch are candidates (relocation refills the open arena,
        which may seal mid-pass — those newly sealed arenas wait for the
        next pass).
        """
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("record_cache.gc", "record_cache")
        try:
            self.machine.cpu.charge("op_dispatch", category=CHARGE_CATEGORY)
            self._charge_protect()
            faults = self.machine.faults
            candidates = [a for a in self._sealed if a.seal_epoch <= self.epoch]
            reclaimed = 0
            for arena in candidates:
                if self._physical_bytes <= self.budget_bytes:
                    break
                if faults is not None:
                    faults.hit("record_cache.gc_relocate")
                for key in arena.keys:
                    record = self._index.get(key)
                    if record is None or record.arena_id != arena.arena_id:
                        continue  # superseded or invalidated: already dead
                    self.machine.cpu.charge("pointer_chase",
                                            category=CHARGE_CATEGORY)
                    if record.dirty or record.referenced:
                        self.relocate(key, record)
                    else:
                        del self._index[key]
                        self._mark_dead(key, record)
                assert arena.live_bytes == 0, "reclaiming arena with live bytes"
                self._sealed.remove(arena)
                self.machine.dram.free(arena.physical_bytes, DRAM_TAG)
                self._physical_bytes -= arena.physical_bytes
                reclaimed += 1
            return reclaimed
        finally:
            if tracer is not None:
                tracer.close_span()

    # ------------------------------------------------------------------
    # dirty drain (DC absorption)
    # ------------------------------------------------------------------

    def drain_dirty(self) -> List[Tuple[bytes, Optional[bytes]]]:
        """Hand back every dirty record (in first-dirtied order), clean.

        The caller posts these to the DC as one blind batch; last-wins
        replacement already collapsed intermediate images, so each key
        appears once with its newest committed value.
        """
        self.machine.cpu.charge("op_dispatch", category=CHARGE_CATEGORY)
        drained: List[Tuple[bytes, Optional[bytes]]] = []
        for key in self._dirty:
            record = self._index[key]
            self.machine.cpu.charge("pointer_chase", category=CHARGE_CATEGORY)
            record.dirty = False
            drained.append((key, record.value))
        self._dirty.clear()
        self._dirty_bytes = 0
        return drained

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def physical_bytes(self) -> int:
        """Resident heap bytes, live plus not-yet-collected dead."""
        return self._physical_bytes

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    def __len__(self) -> int:
        return len(self._index)
