"""The TC's log-structured read cache (paper Section 6.3, Figure 6).

Records read from the data component are retained in a separate
log-structured cache so repeated reads of recently used records skip both
the I/O *and* the trip into the Bw-tree.  Eviction is FIFO over the log
order (the "log-structured" part), with a byte budget.

With ``demote_to_tiers`` the FIFO eviction demotes instead of dropping:
the victim record moves to a far-memory victim tier (its bytes leave
DRAM and are accounted separately, priced at the tier's $/byte by the
bench), and a DRAM miss that hits the victim tier promotes the record
back — the record-granularity twin of the page cache's demote path, on
the same ``cache.demote`` / ``tier.promote`` fault sites and
``tier_cache.*`` spans.  Invalidation drops both copies, so a stale
value can never be served from the victim tier.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..bwtree.tree import BwTreeConfig
from ..frozen import check_bounds
from ..hardware.machine import Machine

DRAM_TAG = "tc_read_cache"
READ_CACHE_ENTRY_OVERHEAD_BYTES = 24


class ReadCache:
    """A byte-budgeted FIFO cache of records read from the DC."""

    def __init__(self, machine: Machine, budget_bytes: int,
                 demote_to_tiers: bool = False,
                 demote_budget_bytes: Optional[int] = None) -> None:
        from .tc import TcConfig  # lazy: that module imports this one
        check_bounds(TcConfig, read_cache_bytes=budget_bytes)
        # The victim tier takes the page cache's demote budget bound.
        check_bounds(BwTreeConfig, demote_budget_bytes=demote_budget_bytes)
        self.machine = machine
        self.budget_bytes = budget_bytes
        self.demote_to_tiers = demote_to_tiers
        self.demote_budget_bytes = demote_budget_bytes
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._bytes = 0
        # Victim tier (far memory): FIFO over demotion order, bytes
        # accounted here rather than in the machine's DRAM model.
        self._tier_entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._tier_bytes = 0
        # The lookup's probe and the insert's copy, priced once.
        plan = machine.cpu.plan
        self._probe = plan("tc_read_cache", "hash_probe")
        self._copy = plan("tc_read_cache", then="copy_per_byte")
        self.hits = 0
        self.misses = 0
        self.evicted_records = 0
        self.rejected_inserts = 0
        self.demotions = 0
        self.promotions = 0
        self.tier_drops = 0

    @staticmethod
    def _entry_bytes(key: bytes, value: bytes) -> int:
        return READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(value)

    def lookup(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Probe the cache; charges one hash probe.

        A DRAM miss falls through to the victim tier (one more probe);
        a hit there promotes the record back into the DRAM FIFO.
        """
        self.machine.cpu.bill(self._probe)
        if key in self._entries:
            self.hits += 1
            return True, self._entries[key]
        if self.demote_to_tiers:
            self.machine.cpu.charge("hash_probe", category="tier_cache")
            if key in self._tier_entries:
                value = self._promote(key)
                self.hits += 1
                return True, value
        self.misses += 1
        return False, None

    def _promote(self, key: bytes) -> bytes:
        """Move a victim-tier record back into the DRAM FIFO."""
        faults = self.machine.faults
        if faults is not None:
            faults.hit("tier.promote")
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("tier_cache.promote", "tier_cache")
        try:
            value = self._tier_entries.pop(key)
            self._tier_bytes -= self._entry_bytes(key, value)
            self.promotions += 1
            # It fitted when it was demoted, so it is admitted again.
            self.insert(key, value)
        finally:
            if tracer is not None:
                tracer.close_span()
        return value

    def insert(self, key: bytes, value: bytes) -> None:
        """Append a record to the DRAM FIFO (a re-insert moves it to the
        back), demoting or dropping victims while over budget.

        The entry is sized once and admitted in this frame.
        """
        nbytes = READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(value)
        machine = self.machine
        budget = self.budget_bytes
        if nbytes > budget:
            # An over-budget record would evict the whole cache and still
            # not fit; reject it outright.  Only the admission probe is
            # charged -- no bytes are copied.
            machine.cpu.charge("hash_probe", category="tc_read_cache")
            self.rejected_inserts += 1
            return
        entries = self._entries
        dram = machine.dram
        if key in entries:
            old = entries.pop(key)
            freed = READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(old)
            dram.free(freed, DRAM_TAG)
            self._bytes -= freed
        entries[key] = value
        dram.allocate(nbytes, DRAM_TAG)
        self._bytes += nbytes
        machine.cpu.bill(self._copy, nbytes)
        while self._bytes > budget:
            old_key, old_value = entries.popitem(last=False)
            freed = (READ_CACHE_ENTRY_OVERHEAD_BYTES + len(old_key)
                     + len(old_value))
            dram.free(freed, DRAM_TAG)
            self._bytes -= freed
            self.evicted_records += 1
            if self.demote_to_tiers:
                self._demote(old_key, old_value)

    def _demote(self, key: bytes, value: bytes) -> None:
        """Park a FIFO victim in the far-memory tier instead of dropping."""
        faults = self.machine.faults
        if faults is not None:
            faults.hit("cache.demote")
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("tier_cache.demote", "tier_cache")
        try:
            nbytes = self._entry_bytes(key, value)
            self.machine.cpu.charge("copy_per_byte", nbytes,
                                    category="tier_cache")
            stale = self._tier_entries.pop(key, None)
            if stale is not None:
                self._tier_bytes -= self._entry_bytes(key, stale)
            self._tier_entries[key] = value
            self._tier_bytes += nbytes
            self.demotions += 1
            if self.demote_budget_bytes is None:
                return
            while (self._tier_bytes > self.demote_budget_bytes
                   and self._tier_entries):
                old_key, old_value = self._tier_entries.popitem(last=False)
                self._tier_bytes -= self._entry_bytes(old_key, old_value)
                self.tier_drops += 1
        finally:
            if tracer is not None:
                tracer.close_span()

    def invalidate(self, key: bytes) -> None:
        """Drop a stale record (its key was updated) from every tier."""
        if key in self._entries:
            old = self._entries.pop(key)
            freed = self._entry_bytes(key, old)
            self.machine.dram.free(freed, DRAM_TAG)
            self._bytes -= freed
        if key in self._tier_entries:
            old = self._tier_entries.pop(key)
            self._tier_bytes -= self._entry_bytes(key, old)

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    @property
    def tier_resident_bytes(self) -> int:
        """Bytes parked in the victim tier (not DRAM)."""
        return self._tier_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        """Fraction of probes served from the cache (PageCache parity)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
