"""The TC's log-structured read cache (paper Section 6.3, Figure 6).

Records read from the data component are retained in a separate
log-structured cache so repeated reads of recently used records skip both
the I/O *and* the trip into the Bw-tree.  Eviction is CLOCK over the log
order (the "log-structured" part), with a byte budget: a hit sets the
record's reference bit, and the eviction sweep pops the log head,
re-appending a referenced victim at the tail with its bit cleared (the
second chance the record heap's ``RecordStore.relocate`` gives) and
dropping an unreferenced one.  Demote-not-drop is the page cache's
(``demote_to_tiers``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Set, Tuple

from ..frozen import check_bounds
from ..hardware.machine import Machine

DRAM_TAG = "tc_read_cache"
READ_CACHE_ENTRY_OVERHEAD_BYTES = 24


class ReadCache:
    """A byte-budgeted CLOCK cache of records read from the DC."""

    def __init__(self, machine: Machine, budget_bytes: int) -> None:
        from .tc import TcConfig  # lazy: that module imports this one
        check_bounds(TcConfig, read_cache_bytes=budget_bytes)
        self.machine = machine
        self.budget_bytes = budget_bytes
        #: key -> value, oldest first; read-only outside the cache.
        self.entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        #: Keys hit since they were appended: their reference bits.
        self.referenced: Set[bytes] = set()
        self._bytes = 0
        # The lookup's probe, the insert's copy and a victim's re-append
        # (its probe, then its copy), priced once.
        plan = machine.cpu.plan
        self._probe = plan("tc_read_cache", "hash_probe")
        self._copy = plan("tc_read_cache", then="copy_per_byte")
        self._reappend = plan("tc_read_cache", "hash_probe",
                              then="copy_per_byte")
        self.hits = 0
        self.misses = 0
        # Always 0: the engine's ``read_cache_demotions`` /
        # ``read_cache_promotions`` statistics and the e2e harness's
        # ``tier_cache`` counts still read them.
        self.demotions = 0
        self.promotions = 0

    def lookup(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Probe the cache; charges one hash probe.  A hit sets the
        record's reference bit, which bills nothing."""
        self.machine.cpu.bill(self._probe)
        if key in self.entries:
            self.hits += 1
            self.referenced.add(key)
            return True, self.entries[key]
        self.misses += 1
        return False, None

    def insert(self, key: bytes, value: bytes) -> None:
        """Append a record at the log tail (a re-insert moves it there and
        clears its bit), first sweeping the log head until it fits.

        A referenced victim loses its bit and is re-appended at the tail,
        billing a probe and its copy; its bytes move and the budget
        holds.  An unreferenced one is dropped.  Each step clears a bit
        or drops a record, so the sweep ends within one lap and the new
        record is always admitted.  It is sized once and admitted in
        this frame.
        """
        nbytes = READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(value)
        machine = self.machine
        budget = self.budget_bytes
        if nbytes > budget:
            # An over-budget record would evict the whole cache and still
            # not fit; reject it outright.  Only the admission probe is
            # charged -- no bytes are copied.
            machine.cpu.charge("hash_probe", category="tc_read_cache")
            return
        entries = self.entries
        referenced = self.referenced
        dram = machine.dram
        if key in entries:
            old = entries.pop(key)
            referenced.discard(key)
            freed = READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(old)
            dram.free(freed, DRAM_TAG)
            self._bytes -= freed
        machine.cpu.bill(self._copy, nbytes)
        while self._bytes + nbytes > budget:
            old_key, old_value = entries.popitem(last=False)
            size = (READ_CACHE_ENTRY_OVERHEAD_BYTES + len(old_key)
                    + len(old_value))
            if old_key in referenced:
                referenced.remove(old_key)
                entries[old_key] = old_value
                machine.cpu.bill(self._reappend, size)
                continue
            dram.free(size, DRAM_TAG)
            self._bytes -= size
        entries[key] = value
        dram.allocate(nbytes, DRAM_TAG)
        self._bytes += nbytes

    def invalidate(self, key: bytes) -> None:
        """Drop a stale record (its key was updated) and its bit."""
        if key in self.entries:
            old = self.entries.pop(key)
            self.referenced.discard(key)
            freed = READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(old)
            self.machine.dram.free(freed, DRAM_TAG)
            self._bytes -= freed

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self.entries)
