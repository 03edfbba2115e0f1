"""The TC's log-structured read cache (paper Section 6.3, Figure 6).

Records read from the data component are retained in a separate
log-structured cache so repeated reads of recently used records skip both
the I/O *and* the trip into the Bw-tree.  Eviction is FIFO over the log
order (the "log-structured" part), with a byte budget.  A victim is
dropped; demote-not-drop is the page cache's (``demote_to_tiers``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from ..frozen import check_bounds
from ..hardware.machine import Machine

DRAM_TAG = "tc_read_cache"
READ_CACHE_ENTRY_OVERHEAD_BYTES = 24


class ReadCache:
    """A byte-budgeted FIFO cache of records read from the DC."""

    def __init__(self, machine: Machine, budget_bytes: int) -> None:
        from .tc import TcConfig  # lazy: that module imports this one
        check_bounds(TcConfig, read_cache_bytes=budget_bytes)
        self.machine = machine
        self.budget_bytes = budget_bytes
        #: key -> value, oldest first; read-only outside the cache.
        self.entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._bytes = 0
        # The lookup's probe and the insert's copy, priced once.
        plan = machine.cpu.plan
        self._probe = plan("tc_read_cache", "hash_probe")
        self._copy = plan("tc_read_cache", then="copy_per_byte")
        self.hits = 0
        self.misses = 0
        # Always 0: the engine's ``read_cache_demotions`` /
        # ``read_cache_promotions`` statistics and the e2e harness's
        # ``tier_cache`` counts still read them.
        self.demotions = 0
        self.promotions = 0

    def lookup(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Probe the cache; charges one hash probe."""
        self.machine.cpu.bill(self._probe)
        if key in self.entries:
            self.hits += 1
            return True, self.entries[key]
        self.misses += 1
        return False, None

    def insert(self, key: bytes, value: bytes) -> None:
        """Append a record to the DRAM FIFO (a re-insert moves it to the
        back), dropping victims while over budget.

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
            return
        entries = self.entries
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

    def invalidate(self, key: bytes) -> None:
        """Drop a stale record (its key was updated)."""
        if key in self.entries:
            old = self.entries.pop(key)
            freed = READ_CACHE_ENTRY_OVERHEAD_BYTES + len(key) + len(old)
            self.machine.dram.free(freed, DRAM_TAG)
            self._bytes -= freed

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self.entries)
