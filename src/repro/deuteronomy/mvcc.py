"""Timestamp-ordered multi-version concurrency control for the TC.

Paper Section 6.3: "Instead of using proxies for the multiple versions, the
TC uses the versions themselves" — versions live in recovery-log buffers,
and the MVCC hash table doubles as the access path to that record cache.
A version here *is* the redo record the commit appended
(:class:`~repro.deuteronomy.recovery_log.LogRecord`); it is servable from
memory only while the log still retains its LSN.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple

from ..hardware.machine import Machine
from .recovery_log import LogRecord

VERSION_ENTRY_OVERHEAD_BYTES = 48   # hash chain + version metadata
DRAM_TAG = "tc_version_store"


class VersionStore:
    """Hash table: key -> committed versions (redo records), newest first.

    A version's modelled size is ``VERSION_ENTRY_OVERHEAD_BYTES`` plus its
    value, not the redo record's log size.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        # add()'s probe and install, and visible()'s probe and per-version
        # check, priced once.
        plan = machine.cpu.plan
        self._install = plan("tc_mvcc", "hash_probe", "install_cas")
        self._probe = plan("tc_mvcc", "hash_probe")
        self._check = plan("tc_mvcc", "version_visibility_check")
        #: key -> its versions, newest first; read-only outside the store
        #: (``TransactionComponent.apply_batch`` probes it inline).
        self.chains: Dict[bytes, List[LogRecord]] = {}
        self._bytes = 0
        self._count = 0
        # Reclamation index.  A version becomes invisible exactly when its
        # successor's timestamp falls at or below the horizon, so each
        # superseding add() files its key under the *successor's*
        # timestamp: one bucket per commit timestamp, plus a heap of the
        # bucket timestamps because direct callers and redo replay may
        # install timestamps out of order across keys.
        self._superseded: Dict[int, List[bytes]] = {}
        self._superseded_order: List[int] = []
        #: The heap's head, ``inf`` when it is empty: ``truncate(h)``
        #: reclaims nothing unless this is ``<= h``, so callers skip the
        #: call otherwise.  A plain attribute, read without a call.
        self.oldest_superseded: float = math.inf

    def add(self, version: LogRecord) -> None:
        """Install a newly committed version (must be newest for its key)."""
        self.machine.cpu.bill(self._install)
        key = version.key
        chain = self.chains.setdefault(key, [])
        timestamp = version.timestamp
        value = version.value
        nbytes = VERSION_ENTRY_OVERHEAD_BYTES + (
            len(value) if value is not None else 0)
        if chain:
            if chain[0].timestamp >= timestamp:
                raise ValueError(
                    f"version timestamps must increase: {timestamp} "
                    f"after {chain[0].timestamp}"
                )
            bucket = self._superseded.get(timestamp)
            if bucket is None:
                self._superseded[timestamp] = [key]
                heapq.heappush(self._superseded_order, timestamp)
                if timestamp < self.oldest_superseded:
                    self.oldest_superseded = timestamp
            else:
                bucket.append(key)
        else:
            nbytes += len(key)
        chain.insert(0, version)
        self.machine.dram.allocate(nbytes, DRAM_TAG)
        self._bytes += nbytes
        self._count += 1

    def visible(self, key: bytes, read_timestamp: int) -> Tuple[
            Optional[LogRecord], int]:
        """Newest version with timestamp <= ``read_timestamp``.

        Returns (version or None, versions examined) for cost charging.
        """
        bill = self.machine.cpu.bill
        bill(self._probe)
        chain = self.chains.get(key)
        if not chain:
            return None, 0
        examined = 0
        check = self._check
        for version in chain:
            examined += 1
            bill(check)
            if version.timestamp <= read_timestamp:
                return version, examined
        return None, examined

    def newest_timestamp(self, key: bytes) -> Optional[int]:
        """Timestamp of the newest committed version (for conflict checks)."""
        self.machine.cpu.charge("hash_probe", category="tc_mvcc")
        chain = self.chains.get(key)
        if not chain:
            return None
        return chain[0].timestamp

    def truncate(self, horizon_timestamp: int) -> int:
        """Drop versions no reader can see; returns versions removed.

        Keeps, per key, the newest version at or below the horizon (it is
        still visible) and everything above it, so a chain never empties.
        Only chains filed in the reclamation index at or below the horizon
        are visited: the cost is O(versions reclaimed), not O(keys).
        """
        order = self._superseded_order
        removed = 0
        freed = 0
        while order and order[0] <= horizon_timestamp:
            for key in self._superseded.pop(heapq.heappop(order)):
                chain = self.chains[key]
                # Oldest is last; it goes once its successor is visible
                # at the horizon.  An earlier bucket of this same call
                # may already have trimmed the chain.
                keep = len(chain)
                while (keep > 1
                       and chain[keep - 2].timestamp <= horizon_timestamp):
                    keep -= 1
                    value = chain[keep].value
                    freed += VERSION_ENTRY_OVERHEAD_BYTES + (
                        len(value) if value is not None else 0)
                removed += len(chain) - keep
                del chain[keep:]
        self.oldest_superseded = order[0] if order else math.inf
        if removed:
            self._bytes -= freed
            self._count -= removed
            self.machine.dram.free(freed, DRAM_TAG)
        return removed

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def version_count(self) -> int:
        return self._count

    def key_count(self) -> int:
        return len(self.chains)
