"""Mapping-table checkpoints: making the Bw-tree recoverable.

The mapping table is a main-memory structure; to survive a crash the
Bw-tree periodically persists it into the log-structured store as a
checkpoint image listing, for every live logical page, the flash chain
that rebuilds it.  Exactly one checkpoint image is live at a time (writing
a new one invalidates its predecessor), so recovery is a scan of the live
segment entries for the single ``checkpoint`` image.

Deltas flushed *after* the checkpoint are recovered through the redo log
(the transaction component replays committed updates as blind updates —
the paper's Section 6.2 point that recovery uses the normal update path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .log_store import LogStructuredStore
from .mapping_table import FlashAddr, MappingTable

CHECKPOINT_HEADER_BYTES = 64
CHECKPOINT_PAGE_BYTES = 16       # page id + chain length
CHECKPOINT_ADDR_BYTES = 24       # segment id + offset + length


@dataclass(frozen=True, slots=True)
class CheckpointImage:
    """A persisted snapshot of the mapping table's flash locations.

    ``page_chains`` holds, per live page: (page id, flash chain, number of
    delta records contained in the chain's delta images).  ``size_bytes``
    is summed in the one pass that builds them (``write_checkpoint``).
    """

    page_chains: Tuple[Tuple[int, Tuple[FlashAddr, ...], int], ...]
    next_page_id: int
    size_bytes: int

    kind = "checkpoint"
    page_id = -1   # not a data page; kept for log-store symmetry

    def chains(self) -> Dict[int, Tuple[List[FlashAddr], int]]:
        return {
            pid: (list(chain), fdr)
            for pid, chain, fdr in self.page_chains
        }


class CheckpointManager:
    """Writes and locates mapping-table checkpoints in the log store."""

    def __init__(self, store: LogStructuredStore,
                 mapping_table: MappingTable) -> None:
        self.store = store
        self.mapping_table = mapping_table
        self._latest_addr: Optional[FlashAddr] = None
        self.checkpoints_written = 0

    def write_checkpoint(self) -> FlashAddr:
        """Persist the current mapping table; every page must already have
        its state flushed (callers flush dirty pages first)."""
        chains = []
        addr_count = 0
        for entry in self.mapping_table.entries():
            if entry.dirty:
                raise ValueError(
                    f"page {entry.page_id} is dirty; flush before "
                    "checkpointing"
                )
            chain = tuple(entry.flash_chain)
            addr_count += len(chain)
            chains.append((entry.page_id, chain, entry.flushed_delta_records))
        image = CheckpointImage(
            page_chains=tuple(chains),
            next_page_id=self.mapping_table.next_page_id,
            size_bytes=(CHECKPOINT_HEADER_BYTES
                        + CHECKPOINT_PAGE_BYTES * len(chains)
                        + CHECKPOINT_ADDR_BYTES * addr_count),
        )
        addr = self.store.append(image)
        faults = self.store.machine.faults
        if faults is not None:
            faults.hit("checkpoint.write.after_append")
        # Durability before invalidation: the old image must stay live
        # until the new one is safely on flash, or a crash in between
        # leaves zero live checkpoints and recovery loses the mapping
        # table.  (The append above may already have auto-flushed on
        # fill, so by here *two* images can legitimately be durable;
        # find_latest resolves that by picking the newest.)
        try:
            self.store.flush()
        except BaseException:
            # Withdraw the unacknowledged image, or the next flush makes
            # it durable and find_latest picks it, although a later full
            # re-flush may have invalidated the images it references.
            self.store.invalidate(addr)
            raise
        if faults is not None:
            faults.hit("checkpoint.write.after_flush")
        previous, self._latest_addr = self._latest_addr, addr
        if previous is not None:
            try:
                self.store.invalidate(previous)
            except KeyError:
                # Its segment was already reclaimed (deferred GC drop).
                pass
        self.checkpoints_written += 1
        return addr

    def note_relocated(self, new_addr: FlashAddr) -> None:
        """The GC moved the live checkpoint image to ``new_addr``."""
        self._latest_addr = new_addr

    @property
    def latest_addr(self) -> Optional[FlashAddr]:
        return self._latest_addr

    @staticmethod
    def find_latest(store: LogStructuredStore) -> Optional[
            Tuple[FlashAddr, CheckpointImage]]:
        """Scan live segment entries for the newest checkpoint image.

        Exactly one image is live in steady state, but a crash inside
        :meth:`write_checkpoint` — after the new image reached flash
        (explicitly or via segment auto-flush on fill), before the old
        one was invalidated — legitimately leaves two.  Recovery picks
        the newest (largest flash address: segment ids and offsets are
        allocated monotonically, so address order is append order) and
        invalidates the stale survivors in place.
        """
        # In address order: segments ascend, and each lists by offset.
        found = [(addr, image) for segment_id in store.flushed_segment_ids
                 for addr, image in store.live_images(segment_id)
                 if image.kind == "checkpoint"]
        if not found:
            return None
        for stale_addr, __ in found[:-1]:
            store.invalidate(stale_addr)
        return found[-1]
