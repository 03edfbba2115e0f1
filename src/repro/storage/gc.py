"""Log-structured segment cleaning (paper Section 6.1, last paragraph).

Appending relocated pages means old versions accumulate; the cleaner picks
the emptiest flushed segments, relocates their live images to the log tail,
and reclaims the segment.  The paper highlights the trade-off this module's
policies expose: eager cleaning keeps the flash footprint (and $Fl rental)
small, lazy cleaning saves compute cycles and reclaims more bytes per pass
because segments are emptier when finally cleaned — experiment A5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..hardware.machine import Machine
from .log_store import LogStructuredStore
from .mapping_table import MappingTable


@dataclass(slots=True)
class GcStats:
    """Cumulative cleaner activity."""

    segments_cleaned: int = 0
    bytes_reclaimed: int = 0
    bytes_relocated: int = 0

    @property
    def reclaim_efficiency(self) -> float:
        """Bytes reclaimed per byte rewritten (higher is better)."""
        moved = self.bytes_relocated
        if moved == 0:
            return float("inf") if self.bytes_reclaimed > 0 else 0.0
        return self.bytes_reclaimed / moved


class GarbageCollector:
    """Greedy lowest-occupancy segment cleaner."""

    def __init__(
        self,
        machine: Machine,
        store: LogStructuredStore,
        mapping_table: MappingTable,
        checkpoint_manager=None,
    ) -> None:
        self.machine = machine
        self.store = store
        self.mapping_table = mapping_table
        self.checkpoint_manager = checkpoint_manager
        self.stats = GcStats()
        # Segments cleaned with ``defer_drop=True``: relocated but still
        # on flash, awaiting a superseding checkpoint + ``drop_pending``.
        self._pending_drops: List[int] = []

    def _pick_victim(self, max_occupancy: float) -> Optional[int]:
        pending = set(self._pending_drops)
        return min(
            ((info.occupancy, segment_id)
             for segment_id, info in self.store.segments.items()
             if segment_id not in pending and info.occupancy <= max_occupancy),
            default=(None, None))[1]

    def _utilization(self) -> float:
        """Live fraction of flushed flash, excluding pending-drop segments
        (their space is already reclaimable, just not yet reclaimed)."""
        pending = set(self._pending_drops)
        kept = [info for segment_id, info in self.store.segments.items()
                if segment_id not in pending]
        stored = sum(info.total_bytes for info in kept)
        return sum(info.live_bytes for info in kept) / stored if stored else 1.0

    def clean_segment(self, segment_id: int, defer_drop: bool = False) -> int:
        """Relocate a segment's live images and reclaim it; returns bytes.

        With ``defer_drop=True`` the segment is *not* dropped: its live
        images are relocated (and invalidated in place), and the segment
        joins the pending drops until the caller has written a fresh
        checkpoint and calls :meth:`drop_pending`.  That ordering makes
        cleaning crash-safe — at every intermediate point there is a
        durable checkpoint whose chains reference images still on flash.
        """
        faults = self.machine.faults
        if faults is not None:
            faults.hit("gc.clean_segment")
        info = self.store.segments[segment_id]
        # One large sequential read of the whole segment.
        self.machine.io_path.charge_round_trip(info.total_bytes)
        self.machine.ssd.read(info.total_bytes)
        by_id = self.mapping_table.by_id
        for addr, image in self.store.live_images(segment_id):
            if image.kind == "checkpoint":
                if defer_drop:
                    # Leave the live checkpoint in place: the caller
                    # writes a superseding checkpoint before the drop,
                    # so a crash at any point still finds a live image.
                    continue
                # The live mapping-table checkpoint moves with the data.
                # It must be durable *before* its old segment is dropped,
                # or a crash in between would leave no checkpoint at all.
                new_addr = self.store.append(image)
                self.store.flush()
                if self.checkpoint_manager is not None:
                    self.checkpoint_manager.note_relocated(new_addr)
                self.stats.bytes_relocated += addr.nbytes
                continue
            # Only the image's own page can reference it: an image is
            # appended by its page's flush or relocation alone.
            entry = by_id.get(image.page_id)
            if entry is None or addr not in entry.flash_chain:
                # Live in the segment index but no longer referenced by its
                # page (freed after a merge): just drop it.
                continue
            new_addr = self.store.append(image)
            chain = entry.flash_chain
            chain[chain.index(addr)] = new_addr
            if defer_drop:
                # The copy supersedes the original immediately; recovery
                # before the superseding checkpoint re-derives liveness
                # from the old chains (rebuild_liveness), so marking the
                # source dead here is safe.
                self.store.invalidate(addr)
            self.stats.bytes_relocated += addr.nbytes
        if defer_drop:
            self._pending_drops.append(segment_id)
            self.stats.segments_cleaned += 1
            return 0
        reclaimed = self.store.drop_segment(segment_id)
        self.stats.segments_cleaned += 1
        self.stats.bytes_reclaimed += reclaimed
        return reclaimed

    def drop_pending(self) -> int:
        """Reclaim every pending-drop segment; returns bytes reclaimed.

        Callers must have made a superseding checkpoint durable first
        (``BwTree.collect_garbage`` does), so by now no durable mapping
        state references the dropped segments.  A crash mid-loop leaves
        the remaining segments on flash as dead space for a later pass.
        """
        faults = self.machine.faults
        reclaimed = 0
        while self._pending_drops:
            segment_id = self._pending_drops[0]
            if faults is not None:
                faults.hit("gc.drop_segment")
            # Issuing the trim/erase for the reclaimed range is an I/O
            # submission like any other.
            self.machine.io_path.charge_submit(0)
            if segment_id in self.store.segments:
                reclaimed += self.store.drop_segment(segment_id)
            self._pending_drops.pop(0)
        self.stats.bytes_reclaimed += reclaimed
        return reclaimed

    def run_once(self, max_occupancy: float = 0.9,
                 defer_drop: bool = False) -> Optional[int]:
        """Clean the emptiest segment at or below ``max_occupancy``.

        Returns the cleaned segment id, or ``None`` if no segment qualifies.
        The open write buffer is never a victim.
        """
        victim = self._pick_victim(max_occupancy)
        if victim is None:
            return None
        self.clean_segment(victim, defer_drop=defer_drop)
        return victim

    def run_until_utilization(
        self, target: float, max_passes: int = 10_000,
        defer_drop: bool = False,
    ) -> int:
        """Clean segments until live/stored utilization reaches ``target``.

        Returns the number of segments cleaned.  Relocation itself appends
        to the log, so progress is checked each pass; segments that are
        entirely live (occupancy 1.0) cannot improve utilization and are
        skipped.  With ``defer_drop=True`` utilization is computed as if
        the pending segments were already reclaimed (see
        :meth:`clean_segment`).
        """
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target utilization must be in (0, 1]: {target}")
        cleaned = 0
        for _ in range(max_passes):
            if self._utilization() >= target:
                break
            if self.run_once(max_occupancy=0.999,
                             defer_drop=defer_drop) is None:
                break
            cleaned += 1
        return cleaned
