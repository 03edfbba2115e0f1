"""LLAMA-style log-structured store (paper Section 6.1, Figures 4-5).

Page images are appended to large in-memory write buffers; a buffer is
written to the simulated SSD as **one** large write when full, which is how
log-structuring makes write cost "an insignificant factor" (Section 1.4).
Pages are variable-size (only the bytes actually used are written) and a
page whose base image is already on flash can be flushed as a delta-only
image — the two storage savings of Figure 5.

Reads of unflushed images are served from the write buffer without I/O;
reads of flushed images cost one SSD access plus the I/O path's CPU charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults.retry import RetryStats, run_with_retries
from ..frozen import check_bounds, slot_init
from ..hardware.machine import Machine
from .mapping_table import FlashAddr
from .pages import PageImage


@dataclass(slots=True)
class SegmentInfo:
    """Occupancy bookkeeping for one flushed log segment."""

    segment_id: int
    total_bytes: int = 0
    live_bytes: int = 0
    entries: Dict[int, Tuple[int, bool]] = field(default_factory=dict)
    # entries: offset -> (nbytes, live)

    @property
    def occupancy(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.live_bytes / self.total_bytes


@slot_init
@dataclass(frozen=True, slots=True)
class ReadResult:
    """One image read back from the store, with how it was served."""

    image: PageImage
    from_write_buffer: bool
    service_us: float


class LogStructuredStore:
    """Append-only page image store over the simulated SSD."""

    def __init__(
        self,
        machine: Machine,
        segment_bytes: int = 1 << 20,
    ) -> None:
        from ..bwtree.tree import BwTreeConfig  # lazy: that module imports this one
        check_bounds(BwTreeConfig, segment_bytes=segment_bytes)
        self.machine = machine
        self.segment_bytes = segment_bytes
        self._next_segment_id = 0
        self._open_segment_id = self._take_segment_id()
        self._open_offset = 0
        self._open_buffer: Dict[int, PageImage] = {}   # offset -> image
        self.segments: Dict[int, SegmentInfo] = {}
        # segment -> offset -> image: a flushed segment keeps its buffer.
        self._payloads: Dict[int, Dict[int, PageImage]] = {}
        self.bytes_appended = 0
        self.segment_flushes = 0
        self.retry_stats = RetryStats()
        # Staging an image into the buffer and reading one back are each
        # a copy of its bytes.
        self._copy = machine.cpu.plan("log_store", then="copy_per_byte")

    def _take_segment_id(self) -> int:
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        return segment_id

    # --- write path --------------------------------------------------------

    def append(self, image: PageImage) -> FlashAddr:
        """Append one page image; returns its (future) flash address.

        The image lands in the open write buffer; the buffer is flushed to
        the SSD as a single large write once ``segment_bytes`` accumulate.
        """
        nbytes = image.size_bytes
        if nbytes > self.segment_bytes:
            raise ValueError(
                f"image of {nbytes}B exceeds segment size {self.segment_bytes}"
            )
        faults = self.machine.faults
        if faults is not None:
            faults.hit("log_store.append")
        if self._open_offset + nbytes > self.segment_bytes:
            self.flush()
        addr = FlashAddr(self._open_segment_id, self._open_offset, nbytes)
        self._open_buffer[self._open_offset] = image
        self._open_offset += nbytes
        self.bytes_appended += nbytes
        self.machine.cpu.bill(self._copy, nbytes)
        return addr

    def flush(self) -> Optional[int]:
        """Write the open buffer to the SSD as one large write.

        Returns the flushed segment id, or ``None`` if the buffer was empty.
        """
        if not self._open_buffer:
            return None
        segment_id = self._open_segment_id
        used = self._open_offset
        faults = self.machine.faults

        def write_segment() -> None:
            # One large write: one I/O path round trip + one device access.
            # Charges sit inside the attempt so a transient device error
            # re-charges the full round trip on every retry.
            self.machine.io_path.charge_round_trip(used)
            if faults is not None:
                faults.hit("log_store.flush")
            self.machine.ssd.write(used)

        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("log_store.flush", "log_store")
        try:
            run_with_retries(self.machine, write_segment,
                             stats=self.retry_stats)
            self.machine.ssd.store_bytes(used)
        finally:
            if tracer is not None:
                tracer.close_span()
        # The device has acked: only now does the segment exist.  A crash
        # before this point loses the whole open buffer and nothing else.
        # Images invalidated while still buffered leave holes: they count
        # toward the segment's total (the write is contiguous) but are dead
        # on arrival.
        entries = {offset: (image.size_bytes, True)
                   for offset, image in self._open_buffer.items()}
        self.segments[segment_id] = SegmentInfo(
            segment_id, used, sum(n for n, __ in entries.values()), entries)
        self._payloads[segment_id] = self._open_buffer
        self.segment_flushes += 1
        self._open_segment_id = self._take_segment_id()
        self._open_offset = 0
        self._open_buffer = {}
        return segment_id

    # --- read path ----------------------------------------------------------

    def read(self, addr: FlashAddr) -> ReadResult:
        """Read one image back; costs one I/O unless still buffered."""
        if addr.segment_id == self._open_segment_id:
            image = self._open_buffer.get(addr.offset)
            if image is None:
                raise KeyError(f"no image at {addr} in open buffer")
            # Served from the in-memory write buffer: no device access.
            self.machine.cpu.bill(self._copy, addr.nbytes)
            return ReadResult(image, from_write_buffer=True, service_us=0.0)
        try:
            image = self._payloads[addr.segment_id][addr.offset]
        except KeyError:
            raise KeyError(f"no image at {addr}") from None
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("log_store.read", "log_store")
        try:
            # The round trip's two halves, without charge_round_trip's
            # frame; charge_complete stays a call of its own, one per
            # round trip, which is how a traced run counts them.
            io_path = self.machine.io_path
            io_path.charge_submit(addr.nbytes)
            io_path.charge_complete(addr.nbytes)
            service_us = self.machine.ssd.read(addr.nbytes)
            self.machine.cpu.bill(self._copy, addr.nbytes)
            return ReadResult(image, from_write_buffer=False,
                              service_us=service_us)
        finally:
            if tracer is not None:
                tracer.close_span()

    # --- occupancy ------------------------------------------------------------

    def invalidate(self, addr: FlashAddr) -> None:
        """Mark an image dead (superseded or its page was dropped)."""
        if addr.segment_id == self._open_segment_id:
            image = self._open_buffer.pop(addr.offset, None)
            if image is None:
                raise KeyError(f"no image at {addr} in open buffer")
            # Dead before ever reaching flash; reclaim buffer space lazily
            # by leaving a hole (real LLAMA does the same within a buffer).
            return
        info = self.segments.get(addr.segment_id)
        if info is None:
            raise KeyError(f"unknown segment {addr.segment_id}")
        nbytes, live = info.entries.get(addr.offset, (0, False))
        if nbytes == 0:
            raise KeyError(f"no image at {addr}")
        if live:
            info.entries[addr.offset] = (nbytes, False)
            info.live_bytes -= nbytes

    def live_images(self, segment_id: int) -> List[Tuple[FlashAddr, PageImage]]:
        """All live images of a flushed segment (for the GC)."""
        info = self.segments.get(segment_id)
        if info is None:
            raise KeyError(f"unknown segment {segment_id}")
        payloads = self._payloads[segment_id]
        return [(FlashAddr(segment_id, offset, nbytes), payloads[offset])
                for offset, (nbytes, live) in sorted(info.entries.items())
                if live]

    def drop_segment(self, segment_id: int) -> int:
        """Remove a (cleaned) segment entirely; returns bytes reclaimed."""
        info = self.segments.pop(segment_id, None)
        if info is None:
            raise KeyError(f"unknown segment {segment_id}")
        del self._payloads[segment_id]
        self.machine.ssd.release_bytes(info.total_bytes)
        return info.total_bytes

    def rebuild_liveness(self, live_addrs) -> None:
        """Reset every flushed segment's live flags from ``live_addrs``.

        Liveness is main-memory metadata: invalidations performed just
        before a crash may refer to replacement writes that never reached
        flash, so after recovery the flags can disagree with the recovered
        mapping table in both directions (checkpoint-referenced images
        marked dead, orphaned post-checkpoint images marked live).  The
        cleaner trusts these flags when dropping segments, so recovery
        must re-derive them from its authoritative address set: the
        restored flash chains plus the live checkpoint image.
        """
        live = {(addr.segment_id, addr.offset) for addr in live_addrs}
        for segment_id, info in self.segments.items():
            live_bytes = 0
            for offset, (nbytes, __) in info.entries.items():
                is_live = (segment_id, offset) in live
                info.entries[offset] = (nbytes, is_live)
                if is_live:
                    live_bytes += nbytes
            info.live_bytes = live_bytes

    # --- crash simulation --------------------------------------------------

    def simulate_crash(self) -> int:
        """Model a power loss: the open (unflushed) write buffer is lost.

        Flushed segments are flash and survive.  Returns the number of
        buffered images discarded.
        """
        lost = len(self._open_buffer)
        self._open_buffer = {}
        self._open_offset = 0
        self._open_segment_id = self._take_segment_id()
        return lost

    # --- reporting --------------------------------------------------------------

    @property
    def flushed_segment_ids(self) -> List[int]:
        return sorted(self.segments)

    @property
    def stored_bytes(self) -> int:
        """Bytes currently occupying flash (flushed segments only)."""
        return sum(info.total_bytes for info in self.segments.values())

    @property
    def live_bytes(self) -> int:
        return sum(info.live_bytes for info in self.segments.values())

    @property
    def dead_bytes(self) -> int:
        return self.stored_bytes - self.live_bytes

    def utilization(self) -> float:
        """Live fraction of flushed flash space (1.0 when nothing flushed)."""
        stored = self.stored_bytes
        if stored == 0:
            return 1.0
        return self.live_bytes / stored
