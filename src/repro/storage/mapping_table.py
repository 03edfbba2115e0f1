"""The mapping table: logical page id -> current page location.

The mapping table is the pivot of the whole Deuteronomy design (paper
Figure 4): pages are located via a stable logical id, so pages can move on
every flush (log-structuring), be updated latch-free by installing deltas,
and receive *blind* updates while their base image lives only on flash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .pages import DataPageState


@dataclass(frozen=True, slots=True)
class FlashAddr:
    """Location of one persisted page image inside the log store."""

    segment_id: int
    offset: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"flash image must have positive size: {self}")


@dataclass(slots=True)
class PageEntry:
    """Mapping-table entry for one logical page.

    ``state`` is the resident :class:`DataPageState` (possibly deltas
    only, after a blind update to an evicted page), or ``None`` when the
    page is entirely on flash.  ``flash_chain`` lists the persisted images
    needed to rebuild the page, oldest first: a base image followed by zero
    or more delta images (paper Figure 5).
    """

    page_id: int
    state: Optional[DataPageState] = None
    flash_chain: List[FlashAddr] = field(default_factory=list)
    last_access: float = 0.0
    access_count: int = 0
    # Delta records contained in the flash_chain's delta images.  Lets the
    # cache tell whether a resident delta list already covers everything on
    # flash (evict-then-touch) or not (blind update posted to a page whose
    # state had been dropped), and fetch accordingly.
    flushed_delta_records: int = 0

    @property
    def resident(self) -> bool:
        return self.state is not None

    @property
    def fully_resident(self) -> bool:
        return self.state is not None and self.state.base is not None

    @property
    def dirty(self) -> bool:
        return self.state is not None and self.state.has_unflushed_changes

    @property
    def resident_bytes(self) -> int:
        return self.state.resident_size_bytes if self.state else 0


class MappingTable:
    """Allocates logical page ids and tracks every page's location.

    ``by_id`` is the page id -> entry dict: a hot path may look a known
    page up there without :meth:`get`'s frame; only this class writes it.
    """

    def __init__(self) -> None:
        self.by_id: Dict[int, PageEntry] = {}
        self._next_page_id = 0

    @property
    def next_page_id(self) -> int:
        return self._next_page_id

    def allocate(self) -> PageEntry:
        """Create a fresh, resident, empty page and return its entry."""
        page_id = self._next_page_id
        self._next_page_id += 1
        entry = PageEntry(page_id=page_id, state=DataPageState(page_id))
        self.by_id[page_id] = entry
        return entry

    def restore_entry(self, page_id: int, flash_chain: List[FlashAddr],
                      flushed_delta_records: int = 0) -> PageEntry:
        """Recreate a non-resident entry from a checkpoint (recovery)."""
        if page_id in self.by_id:
            raise ValueError(f"page {page_id} already exists")
        entry = PageEntry(page_id=page_id, state=None,
                          flash_chain=list(flash_chain),
                          flushed_delta_records=flushed_delta_records)
        self.by_id[page_id] = entry
        if page_id >= self._next_page_id:
            self._next_page_id = page_id + 1
        return entry

    def get(self, page_id: int) -> PageEntry:
        try:
            return self.by_id[page_id]
        except KeyError:
            raise KeyError(f"unknown logical page id {page_id}") from None

    def free(self, page_id: int) -> PageEntry:
        """Drop a page (after a merge); returns the removed entry."""
        try:
            return self.by_id.pop(page_id)
        except KeyError:
            raise KeyError(f"unknown logical page id {page_id}") from None

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.by_id

    def __len__(self) -> int:
        return len(self.by_id)

    def entries(self) -> List[PageEntry]:
        """All entries (stable order by page id)."""
        return [self.by_id[pid] for pid in sorted(self.by_id)]

    def resident_bytes(self) -> int:
        """Total bytes of resident page state across all entries."""
        return sum(entry.resident_bytes for entry in self.by_id.values())
