"""Records, deltas and page state for the LLAMA-style cache/storage layer.

Deuteronomy pages are *logical*: the current state of a page is a base page
plus a chain of delta records prepended by updates (paper Figures 4 and 5).
The chain is what makes latch-free updating and blind updates cheap, and what
enables delta-only flushes and delta-only pages (Section 6).

Sizes are byte-accurate for the workload's real keys and values: the cost
model's storage terms ($M, $Fl rental) and the write-amplification
experiments depend on them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..frozen import slot_init

RECORD_OVERHEAD_BYTES = 16   # per-record header: lengths, flags, version
DELTA_OVERHEAD_BYTES = 24    # delta header: kind, lengths, timestamp, link
PAGE_HEADER_BYTES = 32       # page id, LSN, record count, side link


@slot_init
@dataclass(frozen=True, slots=True)
class Record:
    """One key/value record with an ordering timestamp.

    The same type is a base-page record and a delta prepended to a page's
    chain: consolidation moves an upsert delta into the base as is.  A
    delta whose value is ``None`` is a delete; a base record always has a
    value.  Timestamps order deltas against each other and against base
    records, which is what lets every transactional update be posted
    *blind* (Section 6.2).
    """

    key: bytes
    value: Optional[bytes]
    timestamp: int = 0

    @property
    def size_bytes(self) -> int:
        """Size as a base record, whose value is never ``None`` (a delta
        is sized by :func:`delta_size_bytes`)."""
        return RECORD_OVERHEAD_BYTES + len(self.key) + len(self.value)


def delta_size_bytes(delta: Record) -> int:
    """Size of ``delta`` as a chain delta: header, key and any value."""
    value = delta.value
    return DELTA_OVERHEAD_BYTES + len(delta.key) + (
        len(value) if value is not None else 0)


@dataclass(slots=True)
class LookupResult:
    """Outcome of a page-local key search, with cost-relevant counts."""

    found: bool
    value: Optional[bytes]
    delta_hops: int
    searched_base: bool
    base_missing: bool = False


class DataPageState:
    """The in-memory state of one logical data page.

    ``base`` is the consolidated, key-sorted record array (or ``None`` for
    a delta-only page: blind updates posted after the base was evicted).
    ``deltas`` is newest-first.

    These and the byte totals ``base_size_bytes`` / ``delta_size_bytes``
    are plain attributes so the hot paths pay no indirection, but only
    this class's constructor and mutation methods may assign or mutate
    them: the totals are maintained incrementally there, never
    re-summed.
    """

    __slots__ = (
        "page_id", "base", "_base_keys", "deltas",
        "base_size_bytes", "delta_size_bytes",
        "flushed_delta_count", "base_flushed", "hops_paid",
    )

    _UNSET: object = object()

    def __init__(
        self,
        page_id: int,
        base: object = _UNSET,
        deltas: Optional[List[Record]] = None,
        base_size_bytes: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        # A freshly allocated page has a present-but-empty base; an explicit
        # ``base=None`` means the base is evicted (its contents live on
        # flash), which a lookup must treat as "go fetch", not "empty".
        self._set_base(
            [] if base is DataPageState._UNSET else base,  # type: ignore[arg-type]
            base_size_bytes,
        )
        self.deltas: List[Record] = deltas if deltas is not None else []
        self.delta_size_bytes = (sum(map(delta_size_bytes, self.deltas))
                             if self.deltas else 0)
        # Persistence bookkeeping used by the log store's delta-only flushes.
        self.flushed_delta_count = 0
        self.base_flushed = False
        # Delta hops the page's reads have paid since its last fold.
        self.hops_paid = 0

    def _set_base(self, records: Optional[List[Record]],
                  size_bytes: Optional[int] = None) -> None:
        """Point ``base`` at ``records``; sizes it and indexes its keys once.

        ``size_bytes`` is the full-image size of ``records`` when the
        caller already holds it (a fetched :class:`PageImage` was sized
        when it was flushed); without it the records are summed here.
        """
        self.base: Optional[List[Record]] = records
        if records is None:
            self._base_keys: Optional[List[bytes]] = None
            self.base_size_bytes = 0
        else:
            self._base_keys = [record.key for record in records]
            self.base_size_bytes = (full_image_size_bytes(records)
                                    if size_bytes is None else size_bytes)

    # --- size accounting --------------------------------------------------

    @property
    def resident_size_bytes(self) -> int:
        return self.base_size_bytes + self.delta_size_bytes

    @property
    def record_count(self) -> int:
        """Logical record count (consolidating base and deltas)."""
        return sum(1 for _ in self.iter_records())

    # --- mutation -----------------------------------------------------------

    def prepend_delta(self, delta: Record) -> int:
        """Prepend one update delta (the Bw-tree's latch-free update);
        returns the delta's size, so the poster need not size it again."""
        # delta_size_bytes, in this frame.
        value = delta.value
        size = DELTA_OVERHEAD_BYTES + len(delta.key) + (
            len(value) if value is not None else 0)
        self.deltas.insert(0, delta)
        self.delta_size_bytes += size
        return size

    def drop_base(self) -> int:
        """Evict the base page, keeping deltas resident; returns bytes freed."""
        freed = self.base_size_bytes
        self._set_base(None)
        return freed

    def install_base(self, records: List[Record],
                     size_bytes: Optional[int] = None) -> int:
        """Install a (sorted) base image, e.g. after a fetch; returns bytes.

        A fetch passes the image's own ``size_bytes`` so the records are
        not summed again.
        """
        self._set_base(records, size_bytes)
        return self.base_size_bytes

    def replace_base(self, records: List[Record],
                     record_bytes: Optional[int] = None) -> int:
        """Replace the base with new (sorted) contents after a split or a
        bulk load; ``record_bytes`` is the records' byte total when the
        caller already summed it (a bulk load sizes each record once).

        Unlike :meth:`install_base` (which re-installs an image that already
        exists on flash), the new contents differ from anything persisted,
        so the page must be re-flushed in full.
        """
        self._set_base(records, None if record_bytes is None
                       else PAGE_HEADER_BYTES + record_bytes)
        self.base_flushed = False
        return self.base_size_bytes

    def consolidate(self) -> int:
        """Fold deltas into a fresh sorted base; returns new base bytes.

        Requires the base to be present.  Unflushed deltas folded here are
        no longer individually flushable, so persistence bookkeeping resets:
        the next flush must write a full page image.  The deltas merge,
        oldest first, into copies of the sorted base and its key index,
        each at its bisected position and adjusting the running size by
        its record, so the base is never re-sorted, re-indexed or re-summed.
        """
        if self.base is None or self._base_keys is None:
            raise ValueError(
                f"page {self.page_id}: cannot consolidate without base"
            )
        records = list(self.base)
        keys = list(self._base_keys)
        size = self.base_size_bytes
        for delta in reversed(self.deltas):
            key = delta.key
            index = bisect.bisect_left(keys, key)
            present = index < len(keys) and keys[index] == key
            value = delta.value
            if value is not None:
                if present:
                    size += len(value) - len(records[index].value)
                    records[index] = delta
                else:
                    size += RECORD_OVERHEAD_BYTES + len(key) + len(value)
                    records.insert(index, delta)
                    keys.insert(index, key)
            elif present:
                size -= (RECORD_OVERHEAD_BYTES + len(key)
                         + len(records[index].value))
                del records[index], keys[index]
        self.base, self._base_keys = records, keys
        self.base_size_bytes = size
        self.deltas = []
        self.delta_size_bytes = 0
        self.flushed_delta_count = 0
        self.base_flushed = False
        self.hops_paid = 0
        return self.base_size_bytes

    # --- lookup ---------------------------------------------------------------

    def lookup(self, key: bytes) -> LookupResult:
        """Search deltas (newest first), then the base record array.

        ``delta_hops`` and ``searched_base`` feed the CPU cost model; if the
        key is not covered by a delta and the base is evicted, the caller
        must fetch the base from flash (``base_missing``).
        """
        hops = 0
        for delta in self.deltas:
            hops += 1
            if delta.key == key:
                value = delta.value
                return LookupResult(value is not None, value, hops, False)
        if self.base is None:
            return LookupResult(False, None, hops, False, base_missing=True)
        assert self._base_keys is not None
        index = bisect.bisect_left(self._base_keys, key)
        if index < len(self.base) and self.base[index].key == key:
            return LookupResult(True, self.base[index].value, hops, True)
        return LookupResult(False, None, hops, True)

    def iter_records(self) -> Iterator[Record]:
        """Yield the page's logical records in key order.

        Requires the base to be present; deltas are folded in on the fly.
        """
        if self.base is None:
            raise ValueError(
                f"page {self.page_id}: cannot iterate without base"
            )
        winners: Dict[bytes, Optional[Record]] = {}
        for delta in reversed(self.deltas):
            winners[delta.key] = delta if delta.value is not None else None
        base_keys = {record.key for record in self.base}
        extras = sorted(
            (winner for key, winner in winners.items()
             if key not in base_keys and winner is not None),
            key=lambda record: record.key,
        )
        extra_index = 0
        for record in self.base:
            while (extra_index < len(extras)
                   and extras[extra_index].key < record.key):
                yield extras[extra_index]
                extra_index += 1
            if record.key in winners:
                winner = winners[record.key]
                if winner is not None:
                    yield winner
            else:
                yield record
        while extra_index < len(extras):
            yield extras[extra_index]
            extra_index += 1

    def unflushed_deltas(self) -> List[Record]:
        """Deltas not yet persisted, oldest first (the flushable suffix)."""
        pending = self.deltas[: len(self.deltas) - self.flushed_delta_count] \
            if self.flushed_delta_count else list(self.deltas)
        return list(reversed(pending))

    def full_image(self) -> "PageImage":
        """The present base as a full flush image, sized without a re-sum."""
        if self.base is None:
            raise ValueError(
                f"page {self.page_id}: cannot write full image without base"
            )
        return PageImage("full", self.page_id, records=tuple(self.base),
                         size_bytes=self.base_size_bytes)

    def mark_deltas_flushed(self) -> None:
        self.flushed_delta_count = len(self.deltas)

    @property
    def has_unflushed_changes(self) -> bool:
        return (not self.base_flushed and self.base is not None) or \
            self.flushed_delta_count < len(self.deltas)


def full_image_size_bytes(records: Iterable[Record]) -> int:
    """Serialized size of a full page image holding ``records``."""
    return PAGE_HEADER_BYTES + sum(r.size_bytes for r in records)


def delta_image_size_bytes(deltas: Iterable[Record]) -> int:
    """Serialized size of a delta-only flush image."""
    return PAGE_HEADER_BYTES + sum(map(delta_size_bytes, deltas))


@dataclass(frozen=True, slots=True)
class PageImage:
    """What actually lands on flash for one flush of one page.

    ``kind`` is "full" (complete record array) or "delta" (only updates since
    the previous flush, paper Figure 5).  Payload objects are kept verbatim by
    the simulated flash so reads round-trip exactly.  ``size_bytes`` is the
    serialized size, summed once here unless the builder already holds it.
    A fetch installs it without re-summing, so an explicit value is taken
    on trust: only :meth:`DataPageState.full_image`, whose running total
    is pinned to a recomputation, passes one.
    """

    kind: str
    page_id: int
    records: Tuple[Record, ...] = field(default_factory=tuple)
    deltas: Tuple[Record, ...] = field(default_factory=tuple)
    size_bytes: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("full", "delta"):
            raise ValueError(f"unknown page image kind {self.kind!r}")
        if self.kind == "full" and self.deltas:
            raise ValueError("full image cannot carry deltas")
        if self.kind == "delta" and self.records:
            raise ValueError("delta image cannot carry records")
        if self.size_bytes < 0:
            object.__setattr__(
                self, "size_bytes",
                full_image_size_bytes(self.records) if self.kind == "full"
                else delta_image_size_bytes(self.deltas),
            )
