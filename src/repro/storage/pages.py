"""Records, deltas and page state for the LLAMA-style cache/storage layer.

Deuteronomy pages are *logical*: the current state of a page is a base page
plus a chain of delta records prepended by updates (paper Figures 4 and 5).
The chain is what makes latch-free updating and blind updates cheap, and what
enables delta-only flushes and the record cache (Section 6).

Sizes are byte-accurate for the workload's real keys and values: the cost
model's storage terms ($M, $Fl rental) and the write-amplification
experiments depend on them.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..frozen import slot_init

RECORD_OVERHEAD_BYTES = 16   # per-record header: lengths, flags, version
DELTA_OVERHEAD_BYTES = 24    # delta header: kind, lengths, timestamp, link
PAGE_HEADER_BYTES = 32       # page id, LSN, record count, side link


@slot_init
@dataclass(frozen=True, slots=True)
class Record:
    """One key/value record with an ordering timestamp."""

    key: bytes
    value: bytes
    timestamp: int = 0

    @property
    def size_bytes(self) -> int:
        return RECORD_OVERHEAD_BYTES + len(self.key) + len(self.value)


class DeltaKind(enum.Enum):
    """What a record delta does to the page's logical contents."""

    UPSERT = "upsert"
    DELETE = "delete"


@slot_init
@dataclass(frozen=True, slots=True)
class RecordDelta:
    """A single-record update prepended to a page's delta chain.

    Upserts carry the new value; deletes carry only the key.  Timestamps
    order deltas against each other and against base records, which is what
    lets every transactional update be posted *blind* (Section 6.2).
    """

    kind: DeltaKind
    key: bytes
    value: Optional[bytes] = None
    timestamp: int = 0

    def __post_init__(self) -> None:
        if self.kind is DeltaKind.UPSERT and self.value is None:
            raise ValueError("UPSERT delta requires a value")
        if self.kind is DeltaKind.DELETE and self.value is not None:
            raise ValueError("DELETE delta must not carry a value")

    @property
    def size_bytes(self) -> int:
        value_len = len(self.value) if self.value is not None else 0
        return DELTA_OVERHEAD_BYTES + len(self.key) + value_len


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

    ``base`` is the consolidated, key-sorted record array (or ``None`` when
    the base page has been evicted while its deltas stay resident — the
    record-cache mode of Section 6.3).  ``deltas`` is newest-first.

    Both are plain attributes so the read path pays no indirection, but
    only this class's constructor and mutation methods may assign or
    mutate them: the byte totals behind the ``*_size_bytes`` properties
    are maintained incrementally there, never re-summed.
    """

    __slots__ = (
        "page_id", "base", "_base_keys", "deltas",
        "_base_bytes", "_delta_bytes",
        "flushed_delta_count", "base_flushed",
    )

    _UNSET: object = object()

    def __init__(
        self,
        page_id: int,
        base: object = _UNSET,
        deltas: Optional[List[RecordDelta]] = None,
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
        self.deltas: List[RecordDelta] = deltas if deltas is not None else []
        self._delta_bytes = (sum(d.size_bytes for d in self.deltas)
                             if self.deltas else 0)
        # Persistence bookkeeping used by the log store's delta-only flushes.
        self.flushed_delta_count = 0
        self.base_flushed = False

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
            self._base_bytes = 0
        else:
            self._base_keys = [record.key for record in records]
            self._base_bytes = (full_image_size_bytes(records)
                                if size_bytes is None else size_bytes)

    # --- size accounting --------------------------------------------------

    @property
    def base_size_bytes(self) -> int:
        return self._base_bytes

    @property
    def delta_size_bytes(self) -> int:
        return self._delta_bytes

    @property
    def resident_size_bytes(self) -> int:
        return self._base_bytes + self._delta_bytes

    @property
    def chain_length(self) -> int:
        return len(self.deltas)

    @property
    def base_present(self) -> bool:
        return self.base is not None

    @property
    def record_count(self) -> int:
        """Logical record count (consolidating base and deltas)."""
        return sum(1 for _ in self.iter_records())

    # --- mutation -----------------------------------------------------------

    def prepend_delta(self, delta: RecordDelta) -> int:
        """Prepend one update delta (the Bw-tree's latch-free update);
        returns the delta's size, so the poster need not size it again."""
        size = delta.size_bytes
        self.deltas.insert(0, delta)
        self._delta_bytes += size
        return size

    def drop_base(self) -> int:
        """Evict the base page, keeping deltas resident; returns bytes freed."""
        freed = self._base_bytes
        self._set_base(None)
        return freed

    def install_base(self, records: List[Record],
                     size_bytes: Optional[int] = None) -> int:
        """Install a (sorted) base image, e.g. after a fetch; returns bytes.

        A fetch passes the image's own ``size_bytes`` so the records are
        not summed again.
        """
        self._set_base(records, size_bytes)
        return self._base_bytes

    def replace_base(self, records: List[Record]) -> int:
        """Replace the base with new (sorted) contents after a split/merge.

        Unlike :meth:`install_base` (which re-installs an image that already
        exists on flash), the new contents differ from anything persisted,
        so the page must be re-flushed in full.
        """
        self._set_base(records)
        self.base_flushed = False
        return self._base_bytes

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
        size = self._base_bytes
        for delta in reversed(self.deltas):
            key = delta.key
            index = bisect.bisect_left(keys, key)
            present = index < len(keys) and keys[index] == key
            if delta.kind is DeltaKind.UPSERT:
                value = delta.value
                assert value is not None
                if present:
                    size += len(value) - len(records[index].value)
                    records[index] = Record(key, value, delta.timestamp)
                else:
                    size += RECORD_OVERHEAD_BYTES + len(key) + len(value)
                    records.insert(index, Record(key, value, delta.timestamp))
                    keys.insert(index, key)
            elif present:
                size -= (RECORD_OVERHEAD_BYTES + len(key)
                         + len(records[index].value))
                del records[index], keys[index]
        self.base, self._base_keys, self._base_bytes = records, keys, size
        self.deltas = []
        self._delta_bytes = 0
        self.flushed_delta_count = 0
        self.base_flushed = False
        return self._base_bytes

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
                if delta.kind is DeltaKind.DELETE:
                    return LookupResult(False, None, hops, False)
                return LookupResult(True, delta.value, hops, False)
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
            if delta.kind is DeltaKind.UPSERT:
                assert delta.value is not None
                winners[delta.key] = Record(
                    delta.key, delta.value, delta.timestamp
                )
            else:
                winners[delta.key] = None
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

    def unflushed_deltas(self) -> List[RecordDelta]:
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
                         size_bytes=self._base_bytes)

    def mark_deltas_flushed(self) -> None:
        self.flushed_delta_count = len(self.deltas)

    @property
    def has_unflushed_changes(self) -> bool:
        return (not self.base_flushed and self.base is not None) or \
            self.flushed_delta_count < len(self.deltas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        base = "evicted" if self.base is None else f"{len(self.base)} recs"
        return (
            f"DataPageState(id={self.page_id}, base={base}, "
            f"deltas={len(self.deltas)})"
        )


def full_image_size_bytes(records: Iterable[Record]) -> int:
    """Serialized size of a full page image holding ``records``."""
    return PAGE_HEADER_BYTES + sum(r.size_bytes for r in records)


def delta_image_size_bytes(deltas: Iterable[RecordDelta]) -> int:
    """Serialized size of a delta-only flush image."""
    return PAGE_HEADER_BYTES + sum(d.size_bytes for d in deltas)


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
    deltas: Tuple[RecordDelta, ...] = field(default_factory=tuple)
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
