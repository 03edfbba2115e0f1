"""LLAMA cache manager: residency, eviction, flush and fetch of data pages.

This is the component that makes a *data caching system* (paper Section 1.3):
hot pages live in DRAM, cold pages live only on flash, and the eviction
decides which is which.  Victims leave in LRU order under a byte budget.

The paper's cost-derived rule (Section 4.2) is not a victim order but a
sweep, :meth:`PageCache.evict_idle_pages`: evict every page idle longer
than the breakeven interval Ti (~45 s with the paper's constants), because
past that point an SS operation is cheaper than continued DRAM rental.
:class:`~repro.core.adaptive.AdaptiveCacheController` sets ``ti_seconds``
from Eq. (6) and drives the sweep.

A blind update to an evicted page leaves it resident with deltas only
(Section 6.2), so a later read that hits one of those deltas is served
without any I/O.

Invariant maintained jointly with the flush path: whenever a page has any
resident state, its resident delta list contains *every* delta since the
last full image; flushed delta images on flash are an oldest-suffix of that
list.  Fetching a page with resident deltas therefore only needs the base
(full) image — one I/O.

**Demote-not-drop** (the N-tier generalization): with ``demote_to_tiers``
the cache stops treating eviction as binary.  A victim whose observed
access rate clears the breakeven of a middle tier of a
:class:`~repro.hardware.tiers.StorageHierarchy` (CXL-class far memory in
the ``cxl_2026`` stack) *moves* there instead of being dropped:
its page state is parked in a :class:`TierCache` keyed by a snapshot of
the flash chain, and a later fetch that finds a current copy promotes it
back into DRAM with **zero device I/Os** — paying only the far-memory
copy CPU (CXL is load/store; the transfer is CPU path, not an I/O
device).  A stale copy (the flash chain moved underneath it: flushes, GC
relocation, blind updates) is discarded and the fetch falls through to
the normal flash path, so correctness never depends on the victim tier.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..frozen import check_bounds
from ..hardware.machine import Machine
from ..hardware.tiers import StorageHierarchy, TierSpec
from .log_store import LogStructuredStore
from .mapping_table import FlashAddr, MappingTable, PageEntry
from .pages import DataPageState, PageImage

DRAM_TAG = "page_cache"
#: Default idle-sweep breakeven, the paper's Eq. (6) Ti in seconds.
TI_SECONDS = 45.0


@dataclass(slots=True)
class CacheStats:
    """Cumulative cache-manager activity."""

    touches: int = 0
    fetches: int = 0
    evictions: int = 0
    flushes_full: int = 0
    flushes_delta: int = 0
    bytes_flushed: int = 0
    demotions: int = 0           # victims parked in a middle tier
    promotions: int = 0          # fetches served from a middle tier


@dataclass(slots=True)
class _DemotedPage:
    """One page parked in a middle tier: state plus its validity proof."""

    state: DataPageState
    chain: Tuple[FlashAddr, ...]   # flash chain snapshot at demote time
    nbytes: int


class TierCache:
    """Victim store over the middle tiers of the ``cxl_2026`` hierarchy.

    Holds evicted page states "in" each tier strictly between DRAM and
    the durable home, with per-tier byte budgets and FIFO overflow.  A
    parked copy is valid only while the page's flash chain is unchanged
    (same addresses, same order) and the mapping-table entry has no
    resident state of its own; anything else — a flush, a GC
    relocation, a blind update — invalidates it, and :meth:`promote`
    discards rather than serves it.  Bytes here are *not* DRAM: the
    tier cache keeps its own accounting, and the bench prices it at the
    tier's $/byte instead of the catalog's DRAM rent.
    """

    def __init__(self, machine: Machine,
                 budget_bytes: Optional[int] = None) -> None:
        # Lazy imports: repro.core's package init builds the calibration
        # stack on top of bwtree, which imports this module — a cycle at
        # import time, gone by the time any cache is constructed.
        from ..bwtree.tree import BwTreeConfig
        from ..core.breakeven import tier_pair_breakeven
        check_bounds(BwTreeConfig, demote_budget_bytes=budget_bytes)
        self.machine = machine
        self.hierarchy = StorageHierarchy.cxl_2026()
        middles = self.hierarchy.tiers[1:-1]
        self.budget_bytes = budget_bytes
        # Each middle tier keeps victims whose observed access interval
        # is within the breakeven of the boundary *below* it: past that
        # interval the tier's rent costs more than re-reading from the
        # next tier down.
        tiers = self.hierarchy.tiers
        self._levels: List[Tuple[TierSpec, float]] = [
            (tier, tier_pair_breakeven(tier, tiers[index + 2]))
            for index, tier in enumerate(middles)
        ]
        self._parked: Dict[str, "OrderedDict[int, _DemotedPage]"] = {
            tier.name: OrderedDict() for tier, __ in self._levels
        }
        self._bytes: Dict[str, int] = {
            tier.name: 0 for tier, __ in self._levels
        }
        self.stats: Optional[CacheStats] = None   # shared by the owner

    def target_tier(self, interval_seconds: float) -> Optional[TierSpec]:
        """Cheapest middle tier whose breakeven the interval clears.

        ``None`` means even the cheapest middle tier's rent loses to a
        re-read from the durable home — plain drop is optimal.
        """
        for tier, breakeven_seconds in self._levels:
            if interval_seconds <= breakeven_seconds:
                return tier
        return None

    @property
    def resident_bytes(self) -> int:
        return sum(self._bytes.values())

    def parked_pages(self, tier_name: Optional[str] = None) -> int:
        if tier_name is not None:
            return len(self._parked[tier_name])
        return sum(len(parked) for parked in self._parked.values())

    def holds(self, page_id: int) -> bool:
        return any(page_id in parked for parked in self._parked.values())

    def demote(self, entry: PageEntry, state: DataPageState,
               interval_seconds: float) -> Optional[TierSpec]:
        """Park a victim's state in the tier its access rate earns.

        Returns the tier, or ``None`` when the rate clears no middle
        tier's breakeven (the caller drops the page as before).  The
        caller still owns ``entry``; only ``state`` moves.
        """
        tier = self.target_tier(interval_seconds)
        if tier is None:
            return None
        faults = self.machine.faults
        if faults is not None:
            faults.hit("cache.demote")
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("tier_cache.demote", "tier_cache")
        try:
            nbytes = state.resident_size_bytes
            # The far-memory transfer is CPU path (load/store tiers have
            # no I/O device), priced like any other page-sized copy.
            self.machine.cpu.charge(
                "copy_per_byte", nbytes, category="tier_cache"
            )
            parked = self._parked[tier.name]
            stale = parked.pop(entry.page_id, None)
            if stale is not None:
                self._bytes[tier.name] -= stale.nbytes
            parked[entry.page_id] = _DemotedPage(
                state=state, chain=tuple(entry.flash_chain), nbytes=nbytes
            )
            self._bytes[tier.name] += nbytes
            if self.stats is not None:
                self.stats.demotions += 1
            self._enforce_budget(tier.name, protect=entry.page_id)
        finally:
            if tracer is not None:
                tracer.close_span()
        return tier

    def _enforce_budget(self, tier_name: str, protect: int) -> None:
        if self.budget_bytes is None:
            return
        parked = self._parked[tier_name]
        while self._bytes[tier_name] > self.budget_bytes and parked:
            victim_id = next(iter(parked))
            if victim_id == protect and len(parked) == 1:
                break
            if victim_id == protect:
                parked.move_to_end(victim_id)
                continue
            dropped = parked.pop(victim_id)
            self._bytes[tier_name] -= dropped.nbytes

    def promote(self, entry: PageEntry) -> Optional[DataPageState]:
        """Hand back a parked copy if it is still current, else discard.

        A copy is served only when the entry has no resident state of
        its own (no blind deltas posted since the demote) and the flash
        chain is bit-identical to the demote-time snapshot.
        """
        for tier, __ in self._levels:
            parked = self._parked[tier.name]
            copy = parked.pop(entry.page_id, None)
            if copy is None:
                continue
            self._bytes[tier.name] -= copy.nbytes
            if (entry.state is not None
                    or copy.chain != tuple(entry.flash_chain)):
                return None
            faults = self.machine.faults
            if faults is not None:
                faults.hit("tier.promote")
            tracer = self.machine.tracer
            if tracer is not None:
                tracer.open_span("tier_cache.promote", "tier_cache")
            try:
                self.machine.cpu.charge(
                    "copy_per_byte", copy.nbytes, category="tier_cache"
                )
                if self.stats is not None:
                    self.stats.promotions += 1
            finally:
                if tracer is not None:
                    tracer.close_span()
            return copy.state
        return None

    def discard(self, page_id: int) -> None:
        """Drop any parked copy of a page (it was freed or superseded)."""
        for parked_name, parked in self._parked.items():
            copy = parked.pop(page_id, None)
            if copy is not None:
                self._bytes[parked_name] -= copy.nbytes


class PageCache:
    """Manages which logical data pages are DRAM-resident."""

    def __init__(
        self,
        machine: Machine,
        mapping_table: MappingTable,
        store: LogStructuredStore,
        capacity_bytes: Optional[int] = None,
        max_flash_fragments: int = 4,
        demote_to_tiers: bool = False,
        demote_budget_bytes: Optional[int] = None,
    ) -> None:
        from ..bwtree.tree import BwTreeConfig  # lazy: it imports this module
        check_bounds(BwTreeConfig, cache_capacity_bytes=capacity_bytes)
        self.machine = machine
        self.mapping_table = mapping_table
        self.store = store
        self.capacity_bytes = capacity_bytes
        # The idle-sweep breakeven; the adaptive controller overwrites it
        # with its Eq. (6) value.
        self.ti_seconds = TI_SECONDS
        self.max_flash_fragments = max_flash_fragments
        self.stats = CacheStats()
        self.tiers: Optional[TierCache] = None
        if demote_to_tiers:
            self.tiers = TierCache(machine, budget_bytes=demote_budget_bytes)
            self.tiers.stats = self.stats
        self._vclock = machine.clock
        # The eviction's bookkeeping and a page's install, a base read's
        # install and copy, a fetched flash image's copy and a flush's
        # consolidation, priced once.
        plan = machine.cpu.plan
        self._evict = plan("cache", "evict_bookkeeping")
        self._install = plan("cache", "page_install")
        self._install_base = plan("cache", "page_install",
                                  then="copy_per_byte")
        self._copy = plan("cache", then="copy_per_byte")
        self._fold = plan("cache", then="consolidate_per_byte")
        # LRU order over resident pages: page id -> accounted bytes.
        # ``_resident_bytes`` is the running sum of its values; only
        # register / resize / touch / _untrack write either, and fetch
        # and evict, which do register's and _untrack's work in place.
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        self._resident_bytes = 0

    # --- residency accounting ---------------------------------------------

    # Pure residency bookkeeping: the callers that make a page resident
    # (fetch / install_base) charge page_install for this pointer work.
    def register(self, entry: PageEntry) -> None:  # repro: ignore[cost-accounting]
        """Start tracking a page that just became resident."""
        if entry.page_id in self._resident:
            raise ValueError(f"page {entry.page_id} already tracked")
        nbytes = entry.resident_bytes
        self.machine.dram.allocate(nbytes, DRAM_TAG)
        self._resident[entry.page_id] = nbytes
        self._resident_bytes += nbytes
        self.touch(entry)

    def resize(self, entry: PageEntry) -> None:
        """Re-account a tracked page whose resident size changed."""
        old = self._resident.get(entry.page_id)
        if old is None:
            raise KeyError(f"page {entry.page_id} is not tracked")
        # PageEntry.resident_bytes, in this frame.
        state = entry.state
        new = (state.base_size_bytes + state.delta_size_bytes
               if state is not None else 0)
        if new > old:
            self.machine.dram.allocate(new - old, DRAM_TAG)
        elif new < old:
            self.machine.dram.free(old - new, DRAM_TAG)
        self._resident[entry.page_id] = new
        self._resident_bytes += new - old

    def _untrack(self, entry: PageEntry) -> None:
        nbytes = self._resident.pop(entry.page_id)
        self._resident_bytes -= nbytes
        self.machine.dram.free(nbytes, DRAM_TAG)

    def touch(self, entry: PageEntry, grown_bytes: int = 0) -> None:
        """Record an access: recency order and virtual access time.

        ``grown_bytes`` is what the access added to a tracked page's
        resident size when the caller already knows it — a blind post
        passes its delta's size — so that access needs no :meth:`resize`,
        which re-reads the page's size.
        """
        page_id = entry.page_id
        if grown_bytes:
            if page_id not in self._resident:
                raise KeyError(f"page {page_id} is not tracked")
            self.machine.dram.allocate(grown_bytes, DRAM_TAG)
            self._resident[page_id] += grown_bytes
            self._resident_bytes += grown_bytes
        entry.last_access = self._vclock.now
        entry.access_count += 1
        stats = self.stats
        stats.touches += 1
        if page_id in self._resident:
            self._resident.move_to_end(page_id)

    def is_tracked(self, page_id: int) -> bool:
        return page_id in self._resident

    def forget(self, entry: PageEntry) -> None:
        """Stop tracking a page without flushing (the page is being freed)."""
        if entry.page_id not in self._resident:
            raise KeyError(f"page {entry.page_id} is not tracked")
        if self.tiers is not None:
            self.tiers.discard(entry.page_id)
        self._untrack(entry)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    # --- flush path ------------------------------------------------------------

    def flush_page(self, entry: PageEntry, force_full: bool = False,
                   max_fragments: Optional[int] = None) -> None:
        """Persist a page's unflushed changes to the log store.

        Writes a delta-only image when the base is already on flash and the
        fragment cap allows it (paper Figure 5); otherwise consolidates and
        writes a full image, invalidating the superseded images.
        """
        if max_fragments is None:
            max_fragments = self.max_flash_fragments
        state = entry.state
        if state is None:
            raise ValueError(f"page {entry.page_id} has no resident state")
        # ``has_unflushed_changes``, from the newest ``pending`` deltas.
        deltas = state.deltas
        pending = len(deltas) - state.flushed_delta_count
        base_present = state.base is not None
        if pending <= 0 and (state.base_flushed or not base_present):
            return
        # A page whose base is not resident (a blind update posted to an
        # evicted page) can only be flushed incrementally; the fragment cap
        # yields to correctness in that case.
        if (state.base_flushed and not force_full and pending > 0
                and (not base_present
                     or len(entry.flash_chain) < max_fragments)):
            # Oldest first, as ``unflushed_deltas`` gives them.
            image = PageImage("delta", entry.page_id,
                              deltas=tuple(deltas[pending - 1::-1]))
            addr = self.store.append(image)
            entry.flash_chain.append(addr)
            entry.flushed_delta_records += pending
            state.flushed_delta_count = len(deltas)
            self.stats.flushes_delta += 1
            self.stats.bytes_flushed += image.size_bytes
            return
        if base_present and deltas:
            new_base = state.consolidate()
            self.machine.cpu.bill(self._fold, new_base)
            if entry.page_id in self._resident:
                self.resize(entry)
        image = state.full_image()
        addr = self.store.append(image)
        for old_addr in entry.flash_chain:
            self.store.invalidate(old_addr)
        entry.flash_chain = [addr]
        entry.flushed_delta_records = 0
        state.base_flushed = True
        state.mark_deltas_flushed()
        self.stats.flushes_full += 1
        self.stats.bytes_flushed += image.size_bytes

    # --- eviction ------------------------------------------------------------------

    def evict(self, entry: PageEntry) -> None:
        """Push a page out of DRAM: flush it, drop its state, untrack it."""
        state = entry.state
        if state is None or entry.page_id not in self._resident:
            raise ValueError(f"page {entry.page_id} is not resident")
        if state.has_unflushed_changes:
            self.flush_page(entry)
        self.machine.cpu.bill(self._evict)
        if (self.tiers is not None and state.base is not None
                and not state.has_unflushed_changes):
            # Demote-not-drop: park the flushed state in the middle tier
            # (if any) whose breakeven the page's observed mean
            # inter-access interval clears.  entry.state is cleared either
            # way; the parked copy is only served while the flash chain
            # stays bit-identical.
            self.tiers.demote(entry, state, self._observed_interval(entry))
        entry.state = None
        # _untrack, in this frame.
        nbytes = self._resident.pop(entry.page_id)
        self._resident_bytes -= nbytes
        self.machine.dram.free(nbytes, DRAM_TAG)
        self.stats.evictions += 1

    def _observed_interval(self, entry: PageEntry) -> float:
        """Mean virtual seconds between accesses over the page's life."""
        now = self._vclock.now
        if entry.access_count <= 0 or now <= 0.0:
            return float("inf")
        return now / entry.access_count

    def _drop_delta_only(self, entry: PageEntry) -> None:
        """Fully drop a page whose base is already evicted.

        A blind update to an evicted page leaves it resident with deltas
        only; pushing one out is still an eviction and owes the same
        bookkeeping CPU as :meth:`evict` (PAPER.md: every operation's
        core-seconds are charged, including cache maintenance).
        """
        assert entry.state is not None
        if entry.state.has_unflushed_changes:
            self.flush_page(entry)
        self.machine.cpu.bill(self._evict)
        entry.state = None
        self._untrack(entry)
        self.stats.evictions += 1

    def ensure_capacity(self, protect: Optional[Set[int]] = None) -> int:
        """Evict victims until the byte budget is met; returns evictions.

        The LRU victim walk restarts at the front of the live recency
        dict for every victim and never offers a page in ``protect``.
        Every victim leaves the dict (:meth:`evict` and
        :meth:`_drop_delta_only` untrack it, and a tracked page always
        has state), so nothing is snapshotted and no page is offered
        twice.
        """
        capacity = self.capacity_bytes
        if capacity is None:
            return 0
        protect = protect if protect is not None else set()
        evicted = 0
        resident = self._resident
        entries = self.mapping_table.by_id
        while self._resident_bytes > capacity:
            for pid in resident:
                if pid not in protect:
                    break
            else:
                break
            entry = entries[pid]
            if entry.state.base is None:
                self._drop_delta_only(entry)
            else:
                self.evict(entry)
            evicted += 1
        return evicted

    def evict_idle_pages(self, protect: Optional[Set[int]] = None) -> int:
        """Ti-policy sweep: evict every page idle longer than ``ti_seconds``.

        This is the paper's cost-driven eviction independent of any byte
        budget: past the breakeven interval, DRAM rental costs more than the
        SS operation the eviction causes.
        """
        protect = protect if protect is not None else set()
        now = self.machine.clock.now
        evicted = 0
        for pid in list(self._resident):
            if pid in protect:
                continue
            entry = self.mapping_table.get(pid)
            if now - entry.last_access > self.ti_seconds:
                if entry.state.base is not None:
                    self.evict(entry)
                else:
                    self._drop_delta_only(entry)
                evicted += 1
        return evicted

    # --- fetch path -------------------------------------------------------------------

    def fetch(self, entry: PageEntry) -> int:
        """Bring a page's base (and, if needed, deltas) back into DRAM.

        Returns the number of device I/Os performed.  A page with resident
        deltas only needs its base image (see module invariant); a fully
        evicted page reads every image in its flash chain.
        """
        ios = 0
        if entry.state is not None and entry.state.base is not None:
            return 0
        if self.tiers is not None:
            promoted = self.tiers.promote(entry)
            if promoted is not None:
                # The page was parked in a middle tier and the copy is
                # still current: reinstall it with zero device I/Os —
                # the read is served from whichever tier holds the page.
                entry.state = promoted
                self.machine.cpu.bill(self._install)
                if entry.page_id in self._resident:
                    self.resize(entry)
                    self.touch(entry)
                else:
                    self.register(entry)
                self.stats.fetches += 1
                return 0
        if not entry.flash_chain:
            raise ValueError(
                f"page {entry.page_id} has no flash images to fetch"
            )
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("page_cache.fetch", "page_cache")
        try:
            state = entry.state
            resident_covers_flash = (
                state is not None
                and state.flushed_delta_count == entry.flushed_delta_records
            )
            if state is not None and resident_covers_flash:
                # Delta-only page: the resident delta list already
                # contains every flash delta record, so only the base
                # image is needed.
                ios += self._read_base_into(entry, state)
                self.resize(entry)
            else:
                # Fully evicted page, or a blind update was posted while
                # the state was dropped: read the whole chain and merge.
                # Resident (unflushed) deltas are newer than anything on
                # flash.
                unflushed: List = []
                if state is not None:
                    cut = len(state.deltas) - state.flushed_delta_count
                    unflushed = state.deltas[:cut]
                base_records: List = []
                base_bytes: Optional[int] = None
                flushed_deltas: List = []
                for index, addr in enumerate(entry.flash_chain):
                    result = self.store.read(addr)
                    if not result.from_write_buffer:
                        ios += 1
                    image = result.image
                    self.machine.cpu.bill(self._copy, addr.nbytes)
                    if index == 0:
                        if image.kind != "full":
                            raise RuntimeError(
                                f"page {entry.page_id}: chain head is "
                                f"not full"
                            )
                        base_records = list(image.records)
                        base_bytes = image.size_bytes
                    else:
                        if image.kind != "delta":
                            raise RuntimeError(
                                f"page {entry.page_id}: chain tail is "
                                f"not delta"
                            )
                        flushed_deltas.extend(image.deltas)
                # Newest first: unflushed resident deltas, then flash
                # deltas (which arrive oldest-first).
                rebuilt = DataPageState(
                    entry.page_id, base=base_records,
                    deltas=unflushed + list(reversed(flushed_deltas)),
                    base_size_bytes=base_bytes,
                )
                rebuilt.flushed_delta_count = len(flushed_deltas)
                rebuilt.base_flushed = True
                page_id = entry.page_id
                was_tracked = page_id in self._resident
                entry.state = rebuilt
                self.machine.cpu.bill(self._install)
                if was_tracked:
                    self.resize(entry)
                else:
                    # register's bookkeeping, in this frame.
                    nbytes = rebuilt.resident_size_bytes
                    self.machine.dram.allocate(nbytes, DRAM_TAG)
                    self._resident[page_id] = nbytes
                    self._resident_bytes += nbytes
                self.touch(entry)
            self.stats.fetches += 1
            return ios
        finally:
            if tracer is not None:
                tracer.close_span()

    def _read_base_into(self, entry: PageEntry, state: DataPageState) -> int:
        """Read the chain-head full image into ``state``; returns I/Os."""
        base_addr = entry.flash_chain[0]
        result = self.store.read(base_addr)
        image = result.image
        if image.kind != "full":
            raise RuntimeError(
                f"page {entry.page_id}: chain head is not a full image"
            )
        state.install_base(list(image.records), image.size_bytes)
        state.base_flushed = True
        self.machine.cpu.bill(self._install_base, base_addr.nbytes)
        return 0 if result.from_write_buffer else 1
