"""The Bw-tree: a latch-free-style B-tree over the LLAMA storage layer.

This is the data component of Deuteronomy as the paper uses it:

* data (leaf) pages are logical pages in the :class:`MappingTable`, updated
  by prepending delta records and consolidated when chains grow long
  (Levandoski et al., ICDE 2013);
* **blind updates** (Section 6.2) post a delta to the mapping-table entry
  without requiring the base page in memory — the key I/O-avoidance trick;
* index pages are always main-memory resident (the paper's assumption) and
  accounted against DRAM;
* leaf pages flow through the :class:`PageCache`: hot in DRAM, cold as
  variable-size/delta images in the log-structured store.

The simulation charges every primitive the tree executes to the machine's
CPU model, so per-operation core-microseconds — and from them R, ROPS, and
the mixed-workload curves — are emergent measurements.

Simplifications relative to the C++ original, none of which affect the
cost analysis: operations are single-threaded (the latch-free CAS protocol
is charged for, not raced), and the tree keeps explicit parent pointers
instead of performing retry-based structure-modification installs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..frozen import check_bounds
from ..hardware.machine import Machine
from ..hardware.metrics import CounterSet
from ..storage.cache import PageCache
from ..storage.checkpoint import CheckpointManager
from ..storage.gc import GarbageCollector
from ..storage.log_store import LogStructuredStore
from ..storage.mapping_table import FlashAddr, MappingTable, PageEntry
from ..storage.pages import DataPageState, Record
from .node import InnerNode


class RecoveryError(RuntimeError):
    """Raised when a tree cannot be rebuilt from flash contents."""

MAPPING_ENTRY_BYTES = 64   # DRAM charged per mapping-table entry
INNER_FANOUT = 128         # children per inner node before it splits
DRAM_TAG_INDEX = "bwtree_index"
DRAM_TAG_MAPPING = "mapping_table"


@dataclass(frozen=True, slots=True)
class BwTreeConfig:
    """Tuning knobs; defaults reproduce the paper's configuration."""

    max_page_bytes: int = 4096          # paper Section 4.1
    consolidate_threshold: int = 8      # delta-chain length trigger
    blind_chain_limit: int = 64         # fetch+consolidate past this
    max_flash_fragments: int = 4        # delta images before full rewrite
    cache_capacity_bytes: Optional[int] = None
    segment_bytes: int = 1 << 20
    # Demote-not-drop eviction: park victims in the middle tiers of the
    # cxl_2026 hierarchy instead of dropping, when their observed access
    # rate clears the per-tier-pair breakeven (Equation 6, N-tier form).
    demote_to_tiers: bool = False
    demote_budget_bytes: Optional[int] = None

    #: Every size and count; the two budgets may also be ``None``,
    #: unbudgeted.
    BOUNDS = {
        "max_page_bytes": (256, math.inf),
        "consolidate_threshold": (1, math.inf),
        "blind_chain_limit": (0, math.inf),
        "max_flash_fragments": (1, math.inf),
        "cache_capacity_bytes": (1, math.inf),
        "segment_bytes": (1, math.inf), "demote_budget_bytes": (1, math.inf),
    }

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass(slots=True)
class OpResult:
    """Outcome of one tree operation with its cost-relevant facts."""

    value: Optional[bytes] = None
    found: bool = False
    ios: int = 0

    @property
    def is_ss(self) -> bool:
        """True when the operation needed secondary storage (>= 1 I/O)."""
        return self.ios > 0


class BwTree:
    """A byte-keyed ordered key/value store with a paged cache underneath."""

    def __init__(self, machine: Machine,
                 config: Optional[BwTreeConfig] = None,
                 store: Optional[LogStructuredStore] = None,
                 _defer_root: bool = False) -> None:
        self.machine = machine
        self.config = config if config is not None else BwTreeConfig()
        self.mapping_table = MappingTable()
        self.store = store if store is not None else LogStructuredStore(
            machine, segment_bytes=self.config.segment_bytes
        )
        self.cache = PageCache(
            machine,
            self.mapping_table,
            self.store,
            capacity_bytes=self.config.cache_capacity_bytes,
            max_flash_fragments=self.config.max_flash_fragments,
            demote_to_tiers=self.config.demote_to_tiers,
            demote_budget_bytes=self.config.demote_budget_bytes,
        )
        self.checkpoints = CheckpointManager(self.store, self.mapping_table)
        self.gc = GarbageCollector(machine, self.store, self.mapping_table,
                                   checkpoint_manager=self.checkpoints)
        self.counters = CounterSet()
        # The dict behind ``counters`` (a reset clears it in place): the
        # blind-write path bumps its counters here directly.
        self._counts = self.counters.counts
        # The fixed runs of charges every operation bills, priced once:
        # the request dispatch and epoch guard; one inner level of a
        # descent (a pointer chase, then its binary-search steps); and a
        # blind post (the mapping-table lookup of a resident leaf, then
        # the CAS install and the delta's copy).  The single charges are
        # one-step plans: the leaf's mapping-table lookup, its delta hops,
        # base search steps and value copy, and a consolidation's bytes.
        plan = machine.cpu.plan
        self._dispatch = plan("bwtree", "op_dispatch", "epoch_protect")
        self._level = plan("bwtree", "pointer_chase",
                           then="page_binary_search_step")
        self._post = plan("bwtree", "mapping_table_lookup", "install_cas",
                          then="copy_per_byte")
        self._install = plan("bwtree", "install_cas", then="copy_per_byte")
        self._lookup = plan("bwtree", "mapping_table_lookup")
        self._hops = plan("bwtree", then="delta_chain_hop")
        self._search = plan("bwtree", then="page_binary_search_step")
        self._copy = plan("bwtree", then="copy_per_byte")
        self._fold = plan("bwtree", then="consolidate_per_byte")
        self._inners: Dict[int, InnerNode] = {}
        self._inner_sizes: Dict[int, int] = {}
        self._next_inner_id = -1
        self._parent: Dict[int, int] = {}   # child id -> inner node id
        self._timestamp = 0
        if not _defer_root:
            root_entry = self._allocate_leaf()
            self.root_id = root_entry.page_id

    # ------------------------------------------------------------------
    # allocation and DRAM accounting helpers
    # ------------------------------------------------------------------

    def _allocate_leaf(self) -> PageEntry:
        entry = self.mapping_table.allocate()
        self.machine.dram.allocate(MAPPING_ENTRY_BYTES, DRAM_TAG_MAPPING)
        self.cache.register(entry)
        return entry

    def _free_leaf(self, entry: PageEntry) -> None:
        if self.cache.is_tracked(entry.page_id):
            # Drop without flushing: the page is logically gone.
            self.cache.forget(entry)
        for addr in entry.flash_chain:
            self.store.invalidate(addr)
        entry.flash_chain = []
        entry.state = None
        self.mapping_table.free(entry.page_id)
        self.machine.dram.free(MAPPING_ENTRY_BYTES, DRAM_TAG_MAPPING)
        self._parent.pop(entry.page_id, None)

    def _new_inner(self, keys: List[bytes], children: List[int]) -> InnerNode:
        node = InnerNode(self._next_inner_id, keys, children)
        self._next_inner_id -= 1
        self._inners[node.node_id] = node
        self._inner_sizes[node.node_id] = node.size_bytes
        self.machine.dram.allocate(node.size_bytes, DRAM_TAG_INDEX)
        for child in children:
            self._parent[child] = node.node_id
        return node

    def _reaccount_inner(self, node: InnerNode) -> None:
        old = self._inner_sizes[node.node_id]
        new = node.size_bytes
        if new > old:
            self.machine.dram.allocate(new - old, DRAM_TAG_INDEX)
        elif new < old:
            self.machine.dram.free(old - new, DRAM_TAG_INDEX)
        self._inner_sizes[node.node_id] = new

    def _next_timestamp(self) -> int:
        self._timestamp += 1
        return self._timestamp

    # ------------------------------------------------------------------
    # descent
    # ------------------------------------------------------------------

    def _descend(self, key: bytes) -> PageEntry:
        """Walk from the root to the covering leaf, charging CPU costs.

        Each level routes ``key`` to ``children[bisect_right(keys, key)]``
        (a separator belongs to its right child) and is charged one
        binary search over its keys: ``bit_length`` comparisons, at
        least one.
        """
        bill = self.machine.cpu.bill
        level = self._level
        inners = self._inners
        node_id = self.root_id
        while node_id < 0:
            node = inners[node_id]
            keys = node.keys
            bill(level, len(keys).bit_length() or 1)
            node_id = node.children[bisect.bisect_right(keys, key)]
        bill(self._lookup)
        return self.mapping_table.get(node_id)

    def _begin_op(self) -> Tuple[float, float]:
        self.machine.begin_operation()
        window = self.machine.latency_window()
        self.machine.cpu.bill(self._dispatch)
        return window

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; returns the value or ``None``."""
        return self.get_with_stats(key).value

    def get_with_stats(self, key: bytes) -> OpResult:
        """Point lookup returning the value plus cost-relevant facts.

        The bookkeeping the writes leave to ``_begin_op`` / ``_descend``
        / ``_post_op`` — op count, latency window, routing down to the
        mapping-table dict, counters, the consolidation check — is done
        in this frame, with the same charges in the same order; the
        validator is called only to raise.
        """
        if type(key) is not bytes or not key:
            self.validate_key(key)
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            tracer.open_span("bwtree.get", "bwtree")
        try:
            machine._ops_started += 1
            cpu = machine.cpu
            ssd = machine.ssd
            cpu_before = cpu.busy_us
            service_before = ssd.service_us_total
            bill = cpu.bill
            bill(self._dispatch)
            level = self._level
            inners = self._inners
            node_id = self.root_id
            while node_id < 0:
                node = inners[node_id]
                keys = node.keys
                bill(level, len(keys).bit_length() or 1)
                node_id = node.children[bisect.bisect_right(keys, key)]
            bill(self._lookup)
            entry = self.mapping_table.by_id[node_id]
            cache = self.cache
            cache.touch(entry)
            ios = 0
            state = entry.state
            probe = None
            if state is not None:
                probe = state.lookup(key)
                bill(self._hops, probe.delta_hops)
                if probe.base_missing:
                    probe = None
            if probe is None:
                # Base page (and possibly flushed deltas) must come from
                # flash: the SS operation of the paper's model.
                ios = cache.fetch(entry)
                cache.ensure_capacity(protect={entry.page_id})
                state = entry.state
                assert state is not None
                probe = state.lookup(key)
                assert not probe.base_missing
                bill(self._hops, probe.delta_hops)
            if probe.searched_base:
                # One binary search over the base: bit_length comparisons,
                # at least one on a non-empty base, none on an empty one.
                bill(self._search, len(state.base).bit_length())
            value = probe.value
            found = probe.found
            if found and value is not None:
                bill(self._copy, len(value))
            latency = ((cpu.busy_us - cpu_before)
                       + (ssd.service_us_total - service_before))
            machine.op_latencies.observe(latency)
            if ios > 0:
                self._counts["bwtree.ss_ops"] += 1.0
            else:
                self._counts["bwtree.mm_ops"] += 1.0
            if (state.base is not None
                    and len(state.deltas) >= self.config.consolidate_threshold):
                self._consolidate(entry)
            return OpResult(value, found, ios)
        finally:
            if tracer is not None:
                tracer.close_span()

    def contains(self, key: bytes) -> bool:
        return self.get_with_stats(key).found

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def upsert(self, key: bytes, value: bytes) -> OpResult:
        """Blind upsert: posts a delta without reading the base page."""
        self.validate_kv(key, value)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("bwtree.upsert", "bwtree")
        try:
            window = self._begin_op()
            entry = self._descend(key)
            result = OpResult(found=True)
            self._post_blind_delta(
                entry, Record(key, value, self._next_timestamp()), result)
            self._post_op(entry, result, window)
            return result
        finally:
            if tracer is not None:
                tracer.close_span()

    def delete(self, key: bytes) -> OpResult:
        """Blind delete: posts a tombstone delta without reading the base."""
        self.validate_key(key)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.open_span("bwtree.delete", "bwtree")
        try:
            window = self._begin_op()
            entry = self._descend(key)
            result = OpResult()
            self._post_blind_delta(
                entry, Record(key, None, self._next_timestamp()), result)
            self._post_op(entry, result, window)
            return result
        finally:
            if tracer is not None:
                tracer.close_span()

    def apply_blind_batch(
        self, ops: "List[Tuple[bytes, Optional[bytes]]]"
    ) -> OpResult:
        """Post a group of blind upserts/deletes under one dispatch/epoch.

        ``ops`` items are ``(key, value)``; ``value=None`` posts a
        tombstone.  Every record still pays its own descent, CAS install
        and copy — batching amortizes only the request decode and the
        epoch enter/exit, which is exactly what a multi-op network request
        saves a real server.  Returns an aggregate :class:`OpResult`
        (``ios`` summed); one latency observation spans the whole batch.

        The per-record bookkeeping — operation count, validity checks,
        timestamp, counters, the descent of :meth:`_descend` — is done in
        this frame; the validators are called only to raise.  So is the
        post of :meth:`_post_blind_delta` when the leaf's base is
        resident, the common case: the same charges, touch,
        consolidate/split checks and eviction, in the same order.  A
        delta-only or evicted leaf goes through ``_post_blind_delta``.
        """
        machine = self.machine
        tracer = machine.tracer
        if tracer is not None:
            tracer.open_span("bwtree.blind_batch", "bwtree")
        try:
            # The latency window, bracketed in this frame.
            cpu = machine.cpu
            ssd = machine.ssd
            cpu_before = cpu.busy_us
            service_before = ssd.service_us_total
            bill = cpu.bill
            bill(self._dispatch)
            level = self._level
            post = self._post
            result = OpResult(found=True)
            counts = self._counts
            inners = self._inners
            entries = self.mapping_table.by_id
            cache = self.cache
            touch = cache.touch
            config = self.config
            consolidate_threshold = config.consolidate_threshold
            max_page_bytes = config.max_page_bytes
            for key, value in ops:
                machine._ops_started += 1
                ios_before = result.ios
                if type(key) is not bytes or not key:
                    self.validate_key(key)
                if type(value) is not bytes and value is not None:
                    self.validate_kv(key, value)
                self._timestamp += 1
                delta = Record(key, value, self._timestamp)
                node_id = self.root_id
                while node_id < 0:
                    node = inners[node_id]
                    keys = node.keys
                    bill(level, len(keys).bit_length() or 1)
                    node_id = node.children[bisect.bisect_right(keys, key)]
                entry = entries[node_id]
                state = entry.state
                if state is None or state.base is None:
                    bill(self._lookup)
                    self._post_blind_delta(entry, delta, result)
                else:
                    # The lookup is billed with the post: sizing the
                    # delta charges nothing and reads no clock.
                    size = state.prepend_delta(delta)
                    bill(post, size)
                    touch(entry, size)
                    if len(state.deltas) >= consolidate_threshold:
                        self._consolidate(entry)
                        # None when the leaf collapsed or merged away.
                        state = entry.state
                    if (state is not None
                            and state.base_size_bytes > max_page_bytes):
                        self._maybe_split(entry)
                    if cache.capacity_bytes is not None:
                        cache.ensure_capacity(protect={entry.page_id})
                if result.ios > ios_before:
                    counts["bwtree.ss_ops"] += 1.0
                else:
                    counts["bwtree.mm_ops"] += 1.0
            latency = ((cpu.busy_us - cpu_before)
                       + (ssd.service_us_total - service_before))
            machine.op_latencies.observe(latency)
            counts["bwtree.blind_batches"] += 1.0
            return result
        finally:
            if tracer is not None:
                tracer.close_span()

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert iff absent (non-blind: reads first). True on success."""
        if self.get_with_stats(key).found:
            return False
        self.upsert(key, value)
        return True

    def update(self, key: bytes, value: bytes) -> bool:
        """Update iff present (non-blind: reads first). True on success."""
        if not self.get_with_stats(key).found:
            return False
        self.upsert(key, value)
        return True

    def _post_blind_delta(self, entry: PageEntry, delta: Record,
                          result: OpResult) -> None:
        """Prepend ``delta`` to the leaf, then run whichever of the
        blind-chain fetch, consolidation, split and eviction it calls
        for.  ``prepend_delta`` sizes the delta once (it charges nothing,
        so it may precede the charges); that size is both the copy
        charge and the page's resident growth."""
        cache = self.cache
        state = entry.state
        if state is None:
            # Page fully evicted: the blind update still succeeds by
            # creating delta-only resident state (paper Section 6.2).
            state = DataPageState(entry.page_id, base=None, deltas=[])
            state.base_flushed = bool(entry.flash_chain)
            if not entry.flash_chain:
                raise RuntimeError(
                    f"page {entry.page_id}: no state and no flash images"
                )
            entry.state = state
            cache.register(entry)
        size = state.prepend_delta(delta)
        self.machine.cpu.bill(self._install, size)
        cache.touch(entry, grown_bytes=size)
        config = self.config
        if (state.base is None
                and len(state.deltas) > config.blind_chain_limit):
            # Pathologically long blind chain: pay the fetch now so reads
            # stay bounded.
            result.ios += cache.fetch(entry)
            state = entry.state
        if state.base is not None:
            if len(state.deltas) >= config.consolidate_threshold:
                self._consolidate(entry)
                # None when the leaf collapsed or merged away.
                state = entry.state
            if (state is not None
                    and state.base_size_bytes > config.max_page_bytes):
                self._maybe_split(entry)
        if cache.capacity_bytes is not None:
            cache.ensure_capacity(protect={entry.page_id})

    @staticmethod
    def validate_key(key: bytes) -> None:
        """Raise what the tree raises for a key it refuses: a non-bytes
        key (``TypeError``) or an empty one (``ValueError``)."""
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        if not key:
            raise ValueError("keys must be non-empty")

    @staticmethod
    def validate_kv(key: bytes, value: bytes) -> None:
        """:meth:`validate_key`, then a ``TypeError`` for a non-bytes
        value."""
        BwTree.validate_key(key)
        if not isinstance(value, bytes):
            raise TypeError(
                f"values must be bytes, got {type(value).__name__}"
            )

    # ------------------------------------------------------------------
    # consolidation / split
    # ------------------------------------------------------------------

    def _maybe_consolidate(self, entry: PageEntry) -> None:
        state = entry.state
        if state is None or state.base is None:
            return
        if state.chain_length < self.config.consolidate_threshold:
            return
        self._consolidate(entry)

    def _consolidate(self, entry: PageEntry) -> None:
        state = entry.state
        assert state is not None and state.base is not None
        new_base_bytes = state.consolidate()
        self.machine.cpu.bill(self._fold, new_base_bytes)
        self._counts["bwtree.consolidations"] += 1.0
        self.cache.resize(entry)
        self._maybe_split(entry)

    def _maybe_split(self, entry: PageEntry) -> None:
        state = entry.state
        if state is None or state.base is None:
            return
        if state.base_size_bytes <= self.config.max_page_bytes:
            return
        if state.deltas:
            # Fold the chain first so the split sees the true contents.
            self._consolidate(entry)
            state = entry.state
            if state is None or state.base is None:
                return
            if state.base_size_bytes <= self.config.max_page_bytes:
                return
        assert state.base is not None
        if len(state.base) < 2:
            return  # single giant record; nothing to split
        self._split_leaf(entry)

    def _split_leaf(self, entry: PageEntry) -> None:
        state = entry.state
        assert state is not None and state.base is not None
        records = state.base
        mid = len(records) // 2
        separator = records[mid].key
        lower, upper = records[:mid], records[mid:]

        sibling = self._allocate_leaf()
        assert sibling.state is not None
        sibling.state.replace_base(list(upper))
        self.cache.resize(sibling)

        state.replace_base(list(lower))
        self.cache.resize(entry)

        self.machine.cpu.charge("install_cas", 2, category="bwtree")
        self.machine.cpu.charge(
            "copy_per_byte",
            sum(r.size_bytes for r in upper),
            category="bwtree",
        )
        self.counters.add("bwtree.leaf_splits")
        self._install_separator(entry.page_id, separator, sibling.page_id)

    def _install_separator(self, left_id: int, separator: bytes,
                           right_id: int) -> None:
        parent_id = self._parent.get(left_id)
        if parent_id is None:
            # Splitting the root: grow the tree by one level.
            root = self._new_inner([separator], [left_id, right_id])
            self.root_id = root.node_id
            return
        parent = self._inners[parent_id]
        parent.insert_separator(separator, right_id)
        self._parent[right_id] = parent_id
        self._reaccount_inner(parent)
        self.machine.cpu.charge("install_cas", category="bwtree")
        if parent.fanout > INNER_FANOUT:
            self._split_inner(parent)

    def _split_inner(self, node: InnerNode) -> None:
        right_id = self._next_inner_id
        self._next_inner_id -= 1
        push_up, right = node.split(right_id)
        self._inners[right_id] = right
        self._inner_sizes[right_id] = right.size_bytes
        self.machine.dram.allocate(right.size_bytes, DRAM_TAG_INDEX)
        self._reaccount_inner(node)
        for child in right.children:
            self._parent[child] = right_id
        self._install_separator(node.node_id, push_up, right_id)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------

    def scan(self, start: bytes, end: Optional[bytes] = None,
             limit: Optional[int] = None) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) pairs with start <= key < end, in key order.

        Visiting a non-resident leaf costs an SS fetch, exactly like a point
        read.  ``end=None`` scans to the end of the keyspace.
        """
        self.validate_key(start)
        emitted = 0
        for entry in self._leaves_from(start):
            # Each leaf visit dispatches like a point read (the docstring
            # contract above), so it owes the same dispatch + epoch CPU.
            self.machine.begin_operation()
            self.machine.cpu.charge("op_dispatch", category="bwtree")
            self.machine.cpu.charge("epoch_protect", category="bwtree")
            self.cache.touch(entry)
            if entry.state is None or entry.state.base is None:
                self.cache.fetch(entry)
                self.cache.ensure_capacity(protect={entry.page_id})
            assert entry.state is not None
            for record in entry.state.iter_records():
                if record.key < start:
                    continue
                if end is not None and record.key >= end:
                    return
                self.machine.cpu.charge(
                    "copy_per_byte", len(record.value), category="bwtree"
                )
                yield record.key, record.value
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

    def _leaves_from(self, start: bytes) -> Iterator[PageEntry]:
        """Leaf entries in key order, beginning at the leaf covering start."""
        stack: List[Tuple[int, bool]] = [(self.root_id, False)]
        # (node id, subtree fully >= start)
        while stack:
            node_id, unrestricted = stack.pop()
            if node_id >= 0:
                yield self.mapping_table.get(node_id)
                continue
            node = self._inners[node_id]
            self.machine.cpu.charge("pointer_chase", category="bwtree")
            if unrestricted:
                children = [(c, True) for c in node.children]
            else:
                first = bisect.bisect_right(node.keys, start)
                children = [(node.children[first], False)]
                children += [(c, True) for c in node.children[first + 1:]]
            stack.extend(reversed(children))

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------

    def bulk_load(self, items, fill_fraction: float = 0.69) -> int:
        """Load key-sorted ``(key, value)`` pairs into packed leaves.

        Only valid on an empty tree.  Leaves are filled to
        ``fill_fraction`` of ``max_page_bytes`` — the paper's B-tree
        steady-state utilization is ln 2 ~ 0.69, which makes the average
        page size Ps land near its 2.7 KB (Section 4.1); pass 1.0 for the
        ~100%-utilized variable-page packing Deuteronomy itself achieves.
        Returns the number of records loaded.
        """
        if not 0.0 < fill_fraction <= 1.0:
            raise ValueError("fill fraction must be in (0, 1]")
        if len(self.mapping_table) != 1 or self.root_id < 0:
            raise ValueError("bulk_load requires a fresh, empty tree")
        # Offline load: the fresh-empty-tree guards above mean no reader
        # or reclaimer can be concurrent, so no epoch is needed.
        root_entry = self.mapping_table.get(  # repro: ignore[epoch-discipline]
            self.root_id)
        if root_entry.state is None or root_entry.state.record_count:
            raise ValueError("bulk_load requires a fresh, empty tree")

        target_bytes = self.config.max_page_bytes * fill_fraction
        leaves: List[Tuple[bytes, int]] = []   # (min key, page id)
        current: List[Record] = []
        current_bytes = 0
        count = 0
        previous_key: Optional[bytes] = None

        def seal() -> None:
            nonlocal current, current_bytes
            if not current:
                return
            entry = self._allocate_leaf()
            assert entry.state is not None
            entry.state.replace_base(list(current))
            self.cache.resize(entry)
            self.machine.cpu.bill(
                self._copy, sum(r.size_bytes for r in current))
            leaves.append((current[0].key, entry.page_id))
            current = []
            current_bytes = 0

        for key, value in items:
            self.validate_kv(key, value)
            if previous_key is not None and key <= previous_key:
                raise ValueError(
                    "bulk_load input must be strictly key-sorted"
                )
            previous_key = key
            record = Record(key, value, self._next_timestamp())
            if current and current_bytes + record.size_bytes > target_bytes:
                seal()
            current.append(record)
            current_bytes += record.size_bytes
            count += 1
        seal()
        if not leaves:
            return 0
        # Retire the empty bootstrap root and index the packed leaves.
        self._free_leaf(root_entry)
        leaves.sort()
        self._bulk_build_index(leaves)
        self.cache.ensure_capacity()
        return count

    # ------------------------------------------------------------------
    # maintenance and reporting
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush every dirty page, persist the mapping table, and force
        everything to flash.  After this the tree is recoverable via
        :meth:`recover`."""
        for entry in self.mapping_table.entries():
            if entry.dirty:
                self.cache.flush_page(entry)
        self.checkpoints.write_checkpoint()

    def collect_garbage(self, target_utilization: float = 0.8) -> int:
        """Checkpoint, clean segments, re-checkpoint, then reclaim.

        Cleaning relocates images, so the persisted mapping-table snapshot
        must reference the new locations before the old ones disappear:
        victims are cleaned with deferred drops, a fresh checkpoint makes
        the relocated chains durable, and only then are the emptied
        segments reclaimed.  A crash at any intermediate point leaves a
        durable checkpoint whose chains are all still on flash (the
        crash-matrix invariant).  Returns the number of segments cleaned.
        """
        self.checkpoint()
        cleaned = self.gc.run_until_utilization(target_utilization,
                                                defer_drop=True)
        if cleaned:
            self.checkpoint()
        self.gc.drop_pending()
        return cleaned

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, machine: Machine, store: LogStructuredStore,
                config: Optional[BwTreeConfig] = None) -> "BwTree":
        """Rebuild a tree from flash after a crash.

        Reads the (unique) live checkpoint image, restores the mapping
        table, and rebuilds the main-memory index by scanning each page's
        chain head for its minimum key — every read is charged to the
        machine like any other recovery I/O.  State flushed after the last
        checkpoint is not visible here; committed transactional updates
        are restored by the TC's redo replay (Section 6.2: recovery uses
        the same blind-update path as normal operation).
        """
        found = CheckpointManager.find_latest(store)
        if found is None:
            raise RecoveryError("no live checkpoint image on flash")
        addr, image = found
        tree = cls(machine, config, store=store, _defer_root=True)
        tree.checkpoints.note_relocated(addr)
        leaf_keys: List[Tuple[bytes, int]] = []
        empty_pages: List[PageEntry] = []
        live_addrs: List[FlashAddr] = [addr]
        for page_id, (chain, fdr) in sorted(image.chains().items()):
            entry = tree.mapping_table.restore_entry(page_id, chain, fdr)
            live_addrs.extend(chain)
            machine.dram.allocate(MAPPING_ENTRY_BYTES, DRAM_TAG_MAPPING)
            min_key = tree._recovered_min_key(entry)
            if min_key is None:
                empty_pages.append(entry)
            else:
                leaf_keys.append((min_key, page_id))
        # Pre-crash invalidations may have referred to replacement writes
        # that never became durable; the recovered chains (plus the live
        # checkpoint) are now the truth about which flash images are live.
        store.rebuild_liveness(live_addrs)
        leaf_keys.sort()
        if not leaf_keys:
            # Nothing (or only empty pages) on flash: fresh root, drop the
            # empty remnants.
            for entry in empty_pages:
                tree._free_leaf(entry)
            root_entry = tree._allocate_leaf()
            tree.root_id = root_entry.page_id
            return tree
        for entry in empty_pages:
            tree._free_leaf(entry)
        tree._bulk_build_index(leaf_keys)
        return tree

    def _recovered_min_key(self, entry: PageEntry) -> Optional[bytes]:
        """Scan a restored page's chain for its smallest key (one pass)."""
        keys: List[bytes] = []
        for flash_addr in entry.flash_chain:
            try:
                result = self.store.read(flash_addr)
            except KeyError as exc:
                raise RecoveryError(
                    f"page {entry.page_id}: checkpoint references "
                    f"{flash_addr} which is no longer on flash "
                    "(GC ran without re-checkpointing?)"
                ) from exc
            image = result.image
            if image.kind == "full":
                if image.records:
                    keys.append(image.records[0].key)
            else:
                keys.extend(delta.key for delta in image.deltas)
        if not keys:
            return None
        return min(keys)

    def _bulk_build_index(self, leaf_keys: List[Tuple[bytes, int]]) -> None:
        """Build the inner-node structure over sorted (min key, pid)."""
        level = leaf_keys
        while len(level) > 1:
            next_level: List[Tuple[bytes, int]] = []
            for start in range(0, len(level), INNER_FANOUT):
                group = level[start:start + INNER_FANOUT]
                if len(group) == 1 and next_level:
                    # Avoid a trailing 1-child node: merge into previous.
                    prev_key, prev_id = next_level[-1]
                    prev_node = self._inners[prev_id]
                    prev_node.keys.append(group[0][0])
                    prev_node.children.append(group[0][1])
                    self._parent[group[0][1]] = prev_id
                    self._reaccount_inner(prev_node)
                    continue
                keys = [key for key, __ in group[1:]]
                children = [node_id for __, node_id in group]
                node = self._new_inner(keys, children)
                next_level.append((group[0][0], node.node_id))
            level = next_level
        self.root_id = level[0][1]

    def simulate_crash_and_recover(self) -> "BwTree":
        """Power-loss drill: lose all DRAM and the open write buffer, then
        recover from flash.  Returns the recovered tree; this tree object
        must no longer be used."""
        self.store.simulate_crash()
        self.machine.dram.wipe()
        return BwTree.recover(self.machine, self.store, self.config)

    def warm_all(self) -> int:
        """Fetch every leaf into DRAM (for main-memory experiments)."""
        ios = 0
        for entry in self.mapping_table.entries():
            if entry.state is None or entry.state.base is None:
                ios += self.cache.fetch(entry)
        return ios

    def count_records(self) -> int:
        """Exact logical record count (fetches evicted pages)."""
        total = 0
        for entry in self.mapping_table.entries():
            if entry.state is None or entry.state.base is None:
                self.cache.fetch(entry)
            assert entry.state is not None
            total += entry.state.record_count
        return total

    def dram_footprint_bytes(self) -> int:
        """Resident bytes attributable to this tree (data + index + map)."""
        dram = self.machine.dram
        return (
            dram.bytes_for("page_cache")
            + dram.bytes_for(DRAM_TAG_INDEX)
            + dram.bytes_for(DRAM_TAG_MAPPING)
        )

    def depth(self) -> int:
        """Tree height in levels (1 = a single leaf)."""
        depth = 1
        node_id = self.root_id
        while node_id < 0:
            depth += 1
            node_id = self._inners[node_id].children[0]
        return depth

    def leaf_page_ids(self) -> List[int]:
        return [entry.page_id for entry in self.mapping_table.entries()]

    def average_leaf_bytes(self) -> float:
        """Average serialized leaf size — the paper's Ps (~2.7 KB)."""
        entries = self.mapping_table.entries()
        if not entries:
            return 0.0
        total = 0
        counted = 0
        for entry in entries:
            if entry.state is not None and entry.state.base is not None:
                total += entry.state.base_size_bytes
                counted += 1
            elif entry.flash_chain:
                total += entry.flash_chain[0].nbytes
                counted += 1
        if counted == 0:
            return 0.0
        return total / counted

    def _post_op(self, entry: PageEntry, result: OpResult,
                 window: Optional[Tuple[float, float]] = None) -> None:
        if window is not None:
            self.machine.observe_latency(window)
        if result.ios > 0:
            self.counters.add("bwtree.ss_ops")
        else:
            self.counters.add("bwtree.mm_ops")
        self._maybe_consolidate(entry)
