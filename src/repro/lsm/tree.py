"""Leveled LSM-tree in the style of RocksDB (paper Sections 1.3 and 6).

All updates are accepted blind by the memtable; flushes and compactions
turn every write to flash into a large sequential write, keeping secondary
storage utilization high (Section 6.1).  Reads consult the memtable (a
record cache, Section 6.3), then L0 newest-first, then one run per deeper
level, paying one block read per table whose bloom filter cannot rule the
key out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..frozen import check_bounds
from ..hardware.machine import Machine
from ..hardware.metrics import CounterSet
from .memtable import Memtable
from .sstable import BLOCK_BYTES, SsTable

DRAM_TAG_MEMTABLE = "lsm_memtable"
DRAM_TAG_INDEX = "lsm_index"


@dataclass(frozen=True)
class LsmConfig:
    """Shape of the level structure; defaults echo RocksDB's."""

    memtable_bytes: int = 1 << 20
    l0_compaction_trigger: int = 4
    level_base_bytes: int = 4 << 20
    level_size_multiplier: int = 10
    max_levels: int = 7
    target_table_bytes: int = 2 << 20
    # RocksDB-style block cache: data blocks read from SSTables are kept
    # in DRAM under this byte budget.  None disables caching, making every
    # table probe an SS operation.
    block_cache_bytes: Optional[int] = None

    BOUNDS = dict.fromkeys(
        ("memtable_bytes", "l0_compaction_trigger", "level_base_bytes",
         "level_size_multiplier", "max_levels", "target_table_bytes",
         "block_cache_bytes"), (1, math.inf))

    def __post_init__(self) -> None:
        check_bounds(self)

    def level_capacity(self, level: int) -> int:
        if level < 1:
            raise ValueError("levelled capacity starts at L1")
        return self.level_base_bytes * (
            self.level_size_multiplier ** (level - 1)
        )


class BlockCache:
    """LRU cache of (table id, block index) data blocks."""

    def __init__(self, machine: Machine, capacity_bytes: int) -> None:
        check_bounds(LsmConfig, block_cache_bytes=capacity_bytes)
        from collections import OrderedDict
        self.machine = machine
        self.capacity_bytes = capacity_bytes
        self._blocks: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def probe(self, table_id: int, block: int) -> bool:
        """True on hit (block resident); charges one hash probe."""
        self.machine.cpu.charge("hash_probe", category="lsm_block_cache")
        key = (table_id, block)
        if key in self._blocks:
            self._blocks.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, table_id: int, block: int, nbytes: int) -> None:
        key = (table_id, block)
        if key in self._blocks:
            self._blocks.move_to_end(key)
            return
        self._blocks[key] = nbytes
        self.machine.dram.allocate(nbytes, "lsm_block_cache")
        self._bytes += nbytes
        while self._bytes > self.capacity_bytes and self._blocks:
            __, freed = self._blocks.popitem(last=False)
            self.machine.dram.free(freed, "lsm_block_cache")
            self._bytes -= freed

    def drop_table(self, table_id: int) -> None:
        """Purge a compacted-away table's blocks."""
        stale = [key for key in self._blocks if key[0] == table_id]
        for key in stale:
            freed = self._blocks.pop(key)
            self.machine.dram.free(freed, "lsm_block_cache")
            self._bytes -= freed

    @property
    def resident_bytes(self) -> int:
        return self._bytes


@dataclass
class LsmOpResult:
    """Outcome of one LSM operation with its cost-relevant facts."""

    value: Optional[bytes] = None
    found: bool = False
    ios: int = 0


class LsmTree:
    """A write-optimized byte-keyed store over the simulated SSD."""

    def __init__(self, machine: Machine,
                 config: Optional[LsmConfig] = None) -> None:
        self.machine = machine
        self.config = config if config is not None else LsmConfig()
        self.memtable = Memtable()
        # levels[0] is newest-first and may overlap; deeper levels are
        # key-ordered, non-overlapping runs.
        self.levels: List[List[SsTable]] = [
            [] for __ in range(self.config.max_levels)
        ]
        self.counters = CounterSet()
        self.block_cache = (
            BlockCache(machine, self.config.block_cache_bytes)
            if self.config.block_cache_bytes is not None else None
        )
        self._seq = 0
        self._memtable_accounted = 0
        self._index_accounted = 0

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _sync_memtable_dram(self) -> None:
        new = self.memtable.size_bytes
        if new > self._memtable_accounted:
            self.machine.dram.allocate(new - self._memtable_accounted,
                                       DRAM_TAG_MEMTABLE)
        elif new < self._memtable_accounted:
            self.machine.dram.free(self._memtable_accounted - new,
                                   DRAM_TAG_MEMTABLE)
        self._memtable_accounted = new

    def _sync_index_dram(self) -> None:
        new = sum(
            table.resident_index_bytes
            for level in self.levels for table in level
        )
        if new > self._index_accounted:
            self.machine.dram.allocate(new - self._index_accounted,
                                       DRAM_TAG_INDEX)
        elif new < self._index_accounted:
            self.machine.dram.free(self._index_accounted - new,
                                   DRAM_TAG_INDEX)
        self._index_accounted = new

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _begin_op(self) -> None:
        self.machine.begin_operation()
        self.machine.cpu.charge("op_dispatch", category="lsm")

    # ------------------------------------------------------------------
    # writes (all blind)
    # ------------------------------------------------------------------

    def upsert(self, key: bytes, value: bytes) -> LsmOpResult:
        """Blind upsert into the memtable — never reads flash."""
        self._validate_kv(key, value)
        return self._write(key, value)

    def delete(self, key: bytes) -> LsmOpResult:
        """Blind delete: a tombstone into the memtable."""
        self._validate_key(key)
        return self._write(key, None)

    def _write(self, key: bytes, value: Optional[bytes]) -> LsmOpResult:
        self._begin_op()
        self.counters.add("lsm.ops")
        steps = self.memtable.put(key, value, self._next_seq())
        cpu = self.machine.cpu
        cpu.charge("memtable_step", steps, category="lsm")
        value_len = len(value) if value is not None else 0
        cpu.charge("copy_per_byte", len(key) + value_len, category="lsm")
        self._sync_memtable_dram()
        result = LsmOpResult(found=True)
        if self.memtable.size_bytes >= self.config.memtable_bytes:
            self.flush_memtable()
        return result

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        return self.get_with_stats(key).value

    def get_with_stats(self, key: bytes) -> LsmOpResult:
        self._validate_key(key)
        self._begin_op()
        self.counters.add("lsm.ops")
        cpu = self.machine.cpu
        result = LsmOpResult()

        hit, value, steps = self.memtable.get(key)
        cpu.charge("memtable_step", steps, category="lsm")
        if hit:
            self._finish_get(result, value is not None, value)
            return result

        for table in self._tables_for(key):
            cpu.charge("bloom_filter_probe", category="lsm")
            if not table.bloom.may_contain(key):
                continue
            cpu.charge("page_binary_search_step", table.search_steps(),
                       category="lsm")
            block = table.block_of(key)
            if (self.block_cache is None
                    or not self.block_cache.probe(table.table_id, block)):
                # One block read from the device for this probe.
                self.machine.io_path.charge_round_trip(BLOCK_BYTES)
                self.machine.ssd.read(BLOCK_BYTES)
                result.ios += 1
                if self.block_cache is not None:
                    self.block_cache.insert(table.table_id, block,
                                            BLOCK_BYTES)
            found, value, __ = table.get(key)
            if found:
                self._finish_get(result, value is not None, value)
                return result
        self._finish_get(result, False, None)
        return result

    def _tables_for(self, key: bytes) -> Iterator[SsTable]:
        for table in self.levels[0]:
            if table.covers(key):
                yield table
        for level in self.levels[1:]:
            for table in level:
                if table.covers(key):
                    yield table
                    break   # non-overlapping: at most one per level

    def _finish_get(self, result: LsmOpResult, found: bool,
                    value: Optional[bytes]) -> None:
        result.found = found
        result.value = value if found else None
        if found and value is not None:
            self.machine.cpu.charge("copy_per_byte", len(value),
                                    category="lsm")
        if result.ios > 0:
            self.counters.add("lsm.ss_ops")

    # ------------------------------------------------------------------
    # flush & compaction
    # ------------------------------------------------------------------

    def flush_memtable(self) -> Optional[SsTable]:
        """Write the memtable as one new L0 table (one large write)."""
        records = list(self.memtable.items())
        if not records:
            return None
        table = self._build_table(records, level=0)
        self.levels[0].insert(0, table)   # newest first
        self.memtable.clear()
        self._sync_memtable_dram()
        self._sync_index_dram()
        if len(self.levels[0]) > self.config.l0_compaction_trigger:
            self.compact_level(0)
        return table

    def _build_table(self, records, level: int) -> SsTable:
        table = SsTable(records, level)
        self.machine.io_path.charge_round_trip(table.data_bytes)
        self.machine.ssd.write(table.data_bytes)
        self.machine.ssd.store_bytes(table.data_bytes)
        self.machine.cpu.charge("copy_per_byte", table.data_bytes,
                                category="lsm")
        return table

    def _drop_table(self, table: SsTable) -> None:
        self.machine.ssd.release_bytes(table.data_bytes)
        if self.block_cache is not None:
            self.block_cache.drop_table(table.table_id)

    def compact_level(self, level: int) -> None:
        """Merge ``level`` into ``level + 1`` (RocksDB leveled style)."""
        if level + 1 >= self.config.max_levels:
            return
        upper = self.levels[level]
        if not upper:
            return
        if level == 0:
            sources = list(upper)
        else:
            # Pick the table that overflows the level (largest is a fine
            # deterministic proxy for RocksDB's heuristics).
            sources = [max(upper, key=lambda t: t.data_bytes)]
        min_key = min(t.min_key for t in sources)
        max_key = max(t.max_key for t in sources)
        targets = [
            t for t in self.levels[level + 1]
            if t.overlaps(min_key, max_key)
        ]
        inputs = sources + targets
        is_bottom = (level + 1 == self.config.max_levels - 1
                     or not any(self.levels[level + 2:]))
        merged = self._merge(inputs, drop_tombstones=is_bottom)
        # Reading every input table: one large sequential read each.
        for table in inputs:
            self.machine.io_path.charge_round_trip(table.data_bytes)
            self.machine.ssd.read(table.data_bytes)
            self.machine.cpu.charge("merge_per_byte", table.data_bytes,
                                    category="lsm")
        for table in sources:
            upper.remove(table)
        for table in targets:
            self.levels[level + 1].remove(table)
        for table in inputs:
            self._drop_table(table)
        new_tables = []
        for chunk in self._chunk(merged, self.config.target_table_bytes):
            new_tables.append(self._build_table(chunk, level + 1))
        self.levels[level + 1].extend(new_tables)
        self.levels[level + 1].sort(key=lambda t: t.min_key)
        self._sync_index_dram()
        if (self._level_bytes(level + 1)
                > self.config.level_capacity(level + 1)):
            self.compact_level(level + 1)

    def _merge(self, tables: List[SsTable], drop_tombstones: bool):
        """Merge runs, newest version of each key winning."""
        # Priority: lower index in `tables` = newer (L0 is newest-first and
        # sources precede targets).
        streams = [
            ((key, priority), value, seq)
            for priority, table in enumerate(tables)
            for key, value, seq in table.items()
        ]
        streams.sort(key=lambda item: item[0])
        merged = []
        last_key: Optional[bytes] = None
        for (key, __), value, seq in streams:
            if key == last_key:
                continue   # an older version of a key we already emitted
            last_key = key
            if value is None and drop_tombstones:
                continue
            merged.append((key, value, seq))
        return merged

    @staticmethod
    def _chunk(records, target_bytes: int):
        chunk: List = []
        size = 0
        for record in records:
            key, value, __ = record
            size += 16 + len(key) + (len(value) if value is not None else 0)
            chunk.append(record)
            if size >= target_bytes:
                yield chunk
                chunk, size = [], 0
        if chunk:
            yield chunk

    def _level_bytes(self, level: int) -> int:
        return sum(t.data_bytes for t in self.levels[level])

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def stored_bytes(self) -> int:
        return sum(self._level_bytes(level)
                   for level in range(len(self.levels)))

    def dram_footprint_bytes(self) -> int:
        block_bytes = (self.block_cache.resident_bytes
                       if self.block_cache is not None else 0)
        return self._memtable_accounted + self._index_accounted \
            + block_bytes

    def _validate_key(self, key: bytes) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        if not key:
            raise ValueError("keys must be non-empty")

    def _validate_kv(self, key: bytes, value: bytes) -> None:
        self._validate_key(key)
        if not isinstance(value, bytes):
            raise TypeError(
                f"values must be bytes, got {type(value).__name__}"
            )
