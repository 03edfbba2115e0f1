"""LLAMA-style cache/storage subsystem (paper Sections 6.1-6.3).

Logical pages located through a :class:`MappingTable`, persisted by a
:class:`LogStructuredStore` in large appended segments with variable-size
full or delta-only images, cached in DRAM by a :class:`PageCache` with LRU
or breakeven-interval eviction, and cleaned by a :class:`GarbageCollector`.
"""

from .cache import CacheStats, PageCache, TierCache
from .checkpoint import CheckpointImage, CheckpointManager
from .gc import GarbageCollector, GcStats
from .log_store import LogStructuredStore, ReadResult, SegmentInfo
from .mapping_table import FlashAddr, MappingTable, PageEntry
from .pages import (
    DELTA_OVERHEAD_BYTES,
    PAGE_HEADER_BYTES,
    RECORD_OVERHEAD_BYTES,
    DataPageState,
    LookupResult,
    PageImage,
    Record,
    delta_image_size_bytes,
    delta_size_bytes,
    full_image_size_bytes,
)

__all__ = [
    "CacheStats",
    "PageCache",
    "TierCache",
    "CheckpointImage",
    "CheckpointManager",
    "GarbageCollector",
    "GcStats",
    "LogStructuredStore",
    "ReadResult",
    "SegmentInfo",
    "FlashAddr",
    "MappingTable",
    "PageEntry",
    "DataPageState",
    "LookupResult",
    "PageImage",
    "Record",
    "RECORD_OVERHEAD_BYTES",
    "DELTA_OVERHEAD_BYTES",
    "PAGE_HEADER_BYTES",
    "delta_image_size_bytes",
    "delta_size_bytes",
    "full_image_size_bytes",
]
