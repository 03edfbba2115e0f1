"""A config that would silently build a different tree is refused by name.

Every comparison with NaN is false, so a NaN size read as 0 (a NaN
``max_flash_fragments``) or as "split every consolidated leaf" (a NaN
``max_page_bytes``); an infinite ``max_page_bytes`` bulk-loaded every
record into one leaf, and a NaN or infinite ``segment_bytes`` never
filled a segment.  A page larger than a segment built a tree whose
first checkpoint of a full page raised.
"""

import math

import pytest

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine
from repro.storage import LogStructuredStore, MappingTable, PageCache, TierCache


# NaN and infinity are refused by name for every field by
# tests/test_config_bounds.py; it lets a whole number build, so the
# integer floors are pinned here.
@pytest.mark.parametrize("name, value", [
    ("max_page_bytes", 255),
    ("max_flash_fragments", 0),
    ("cache_capacity_bytes", 0),
    ("segment_bytes", 0),
])
def test_a_size_that_would_build_a_different_tree_is_refused_by_name(name,
                                                                      value):
    with pytest.raises(ValueError, match=f"BwTreeConfig.{name} "):
        BwTreeConfig(**{name: value})


def test_a_page_larger_than_a_segment_is_refused_at_construction():
    """Its image could not be written: a checkpoint raised."""
    with pytest.raises(ValueError, match="BwTreeConfig.segment_bytes "):
        BwTreeConfig(max_page_bytes=8192, segment_bytes=4096)


def test_every_floor_and_an_unbudgeted_cache_still_build_a_tree():
    config = BwTreeConfig(
        max_page_bytes=256, max_flash_fragments=1,
        cache_capacity_bytes=None, segment_bytes=1 << 12,
        demote_to_tiers=True, demote_budget_bytes=None,
    )
    tree = BwTree(Machine.paper_default(), config)
    tree.upsert(b"k", b"v")
    assert tree.get(b"k") == b"v"


@pytest.mark.parametrize("value", [math.nan, math.inf, 0])
def test_the_store_and_caches_refuse_the_same_sizes_built_directly(machine,
                                                                   value):
    with pytest.raises(ValueError, match="segment_bytes"):
        LogStructuredStore(machine, segment_bytes=value)
    store = LogStructuredStore(machine)
    with pytest.raises(ValueError, match="capacity_bytes"):
        PageCache(machine, MappingTable(), store, capacity_bytes=value)
    with pytest.raises(ValueError, match="budget_bytes"):
        TierCache(machine, budget_bytes=value)
