"""The configuration surface, pinned name by name.

An option earns its place only when two callers want different values.
Adding, removing or renaming one changes a line here, so the change is
visible in review instead of slipping in beside the code that reads it.
"""

import dataclasses
import inspect

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import TcConfig
from repro.hardware import Machine
from repro.sharding import ShardedEngine
from repro.storage import EvictionPolicy, PageCache, TierCache

CONFIG_FIELDS = {
    TcConfig: [
        "log_buffer_bytes", "log_retain_budget_bytes", "read_cache_bytes",
        "read_cache_demote", "version_gc_horizon_lag", "sync_commit",
        "commit_pipeline", "commit_interval_us", "commit_epoch_bytes",
        "record_cache", "record_cache_bytes", "record_arena_bytes",
        "record_dirty_flush_bytes", "concurrency_mode",
    ],
    BwTreeConfig: [
        "max_page_bytes", "min_page_bytes", "consolidate_threshold",
        "blind_chain_limit", "max_flash_fragments", "cache_capacity_bytes",
        "eviction_policy", "record_cache", "segment_bytes",
        "demote_to_tiers", "demote_budget_bytes",
    ],
}

PARAMETERS = {
    PageCache: [
        "machine", "mapping_table", "store", "capacity_bytes", "policy",
        "record_cache", "max_flash_fragments", "demote_to_tiers",
        "demote_budget_bytes",
    ],
    TierCache: ["machine", "budget_bytes"],
    Machine: ["cores", "cost_table", "ssd_spec", "io_path",
              "dram_capacity_bytes"],
    ShardedEngine: [
        "num_shards", "cores_per_shard", "tree_config", "tc_config",
        "machine_factory", "log_topology", "log_ssd_spec", "_shards",
    ],
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields(config):
    names = [field.name for field in dataclasses.fields(config)]
    assert names == CONFIG_FIELDS[config]


@pytest.mark.parametrize("owner", PARAMETERS, ids=lambda c: c.__name__)
def test_constructor_parameters(owner):
    assert list(inspect.signature(owner).parameters) == PARAMETERS[owner]


def test_eviction_policies():
    """Victim orders only: the Ti rule is ``PageCache.evict_idle_pages``."""
    assert [policy.name for policy in EvictionPolicy] == ["LRU", "CLOCK"]
