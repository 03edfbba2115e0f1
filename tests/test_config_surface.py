"""The configuration surface, pinned name by name, each with its consumer.

The rule: an option value stays only if one of these sets it —

* a scorecard claim (an ``EXPERIMENTS`` id),
* a ``FLOORS`` entry of ``BENCH_engine.json`` (its ``derived`` name),
* an e2e workload (a workload name in ``BENCHMARK.json``), or
* the crash matrix (a ``repro.faults.matrix.SCENARIOS`` entry).

A derived ratio alone does not count.  A value with no consumer is
deleted, with its bench rows, its code paths and the tests of its
behaviour.  A choice — a ``bool``, ``IoPathKind``, ``LOG_TOPOLOGIES``,
``CONCURRENCY_MODES``, a key distribution (a ``make_chooser`` kind) —
names a consumer for every value.  A size, count or component names a
run whose numbers it sets, at its default or not.  The workload
generator is under the same rule: every ``WorkloadSpec`` field and every
mix constructor names its consumer too.  Adding, removing or renaming an
option changes a line here, so the change is visible in review instead
of slipping in beside the code that reads it.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.bench.engine_bench import FLOORS
from repro.bench.experiments import EXPERIMENTS
from repro.bwtree import BwTreeConfig
from repro.deuteronomy import TcConfig
from repro.deuteronomy.record_cache import CONCURRENCY_MODES
from repro.faults.matrix import SCENARIOS
from repro.hardware import IoPathKind, Machine
from repro.sharding import ShardedEngine
from repro.sharding.engine import LOG_TOPOLOGIES
from repro.storage import PageCache, TierCache
from repro.workloads import CHOOSERS, WorkloadSpec

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

CONFIG_FIELDS = {
    TcConfig: {
        "log_buffer_bytes": "engine",
        "log_retain_budget_bytes": "a3",
        "read_cache_bytes": "read_hot",
        "version_gc_horizon_lag": "update_batched",
        "sync_commit": {False: "read_hot", True: "update_batched"},
        "commit_pipeline": {False: "update_batched", True: "fleet_async"},
        "commit_interval_us": "fleet_async",
        "commit_epoch_bytes": "fleet_async",
        "record_cache": {False: "read_hot",
                         True: "record-cache/mm_core_us_drop"},
        "record_cache_bytes": "record-cache/mm_core_us_drop",
        "record_arena_bytes": "engine",
        "record_dirty_flush_bytes": "engine",
        "concurrency_mode": {
            "latch_free": "record-cache/mm_core_us_drop",
            "latched": "record-cache/latch_free_vs_latched_speedup"},
    },
    BwTreeConfig: {
        "max_page_bytes": "read_cold",
        "min_page_bytes": "update_batched",
        "consolidate_threshold": "update_batched",
        "blind_chain_limit": "update_batched",
        "max_flash_fragments": "a5",
        "cache_capacity_bytes": "read_cold",
        "segment_bytes": "engine",
        "demote_to_tiers": {False: "read_cold",
                            True: "tiered/dollars_ratio"},
        "demote_budget_bytes": "tiered/dollars_ratio",
    },
    WorkloadSpec: {
        "record_count": "read_hot",
        "key_prefix": "read_hot",
        "value_bytes": "read_hot",
        "distribution": {"uniform": "a2", "scrambled": "read_hot"},
        "theta": "read_hot",
        "read_fraction": "update_batched",
        "update_fraction": "update_batched",
        "seed": "read_hot",
    },
}

#: ``WorkloadSpec``'s mix constructors, each with the run that builds it.
MIXES = {
    "ycsb_a": "update_batched",
    "ycsb_b": "tiered/dollars_ratio",
    "ycsb_c": "read_hot",
}

PARAMETERS = {
    PageCache: {
        "machine": "read_cold",
        "mapping_table": "read_cold",
        "store": "read_cold",
        "capacity_bytes": "read_cold",
        "max_flash_fragments": "a5",
        "demote_to_tiers": {False: "read_cold",
                            True: "tiered/dollars_ratio"},
        "demote_budget_bytes": "tiered/dollars_ratio",
    },
    TierCache: {
        "machine": "tiered/dollars_ratio",
        "budget_bytes": "tiered/dollars_ratio",
    },
    Machine: {
        "cores": "read_hot",
        "cost_table": "read_hot",
        "ssd_spec": "read_cold",
        "io_path": {IoPathKind.USER_LEVEL: "read_cold",
                    IoPathKind.KERNEL: "f7"},
    },
    ShardedEngine: {
        "num_shards": "fleet_async",
        "cores_per_shard": "fleet_async",
        "tree_config": "sharded",
        "tc_config": "fleet_async",
        "machine_factory": "sharded",
        "log_topology": {"colocated": "sharded-async",
                         "shared": "fleet_async"},
        "log_ssd_spec": "fleet_async",
        "_shards": "sharded",
    },
}

#: Every choice that is not a ``bool``, with all of its values.
CHOICES = {
    (TcConfig, "concurrency_mode"): set(CONCURRENCY_MODES),
    (Machine, "io_path"): set(IoPathKind),
    (ShardedEngine, "log_topology"): set(LOG_TOPOLOGIES),
    (WorkloadSpec, "distribution"): set(CHOOSERS),
}


def defaults(owner):
    """Each pinned name's default (``inspect.Parameter.empty`` if none)."""
    if dataclasses.is_dataclass(owner):
        return {field.name: field.default
                for field in dataclasses.fields(owner)}
    return {name: parameter.default for name, parameter
            in inspect.signature(owner).parameters.items()}


def census():
    """``(owner, name, value, consumer)`` for every pinned option value
    and mix constructor; ``value`` is ``None`` for a name that is not a
    choice."""
    for owner, names in {**CONFIG_FIELDS, **PARAMETERS}.items():
        for name, consumer in names.items():
            if isinstance(consumer, dict):
                for value, user in consumer.items():
                    yield owner, name, value, user
            else:
                yield owner, name, None, consumer
    for name, consumer in MIXES.items():
        yield WorkloadSpec, name, None, consumer


def consumers():
    """Every name a consumer may have, by the rule's four lists."""
    workloads = json.loads(BENCHMARK.read_text())["workloads"]
    return ({floor.derived for floor in FLOORS} | set(EXPERIMENTS)
            | {workload["name"] for workload in workloads} | set(SCENARIOS))


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields(config):
    names = [field.name for field in dataclasses.fields(config)]
    assert names == list(CONFIG_FIELDS[config])


@pytest.mark.parametrize("owner", PARAMETERS, ids=lambda c: c.__name__)
def test_constructor_parameters(owner):
    assert list(inspect.signature(owner).parameters) == list(PARAMETERS[owner])


def test_every_choice_names_a_consumer_for_each_of_its_values():
    for owner, names in {**CONFIG_FIELDS, **PARAMETERS}.items():
        default = defaults(owner)
        for name, consumer in names.items():
            if type(default[name]) is bool:
                values = {False, True}
            else:
                values = CHOICES.get((owner, name))
            if values is None:
                assert not isinstance(consumer, dict), (owner, name)
            else:
                assert isinstance(consumer, dict), (owner, name)
                assert set(consumer) == values, (owner, name)


def test_the_mix_constructors_are_pinned():
    constructors = [name for name, member in vars(WorkloadSpec).items()
                    if isinstance(member, classmethod)]
    assert constructors == list(MIXES)


def test_every_option_value_has_a_consumer():
    known = consumers()
    for owner, name, value, consumer in census():
        assert consumer in known, (owner.__name__, name, value, consumer)
