"""Cross-system integration: the three stores agree; the stack composes."""

import random

import pytest

from repro.bwtree import BwTree, BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine
from repro.hardware import Machine
from repro.lsm import LsmConfig, LsmTree
from repro.masstree import MassTree
from repro.workloads import WorkloadGenerator, WorkloadSpec


def build_all():
    bw = BwTree(Machine.paper_default(),
                BwTreeConfig(cache_capacity_bytes=32 * 1024,
                             segment_bytes=1 << 14))
    mt = MassTree(Machine.paper_default())
    lsm = LsmTree(Machine.paper_default(), LsmConfig(
        memtable_bytes=8 << 10, l0_compaction_trigger=3,
        level_base_bytes=64 << 10, target_table_bytes=32 << 10,
    ))
    return bw, mt, lsm


def test_three_stores_agree_on_random_history():
    bw, mt, lsm = build_all()
    model = {}
    source = random.Random(99)
    keys = [b"user%06d" % i for i in range(600)]
    for __ in range(4000):
        key = source.choice(keys)
        action = source.random()
        if action < 0.6:
            value = bytes(source.randrange(256) for __i in range(40))
            bw.upsert(key, value)
            mt.upsert(key, value)
            lsm.upsert(key, value)
            model[key] = value
        elif action < 0.8:
            bw.delete(key)
            mt.delete(key)
            lsm.delete(key)
            model.pop(key, None)
        else:
            expected = model.get(key)
            assert bw.get(key) == expected
            assert mt.get(key) == expected
            assert lsm.get(key) == expected
    for key in keys:
        expected = model.get(key)
        assert bw.get(key) == expected
        assert mt.get(key) == expected
        assert lsm.get(key) == expected


def test_three_stores_agree_on_scans():
    bw, mt, lsm = build_all()
    source = random.Random(5)
    model = {}
    for __ in range(500):
        key = bytes(source.randrange(97, 123)
                    for __i in range(source.randrange(1, 10)))
        value = b"v%d" % source.randrange(1000)
        for store in (bw, mt, lsm):
            store.upsert(key, value)
        model[key] = value
    # Only the Bw-tree scans; the other two agree on every touched key.
    assert list(bw.scan(b"\x00")) == sorted(model.items())
    for key, value in model.items():
        assert mt.get(key) == value
        assert lsm.get(key) == value


def test_same_workload_ycsb_through_all_stores():
    spec = WorkloadSpec(record_count=400, value_bytes=40,
                        read_fraction=0.6, update_fraction=0.4, seed=8)
    results = {}
    for name, store in zip(("bw", "lsm"), (build_all()[0], build_all()[2])):
        for key, value in WorkloadGenerator(spec).load_items():
            store.upsert(key, value)
        generator = WorkloadGenerator(spec)
        reads = {}
        for op in generator.operations(500):
            if op.kind.value == "read":
                reads[op.key] = store.get(op.key)
            else:
                store.upsert(op.key, op.value)
        results[name] = reads
    assert results["bw"] == results["lsm"]


def test_deuteronomy_engine_against_bwtree_direct():
    """The TC's caching layers must never change read results."""
    machine = Machine.paper_default()
    engine = DeuteronomyEngine(machine,
                               BwTreeConfig(segment_bytes=1 << 14))
    direct = {}
    source = random.Random(17)
    keys = [b"acct%04d" % i for i in range(200)]
    for __ in range(1500):
        key = source.choice(keys)
        if source.random() < 0.5:
            value = b"v%d" % source.randrange(10**6)
            engine.put(key, value)
            direct[key] = value
        else:
            assert engine.get(key) == direct.get(key)


def test_machine_accounting_consistent_across_stack():
    """DRAM allocated by every component must sum to the machine total."""
    machine = Machine.paper_default()
    engine = DeuteronomyEngine(machine,
                               BwTreeConfig(segment_bytes=1 << 14))
    for index in range(500):
        engine.put(b"key%05d" % index, b"v" * 60)
    by_tag = machine.dram.by_tag()
    assert machine.dram.current_bytes == sum(by_tag.values())
    assert set(by_tag) >= {"page_cache", "mapping_table",
                           "tc_recovery_log"}


def test_simulated_throughput_sane_end_to_end():
    """A fully cached read-only run lands near the calibrated 1 Mops/core."""
    machine = Machine.paper_default(cores=1)
    tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
    spec = WorkloadSpec(record_count=3000, value_bytes=100, seed=3)
    for key, value in WorkloadGenerator(spec).load_items():
        tree.upsert(key, value)
    machine.reset_accounting()
    generator = WorkloadGenerator(spec)
    for op in generator.operations(3000):
        tree.get(op.key)
    summary = machine.summary()
    assert 0.6e6 < summary.throughput_ops_per_sec < 1.6e6
    assert summary.core_us_per_op == pytest.approx(1.0, rel=0.45)
