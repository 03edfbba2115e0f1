"""Property tests: the LSM tree matches a dict under tiny thresholds.

Tiny memtable/level limits force constant flushes and compactions, so the
merge logic is exercised on every example.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.hardware import Machine
from repro.lsm import LsmConfig, LsmTree

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=0, max_size=30)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
        st.tuples(st.just("get"), keys, st.just(b"")),
    ),
    max_size=100,
)

TINY = LsmConfig(
    memtable_bytes=512,
    l0_compaction_trigger=2,
    level_base_bytes=2048,
    target_table_bytes=1024,
    max_levels=5,
)


@settings(max_examples=70, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_lsm_matches_dict(ops):
    machine = Machine.paper_default(cores=1)
    tree = LsmTree(machine, TINY)
    model: dict = {}
    for kind, key, value in ops:
        if kind == "upsert":
            tree.upsert(key, value)
            model[key] = value
        elif kind == "delete":
            tree.delete(key)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
    # Every key the ops touched, deleted ones included, reads as the model.
    for __, key, __ in ops:
        assert tree.get(key) == model.get(key)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs=st.dictionaries(keys, values, min_size=1, max_size=50))
def test_lsm_flush_compact_preserves_everything(pairs):
    machine = Machine.paper_default(cores=1)
    tree = LsmTree(machine, TINY)
    for key, value in pairs.items():
        tree.upsert(key, value)
    tree.flush_memtable()
    for level in range(4):
        tree.compact_level(level)
    for key, value in pairs.items():
        assert tree.get(key) == value
