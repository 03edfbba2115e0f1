"""Property tests: MassTree matches a dict across arbitrary byte keys."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.hardware import Machine
from repro.masstree import MassTree

# Long keys with shared prefixes force trie-layer promotion.
keys = st.one_of(
    st.binary(min_size=1, max_size=6),
    st.binary(min_size=7, max_size=10),
    st.builds(lambda tail: b"prefix__" + tail,
              st.binary(min_size=0, max_size=12)),
    st.builds(lambda tail: b"prefix__prefix__" + tail,
              st.binary(min_size=0, max_size=6)),
)
values = st.binary(min_size=0, max_size=40)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
        st.tuples(st.just("get"), keys, st.just(b"")),
    ),
    max_size=150,
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_masstree_matches_dict(ops):
    machine = Machine.paper_default(cores=1)
    tree = MassTree(machine)
    model: dict = {}
    for kind, key, value in ops:
        if kind == "upsert":
            tree.upsert(key, value)
            model[key] = value
        elif kind == "delete":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
    assert len(tree) == len(model)
    # Every key the ops touched, deleted ones included, reads as the model.
    for __, key, __ in ops:
        assert tree.get(key) == model.get(key)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs=st.dictionaries(keys, values, max_size=80))
def test_masstree_count_and_footprint_consistent(pairs):
    machine = Machine.paper_default(cores=1)
    tree = MassTree(machine)
    for key, value in pairs.items():
        tree.upsert(key, value)
    assert len(tree) == len(pairs)
    assert tree.dram_footprint_bytes() == machine.dram.bytes_for("masstree")
    for key in pairs:
        assert tree.delete(key)
    assert len(tree) == 0
