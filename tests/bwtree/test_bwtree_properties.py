"""Property-based tests: the Bw-tree behaves exactly like a dict.

Hypothesis drives random operation sequences against a shadow model,
across both uncapped and eviction-heavy cache configurations — the
configuration space where the delta-chain / flush / fetch machinery has
historically hidden bugs.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine

keys = st.binary(min_size=1, max_size=12)
values = st.binary(min_size=0, max_size=60)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
        st.tuples(st.just("get"), keys, st.just(b"")),
    ),
    max_size=120,
)


def run_against_model(ops, config: BwTreeConfig) -> None:
    machine = Machine.paper_default(cores=1)
    tree = BwTree(machine, config)
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
    # Final full verification, point and scan.
    for key, value in model.items():
        assert tree.get(key) == value
    assert list(tree.scan(b"\x00")) == sorted(model.items())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_uncapped_tree_matches_dict(ops):
    run_against_model(ops, BwTreeConfig(segment_bytes=1 << 14))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
def test_eviction_heavy_tree_matches_dict(ops):
    """A pathologically small cache: nearly every read is an SS op."""
    run_against_model(ops, BwTreeConfig(
        cache_capacity_bytes=2048,
        segment_bytes=1 << 12,
        consolidate_threshold=3,
        max_flash_fragments=2,
    ))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, seed=st.integers(0, 2**16))
def test_checkpoint_gc_preserves_model(ops, seed):
    """Interleave checkpoints and GC with operations; contents survive."""
    machine = Machine.paper_default(cores=1)
    tree = BwTree(machine, BwTreeConfig(
        cache_capacity_bytes=4096, segment_bytes=1 << 12,
    ))
    model: dict = {}
    for index, (kind, key, value) in enumerate(ops):
        if kind == "upsert":
            tree.upsert(key, value)
            model[key] = value
        elif kind == "delete":
            tree.delete(key)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
        if index % 17 == seed % 17:
            tree.checkpoint()
        if index % 29 == seed % 29:
            tree.gc.run_until_utilization(0.9, max_passes=5)
    for key, value in model.items():
        assert tree.get(key) == value


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs=st.dictionaries(keys, values, max_size=60),
       start=keys, end=keys)
def test_scan_matches_sorted_slice(pairs, start, end):
    machine = Machine.paper_default(cores=1)
    tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 14))
    for key, value in pairs.items():
        tree.upsert(key, value)
    lo, hi = (start, end) if start <= end else (end, start)
    got = list(tree.scan(lo, hi))
    want = [(k, pairs[k]) for k in sorted(pairs) if lo <= k < hi]
    assert got == want
