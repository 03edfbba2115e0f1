"""Page byte totals are maintained incrementally, never re-summed.

``DataPageState`` keeps its base/delta byte totals up to date in its
constructor and mutation methods, which makes ``PageCache.resize`` O(1)
per posted delta.  These tests pin the totals to a from-scratch
recomputation, the no-re-sum property as a call count, and the rule that
keeps the totals from going stale: nobody outside ``pages.py`` writes
``base`` or ``deltas``.
"""

from __future__ import annotations

import pathlib
import re

import hypothesis.strategies as st
from hypothesis import given, settings

import repro
from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.hardware import Machine
from repro.storage import (
    PAGE_HEADER_BYTES,
    DataPageState,
    DeltaKind,
    Record,
    RecordDelta,
)
from repro.storage.cache import DRAM_TAG
from repro.workloads import OpKind, WorkloadGenerator, WorkloadSpec

KEYS = st.sampled_from([b"a", b"bb", b"ccc", b"dddd", b"eeeee"])
VALUES = st.binary(max_size=20)
RECORDS = st.dictionaries(KEYS, VALUES, max_size=5).map(
    lambda items: [Record(key, items[key]) for key in sorted(items)])
PAGE_OPS = st.lists(st.one_of(
    st.tuples(st.just("upsert"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("consolidate")),
    st.tuples(st.just("drop_base")),
    st.tuples(st.just("install_base"), RECORDS),
    st.tuples(st.just("replace_base"), RECORDS),
    st.tuples(st.just("rebuild"), RECORDS),
), max_size=40)


def assert_sizes_match_recomputation(state: DataPageState) -> None:
    base = 0 if state.base is None else (
        PAGE_HEADER_BYTES + sum(r.size_bytes for r in state.base))
    deltas = sum(d.size_bytes for d in state.deltas)
    assert state.base_size_bytes == base
    assert state.delta_size_bytes == deltas
    assert state.resident_size_bytes == base + deltas
    if state.base is not None:
        assert state.full_image().size_bytes == base


@settings(max_examples=200, deadline=None)
@given(ops=PAGE_OPS)
def test_sizes_equal_recomputation_after_every_mutation(ops):
    state = DataPageState(1)
    for op in ops:
        if op[0] == "upsert":
            state.prepend_delta(
                RecordDelta(DeltaKind.UPSERT, op[1], op[2]))
        elif op[0] == "delete":
            state.prepend_delta(RecordDelta(DeltaKind.DELETE, op[1]))
        elif op[0] == "consolidate":
            if state.base_present:
                assert state.consolidate() == state.base_size_bytes
        elif op[0] == "drop_base":
            before = state.base_size_bytes
            assert state.drop_base() == before
        elif op[0] == "install_base":
            assert state.install_base(op[1]) == state.base_size_bytes
        elif op[0] == "replace_base":
            assert state.replace_base(op[1]) == state.base_size_bytes
        else:
            # What a full-chain fetch does: a new state around a fetched
            # base and the merged delta list.
            state = DataPageState(1, base=op[1], deltas=list(state.deltas))
        assert_sizes_match_recomputation(state)


def test_prepend_delta_never_sizes_the_base(monkeypatch):
    """Complexity guard as a call count: posting a delta to a
    1,000-record page sizes the delta, not the page."""
    state = DataPageState(7, base=[
        Record(b"key%06d" % index, b"v" * 50) for index in range(1000)
    ])
    calls = []
    record_size = Record.size_bytes.fget
    monkeypatch.setattr(
        Record, "size_bytes",
        property(lambda self: calls.append(1) or record_size(self)))
    before = state.resident_size_bytes
    delta = RecordDelta(DeltaKind.UPSERT, b"key000500", b"new")
    state.prepend_delta(delta)
    assert state.resident_size_bytes == before + delta.size_bytes
    assert calls == []


def test_only_pages_module_writes_base_and_deltas():
    """The cached totals cannot go stale while ``DataPageState`` is the
    sole writer of ``base``/``deltas``: no other module assigns them or
    mutates the lists in place."""
    write = re.compile(
        r"\.(?:base|deltas)\s*(?:[-+*|&]?=(?!=)"
        r"|\.(?:append|extend|insert|pop|remove|clear|sort|reverse)\()"
        r"|\bdel\s+[\w.]+\.(?:base|deltas)\b")
    package = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "pages.py" and path.parent.name == "storage":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            # ``self.base = OperationCostModel(...)`` in core/technology
            # is a cost model attribute, not a page state.
            if write.search(code) and "OperationCostModel" not in code:
                offenders.append(f"{path.relative_to(package)}:{number}: "
                                 f"{line.strip()}")
    assert offenders == []


def _assert_residency_reconciles(engine: DeuteronomyEngine) -> None:
    tree = engine.dc
    tracked = sum(tree.cache._resident.values())
    assert tracked == tree.mapping_table.resident_bytes()
    assert tracked == engine.machine.dram.bytes_for(DRAM_TAG)
    for entry in tree.mapping_table.entries():
        if entry.state is not None:
            assert_sizes_match_recomputation(entry.state)


def test_cache_accounting_reconciles_through_eviction_gc_and_recovery():
    """Seeded YCSB-A over a cache a fraction of the data, record-cache
    mode on (evictions keep deltas, ``drop_base``), with checkpoints,
    segment GC and a crash: the three views of page-cache bytes agree."""
    spec = WorkloadSpec.ycsb_a(record_count=1500, seed=5)
    generator = WorkloadGenerator(spec)
    engine = DeuteronomyEngine(
        Machine.paper_default(cores=1),
        tree_config=BwTreeConfig(
            cache_capacity_bytes=48 * 1024, record_cache=True,
            segment_bytes=1 << 15),
        tc_config=TcConfig(sync_commit=True, version_gc_horizon_lag=64),
    )
    engine.multi_put(generator.load_items())
    engine.checkpoint()
    _assert_residency_reconciles(engine)
    operations = list(generator.operations(6000))
    for start in range(0, len(operations), 500):
        for op in operations[start:start + 500]:
            if op.kind is OpKind.READ:
                engine.get(op.key)
            else:
                engine.put(op.key, op.value)
        _assert_residency_reconciles(engine)
        if start == 2000:
            engine.checkpoint()
            engine.collect_garbage()
            _assert_residency_reconciles(engine)
        if start == 4000:
            before_crash = engine.dc.cache.stats
            assert before_crash.evictions > 0
            assert before_crash.record_cache_retained > 0
            engine.checkpoint()
            engine = DeuteronomyEngine.recover(engine)
            _assert_residency_reconciles(engine)
    assert engine.dc.cache.stats.evictions > 0
